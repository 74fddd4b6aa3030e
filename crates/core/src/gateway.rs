//! Client ingress gateway: the RPC front-end of the consortium
//! (DESIGN.md §10).
//!
//! Clients connect over TCP and speak length-framed canonical-codec
//! messages: `[u32 length LE][GatewayRequest bytes]` up to
//! [`MAX_FRAME`]. The gateway owns the admission path the paper's
//! million-user population needs:
//!
//! 1. **Dedup before signature work** — a re-submitted transaction id is
//!    answered from the gateway's bounded seen-window (or with its
//!    committed receipt) without touching signature state, so one-time
//!    signature schemes are never double-verified.
//! 2. **Batched verification** — fresh transactions are verified in
//!    parallel chunks across a worker pool
//!    ([`medchain_runtime::sync::scoped_map`]), amortizing per-batch
//!    overhead.
//! 3. **Lane routing** — a client may request priority; the gateway
//!    grants it only when the transaction's gas limit clears
//!    [`GatewayConfig::priority_gas_floor`] (the fee-style policy), and
//!    admission goes through the mempool's lane-aware API.
//! 4. **Receipts as API** — a `Status` query for a committed
//!    transaction returns a [`TxReceipt`] whose Merkle proof the client
//!    verifies against the committed transaction root, so the gateway
//!    never has to be trusted about inclusion.
//!
//! The server is transport-only: it buffers decoded requests and the
//! network that owns it calls [`GatewayServer::pump`] between consensus
//! rounds with itself as the [`GatewayBackend`].

use medchain_chain::node::SubmitOutcome;
use medchain_chain::receipt::TxReceipt;
use medchain_chain::{
    Block, Hash256, KeyRegistry, Lane, LeafKey, SealedTx, ShardId, StateProof, Transaction,
};
use medchain_storage::{SnapshotChunk, SnapshotManifest};
use medchain_runtime::codec::{Decode, Encode};
use medchain_runtime::metrics::Metrics;
use medchain_runtime::sync::scoped_map;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Maximum gateway frame payload (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Gateway tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Client keys the builder enrolls into the consortium registry
    /// (seeds `0x1000_0000..`), retrievable via the network's
    /// `client_keys()` accessor.
    pub clients: usize,
    /// Worker threads for batched signature verification.
    pub verify_workers: usize,
    /// Maximum submissions processed per [`GatewayServer::pump`] call.
    pub max_batch: usize,
    /// Size of the bounded recently-seen tx-id window used for dedup
    /// before signature work.
    pub dedup_capacity: usize,
    /// Minimum gas limit for a requested priority upgrade to be granted
    /// (the fee-based lane policy).
    pub priority_gas_floor: u64,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            clients: 64,
            verify_workers: 4,
            max_batch: 256,
            dedup_capacity: 8_192,
            priority_gas_floor: 10_000,
        }
    }
}

/// A client-to-gateway message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayRequest {
    /// Submit a signed transaction; `priority` requests the priority
    /// lane (granted only above the gateway's gas floor).
    Submit {
        /// The signed transaction.
        tx: Transaction,
        /// Whether the client requests the priority lane.
        priority: bool,
    },
    /// Ask what happened to a previously submitted transaction.
    Status {
        /// The transaction id being queried.
        tx_id: Hash256,
    },
    /// Ask the coordinator's commit/abort verdict for a cross-shard
    /// transaction (two-phase commit, DESIGN.md §12).
    XsStatus {
        /// The cross-shard transaction id being queried.
        xid: Hash256,
    },
    /// Light-client state read: the value at `key` plus a sparse-Merkle
    /// inclusion/absence proof against the serving chain's tip root
    /// (DESIGN.md §13).
    Query {
        /// The state entry being queried.
        key: LeafKey,
        /// Pin the query to a specific sub-chain instead of the key's
        /// home shard — e.g. to obtain an *absence* proof from a shard
        /// the key does not route to. `None` = home shard.
        shard: Option<ShardId>,
    },
    /// Ask for the newest streamable snapshot of one sub-chain
    /// (bootstrap-from-peer, DESIGN.md §14).
    SnapshotInfo {
        /// The sub-chain being bootstrapped.
        shard: ShardId,
    },
    /// Fetch one chunk of an advertised snapshot.
    SnapshotChunk {
        /// The sub-chain the manifest came from.
        shard: ShardId,
        /// Height of the manifest being fetched.
        height: u64,
        /// Chunk index in `0..manifest.chunk_count`.
        index: u32,
    },
    /// Fetch committed blocks at and above `height` — the WAL-tail
    /// catch-up after a snapshot install. Responses are paged to the
    /// frame cap; the client re-requests from the next height.
    BlocksFrom {
        /// The sub-chain being caught up.
        shard: ShardId,
        /// First height wanted.
        height: u64,
    },
}

/// A gateway-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayResponse {
    /// The transaction passed verification and entered the mempool.
    Accepted {
        /// The transaction id.
        tx_id: Hash256,
        /// The sub-chain it was routed to.
        shard: ShardId,
        /// The lane it was queued on.
        lane: Lane,
    },
    /// The transaction was not admitted.
    Rejected {
        /// The transaction id.
        tx_id: Hash256,
        /// Why admission failed.
        reason: String,
    },
    /// Known but not yet committed.
    Pending {
        /// The transaction id.
        tx_id: Hash256,
    },
    /// Committed: the proof-carrying receipt.
    Committed {
        /// The receipt with its Merkle inclusion proof.
        receipt: TxReceipt,
    },
    /// The gateway has never seen this transaction id.
    Unknown {
        /// The transaction id.
        tx_id: Hash256,
    },
    /// The proof-carrying answer to a [`GatewayRequest::Query`]: claimed
    /// value (or absence) plus the Merkle path clients verify with
    /// [`StateProof::verify_against`] against an independently obtained
    /// header root.
    Proven {
        /// The complete state proof.
        proof: StateProof,
    },
    /// Answer to [`GatewayRequest::SnapshotInfo`]: the newest
    /// streamable snapshot's manifest, or `None` when the backend has
    /// none to offer (no snapshot taken yet, or streaming unsupported).
    SnapshotOffer {
        /// The manifest the joiner should assemble against.
        manifest: Option<SnapshotManifest>,
    },
    /// Answer to [`GatewayRequest::SnapshotChunk`]: the chunk, or
    /// `None` when the requested height/index is not being served
    /// (e.g. the snapshot was pruned — re-request the manifest).
    SnapshotPiece {
        /// The self-describing, CRC-framed chunk.
        chunk: Option<SnapshotChunk>,
    },
    /// Answer to [`GatewayRequest::BlocksFrom`]: a frame-bounded page
    /// of committed blocks plus the server's tip height, so the client
    /// knows whether to keep paging.
    Blocks {
        /// The serving chain's current tip height.
        tip_height: u64,
        /// Consecutive committed blocks starting at the requested
        /// height (possibly truncated to fit the frame; empty when the
        /// height is above the tip or already pruned from memory).
        blocks: Vec<Block>,
    },
    /// The coordinator's verdict on a cross-shard transaction.
    XsDecision {
        /// The cross-shard transaction id.
        xid: Hash256,
        /// Whether the coordinator has recorded a decision yet.
        decided: bool,
        /// The decision (meaningful only when `decided`): `true` =
        /// commit, `false` = abort.
        commit: bool,
        /// The proof-carrying receipt of the coordinator's decision
        /// transaction, when it is still retrievable.
        receipt: Option<TxReceipt>,
    },
}

mod codec_impls {
    use super::{GatewayRequest, GatewayResponse};
    use medchain_runtime::impl_codec_enum;

    impl_codec_enum!(GatewayRequest {
        0 => Submit { tx, priority },
        1 => Status { tx_id },
        2 => XsStatus { xid },
        3 => Query { key, shard },
        4 => SnapshotInfo { shard },
        5 => SnapshotChunk { shard, height, index },
        6 => BlocksFrom { shard, height },
    });
    impl_codec_enum!(GatewayResponse {
        0 => Accepted { tx_id, shard, lane },
        1 => Rejected { tx_id, reason },
        2 => Pending { tx_id },
        3 => Committed { receipt },
        4 => Unknown { tx_id },
        5 => XsDecision { xid, decided, commit, receipt },
        6 => Proven { proof },
        7 => SnapshotOffer { manifest },
        8 => SnapshotPiece { chunk },
        9 => Blocks { tip_height, blocks },
    });
}

/// Writes one `[u32 len LE][payload]` frame.
pub(crate) fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf)
}

/// Incremental frame parser over a non-blocking / timeout-read stream.
///
/// Feed it raw reads; it hands back complete frames, tolerating frames
/// split across arbitrary read boundaries.
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    pub(crate) fn new() -> FrameBuffer {
        FrameBuffer { buf: Vec::new() }
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// Returns an error if the declared frame length exceeds
    /// [`MAX_FRAME`] — the connection is unrecoverable at that point.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds {MAX_FRAME}"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

/// Reads request frames from `stream` until EOF, a read error, `stop`,
/// or `handle` returning `false` (its consumer is gone). A frame over
/// [`MAX_FRAME`] or a payload that does not decode ends the connection:
/// the peer is not speaking the protocol.
pub(crate) fn read_requests(
    mut stream: TcpStream,
    stop: &AtomicBool,
    mut handle: impl FnMut(GatewayRequest) -> bool,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 8192];
    while !stop.load(Ordering::Relaxed) {
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer hung up
            Ok(n) => {
                frames.extend(&chunk[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(Some(payload)) => {
                            let Ok(request) = GatewayRequest::decoded(&payload) else { return };
                            if !handle(request) {
                                return;
                            }
                        }
                        Ok(None) => break,
                        Err(_) => return, // oversized frame
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
}

/// What a network must provide for the gateway to admit traffic and
/// answer status queries. Implemented by `MedicalNetwork` (single chain)
/// and `ShardedNetwork` (routes by [`medchain_chain::shard_for_tx`]).
pub trait GatewayBackend {
    /// The consortium registry used for batched signature verification.
    fn registry(&self) -> &KeyRegistry;

    /// Admits a sealed transaction whose signature the caller already
    /// verified, returning the sub-chain it was routed to and the
    /// admission outcome. The allocation handed in is the one every
    /// replica's pool, the proposal and the ledgers will share.
    fn admit(&mut self, tx: SealedTx, lane: Lane) -> (ShardId, SubmitOutcome);

    /// [`GatewayBackend::admit`] for a caller holding a plain
    /// [`Transaction`]: sealing it here is the one time it is hashed.
    fn admit_verified(&mut self, tx: Transaction, lane: Lane) -> (ShardId, SubmitOutcome) {
        self.admit(tx.into(), lane)
    }

    /// The proof-carrying receipt of a committed transaction, if any.
    fn find_receipt(&self, tx_id: &Hash256) -> Option<TxReceipt>;

    /// Whether the transaction id is pending in a mempool.
    fn is_pending(&self, tx_id: &Hash256) -> bool;

    /// The coordinator's verdict on a cross-shard transaction:
    /// `Some((commit, decision_receipt))` once decided, `None` while
    /// undecided. Backends without a coordinator chain (single-chain
    /// networks) keep the default: never decided.
    fn xs_status(&self, xid: &Hash256) -> Option<(bool, Option<TxReceipt>)> {
        let _ = xid;
        None
    }

    /// Proof-carrying state read (DESIGN.md §13): resolves `key` on its
    /// home shard — or on `shard` when the client pins one, e.g. for a
    /// cross-shard absence proof — and returns the value plus its
    /// Merkle path against that chain's tip root. Backends that cannot
    /// serve authenticated state keep the default: unsupported.
    fn query_state(&self, key: &LeafKey, shard: Option<ShardId>) -> Option<StateProof> {
        let _ = (key, shard);
        None
    }

    /// The newest streamable snapshot manifest for `shard`, building
    /// (and caching) the snapshot payload if needed. Backends that do
    /// not serve bootstrap streams keep the default: none offered
    /// (DESIGN.md §14).
    fn snapshot_manifest(&mut self, shard: ShardId) -> Option<SnapshotManifest> {
        let _ = shard;
        None
    }

    /// One chunk of a snapshot previously advertised by
    /// [`GatewayBackend::snapshot_manifest`]. `None` if that snapshot
    /// is no longer being served (the client re-requests the manifest).
    fn snapshot_chunk(&mut self, shard: ShardId, height: u64, index: u32) -> Option<SnapshotChunk> {
        let _ = (shard, height, index);
        None
    }

    /// Committed blocks of `shard` at and above `height` (oldest
    /// first), plus the chain's tip height — the WAL-tail feed after a
    /// snapshot install. The gateway truncates to the frame cap, so
    /// backends return what they retain and let paging do the rest.
    fn blocks_from(&mut self, shard: ShardId, height: u64) -> Option<(u64, Vec<Block>)> {
        let _ = (shard, height);
        None
    }
}

/// Per-pump summary, for callers that drive the serve loop themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    /// Submissions processed (after dedup).
    pub submitted: usize,
    /// Transactions admitted into a mempool.
    pub accepted: usize,
    /// Transactions rejected (bad signature, full pool, bad nonce).
    pub rejected: usize,
    /// Re-submissions answered without signature work.
    pub dedup_hits: usize,
    /// Status queries answered.
    pub status_queries: usize,
}

/// Bounded recently-seen window: O(1) membership plus FIFO eviction.
struct SeenWindow {
    set: HashSet<Hash256>,
    order: VecDeque<Hash256>,
    capacity: usize,
}

impl SeenWindow {
    fn new(capacity: usize) -> SeenWindow {
        SeenWindow { set: HashSet::new(), order: VecDeque::new(), capacity: capacity.max(1) }
    }

    fn contains(&self, id: &Hash256) -> bool {
        self.set.contains(id)
    }

    fn insert(&mut self, id: Hash256) {
        if self.set.insert(id) {
            self.order.push_back(id);
            while self.order.len() > self.capacity {
                let evicted = self.order.pop_front().expect("non-empty");
                self.set.remove(&evicted);
            }
        }
    }
}

/// Bounded holding pen for transactions that passed signature
/// verification but bounced off a full mempool. A resubmission of a
/// held id retries admission directly — the (one-time) signature is
/// never re-verified. Only the verified bytes are cached: the lane is
/// re-derived from the *retry* request's priority flag through the same
/// gas-floor policy as a fresh submission, so a retry can neither
/// escalate nor inherit a stale priority grant. FIFO-bounded like
/// [`SeenWindow`]; an evicted entry simply costs the client one fresh
/// verification on its next retry.
struct VerifiedCache {
    entries: HashMap<Hash256, SealedTx>,
    order: VecDeque<Hash256>,
    capacity: usize,
}

impl VerifiedCache {
    fn new(capacity: usize) -> VerifiedCache {
        VerifiedCache { entries: HashMap::new(), order: VecDeque::new(), capacity: capacity.max(1) }
    }

    fn insert(&mut self, id: Hash256, tx: SealedTx) {
        if self.entries.insert(id, tx).is_none() {
            self.order.push_back(id);
            while self.order.len() > self.capacity {
                let evicted = self.order.pop_front().expect("non-empty");
                self.entries.remove(&evicted);
            }
        }
    }

    fn take(&mut self, id: &Hash256) -> Option<SealedTx> {
        // The id stays in `order` until an eviction sweep pops it;
        // removing an already-taken id there is a no-op.
        self.entries.remove(id)
    }
}

/// What a connection's reader thread hands the serve thread: a
/// submission sealed where it was decoded — its one id hash is paid on
/// the reader thread, so [`GatewayServer::pump`] never hashes a
/// transaction — or any other request as it arrived.
enum Inbound {
    Submit { tx: SealedTx, priority: bool },
    Other(GatewayRequest),
}

impl From<GatewayRequest> for Inbound {
    fn from(request: GatewayRequest) -> Inbound {
        match request {
            GatewayRequest::Submit { tx, priority } => Inbound::Submit { tx: tx.into(), priority },
            other => Inbound::Other(other),
        }
    }
}

/// The TCP ingress server. Owns the listener, per-connection reader
/// threads, and the dedup window; admission happens when the owning
/// network calls [`GatewayServer::pump`].
pub struct GatewayServer {
    config: GatewayConfig,
    addr: SocketAddr,
    inbox: Receiver<(u64, Inbound)>,
    writers: Arc<Mutex<HashMap<u64, TcpStream>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    seen: SeenWindow,
    verified: VerifiedCache,
    metrics: Metrics,
}

impl std::fmt::Debug for GatewayServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayServer").field("addr", &self.addr).finish()
    }
}

impl GatewayServer {
    /// Binds a listener on an OS-assigned loopback port and starts
    /// accepting client connections.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the loopback listener cannot start.
    pub fn start(config: GatewayConfig, metrics: Metrics) -> io::Result<GatewayServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (tx, rx) = channel();
        let writers: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let writers = Arc::clone(&writers);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut next_conn = 0u64;
                let mut readers = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn = next_conn;
                            next_conn += 1;
                            // Responses are single small frames: send
                            // them now, not when Nagle's timer fires.
                            let _ = stream.set_nodelay(true);
                            if let Ok(write_half) = stream.try_clone() {
                                writers.lock().expect("writer map").insert(conn, write_half);
                            }
                            let tx = tx.clone();
                            let stop = Arc::clone(&stop);
                            readers.push(std::thread::spawn(move || {
                                read_requests(stream, &stop, |req| tx.send((conn, req.into())).is_ok())
                            }));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                for handle in readers {
                    let _ = handle.join();
                }
            })
        };
        let seen = SeenWindow::new(config.dedup_capacity);
        let verified = VerifiedCache::new(config.dedup_capacity);
        Ok(GatewayServer {
            config,
            addr,
            inbox: rx,
            writers,
            stop,
            acceptor: Some(acceptor),
            seen,
            verified,
            metrics,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway's configuration.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Drains buffered client requests (up to `max_batch` submissions),
    /// batch-verifies fresh signatures across the worker pool, admits
    /// them through `backend`, and writes responses back to clients.
    pub fn pump(&mut self, backend: &mut dyn GatewayBackend) -> PumpReport {
        let mut report = PumpReport::default();
        let mut responses: Vec<(u64, GatewayResponse)> = Vec::new();
        // (conn, tx, priority-requested) for fresh submissions.
        let mut fresh: Vec<(u64, SealedTx, bool)> = Vec::new();
        while fresh.len() < self.config.max_batch {
            let Ok((conn, inbound)) = self.inbox.try_recv() else { break };
            self.metrics.counter("gateway.requests", 1);
            let (tx, priority) = match inbound {
                Inbound::Submit { tx, priority } => (tx, priority),
                Inbound::Other(request) => {
                    report.status_queries += 1;
                    responses.push((conn, self.answer(backend, request)));
                    continue;
                }
            };
            let tx_id = tx.id();
            // Dedup BEFORE signature work: a retried submission
            // gets its current status, and a one-time signature
            // is never verified twice (see `ChainApp::submit_in`).
            if self.seen.contains(&tx_id) {
                report.dedup_hits += 1;
                self.metrics.counter("gateway.dedup_hits", 1);
                responses.push((conn, Self::status_of(backend, &self.seen, tx_id)));
            } else if let Some(cached) = self.verified.take(&tx_id) {
                // Verified earlier but bounced off a full pool:
                // retry admission on the cached copy — the
                // one-time signature is NOT re-verified, but the
                // lane is re-derived from *this* request's
                // priority flag (plus the gas-floor policy in
                // `admit_verified_tx`), exactly as if fresh.
                report.submitted += 1;
                self.metrics.counter("gateway.cached_retries", 1);
                self.admit_verified_tx(
                    backend,
                    conn,
                    cached,
                    priority,
                    &mut report,
                    &mut responses,
                );
            } else {
                fresh.push((conn, tx, priority));
            }
        }

        if !fresh.is_empty() {
            report.submitted += fresh.len();
            self.metrics.counter("gateway.submits", fresh.len() as u64);
            self.metrics.observe("gateway.batch_size", fresh.len() as f64);
            self.metrics.counter("gateway.sig_batches", 1);
            // Batched verification: chunk the batch across the worker
            // pool; each worker verifies its slice against the shared
            // registry. The handles are shared, not copied, and a
            // transaction that passes is marked so no replica checks
            // that allocation again.
            let registry = backend.registry();
            let workers = self.config.verify_workers.max(1);
            let chunk_size = fresh.len().div_ceil(workers);
            let verdicts: Vec<bool> = scoped_map(fresh.chunks(chunk_size).collect(), |chunk| {
                chunk.iter().map(|(_, tx, _)| tx.verify(registry)).collect::<Vec<bool>>()
            })
            .into_iter()
            .flatten()
            .collect();
            self.metrics.counter("gateway.sig_checks", fresh.len() as u64);

            for ((conn, tx, priority), verified) in fresh.into_iter().zip(verdicts) {
                if !verified {
                    report.rejected += 1;
                    self.metrics.counter("gateway.sig_rejects", 1);
                    responses.push((
                        conn,
                        GatewayResponse::Rejected { tx_id: tx.id(), reason: "bad signature".into() },
                    ));
                    continue;
                }
                self.admit_verified_tx(backend, conn, tx, priority, &mut report, &mut responses);
            }
        }

        if !responses.is_empty() {
            let mut writers = self.writers.lock().expect("writer map");
            for (conn, response) in responses {
                let Some(stream) = writers.get_mut(&conn) else { continue };
                if write_frame(stream, &response.encoded()).is_err() {
                    writers.remove(&conn);
                }
            }
        }
        report
    }

    /// Answers a request that is not a submission.
    fn answer(&self, backend: &mut dyn GatewayBackend, request: GatewayRequest) -> GatewayResponse {
        match request {
            GatewayRequest::Status { tx_id } => Self::status_of(backend, &self.seen, tx_id),
            GatewayRequest::XsStatus { xid } => match backend.xs_status(&xid) {
                Some((commit, receipt)) => {
                    GatewayResponse::XsDecision { xid, decided: true, commit, receipt }
                }
                None => GatewayResponse::XsDecision {
                    xid,
                    decided: false,
                    commit: false,
                    receipt: None,
                },
            },
            GatewayRequest::Query { key, shard } => {
                self.metrics.counter("gateway.state_queries", 1);
                match backend.query_state(&key, shard) {
                    Some(proof) => GatewayResponse::Proven { proof },
                    // No tx id is in play for a state read; the
                    // zero id marks the rejection as non-tx-scoped.
                    None => GatewayResponse::Rejected {
                        tx_id: Hash256::ZERO,
                        reason: "state query unsupported or shard unknown".into(),
                    },
                }
            }
            GatewayRequest::SnapshotInfo { shard } => {
                self.metrics.counter("gateway.snapshot_info", 1);
                GatewayResponse::SnapshotOffer { manifest: backend.snapshot_manifest(shard) }
            }
            GatewayRequest::SnapshotChunk { shard, height, index } => {
                self.metrics.counter("gateway.snapshot_chunks", 1);
                GatewayResponse::SnapshotPiece { chunk: backend.snapshot_chunk(shard, height, index) }
            }
            GatewayRequest::BlocksFrom { shard, height } => {
                self.metrics.counter("gateway.block_pages", 1);
                match backend.blocks_from(shard, height) {
                    Some((tip_height, blocks)) => Self::bounded_blocks(tip_height, blocks),
                    None => GatewayResponse::Rejected {
                        tx_id: Hash256::ZERO,
                        reason: "block streaming unsupported or shard unknown".into(),
                    },
                }
            }
            // `Inbound::from` seals every `Submit` a reader decodes, so
            // none arrives here; one that did is refused, not admitted
            // around the dedup and verification above.
            GatewayRequest::Submit { .. } => GatewayResponse::Rejected {
                tx_id: Hash256::ZERO,
                reason: "submission outside the admission path".into(),
            },
        }
    }

    /// Routes one verified transaction through the lane policy and
    /// backend admission, recording the outcome. Shared by the fresh
    /// batch path and the verified-cache retry path; a `Full` outcome
    /// parks the transaction in the cache so its signature is never
    /// verified again.
    fn admit_verified_tx(
        &mut self,
        backend: &mut dyn GatewayBackend,
        conn: u64,
        tx: SealedTx,
        priority: bool,
        report: &mut PumpReport,
        responses: &mut Vec<(u64, GatewayResponse)>,
    ) {
        let tx_id = tx.id();
        // Fee-style lane policy: priority is granted only when
        // requested AND the gas limit clears the floor.
        let lane = if priority && tx.gas_limit >= self.config.priority_gas_floor {
            Lane::Priority
        } else {
            Lane::Normal
        };
        let (shard, outcome) = backend.admit(tx.clone(), lane);
        match outcome {
            SubmitOutcome::Admitted { lane, .. } => {
                report.accepted += 1;
                self.seen.insert(tx_id);
                self.metrics.counter("gateway.accepted", 1);
                if lane == Lane::Priority {
                    self.metrics.counter("gateway.priority_admitted", 1);
                }
                responses.push((conn, GatewayResponse::Accepted { tx_id, shard, lane }));
            }
            SubmitOutcome::Duplicate => {
                // Already pending on the backend (e.g. submitted
                // through the in-process API): treat as seen.
                report.dedup_hits += 1;
                self.seen.insert(tx_id);
                self.metrics.counter("gateway.dedup_hits", 1);
                responses.push((conn, GatewayResponse::Pending { tx_id }));
            }
            SubmitOutcome::Full => {
                report.rejected += 1;
                self.metrics.counter("gateway.full_rejects", 1);
                // The signature work is already spent: park the
                // verified transaction so a resubmission retries
                // admission without re-verifying (one-time signatures
                // must never be checked twice).
                self.verified.insert(tx_id, tx);
                responses.push((
                    conn,
                    GatewayResponse::Rejected { tx_id, reason: "mempool full".into() },
                ));
            }
            SubmitOutcome::Inadmissible => {
                report.rejected += 1;
                self.metrics.counter("gateway.inadmissible", 1);
                responses.push((
                    conn,
                    GatewayResponse::Rejected { tx_id, reason: "bad nonce".into() },
                ));
            }
        }
    }

    /// Truncates a block page until the encoded response fits one
    /// gateway frame — the client sees fewer blocks than the tip and
    /// simply re-requests from the next height (a single block larger
    /// than the frame cannot exist: block bodies are bounded well below
    /// [`MAX_FRAME`] by consensus batch limits, but an empty page is
    /// still returned rather than an oversized frame).
    pub(crate) fn bounded_blocks(tip_height: u64, mut blocks: Vec<Block>) -> GatewayResponse {
        // Envelope: tag byte + tip_height u64 + vec length prefix.
        let envelope = 1 + 8 + 4;
        let mut size = envelope + blocks.iter().map(Block::wire_size).sum::<usize>();
        while size > MAX_FRAME {
            let dropped = blocks.pop().expect("envelope alone fits a frame");
            size -= dropped.wire_size();
        }
        GatewayResponse::Blocks { tip_height, blocks }
    }

    /// Status lookup order is a durability contract: the committed
    /// receipt is consulted *first*, so a committed transaction keeps
    /// answering `Committed` even after its id ages out of the bounded
    /// seen-window — the window only widens `Pending`, it never gates
    /// `Committed`. Regression-tested in `tests/gateway.rs`
    /// (`committed_status_survives_seen_window_eviction`).
    fn status_of(
        backend: &dyn GatewayBackend,
        seen: &SeenWindow,
        tx_id: Hash256,
    ) -> GatewayResponse {
        if let Some(receipt) = backend.find_receipt(&tx_id) {
            GatewayResponse::Committed { receipt }
        } else if backend.is_pending(&tx_id) || seen.contains(&tx_id) {
            GatewayResponse::Pending { tx_id }
        } else {
            GatewayResponse::Unknown { tx_id }
        }
    }

    /// Stops the acceptor and reader threads and closes the listener.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.writers.lock().expect("writer map").clear();
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_chain::tx::TxPayload;
    use medchain_chain::AuthorityKey;

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut frames = FrameBuffer::new();
        let payload = b"hello frame".to_vec();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        // Feed one byte at a time: no frame until the last byte lands.
        for (i, byte) in wire.iter().enumerate() {
            frames.extend(&[*byte]);
            let frame = frames.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(frame.is_none(), "premature frame at byte {i}");
            } else {
                assert_eq!(frame.unwrap(), payload);
            }
        }
        assert!(frames.next_frame().unwrap().is_none());
    }

    #[test]
    fn accepted_sockets_have_nodelay_set() {
        let server = GatewayServer::start(GatewayConfig::default(), Metrics::noop()).unwrap();
        let _client = TcpStream::connect(server.addr()).unwrap();
        // The acceptor polls its non-blocking listener; wait for it to
        // register the connection's write half.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(write_half) = server.writers.lock().unwrap().get(&0) {
                assert!(write_half.nodelay().unwrap());
                break;
            }
            assert!(std::time::Instant::now() < deadline, "connection never accepted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn frame_buffer_rejects_oversized_frames() {
        let mut frames = FrameBuffer::new();
        frames.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(frames.next_frame().is_err());
    }

    #[test]
    fn requests_and_responses_round_trip_through_codec() {
        let key = AuthorityKey::from_seed(7);
        let tx = Transaction::new(
            key.address(),
            0,
            TxPayload::Anchor { root: Hash256::digest(b"r"), label: "l".into() },
            1_000,
        )
        .signed(&key);
        let requests = [
            GatewayRequest::Submit { tx: tx.clone(), priority: true },
            GatewayRequest::Status { tx_id: tx.id() },
            GatewayRequest::XsStatus { xid: Hash256::digest(b"xid") },
            GatewayRequest::Query { key: LeafKey::Anchor("l".into()), shard: None },
            GatewayRequest::Query {
                key: LeafKey::Account(key.address()),
                shard: Some(ShardId(1)),
            },
        ];
        for request in requests {
            assert_eq!(GatewayRequest::decoded(&request.encoded()).unwrap(), request);
        }
        let responses = [
            GatewayResponse::Accepted {
                tx_id: tx.id(),
                shard: ShardId(3),
                lane: Lane::Priority,
            },
            GatewayResponse::Rejected { tx_id: tx.id(), reason: "bad signature".into() },
            GatewayResponse::Pending { tx_id: tx.id() },
            GatewayResponse::Unknown { tx_id: tx.id() },
            GatewayResponse::XsDecision {
                xid: Hash256::digest(b"xid"),
                decided: true,
                commit: false,
                receipt: None,
            },
            GatewayResponse::Proven {
                proof: {
                    let mut state = medchain_chain::WorldState::new();
                    state.set_anchor("l", Hash256::digest(b"r"));
                    let tree = medchain_chain::StateTree::from_state(&state);
                    let query = LeafKey::Anchor("l".into());
                    StateProof {
                        key: query.clone(),
                        value: state.leaf_value(&query),
                        proof: tree.prove(&query),
                        state_root: tree.versioned_root(),
                        block_id: Hash256::digest(b"block"),
                        height: 9,
                        shard: ShardId(0),
                    }
                },
            },
        ];
        for response in responses {
            assert_eq!(GatewayResponse::decoded(&response.encoded()).unwrap(), response);
        }
    }

    #[test]
    fn verified_cache_is_bounded_and_take_removes() {
        let key = AuthorityKey::from_seed(7);
        let mk = |n: u64| {
            Transaction::new(
                key.address(),
                n,
                TxPayload::Transfer { to: key.address(), amount: 1 },
                100,
            )
            .signed(&key)
        };
        let mut cache = VerifiedCache::new(2);
        let txs: Vec<SealedTx> = (0..3).map(|n| mk(n).into()).collect();
        cache.insert(txs[0].id(), txs[0].clone());
        cache.insert(txs[1].id(), txs[1].clone());
        cache.insert(txs[2].id(), txs[2].clone()); // evicts txs[0]
        assert!(cache.take(&txs[0].id()).is_none(), "FIFO-evicted");
        let cached = cache.take(&txs[1].id()).expect("still cached");
        assert_eq!(cached, txs[1]);
        assert!(cache.take(&txs[1].id()).is_none(), "take removes");
        assert!(cache.take(&txs[2].id()).is_some());
    }

    #[test]
    fn seen_window_is_bounded_fifo() {
        let mut seen = SeenWindow::new(2);
        let ids: Vec<Hash256> = (0u8..3).map(|i| Hash256::digest(&[i])).collect();
        seen.insert(ids[0]);
        seen.insert(ids[1]);
        assert!(seen.contains(&ids[0]));
        seen.insert(ids[2]); // evicts ids[0]
        assert!(!seen.contains(&ids[0]));
        assert!(seen.contains(&ids[1]));
        assert!(seen.contains(&ids[2]));
    }
}
