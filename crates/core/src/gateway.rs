//! Client ingress gateway: the RPC front-end of the consortium
//! (DESIGN.md §10).
//!
//! Clients connect over TCP and speak length-framed canonical-codec
//! messages: `[u32 length LE][GatewayRequest bytes]` up to 1 MiB
//! (`MAX_FRAME`), framed, read and accepted by
//! [`medchain_transport::frame`], the socket layer consensus shares. A
//! closed connection leaves nothing behind. The gateway owns the
//! admission path the paper's million-user population needs:
//!
//! 1. **Dedup before signature work** — the gateway keeps no memory of
//!    transactions: a submission whose id the chain already knows (a
//!    committed receipt, or the id pending in a pool) is answered with
//!    that status before any signature check, so a retry costs no HMAC
//!    verification and no admission work (`gateway.sig_checks` counts
//!    one check per submission the chain did not know).
//! 2. **Verification on the serve thread** — an unknown submission's
//!    signature is checked inline, then the transaction is admitted.
//! 3. **Lane routing** — a client may request priority; the gateway
//!    grants it only when the transaction's gas limit clears
//!    `PRIORITY_GAS_FLOOR` (10,000; the fee-style policy), and
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
use medchain_transport::frame::{self, write_frame};
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};

/// Maximum gateway frame body (1 MiB).
pub(crate) const MAX_FRAME: usize = 1 << 20;

/// Most submissions one [`GatewayServer::pump`] call takes in.
const MAX_BATCH: usize = 256;

/// Lowest gas limit at which a requested priority lane is granted (the
/// fee-style lane policy).
const PRIORITY_GAS_FLOOR: u64 = 10_000;

/// What the network builder sets up for a gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Client keys the builder enrolls into the consortium registry
    /// (seeds `0x1000_0000..`), retrievable via the network's
    /// `client_keys()` accessor.
    pub clients: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig { clients: 64 }
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
    /// The chain knows nothing of this transaction id: it is neither
    /// committed nor pending.
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

/// What a network must provide for the gateway to admit traffic and
/// answer status queries. Implemented once, by [`crate::Network`], for
/// both topologies: a flat network admits onto its one chain, a sharded
/// one routes by [`medchain_chain::shard_for_tx`]. On either, a client's
/// `CrossLink`, `XsDecide` or `XsFinalize` is refused outright, and so
/// is an `XsPrepare` on a flat network, which has no coordinator to
/// resolve it, or one whose deadline lies more than a fixed window past
/// the coordinator clock.
pub trait GatewayBackend {
    /// The consortium registry submissions' signatures are checked
    /// against.
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
    /// snapshot install. Backends lend the retained suffix as a borrowed
    /// slice; the gateway clones only the page of it that fits one frame,
    /// so a request costs the page, not the chain.
    fn blocks_from(&mut self, shard: ShardId, height: u64) -> Option<(u64, &[Block])> {
        let _ = (shard, height);
        None
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

/// The TCP ingress server. Owns the listener and the per-connection
/// reader threads; admission happens when the owning network calls
/// [`GatewayServer::pump`].
pub struct GatewayServer {
    addr: SocketAddr,
    inbox: Receiver<(u64, Inbound)>,
    writers: Arc<Mutex<HashMap<u64, TcpStream>>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
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
    pub fn start(metrics: Metrics) -> io::Result<GatewayServer> {
        let (tx, rx) = channel();
        let writers: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let serve = {
            let writers = Arc::clone(&writers);
            let stop = Arc::clone(&stop);
            let next_conn = AtomicU64::new(0);
            move |stream: TcpStream| {
                let conn = next_conn.fetch_add(1, Ordering::Relaxed);
                let Ok(write_half) = stream.try_clone() else { return };
                writers.lock().expect("writer map").insert(conn, write_half);
                // A frame over `MAX_FRAME` or a body that does not decode
                // ends the connection: the peer is not speaking the protocol.
                frame::read_frames(stream, MAX_FRAME, &stop, |body| {
                    match GatewayRequest::decoded(&body) {
                        Ok(request) => tx.send((conn, request.into())).is_ok(),
                        Err(_) => false,
                    }
                });
                // However the connection ended, its write half goes with it.
                writers.lock().expect("writer map").remove(&conn);
            }
        };
        let loopback = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        let (addr, acceptor) = frame::listen(loopback, Arc::clone(&stop), serve)?;
        Ok(GatewayServer { addr, inbox: rx, writers, stop, acceptor: Some(acceptor), metrics })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains buffered client requests (at most `MAX_BATCH` = 256
    /// submissions), answers each through `backend`, and writes the
    /// responses back to clients. The `gateway.*` counters record what
    /// happened.
    pub fn pump(&mut self, backend: &mut dyn GatewayBackend) {
        let mut responses: Vec<(u64, GatewayResponse)> = Vec::new();
        let mut submissions = 0;
        while submissions < MAX_BATCH {
            let Ok((conn, inbound)) = self.inbox.try_recv() else { break };
            self.metrics.counter("gateway.requests", 1);
            let response = match inbound {
                Inbound::Submit { tx, priority } => {
                    submissions += 1;
                    self.submit(backend, tx, priority)
                }
                Inbound::Other(request) => self.answer(backend, request),
            };
            responses.push((conn, response));
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
    }

    /// One submission, one path. Dedup comes before signature work: a
    /// transaction the chain already knows is answered with its status,
    /// so a retry costs no HMAC check. Any other is verified here, on
    /// the serve thread, then routed through the lane policy and
    /// admitted. A transaction that is not admitted leaves no trace, so
    /// its retry is checked again.
    fn submit(
        &self,
        backend: &mut dyn GatewayBackend,
        tx: SealedTx,
        priority: bool,
    ) -> GatewayResponse {
        let tx_id = tx.id();
        let known = Self::status_of(backend, tx_id);
        if !matches!(known, GatewayResponse::Unknown { .. }) {
            self.metrics.counter("gateway.dedup_hits", 1);
            return known;
        }
        // `sig_batches` counts verification rounds; inline, a round is
        // one check.
        self.metrics.counter("gateway.sig_batches", 1);
        self.metrics.counter("gateway.sig_checks", 1);
        if !tx.verify(backend.registry()) {
            self.metrics.counter("gateway.sig_rejects", 1);
            return GatewayResponse::Rejected { tx_id, reason: "bad signature".into() };
        }
        // Fee-style lane policy: priority is granted only when
        // requested AND the gas limit clears the floor.
        let lane = if priority && tx.gas_limit >= PRIORITY_GAS_FLOOR {
            Lane::Priority
        } else {
            Lane::Normal
        };
        let (shard, outcome) = backend.admit(tx, lane);
        let (counter, response) = match outcome {
            SubmitOutcome::Admitted { lane, .. } => {
                if lane == Lane::Priority {
                    self.metrics.counter("gateway.priority_admitted", 1);
                }
                ("gateway.accepted", GatewayResponse::Accepted { tx_id, shard, lane })
            }
            // The ledger's index holds an id whose block it no longer
            // retains, so no receipt answered above.
            SubmitOutcome::Duplicate => ("gateway.dedup_hits", GatewayResponse::Pending { tx_id }),
            SubmitOutcome::Full => (
                "gateway.full_rejects",
                GatewayResponse::Rejected { tx_id, reason: "mempool full".into() },
            ),
            SubmitOutcome::Inadmissible => (
                "gateway.inadmissible",
                GatewayResponse::Rejected { tx_id, reason: "bad nonce".into() },
            ),
        };
        self.metrics.counter(counter, 1);
        response
    }

    /// Answers a request that is not a submission.
    fn answer(&self, backend: &mut dyn GatewayBackend, request: GatewayRequest) -> GatewayResponse {
        match request {
            GatewayRequest::Status { tx_id } => Self::status_of(backend, tx_id),
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

    /// Pages `blocks` to the longest prefix whose encoded response fits
    /// one gateway frame, cloning only that prefix — the client sees
    /// fewer blocks than the tip and simply re-requests from the next
    /// height (a single block larger than the frame cannot exist: block
    /// bodies are bounded well below [`MAX_FRAME`] by consensus batch
    /// limits, but an empty page is still returned rather than an
    /// oversized frame).
    pub(crate) fn bounded_blocks(tip_height: u64, blocks: &[Block]) -> GatewayResponse {
        // Envelope: tag byte + tip_height u64 + vec length prefix.
        let mut size = 1 + 8 + 4;
        let fits = blocks
            .iter()
            .take_while(|block| {
                size += block.wire_size();
                size <= MAX_FRAME
            })
            .count();
        GatewayResponse::Blocks { tip_height, blocks: blocks[..fits].to_vec() }
    }

    /// What the chain knows of a transaction: the committed receipt
    /// first, then the id pending in a pool. The gateway keeps no
    /// memory of its own, so a restart forgets nothing the chain holds.
    fn status_of(backend: &dyn GatewayBackend, tx_id: Hash256) -> GatewayResponse {
        if let Some(receipt) = backend.find_receipt(&tx_id) {
            GatewayResponse::Committed { receipt }
        } else if backend.is_pending(&tx_id) {
            GatewayResponse::Pending { tx_id }
        } else {
            GatewayResponse::Unknown { tx_id }
        }
    }

    /// Stops the acceptor and connection threads and closes the listener.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The acceptor joins every connection thread, and each removes
        // its own write half, so the writer map is empty once it returns.
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
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
    use medchain_runtime::check::{check, CheckConfig};
    use medchain_runtime::ensure;
    use medchain_transport::frame::FrameReader;
    use std::time::{Duration, Instant};

    /// Polls until the server holds `open` connection write halves.
    fn await_writers(server: &GatewayServer, open: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.writers.lock().unwrap().len() != open {
            let held = server.writers.lock().unwrap().len();
            assert!(Instant::now() < deadline, "{held} connections held, expected {open}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn accepted_sockets_have_nodelay_set() {
        let server = GatewayServer::start(Metrics::noop()).unwrap();
        let _client = TcpStream::connect(server.addr()).unwrap();
        await_writers(&server, 1);
        assert!(server.writers.lock().unwrap()[&0].nodelay().unwrap());
    }

    /// A closed connection releases its socket and its `writers` entry
    /// (and its thread ends): 20 clients that connect and close leave
    /// the server holding nothing.
    #[test]
    fn closed_connections_leave_nothing_behind() {
        let server = GatewayServer::start(Metrics::noop()).unwrap();
        let clients: Vec<TcpStream> =
            (0..20).map(|_| TcpStream::connect(server.addr()).unwrap()).collect();
        await_writers(&server, clients.len());
        drop(clients);
        await_writers(&server, 0);
    }

    /// A `BlocksFrom` answer is the longest prefix of the retained
    /// suffix whose response fits one frame, under the chain's tip
    /// height; an empty suffix answers an empty page.
    #[test]
    fn block_pages_are_the_longest_prefix_that_fits_a_frame() {
        let key = AuthorityKey::from_seed(7);
        // Blocks of 200, 240, … 640 KiB: ≈4.9 frames in all.
        let blocks: Vec<Block> = (0..12u64)
            .map(|k| {
                let code = vec![k as u8; (200 + 40 * k as usize) << 10];
                let payload = TxPayload::Deploy { code, init: Vec::new() };
                let mut block = Block::genesis("paging");
                block.transactions =
                    vec![Transaction::new(key.address(), k, payload, 1_000)].into();
                block
            })
            .collect();
        assert!(blocks.iter().map(Block::wire_size).sum::<usize>() >= 3 * MAX_FRAME);
        let encoded_page = |n: usize| {
            GatewayResponse::Blocks { tip_height: 41, blocks: blocks[..n].to_vec() }.encoded().len()
        };
        let GatewayResponse::Blocks { tip_height, blocks: page } =
            GatewayServer::bounded_blocks(41, &blocks)
        else {
            panic!("a block request answers a page");
        };
        assert_eq!(tip_height, 41);
        assert_eq!(page.len(), 3);
        assert_eq!(page[..], blocks[..3]);
        assert!(encoded_page(3) <= MAX_FRAME && encoded_page(4) > MAX_FRAME);
        assert_eq!(
            GatewayServer::bounded_blocks(41, &[]),
            GatewayResponse::Blocks { tip_height: 41, blocks: Vec::new() }
        );
    }

    /// A signed anchor transaction and its signer.
    fn sample_tx() -> (AuthorityKey, Transaction) {
        let key = AuthorityKey::from_seed(7);
        let tx = Transaction::new(
            key.address(),
            0,
            TxPayload::Anchor { root: Hash256::digest(b"r"), label: "l".into() },
            1_000,
        )
        .signed(&key);
        (key, tx)
    }

    /// Requests the codec round-trips, around [`sample_tx`].
    fn sample_requests() -> Vec<GatewayRequest> {
        let (key, tx) = sample_tx();
        vec![
            GatewayRequest::Submit { tx: tx.clone(), priority: true },
            GatewayRequest::Status { tx_id: tx.id() },
            GatewayRequest::XsStatus { xid: Hash256::digest(b"xid") },
            GatewayRequest::Query { key: LeafKey::Anchor("l".into()), shard: None },
            GatewayRequest::Query {
                key: LeafKey::Account(key.address()),
                shard: Some(ShardId(1)),
            },
        ]
    }

    /// Responses the codec round-trips, around [`sample_tx`].
    fn sample_responses() -> Vec<GatewayResponse> {
        let (_, tx) = sample_tx();
        vec![
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
        ]
    }

    #[test]
    fn requests_and_responses_round_trip_through_codec() {
        for request in sample_requests() {
            assert_eq!(GatewayRequest::decoded(&request.encoded()).unwrap(), request);
        }
        for response in sample_responses() {
            assert_eq!(GatewayResponse::decoded(&response.encoded()).unwrap(), response);
        }
    }

    /// Hostile input: arbitrary bytes, and truncations and single-byte
    /// flips of valid encodings, never panic either decoder, whole or
    /// read as gateway frames under `MAX_FRAME`. (The framing half,
    /// under this bound and the consensus one, is
    /// `medchain_transport::frame`'s `hostile_frames_never_panic_the_reader`.)
    #[test]
    fn hostile_gateway_frames_never_panic() {
        let valid: Vec<Vec<u8>> = sample_requests()
            .iter()
            .map(Encode::encoded)
            .chain(sample_responses().iter().map(Encode::encoded))
            .collect();
        check("hostile gateway frames never panic", CheckConfig::cases(256), |g| {
            let payload = match g.usize_in(0, 3) {
                0 => g.bytes(0, 300),
                1 => {
                    let v = &valid[g.usize_in(0, valid.len())];
                    v[..g.usize_in(0, v.len())].to_vec()
                }
                _ => {
                    let mut v = valid[g.usize_in(0, valid.len())].clone();
                    let at = g.usize_in(0, v.len());
                    v[at] ^= g.byte() | 1;
                    v
                }
            };
            let _ = GatewayRequest::decoded(&payload);
            let _ = GatewayResponse::decoded(&payload);
            // The body split in two frames, then the whole of it.
            let cut = g.usize_in(0, payload.len() + 1);
            let wire = [&payload[..cut], &payload[cut..], &payload[..]]
                .map(|body| frame::encode_frame(&[body]))
                .concat();
            let mut frames = FrameReader::new(&wire[..], MAX_FRAME);
            let mut read = 0;
            while let Ok(body) = frames.read_frame(|| false) {
                let _ = GatewayRequest::decoded(&body);
                let _ = GatewayResponse::decoded(&body);
                read += 1;
            }
            ensure!(read == 3, "{read} of 3 frames read");
            Ok(())
        });
    }
}
