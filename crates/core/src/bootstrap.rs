//! Bootstrap-from-peer: stream a snapshot + WAL tail into a site that
//! has nothing (or too little) on its own disk (DESIGN.md §14).
//!
//! Local recovery replays a site's *own* WAL; a wiped or brand-new site
//! has none. Instead of re-executing the whole chain from genesis, the
//! joiner asks a healthy peer for its newest snapshot
//! ([`SnapshotManifest`] + CRC-framed chunks over the gateway's framed
//! protocol), installs it through the root-verified path, and catches
//! up the remaining heights block-by-block through `Ledger::apply`.
//!
//! Two halves:
//!
//! - [`SnapshotPeer`]: a transient loopback TCP server a healthy
//!   replica runs while a sibling bootstraps. It serves exactly the
//!   snapshot-streaming subset of the gateway protocol (`SnapshotInfo`
//!   / `SnapshotChunk` / `BlocksFrom`) from a captured
//!   [`BootstrapSource`], so the joiner's fetch path is byte-identical
//!   whether it talks to this temp peer or to a full public gateway.
//! - [`stream_into`]: the joiner side. Fetches, reassembles
//!   (resumably — interrupted transfers re-request only missing
//!   chunks), adopts the payload as a local snapshot file, installs it
//!   via `Ledger::restore_with_tree` (the ONLY install path: a payload
//!   whose authenticated root disagrees with its tip header never
//!   enters the ledger), then applies the WAL tail. After it returns,
//!   the joiner's disk is self-sufficient: the adopted snapshot plus
//!   its freshly-appended WAL tail recover natively on the next
//!   restart.
//!
//! The trust boundary is the same as `stream.rs` documents: CRCs catch
//! accidents, the root-vs-header check at install catches malice. A
//! peer can serve garbage; it cannot make the joiner commit to it.

use crate::client::{Client, ClientError};
use crate::gateway::{
    read_requests, write_frame, GatewayRequest, GatewayResponse, GatewayServer,
};
use medchain_chain::{Block, Ledger, ShardId};
use medchain_runtime::codec::Encode;
use medchain_storage::stream::{
    chunk_at, manifest_for, snapshot_payload, SnapshotAssembler, SnapshotManifest,
};
use medchain_storage::{BlockStore, DiskStore};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything a peer needs captured to serve one bootstrap: the
/// snapshot payload being streamed, its manifest, and the block tail
/// above the snapshot height.
#[derive(Debug, Clone)]
pub struct BootstrapSource {
    shard: ShardId,
    manifest: SnapshotManifest,
    payload: Vec<u8>,
    tail: Vec<Block>,
    tip_height: u64,
}

impl BootstrapSource {
    /// Captures a streamable source from a healthy replica: its
    /// newest on-disk snapshot (bounding the tail to the retained
    /// blocks) when a store is given, else a snapshot of the current
    /// tip built from memory (empty tail).
    ///
    /// Returns `None` when the usable snapshot height has already been
    /// pruned out of the ledger's retained blocks — the peer cannot
    /// serve a tail it no longer holds.
    pub fn capture(ledger: &Ledger, store: Option<&DiskStore>) -> Option<BootstrapSource> {
        let on_disk = store.and_then(|s| s.latest_snapshot_payload().ok().flatten());
        let (height, payload) = match on_disk {
            Some((height, payload)) if height >= ledger.base_height() => (height, payload),
            // No snapshot on disk (or its tail is gone): snapshot the
            // live tip from memory. state_tree() is O(1) here (cached).
            _ => {
                let tip = ledger.tip();
                let payload = snapshot_payload(tip, ledger.state(), &ledger.state_tree());
                (tip.header.height, payload)
            }
        };
        let snap_tip = if height == ledger.height() {
            ledger.tip().clone()
        } else {
            ledger.block(height)?.clone()
        };
        let manifest = manifest_for(&snap_tip, &payload);
        let tail = ledger.blocks_from(height + 1).to_vec();
        Some(BootstrapSource {
            shard: ledger.shard(),
            manifest,
            payload,
            tail,
            tip_height: ledger.height(),
        })
    }

    /// The manifest being served.
    pub fn manifest(&self) -> &SnapshotManifest {
        &self.manifest
    }

    fn answer(&self, request: &GatewayRequest) -> GatewayResponse {
        match request {
            GatewayRequest::SnapshotInfo { shard } if *shard == self.shard => {
                GatewayResponse::SnapshotOffer { manifest: Some(self.manifest.clone()) }
            }
            GatewayRequest::SnapshotChunk { shard, height, index }
                if *shard == self.shard && *height == self.manifest.height =>
            {
                GatewayResponse::SnapshotPiece {
                    chunk: chunk_at(self.manifest.height, &self.payload, *index),
                }
            }
            GatewayRequest::BlocksFrom { shard, height } if *shard == self.shard => {
                let skip = height.saturating_sub(self.manifest.height + 1) as usize;
                let blocks: Vec<Block> = self.tail.iter().skip(skip).cloned().collect();
                GatewayServer::bounded_blocks(self.tip_height, blocks)
            }
            _ => GatewayResponse::SnapshotOffer { manifest: None },
        }
    }
}

/// A transient loopback server streaming one [`BootstrapSource`].
/// Serves any number of joiners until dropped.
#[derive(Debug)]
pub struct SnapshotPeer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl SnapshotPeer {
    /// Binds an OS-assigned loopback port and starts serving `source`.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the loopback listener cannot start.
    pub fn serve(source: BootstrapSource) -> io::Result<SnapshotPeer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut workers = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let source = source.clone();
                            let stop = Arc::clone(&stop);
                            workers.push(std::thread::spawn(move || {
                                serve_conn(stream, &source, &stop);
                            }));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for worker in workers {
                    let _ = worker.join();
                }
            })
        };
        Ok(SnapshotPeer { addr, stop, acceptor: Some(acceptor) })
    }

    /// The address joiners connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for SnapshotPeer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

/// One connection's request/response loop against a captured source.
fn serve_conn(stream: TcpStream, source: &BootstrapSource, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
    read_requests(stream, stop, |request| {
        write_frame(&mut writer, &source.answer(&request).encoded()).is_ok()
    });
}

/// Why a streamed bootstrap failed.
#[derive(Debug)]
pub enum BootstrapError {
    /// Transport or protocol failure against the peer.
    Peer(ClientError),
    /// The peer offered no snapshot to stream.
    NothingOffered,
    /// The assembled payload failed its manifest commitments, or did
    /// not decode as a snapshot, or its root disagreed with the tip
    /// header — re-request from a different peer.
    BadSnapshot(String),
    /// A tail block failed to apply on the restored ledger.
    BadTail(String),
    /// Local disk failure while adopting the snapshot.
    Storage(String),
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::Peer(e) => write!(f, "peer failure: {e}"),
            BootstrapError::NothingOffered => write!(f, "peer offered no snapshot"),
            BootstrapError::BadSnapshot(e) => write!(f, "streamed snapshot rejected: {e}"),
            BootstrapError::BadTail(e) => write!(f, "tail block rejected: {e}"),
            BootstrapError::Storage(e) => write!(f, "local storage failed: {e}"),
        }
    }
}

impl std::error::Error for BootstrapError {}

impl From<ClientError> for BootstrapError {
    fn from(e: ClientError) -> BootstrapError {
        BootstrapError::Peer(e)
    }
}

/// What [`stream_into`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapReport {
    /// Height of the installed snapshot.
    pub snapshot_height: u64,
    /// Tail blocks applied above the snapshot.
    pub tail_blocks: u64,
    /// Snapshot chunks fetched (including re-requested ones).
    pub chunks_fetched: u64,
    /// Final ledger height.
    pub height: u64,
}

/// Streams a peer's snapshot + WAL tail into `ledger` (which must be
/// at genesis with its runtime installed, exactly like local
/// recovery), adopting the snapshot into `store` so the site recovers
/// natively from its own disk on the next restart. Attach the store to
/// the ledger only *after* this returns — tail blocks are applied here
/// with the store attached internally, so they land in the WAL.
///
/// The snapshot enters the ledger exclusively through
/// `Ledger::restore_with_tree` (after `SnapshotStore::load`'s CRC /
/// decode / self-consistency validation): the root-verified install
/// invariant of DESIGN.md §14.
///
/// # Errors
///
/// See [`BootstrapError`]; the ledger is left untouched (still at
/// genesis) on any snapshot-phase failure, and at the snapshot height
/// plus whatever tail applied cleanly on a tail-phase failure.
pub fn stream_into(
    peer: SocketAddr,
    shard: ShardId,
    ledger: &mut Ledger,
    store: &mut DiskStore,
) -> Result<BootstrapReport, BootstrapError> {
    let mut client = Client::connect(peer)?;
    let manifest = client.snapshot_manifest(shard)?.ok_or(BootstrapError::NothingOffered)?;
    let snapshot_height = manifest.height;
    let mut assembler = SnapshotAssembler::new(manifest);
    let mut chunks_fetched = 0u64;
    // Resumable fetch: each pass asks only for what is still missing,
    // so a dropped connection or a corrupt chunk costs one re-request,
    // not a restart. Two extra passes bound accidental corruption;
    // a peer that keeps serving bad chunks is abandoned.
    for _pass in 0..3 {
        for index in assembler.missing() {
            let Some(chunk) = client.snapshot_chunk(shard, snapshot_height, index)? else {
                return Err(BootstrapError::NothingOffered);
            };
            chunks_fetched += 1;
            // A bad chunk stays missing; the next pass re-requests it.
            let _ = assembler.accept(chunk);
        }
        if assembler.is_complete() {
            break;
        }
    }
    let payload =
        assembler.finish().map_err(|e| BootstrapError::BadSnapshot(e.to_string()))?;
    // Adopt as a local snapshot file, then install through the SAME
    // validation + root-verified path as local recovery.
    store
        .snapshots()
        .adopt_payload(snapshot_height, &payload)
        .map_err(|e| BootstrapError::Storage(e.to_string()))?;
    let snap = store
        .snapshots()
        .load(snapshot_height)
        .map_err(|e| BootstrapError::Storage(e.to_string()))?
        .ok_or_else(|| {
            BootstrapError::BadSnapshot("adopted payload failed snapshot validation".into())
        })?;
    ledger
        .restore_with_tree(snap.state, snap.tip, snap.tree)
        .map_err(|e| BootstrapError::BadSnapshot(e.to_string()))?;
    // WAL-tail catch-up through Ledger::apply. Each applied block is
    // persisted write-ahead into this site's own (empty) log, whose
    // first append pins height snapshot_height + 1 — exactly the
    // `snap.height + 1 == first_height` rule local recovery expects.
    let mut tail_blocks = 0u64;
    let mut next = snapshot_height + 1;
    loop {
        let (tip_height, blocks) = client.blocks_from(shard, next)?;
        if blocks.is_empty() {
            if ledger.height() >= tip_height {
                break;
            }
            return Err(BootstrapError::BadTail(format!(
                "peer tip is {tip_height} but serves no blocks above {next}"
            )));
        }
        for block in &blocks {
            ledger.apply(block).map_err(|e| {
                BootstrapError::BadTail(format!("height {}: {e}", block.header.height))
            })?;
            store
                .append(block, ledger.state())
                .map_err(|e| BootstrapError::Storage(e.to_string()))?;
            // Same seam as `Ledger::apply`: the block is durable, a
            // snapshot that fails is reported by the store and retried.
            let _ = store.checkpoint(block, ledger.state(), &ledger.state_tree());
            tail_blocks += 1;
        }
        next = ledger.height() + 1;
        if ledger.height() >= tip_height {
            break;
        }
    }
    Ok(BootstrapReport {
        snapshot_height,
        tail_blocks,
        chunks_fetched,
        height: ledger.height(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;
    use medchain_chain::{Hash256, TxPayload};
    use medchain_contracts::runtime::Runtime;
    use medchain_storage::StorageConfig;

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("medchain-bootstrap-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    /// A small consortium with a few committed anchors past the setup.
    fn source_network() -> Network {
        let mut builder = Network::builder();
        for i in 0..2 {
            builder = builder.site(&format!("hospital-{i}"), Vec::new());
        }
        let mut net = builder.build().unwrap();
        for round in 0..3 {
            let label = format!("hospital-0/scan-{round}");
            net.submit(
                0,
                TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label },
                1_000,
            )
            .unwrap();
            net.advance(1).unwrap();
        }
        net
    }

    /// A joiner's empty ledger: same chain id, registry, and runtime as
    /// the cohort, nothing replayed — exactly what a wiped site has.
    fn fresh_target(net: &Network) -> Ledger {
        Ledger::new("medchain", net.registry().clone(), Box::new(Runtime::standard()))
    }

    #[test]
    fn streamed_bootstrap_matches_source_and_recovers_natively() {
        let net = source_network();
        let source = BootstrapSource::capture(net.ledger(), None).unwrap();
        let peer = SnapshotPeer::serve(source).unwrap();
        let dir = test_dir("happy");
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let mut ledger = fresh_target(&net);
        let report =
            stream_into(peer.addr(), net.ledger().shard(), &mut ledger, &mut store).unwrap();
        assert_eq!(report.height, net.height());
        // Tip-id equality covers the state root: it is committed in the
        // tip header, which restore_with_tree verified against the tree.
        assert_eq!(ledger.tip().id(), net.ledger().tip().id());
        // The adopted snapshot (+ any appended tail) makes the joiner's
        // disk self-sufficient: a plain local restart recovers it.
        drop(store);
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let mut recovered = fresh_target(&net);
        let rec = store.recover_into(&mut recovered).unwrap();
        assert_eq!(rec.tip_id, net.ledger().tip().id());
        assert_eq!(recovered.height(), net.height());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A peer that answers the manifest request, then hangs up — every
    /// later request hits a closed socket, like a peer crashing
    /// mid-stream.
    fn flaky_peer(source: BootstrapSource) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            read_requests(stream, &AtomicBool::new(false), |request| {
                // Crash right after serving the manifest.
                write_frame(&mut writer, &source.answer(&request).encoded()).is_ok()
                    && !matches!(request, GatewayRequest::SnapshotInfo { .. })
            });
        });
        (addr, handle)
    }

    #[test]
    fn crash_mid_stream_leaves_no_torn_install_and_retry_succeeds() {
        let net = source_network();
        let source = BootstrapSource::capture(net.ledger(), None).unwrap();
        let dir = test_dir("crash");
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let mut ledger = fresh_target(&net);
        let shard = net.ledger().shard();

        let (addr, handle) = flaky_peer(source.clone());
        let err = stream_into(addr, shard, &mut ledger, &mut store).unwrap_err();
        handle.join().unwrap();
        assert!(matches!(err, BootstrapError::Peer(_)), "unexpected error: {err:?}");
        // Nothing torn: the ledger is untouched at genesis and no
        // partial snapshot was adopted onto disk.
        assert_eq!(ledger.height(), 0);
        assert!(store.latest_snapshot_payload().unwrap().is_none());

        // A clean re-request against a healthy peer completes and
        // agrees with the cohort.
        let peer = SnapshotPeer::serve(source).unwrap();
        let report = stream_into(peer.addr(), shard, &mut ledger, &mut store).unwrap();
        assert_eq!(report.height, net.height());
        assert_eq!(ledger.tip().id(), net.ledger().tip().id());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
