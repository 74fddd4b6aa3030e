//! Bootstrap-from-peer: stream a snapshot + WAL tail into a site that
//! has nothing (or too little) on its own disk (DESIGN.md §14).
//!
//! Local recovery replays a site's *own* WAL; a wiped or brand-new site
//! has none. Instead of re-executing the whole chain from genesis, the
//! joiner asks a healthy peer for its newest snapshot
//! ([`SnapshotManifest`] + CRC-framed chunks, the gateway's three
//! snapshot-stream verbs), installs it through local recovery, and
//! catches up the remaining heights block by block through
//! `Ledger::apply`.
//!
//! One side serves, one side fetches, and nothing in between:
//!
//! - [`BootstrapSource`] is what a healthy replica serves: a captured
//!   snapshot payload, its manifest, and the block tail above it.
//!   [`BootstrapSource::answer`] replies to the three verbs. A
//!   `Network`'s public gateway serves its snapshots from a cached
//!   source; an in-process rejoin calls `answer` directly, with no
//!   socket between the two replicas.
//! - [`stream_into`] is the joiner. It takes any request → response
//!   function: [`Client::call`](crate::Client::call) against a remote
//!   gateway, or a captured source's `answer` in process. It
//!   reassembles the chunks, adopts the payload as a local snapshot
//!   file and installs it with `DiskStore::recover_into`, so a streamed
//!   snapshot enters the ledger through the same code as a local one.
//!   Then it applies the tail. Afterwards the joiner's disk recovers
//!   natively on the next restart.
//!
//! # Trust boundary
//!
//! What the code enforces is the payload's self-consistency: CRCs (per
//! chunk and whole), the tree's root against the payload's *own* tip
//! header, and the tree's leaf count against the decoded state. An
//! in-process rejoin also compares every member's tip with the cohort's
//! once streaming ends (`Committee::build`). A remote joiner checks
//! neither the tip's seal nor that the state values hash to the tree,
//! so a peer that forges a whole self-consistent payload is believed.
//! Closing that is open work (DESIGN.md §14).

use crate::client::ClientError;
use crate::gateway::{GatewayRequest, GatewayResponse, GatewayServer};
use medchain_chain::{Block, Hash256, Ledger, ShardId};
use medchain_storage::snapshot::snapshot_payload;
use medchain_storage::stream::{
    chunk_at, manifest_for, SnapshotAssembler, SnapshotChunk, SnapshotManifest, StreamError,
};
use medchain_storage::{BlockStore, DiskStore};

/// Everything a peer needs captured to serve one bootstrap: the
/// snapshot payload being streamed, its manifest, and the block tail
/// above the snapshot height.
#[derive(Debug)]
pub struct BootstrapSource {
    shard: ShardId,
    manifest: SnapshotManifest,
    payload: Vec<u8>,
    tail: Vec<Block>,
    tip_height: u64,
}

impl BootstrapSource {
    /// Captures a streamable source from a healthy replica: its
    /// newest on-disk full snapshot and the blocks above it when a store
    /// is given, else a snapshot of the current tip built from memory
    /// (empty tail). A tail block below the ledger's resident window is
    /// read back from the store attached to the ledger.
    ///
    /// Returns `None` when a block of the tail is no longer readable —
    /// pruned out of the ledger, or its store fails the read — since the
    /// peer cannot serve a tail it no longer holds.
    pub fn capture(ledger: &Ledger, store: Option<&DiskStore>) -> Option<BootstrapSource> {
        let on_disk = store.and_then(|s| s.latest_snapshot_payload().ok().flatten());
        let (height, payload) = match on_disk {
            Some((height, payload)) if height >= ledger.base_height() => (height, payload),
            // No snapshot on disk (or its tail is gone): snapshot the
            // live tip from memory. state_tree() is an O(1) clone of the
            // cached tree, unless a proposal is pending: then it costs one
            // pull-back pass the size of that block's writes (DESIGN §13).
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
        // Blocks below the resident window are read back from the
        // ledger's store; a tail that cannot reach the tip is not served.
        let tail: Vec<Block> = ledger.blocks_from(height + 1).cloned().collect();
        if height + tail.len() as u64 != ledger.height() {
            return None;
        }
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

    /// Whether this source snapshots `ledger`'s chain at its current tip.
    pub(crate) fn is_tip_of(&self, ledger: &Ledger) -> bool {
        self.shard == ledger.shard() && self.manifest.tip_id == ledger.tip().id()
    }

    /// Chunk `index` of the snapshot of `shard` at `height`; `None`
    /// when this source serves another snapshot (the joiner re-requests
    /// the manifest) or the index is past the end.
    pub(crate) fn chunk(&self, shard: ShardId, height: u64, index: u32) -> Option<SnapshotChunk> {
        if shard != self.shard || height != self.manifest.height {
            return None;
        }
        chunk_at(height, &self.payload, index)
    }

    /// Answers one snapshot-stream request the way a gateway does —
    /// pass it to [`stream_into`] to bootstrap in process. Any other
    /// request, or block streaming for another shard, is rejected.
    pub fn answer(&self, request: &GatewayRequest) -> GatewayResponse {
        match *request {
            GatewayRequest::SnapshotInfo { shard } => GatewayResponse::SnapshotOffer {
                manifest: (shard == self.shard).then(|| self.manifest.clone()),
            },
            GatewayRequest::SnapshotChunk { shard, height, index } => {
                GatewayResponse::SnapshotPiece { chunk: self.chunk(shard, height, index) }
            }
            GatewayRequest::BlocksFrom { shard, height } if shard == self.shard => {
                let skip = height.saturating_sub(self.manifest.height + 1) as usize;
                GatewayServer::bounded_blocks(self.tip_height, self.tail.get(skip..).unwrap_or(&[]))
            }
            _ => GatewayResponse::Rejected {
                tx_id: Hash256::ZERO,
                reason: "not a snapshot-stream request for this shard".into(),
            },
        }
    }
}

/// Why a streamed bootstrap failed.
#[derive(Debug)]
pub enum BootstrapError {
    /// Transport or protocol failure against the peer.
    Peer(ClientError),
    /// The peer offered no snapshot to stream.
    NothingOffered,
    /// The manifest or a chunk failed its checks, or the assembled
    /// payload failed to install through local recovery — re-request
    /// from a different peer.
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

fn unexpected(verb: &str, reply: &GatewayResponse) -> BootstrapError {
    BootstrapError::Peer(ClientError::Protocol(format!("unexpected {verb} reply: {reply:?}")))
}

fn storage(e: impl std::fmt::Display) -> BootstrapError {
    BootstrapError::Storage(e.to_string())
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

/// Streams a peer's snapshot + WAL tail of `ledger`'s shard into
/// `ledger`, asking `fetch` for each piece: [`Client::call`] on a
/// peer's gateway, or [`BootstrapSource::answer`] in process.
///
/// `ledger` must be at genesis with its runtime installed, exactly like
/// local recovery, and `store` must hold no snapshot yet (a fresh or
/// wiped directory). The assembled payload is adopted into `store` and
/// installed by `DiskStore::recover_into`, which refuses it unless it
/// validates at the manifest's height. Each tail block is then applied
/// to the ledger, appended to `store`, and handed to
/// `store.checkpoint`, in that order. Attach the store to the ledger
/// only after this returns.
///
/// [`Client::call`]: crate::Client::call
///
/// # Errors
///
/// See [`BootstrapError`]. On a snapshot-phase failure the ledger is
/// still at genesis and no streamed snapshot is left on disk; on a
/// tail-phase failure the ledger and `store` both stand at the last
/// block that applied.
pub fn stream_into(
    mut fetch: impl FnMut(&GatewayRequest) -> Result<GatewayResponse, ClientError>,
    ledger: &mut Ledger,
    store: &mut DiskStore,
) -> Result<BootstrapReport, BootstrapError> {
    let shard = ledger.shard();
    let manifest = match fetch(&GatewayRequest::SnapshotInfo { shard })? {
        GatewayResponse::SnapshotOffer { manifest } => {
            manifest.ok_or(BootstrapError::NothingOffered)?
        }
        other => return Err(unexpected("SnapshotInfo", &other)),
    };
    let (snapshot_height, chunk_count) = (manifest.height, manifest.chunk_count);
    let mut assembler =
        SnapshotAssembler::new(manifest).map_err(|e| BootstrapError::BadSnapshot(e.to_string()))?;
    let mut chunks_fetched = 0u64;
    // A chunk that fails its checks is asked for again, so one corrupt
    // transfer costs a re-request, not a restart; a peer that serves the
    // same index badly three times is abandoned.
    for index in 0..chunk_count {
        for tries in 1.. {
            let request = GatewayRequest::SnapshotChunk { shard, height: snapshot_height, index };
            let chunk = match fetch(&request)? {
                GatewayResponse::SnapshotPiece { chunk: Some(chunk) } => chunk,
                GatewayResponse::SnapshotPiece { chunk: None } => {
                    return Err(BootstrapError::NothingOffered)
                }
                other => return Err(unexpected("SnapshotChunk", &other)),
            };
            chunks_fetched += 1;
            let accepted = if chunk.index == index {
                assembler.accept(chunk)
            } else {
                Err(StreamError::WrongChunk)
            };
            match accepted {
                Ok(()) => break,
                Err(e) if tries == 3 => {
                    return Err(BootstrapError::BadSnapshot(format!("chunk {index}: {e}")))
                }
                Err(_) => {}
            }
        }
    }
    let payload =
        assembler.finish().map_err(|e| BootstrapError::BadSnapshot(e.to_string()))?;
    // Adopt as a local snapshot file and install it the way a restart
    // would. A payload recovery refuses is removed again, so it is never
    // served on to the next joiner.
    store.snapshots().adopt_payload(snapshot_height, &payload).map_err(storage)?;
    let refused = match store.recover_into(ledger) {
        Ok(recovery) if recovery.from_snapshot == Some(snapshot_height) => None,
        Ok(_) => Some("payload failed snapshot validation".to_string()),
        Err(e) => Some(e.to_string()),
    };
    if let Some(why) = refused {
        store.snapshots().discard(snapshot_height).map_err(storage)?;
        return Err(BootstrapError::BadSnapshot(why));
    }
    // WAL-tail catch-up through Ledger::apply. Each applied block is
    // appended to this site's own (empty) log, whose first append pins
    // height snapshot_height + 1 — exactly the
    // `snap.height + 1 == first_height` rule local recovery expects.
    let mut tail_blocks = 0u64;
    loop {
        let next = ledger.height() + 1;
        let (tip_height, blocks) = match fetch(&GatewayRequest::BlocksFrom { shard, height: next })? {
            GatewayResponse::Blocks { tip_height, blocks } => (tip_height, blocks),
            other => return Err(unexpected("BlocksFrom", &other)),
        };
        if blocks.is_empty() {
            if ledger.height() >= tip_height {
                break;
            }
            return Err(BootstrapError::BadTail(format!(
                "peer tip is {tip_height} but serves no blocks from {next}"
            )));
        }
        for block in &blocks {
            ledger.apply(block).map_err(|e| {
                BootstrapError::BadTail(format!("height {}: {e}", block.header.height))
            })?;
            store.append(block, ledger.state()).map_err(storage)?;
            // Same seam as `Ledger::apply`: the block is durable, a
            // snapshot that fails is reported by the store and retried.
            // The writes are not tracked here, so the store's first
            // boundary writes a full snapshot.
            let _ = store.checkpoint(block, ledger.state(), &ledger.state_tree(), None);
            tail_blocks += 1;
        }
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
    use medchain_chain::hash::crc32;
    use medchain_chain::TxPayload;
    use medchain_contracts::runtime::Runtime;
    use medchain_runtime::check::{check, CheckConfig, Gen};
    use medchain_runtime::ensure;
    use medchain_storage::stream::CHUNK_BYTES;
    use medchain_storage::StorageConfig;
    use std::path::PathBuf;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("medchain-bootstrap-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    /// Commits `rounds` one-anchor blocks.
    fn commit_anchors(net: &mut Network, rounds: u64) {
        for _ in 0..rounds {
            let label = format!("hospital-0/scan-{}", net.height());
            net.submit(
                0,
                TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label },
                1_000,
            )
            .unwrap();
            net.advance(1).unwrap();
        }
    }

    /// A small consortium with a few committed anchors past the setup.
    fn source_network() -> Network {
        let mut builder = Network::builder();
        for i in 0..2 {
            builder = builder.site(&format!("hospital-{i}"), Vec::new());
        }
        let mut net = builder.build().unwrap();
        commit_anchors(&mut net, 3);
        net
    }

    /// A joiner's empty ledger: same chain id, registry, and runtime as
    /// the cohort, nothing replayed — exactly what a wiped site has.
    fn fresh_target(net: &Network) -> Ledger {
        Ledger::new("medchain", net.registry().clone(), Box::new(Runtime::standard()))
    }

    /// The height a plain restart of the joiner's directory recovers to.
    fn recovered_height(dir: &std::path::Path, net: &Network) -> u64 {
        let mut store = DiskStore::open(dir, StorageConfig::default()).unwrap();
        let mut recovered = fresh_target(net);
        store.recover_into(&mut recovered).unwrap();
        recovered.height()
    }

    /// A snapshot taken a few blocks back, served with the live chain's
    /// blocks above it: a stream with a real tail to apply.
    struct Tailed {
        net: Network,
        early: BootstrapSource,
    }

    impl Tailed {
        fn new() -> Tailed {
            let mut net = source_network();
            let early = BootstrapSource::capture(net.ledger(), None).unwrap();
            commit_anchors(&mut net, 3);
            Tailed { net, early }
        }

        fn answer(&self, request: &GatewayRequest) -> GatewayResponse {
            match *request {
                GatewayRequest::BlocksFrom { height, .. } => GatewayServer::bounded_blocks(
                    self.net.height(),
                    self.net.ledger().blocks_from(height),
                ),
                _ => self.early.answer(request),
            }
        }
    }

    #[test]
    fn streamed_bootstrap_matches_source_and_recovers_natively() {
        let net = source_network();
        let source = BootstrapSource::capture(net.ledger(), None).unwrap();
        let dir = test_dir("happy");
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let mut ledger = fresh_target(&net);
        let report =
            stream_into(|request| Ok(source.answer(request)), &mut ledger, &mut store).unwrap();
        assert_eq!(report.height, net.height());
        // Tip-id equality covers the state root: it is committed in the
        // tip header, which recovery checked against the tree.
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

    #[test]
    fn crash_mid_stream_leaves_no_torn_install_and_retry_succeeds() {
        let net = source_network();
        let source = BootstrapSource::capture(net.ledger(), None).unwrap();
        let dir = test_dir("crash");
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let mut ledger = fresh_target(&net);

        // A peer that answers the manifest request, then dies: every
        // later request fails like a closed socket.
        let crashing = |request: &GatewayRequest| match request {
            GatewayRequest::SnapshotInfo { .. } => Ok(source.answer(request)),
            _ => Err(ClientError::Io("gateway closed the connection".into())),
        };
        let err = stream_into(crashing, &mut ledger, &mut store).unwrap_err();
        assert!(matches!(err, BootstrapError::Peer(_)), "unexpected error: {err:?}");
        // Nothing torn: the ledger is untouched at genesis and no
        // partial snapshot was adopted onto disk.
        assert_eq!(ledger.height(), 0);
        assert!(store.latest_snapshot_payload().unwrap().is_none());

        // A clean re-request against a healthy peer completes and
        // agrees with the cohort.
        let report =
            stream_into(|request| Ok(source.answer(request)), &mut ledger, &mut store).unwrap();
        assert_eq!(report.height, net.height());
        assert_eq!(ledger.tip().id(), net.ledger().tip().id());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A payload that fails validation at install — here its tip header
    /// names a root its tree does not have, though every CRC matches —
    /// is removed again, so the joiner can never serve it onward.
    #[test]
    fn rejected_payload_is_not_left_adopted() {
        let net = source_network();
        let ledger = net.ledger();
        let mut tip = ledger.tip().clone();
        tip.header.state_root = Hash256::digest(b"someone else's root");
        let payload = snapshot_payload(&tip, ledger.state(), &ledger.state_tree());
        let forged = BootstrapSource {
            shard: ledger.shard(),
            manifest: manifest_for(&tip, &payload),
            payload,
            tail: Vec::new(),
            tip_height: tip.header.height,
        };
        let dir = test_dir("rejected");
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let mut joiner = fresh_target(&net);
        let err =
            stream_into(|request| Ok(forged.answer(request)), &mut joiner, &mut store).unwrap_err();
        assert!(matches!(err, BootstrapError::BadSnapshot(_)), "unexpected error: {err:?}");
        assert_eq!(joiner.height(), 0);
        assert!(store.snapshots().heights().unwrap().is_empty(), "rejected payload left on disk");
        assert!(BootstrapSource::capture(&joiner, Some(&store)).unwrap().manifest().height == 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A tail block that does not apply stops the stream with `BadTail`
    /// at the last good height, and what was applied is on disk: the
    /// joiner's directory recovers to that same height.
    #[test]
    fn tampered_tail_stops_at_the_last_good_block() {
        let tailed = Tailed::new();
        let bad_height = tailed.early.manifest().height + 2;
        assert!(bad_height <= tailed.net.height(), "the tail reaches the tampered block");
        let tampered = |request: &GatewayRequest| {
            Ok(match tailed.answer(request) {
                GatewayResponse::Blocks { tip_height, mut blocks } => {
                    for block in &mut blocks {
                        if block.header.height == bad_height {
                            block.header.state_root = Hash256::digest(b"tampered");
                        }
                    }
                    GatewayResponse::Blocks { tip_height, blocks }
                }
                other => other,
            })
        };
        let dir = test_dir("tampered-tail");
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let mut ledger = fresh_target(&tailed.net);
        let err = stream_into(tampered, &mut ledger, &mut store).unwrap_err();
        assert!(matches!(err, BootstrapError::BadTail(_)), "unexpected error: {err:?}");
        assert_eq!(ledger.height(), bad_height - 1);
        let good = tailed.net.ledger().block(bad_height - 1).unwrap().id();
        assert_eq!(ledger.tip().id(), good);
        drop(store);
        assert_eq!(recovered_height(&dir, &tailed.net), bad_height - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Either an extreme value or a near miss of `honest`, never `honest`.
    fn skewed(g: &mut Gen, honest: u64, extremes: &[u64]) -> u64 {
        let value = if g.bool() {
            extremes[g.usize_in(0, extremes.len())]
        } else {
            honest.wrapping_add(1 + g.u64() % 3)
        };
        if value == honest {
            value ^ 1
        } else {
            value
        }
    }

    /// A hostile peer's reply to a request, given the honest stream.
    type HostileAnswer = Box<dyn Fn(&Tailed, &GatewayRequest) -> GatewayResponse>;

    /// What a hostile peer does to one honest [`Tailed`] stream, and
    /// whether it strikes before the snapshot installs.
    fn hostile_answer(g: &mut Gen) -> (bool, HostileAnswer) {
        let wrong_variants = |g: &mut Gen| match g.usize_in(0, 5) {
            0 => GatewayResponse::Unknown { tx_id: Hash256::ZERO },
            1 => GatewayResponse::Pending { tx_id: Hash256::ZERO },
            2 => GatewayResponse::Rejected { tx_id: Hash256::ZERO, reason: "no".into() },
            3 => GatewayResponse::SnapshotOffer { manifest: None },
            _ => GatewayResponse::SnapshotPiece { chunk: None },
        };
        match g.usize_in(0, 5) {
            // Extreme or inconsistent manifest fields.
            0 => {
                let field = g.usize_in(0, 5);
                let pick = g.u64();
                let huge = u64::from(u32::MAX) * CHUNK_BYTES as u64;
                let answer = move |t: &Tailed, request: &GatewayRequest| {
                    match (t.answer(request), request) {
                        (GatewayResponse::SnapshotOffer { manifest: Some(mut m) }, _) => {
                            let mut g = Gen::from_seed(pick);
                            match field {
                                0 => m.height = skewed(&mut g, m.height, &[0, u64::MAX]),
                                1 => {
                                    let count = u64::from(m.chunk_count);
                                    let extremes = [0, 200_000_000, u64::from(u32::MAX)];
                                    m.chunk_count = skewed(&mut g, count, &extremes) as u32;
                                }
                                2 => {
                                    m.total_len =
                                        skewed(&mut g, m.total_len, &[0, huge, u64::MAX]);
                                }
                                3 => (m.chunk_count, m.total_len) = (u32::MAX, huge),
                                _ => m.crc ^= 1 + (pick as u32 >> 1),
                            }
                            GatewayResponse::SnapshotOffer { manifest: Some(m) }
                        }
                        // Past the honest payload's end (or at a height it
                        // does not have), serve whatever chunk is asked for.
                        (
                            GatewayResponse::SnapshotPiece { chunk: None },
                            &GatewayRequest::SnapshotChunk { height, index, .. },
                        ) => {
                            let bytes = vec![0xA5; 1 + index as usize % 7];
                            let crc = crc32(&bytes);
                            let chunk = SnapshotChunk { height, index, bytes, crc };
                            GatewayResponse::SnapshotPiece { chunk: Some(chunk) }
                        }
                        (reply, _) => reply,
                    }
                };
                (true, Box::new(answer))
            }
            // Every chunk wrong in one way.
            1 => {
                let how = g.usize_in(0, 5);
                let pick = g.u64();
                let answer = move |t: &Tailed, request: &GatewayRequest| {
                    let reply = t.answer(request);
                    let GatewayResponse::SnapshotPiece { chunk: Some(mut c) } = reply else {
                        return reply;
                    };
                    let mut g = Gen::from_seed(pick);
                    match how {
                        0 => c.height = skewed(&mut g, c.height, &[0, u64::MAX]),
                        1 => c.index = skewed(&mut g, c.index.into(), &[u32::MAX.into()]) as u32,
                        2 => c.crc ^= 1 + (pick as u32 >> 1),
                        3 => {
                            // Resized, with a CRC that matches the new bytes.
                            let len = skewed(&mut g, c.bytes.len() as u64, &[0]) as usize;
                            c.bytes.resize(len.min(CHUNK_BYTES + 1), 0xA5);
                            c.crc = crc32(&c.bytes);
                        }
                        _ => {
                            // Flipped, with a CRC that matches the new bytes.
                            let at = g.usize_in(0, c.bytes.len().max(1));
                            match c.bytes.get_mut(at) {
                                Some(byte) => *byte ^= 1 + g.byte() % 255,
                                None => c.bytes.push(0),
                            }
                            c.crc = crc32(&c.bytes);
                        }
                    }
                    GatewayResponse::SnapshotPiece { chunk: Some(c) }
                };
                (true, Box::new(answer))
            }
            // A wrong response variant for one verb.
            2 => {
                let verb = g.usize_in(0, 3);
                let mut reply = wrong_variants(g);
                // An empty page of blocks is a valid `BlocksFrom` reply
                // but a wrong one to the other two verbs.
                if verb < 2 && g.bool() {
                    reply = GatewayResponse::Blocks { tip_height: g.u64(), blocks: Vec::new() };
                }
                // `SnapshotOffer { None }` / `SnapshotPiece { None }` to
                // their own verb mean "nothing offered": still an error.
                let answer = move |t: &Tailed, request: &GatewayRequest| {
                    let hit = matches!(
                        (verb, request),
                        (0, GatewayRequest::SnapshotInfo { .. })
                            | (1, GatewayRequest::SnapshotChunk { .. })
                            | (2, GatewayRequest::BlocksFrom { .. })
                    );
                    if hit { reply.clone() } else { t.answer(request) }
                };
                (verb < 2, Box::new(answer))
            }
            // A garbled tail.
            3 => {
                let how = g.usize_in(0, 4);
                let pick = g.u64();
                let answer = move |t: &Tailed, request: &GatewayRequest| {
                    let reply = t.answer(request);
                    let GatewayResponse::Blocks { mut tip_height, mut blocks } = reply else {
                        return reply;
                    };
                    let at = (pick % blocks.len().max(1) as u64) as usize;
                    match how {
                        0 => tip_height = u64::MAX, // claims blocks it never serves
                        _ if blocks.is_empty() => {}
                        1 => drop(blocks.remove(0)),
                        2 => blocks.insert(at, blocks[at].clone()),
                        _ => blocks[at].header.state_root = Hash256::digest(&pick.to_le_bytes()),
                    }
                    GatewayResponse::Blocks { tip_height, blocks }
                };
                (false, Box::new(answer))
            }
            // A self-consistent manifest and chunks over garbage bytes.
            _ => {
                let garbage = g.bytes(0, 4_000);
                let answer = move |t: &Tailed, request: &GatewayRequest| {
                    let honest = t.early.manifest();
                    let forged = BootstrapSource {
                        shard: t.early.shard,
                        manifest: SnapshotManifest {
                            chunk_count: 1,
                            total_len: garbage.len() as u64,
                            crc: crc32(&garbage),
                            ..honest.clone()
                        },
                        payload: garbage.clone(),
                        tail: Vec::new(),
                        tip_height: honest.height,
                    };
                    match request {
                        GatewayRequest::BlocksFrom { .. } => t.answer(request),
                        _ => forged.answer(request),
                    }
                };
                (true, Box::new(answer))
            }
        }
    }

    /// Whatever a hostile peer serves — extreme manifest fields, chunks
    /// with the wrong height, index, CRC or length, wrong response
    /// variants, a garbled tail, garbage payload bytes — the joiner
    /// returns an error and never panics or allocates what the manifest
    /// merely claims. A failure before the install leaves the ledger at
    /// genesis with nothing adopted; one in the tail leaves ledger and
    /// disk at the same height. Reproduce a case with
    /// `MEDCHAIN_CHECK_SEED`.
    #[test]
    fn hostile_peer_never_panics_the_joiner() {
        let tailed = Tailed::new();
        let dir = test_dir("hostile");
        check("hostile peer never panics the joiner", CheckConfig::cases(48), |g| {
            let (before_install, hostile) = hostile_answer(g);
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
            let mut ledger = fresh_target(&tailed.net);
            let result =
                stream_into(|request| Ok(hostile(&tailed, request)), &mut ledger, &mut store);
            ensure!(result.is_err(), "hostile stream succeeded: {result:?}");
            if before_install {
                ensure!(ledger.height() == 0, "ledger moved to {}", ledger.height());
                let adopted = store.snapshots().heights().unwrap();
                ensure!(adopted.is_empty(), "snapshot left adopted: {adopted:?}");
            } else {
                // The tail stops where it stops, on disk as in memory.
                drop(store);
                let on_disk = recovered_height(&dir, &tailed.net);
                ensure!(on_disk == ledger.height(), "disk at {on_disk}, ledger at {}", ledger.height());
            }
            Ok(())
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
