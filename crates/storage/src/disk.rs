//! [`DiskStore`] — the durable [`BlockStore`] a node attaches to its
//! ledger, combining the segmented block log and the snapshot store
//! with a recovery path.
//!
//! Lifecycle:
//!
//! 1. [`DiskStore::open`] scans the log, truncating a torn tail and
//!    indexing where each record starts; it keeps no block.
//! 2. [`DiskStore::recover_into`] restores the ledger from the newest
//!    usable snapshot and replays the log tail through
//!    [`Ledger::apply`], reading each block back as it goes —
//!    deterministic re-execution, so the replayed tip hash and state
//!    root are *verified* against what was stored, not assumed.
//! 3. `ledger.attach_store(Box::new(store))` — every later commit is
//!    persisted write-ahead ([`BlockStore::append`]), then offered back
//!    with its authenticated tree and its writes
//!    ([`BlockStore::checkpoint`]), which is where the periodic snapshot
//!    is written: a full one, or a delta of the writes since the last
//!    full one this store wrote. The ledger then keeps decoded only the
//!    blocks from the newest snapshot up
//!    ([`BlockStore::below_snapshot`]) and reads older ones back from
//!    the log ([`BlockStore::read_block`]).

use crate::durable::Disk;
use crate::pages::PageStore;
use crate::snapshot::{Snapshot, SnapshotStore};
use crate::wal::SegmentedLog;
use medchain_chain::store::{BlockStore, StoreError};
use medchain_chain::{Block, Hash256, Ledger, StateDelta, StateTree, WorldState};
use medchain_runtime::codec::Encode;
use medchain_runtime::metrics::Metrics;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// When appended blocks are fsynced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append — maximum durability, one sync per block.
    Always,
    /// Never fsync implicitly; only [`BlockStore::flush`] syncs. A crash
    /// can lose OS-buffered tail records (recovery still truncates
    /// cleanly).
    Never,
}

/// Full snapshot files kept on disk; older ones are pruned as each new
/// one lands.
const RETAIN_SNAPSHOTS: usize = 2;

/// Delta snapshot files kept on the newest full one.
const RETAIN_DELTAS: usize = 2;

/// A boundary writes a full snapshot, not a delta, once the writes since
/// the last full one number more than the state's leaves divided by
/// this: past half the state a delta saves little, and recovery's merge
/// of it would cost more than decoding a full tree.
const DELTA_LEAF_DIVISOR: usize = 2;

/// Configuration for a [`DiskStore`].
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    /// Roll to a new log segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Fsync policy for log appends.
    pub fsync: FsyncPolicy,
    /// Write a world-state snapshot every this many blocks (0 = never).
    pub snapshot_every: u64,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::Always,
            snapshot_every: 64,
        }
    }
}

/// What [`DiskStore::recover_into`] reconstructed.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Ledger height after recovery (0 = nothing on disk, fresh chain).
    pub height: u64,
    /// Tip block id after recovery.
    pub tip_id: Hash256,
    /// Blocks re-executed from the log tail.
    pub replayed_blocks: u64,
    /// Corruption events cut from the log tail during open (0 or 1).
    pub truncated_records: u64,
    /// Height of the snapshot recovery started from, full or delta, if
    /// any.
    pub from_snapshot: Option<u64>,
}

/// Durable [`BlockStore`]: segmented WAL + periodic snapshots.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    log: SegmentedLog,
    snaps: SnapshotStore,
    config: StorageConfig,
    metrics: Metrics,
    truncated_records: u64,
    /// Height of the newest snapshot this store wrote or recovered from,
    /// full or delta.
    floor: Option<u64>,
    /// State page cache attached via [`DiskStore::attach_pages`]:
    /// dirty pages are written back at snapshot boundaries.
    pages: Option<Arc<PageStore>>,
    /// The newest full snapshot this store wrote and every write since:
    /// what the next boundary writes as a delta. `None` until a full
    /// snapshot lands, and again after a checkpoint without writes or a
    /// failed full one.
    base: Option<DeltaBase>,
}

/// A full snapshot this store wrote, and the writes of every block
/// checkpointed since, folded into one delta.
#[derive(Debug)]
struct DeltaBase {
    height: u64,
    tip_id: Hash256,
    writes: StateDelta,
}

impl DiskStore {
    /// Opens (creating if absent) the store in `dir`, scanning the log
    /// and truncating a torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: impl AsRef<Path>, config: StorageConfig) -> Result<DiskStore, StoreError> {
        DiskStore::open_with_metrics(dir, config, Metrics::noop())
    }

    /// [`DiskStore::open`] with a metrics handle: emits
    /// `storage.truncated_records` during the scan and `storage.*`
    /// counters on every append.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn open_with_metrics(
        dir: impl AsRef<Path>,
        config: StorageConfig,
        metrics: Metrics,
    ) -> Result<DiskStore, StoreError> {
        DiskStore::open_in(Disk::os(metrics), dir.as_ref(), config)
    }

    /// [`DiskStore::open_with_metrics`] on `disk`, counting on its metrics.
    pub(crate) fn open_in(
        disk: Disk,
        dir: &Path,
        config: StorageConfig,
    ) -> Result<DiskStore, StoreError> {
        let (log, scan) = SegmentedLog::open_in(disk.clone(), dir, config.segment_bytes)?;
        let metrics = disk.metrics().clone();
        let snaps = SnapshotStore::open_in(disk, dir)?;
        if scan.truncated_records > 0 {
            metrics.counter("storage.truncated_records", scan.truncated_records);
        }
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            log,
            snaps,
            config,
            metrics,
            truncated_records: scan.truncated_records,
            floor: None,
            pages: None,
            base: None,
        })
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Attaches the site's state [`PageStore`] so dirty pages are
    /// written back at snapshot boundaries (DESIGN.md §14): when a
    /// snapshot lands, the cold state the snapshot summarizes is also
    /// durable in the page file, keeping page-cache write-back
    /// amortized over the snapshot cadence instead of per-commit.
    pub fn attach_pages(&mut self, pages: Arc<PageStore>) {
        self.pages = Some(pages);
    }

    /// The snapshot sub-store (bootstrap streaming serves and adopts
    /// snapshot payloads through it).
    pub fn snapshots(&self) -> &SnapshotStore {
        &self.snaps
    }

    /// The newest on-disk snapshot as `(height, raw payload)` — what a
    /// peer chunks and streams to a bootstrapping site. `None` when no
    /// valid snapshot file exists yet.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn latest_snapshot_payload(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        for height in self.snaps.heights()?.into_iter().rev() {
            if let Some(payload) = self.snaps.raw_payload(height)? {
                return Ok(Some((height, payload)));
            }
        }
        Ok(None)
    }

    /// Corruption events truncated during open.
    pub fn truncated_records(&self) -> u64 {
        self.truncated_records
    }

    /// Restores `ledger` to the persisted chain: loads the newest
    /// snapshot consistent with the log, then replays the log tail
    /// through [`Ledger::apply`]. The ledger must be freshly
    /// constructed (at genesis) with its contract runtime installed, so
    /// replayed transactions re-execute exactly as they did originally.
    /// Call before `attach_store`, so replayed blocks are not
    /// re-appended.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Recovery`] if the persisted chain cannot be
    /// reconstructed (missing snapshot for a pruned log, replay
    /// rejection, or a tip mismatch after replay).
    pub fn recover_into(&mut self, ledger: &mut Ledger) -> Result<RecoveryReport, StoreError> {
        let logged = self.log.heights();
        let from_snapshot = match self.restore_point()? {
            Some(Snapshot { height, tip, state, tree }) => {
                ledger
                    .restore_with_tree(state, tip, tree)
                    .map_err(|e| StoreError::Recovery(e.to_string()))?;
                Some(height)
            }
            None => None,
        };
        // An empty log leaves a fresh store, or a lone adopted snapshot.
        let replay_above = ledger.height();
        if !logged.is_empty() && from_snapshot.is_none() && logged.start != replay_above + 1 {
            return Err(StoreError::Recovery(format!(
                "log starts at height {} but ledger is at {replay_above} and no usable \
                 snapshot bridges the gap",
                logged.start
            )));
        }

        let mut replayed = 0u64;
        for height in logged.start.max(replay_above + 1)..logged.end {
            let block = self.logged_block(height)?;
            ledger.apply(&block).map_err(|e| {
                StoreError::Recovery(format!("replay rejected block {height}: {e}"))
            })?;
            replayed += 1;
        }
        if let Some(newest) = logged.clone().last() {
            if self.logged_block(newest)?.id() != ledger.tip().id() {
                return Err(StoreError::Recovery(format!(
                    "replayed tip {} does not match stored tip at height {newest}",
                    ledger.height()
                )));
            }
        }
        self.floor = from_snapshot;
        self.metrics.counter("storage.replayed_blocks", replayed);
        Ok(RecoveryReport {
            height: ledger.height(),
            tip_id: ledger.tip().id(),
            replayed_blocks: replayed,
            truncated_records: self.truncated_records,
            from_snapshot,
        })
    }

    /// The block the open scan indexed at `height`, read back.
    fn logged_block(&self, height: u64) -> Result<Block, StoreError> {
        self.log.read_block(height)?.ok_or_else(|| {
            StoreError::Recovery(format!("the log lost the block at height {height}"))
        })
    }

    /// The newest snapshot that agrees with the log, full or delta; at
    /// one height a delta is tried first. A snapshot agrees when the log
    /// still holds its tip (same block id, read back) or starts right
    /// after it — or when the log is empty. A delta counts only once its
    /// base full snapshot loads, names the delta's base tip, and takes
    /// the delta to the delta tip's state root. Files that are torn,
    /// corrupt, foreign or disagree are skipped, so an older snapshot,
    /// or genesis, anchors the replay instead. Each full file read counts
    /// in `storage.snapshot_reads`, each delta file in
    /// `storage.delta_reads`.
    fn restore_point(&self) -> Result<Option<Snapshot>, StoreError> {
        let logged = self.log.heights();
        let agrees = |tip: &Block| -> Result<bool, StoreError> {
            let height = tip.header.height;
            Ok(if logged.is_empty() {
                true
            } else if height < logged.start {
                height + 1 == logged.start
            } else {
                self.logged_block(height)?.id() == tip.id()
            })
        };
        let newest = logged.clone().last().unwrap_or(u64::MAX);
        let deltas = self.snaps.delta_heights()?.into_iter().map(|h| (h, true));
        let fulls = self.snaps.heights()?.into_iter().map(|h| (h, false));
        let mut candidates: Vec<(u64, bool)> =
            deltas.chain(fulls).filter(|(height, _)| *height <= newest).collect();
        // Newest first, and a delta before a full at the same height.
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        let load = |height: u64| {
            self.metrics.counter("storage.snapshot_reads", 1);
            self.snaps.load(height)
        };
        for (height, is_delta) in candidates {
            let snap = if is_delta {
                self.metrics.counter("storage.delta_reads", 1);
                let Some(delta) = self.snaps.read_delta(height)? else { continue };
                if !agrees(&delta.tip)? {
                    continue;
                }
                load(delta.base_height)?.and_then(|base| delta.onto(base))
            } else {
                match load(height)? {
                    Some(snap) if agrees(&snap.tip)? => Some(snap),
                    _ => None,
                }
            };
            if snap.is_some() {
                return Ok(snap);
            }
        }
        Ok(None)
    }

    /// Writes the snapshot due at `tip` — a delta of the writes since
    /// the base full snapshot while they number at most the state's
    /// leaves over [`DELTA_LEAF_DIVISOR`], else a full one that becomes
    /// the new base — then prunes older files and writes back the page
    /// cache. A failed full leaves no base; a failed delta keeps its
    /// writes, so the next delta covers them.
    fn snapshot(
        &mut self,
        tip: &Block,
        state: &WorldState,
        tree: &StateTree,
    ) -> Result<(), StoreError> {
        let delta_base = self
            .base
            .as_ref()
            .filter(|base| base.writes.len() <= state.leaf_count() / DELTA_LEAF_DIVISOR);
        let (bytes, base_height) = match delta_base {
            Some(base) => {
                let bytes = self.snaps.write_delta(tip, base.height, base.tip_id, &base.writes)?;
                (bytes, base.height)
            }
            None => {
                self.base = None;
                let bytes = self.snaps.write(tip, state, tree)?;
                let height = tip.header.height;
                let writes = StateDelta::default();
                self.base = Some(DeltaBase { height, tip_id: tip.id(), writes });
                (bytes, height)
            }
        };
        self.floor = Some(tip.header.height);
        self.snaps.prune(RETAIN_SNAPSHOTS, RETAIN_DELTAS, base_height)?;
        // Snapshot boundaries are the page cache's write-back points:
        // the cold state this snapshot summarizes becomes durable in
        // the page file too (derived data, but keeping the two in step
        // bounds how stale the page file can be).
        if let Some(pages) = &self.pages {
            pages.flush().map_err(StoreError::from)?;
        }
        self.metrics.counter("storage.snapshots", 1);
        self.metrics.counter("storage.bytes", bytes);
        Ok(())
    }
}

impl BlockStore for DiskStore {
    fn append(&mut self, block: &Block, _state: &WorldState) -> Result<(), StoreError> {
        let bytes = self.log.append(block.header.height, &block.encoded())?;
        self.metrics.counter("storage.appends", 1);
        self.metrics.counter("storage.bytes", bytes);
        if self.config.fsync == FsyncPolicy::Always {
            self.log.sync()?;
        }
        Ok(())
    }

    fn checkpoint(
        &mut self,
        tip: &Block,
        state: &WorldState,
        tree: &StateTree,
        writes: Option<&StateDelta>,
    ) -> Result<(), StoreError> {
        let every = self.config.snapshot_every;
        if every == 0 {
            return Ok(());
        }
        match (writes, &mut self.base) {
            (Some(writes), Some(base)) => base.writes.absorb(writes),
            // The state moved by more than a block: no delta spans it.
            (None, base) => *base = None,
            (Some(_), None) => {}
        }
        if !tip.header.height.is_multiple_of(every) {
            return Ok(());
        }
        let written = self.snapshot(tip, state, tree);
        if let Err(e) = &written {
            self.metrics.counter("storage.snapshot_failures", 1);
            self.metrics.event(
                "storage",
                "snapshot_failed",
                &[("height", tip.header.height.to_string()), ("error", e.to_string())],
            );
        }
        written
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        self.log.sync()
    }

    fn read_block(&self, height: u64) -> Result<Option<Block>, StoreError> {
        self.log.read_block(height)
    }

    fn below_snapshot(&self) -> Range<u64> {
        let logged = self.log.heights();
        let floor = self.floor.unwrap_or(0).clamp(logged.start, logged.end);
        logged.start..floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_dir;
    use medchain_chain::ledger::NullRuntime;
    use medchain_chain::sig::AuthorityKey;
    use medchain_chain::tx::{Transaction, TxPayload};
    use medchain_chain::KeyRegistry;
    use std::fs;

    fn fresh_ledger(key: &AuthorityKey) -> Ledger {
        let mut registry = KeyRegistry::new();
        registry.enroll(key);
        Ledger::new("disk-test", registry, Box::new(NullRuntime))
    }

    /// Commits `n` anchor-tx blocks (anchors need no balance, so replay
    /// from genesis reproduces the state exactly).
    fn grow(ledger: &mut Ledger, key: &AuthorityKey, n: u64) {
        for _ in 0..n {
            let h = ledger.height();
            let tx = Transaction::new(
                key.address(),
                ledger.state().account(&key.address()).nonce,
                TxPayload::Anchor {
                    root: Hash256::digest(&h.to_le_bytes()),
                    label: format!("dataset-{h}"),
                },
                100,
            )
            .signed(key);
            let block = ledger.propose(key.address(), (h + 1) * 50, vec![tx]);
            ledger.apply(&block).unwrap();
        }
    }

    #[test]
    fn fresh_store_recovers_to_genesis() {
        let dir = test_dir("disk-fresh");
        let key = AuthorityKey::from_seed(1);
        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        let report = store.recover_into(&mut ledger).unwrap();
        assert_eq!(report.height, 0);
        assert_eq!(report.replayed_blocks, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_close_reopen_replays_identical_chain() {
        let dir = test_dir("disk-reopen");
        let key = AuthorityKey::from_seed(1);
        let config = StorageConfig { snapshot_every: 3, ..StorageConfig::default() };

        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).unwrap();
        store.recover_into(&mut ledger).unwrap();
        ledger.attach_store(Box::new(store));
        grow(&mut ledger, &key, 7);
        let (tip_id, state_root) = (ledger.tip().id(), ledger.state().state_root());
        drop(ledger);

        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).unwrap();
        let report = store.recover_into(&mut ledger).unwrap();
        assert_eq!(report.height, 7);
        assert_eq!(report.tip_id, tip_id);
        // Snapshot at height 6 bounds the replay to the single tail block.
        assert_eq!(report.from_snapshot, Some(6));
        assert_eq!(report.replayed_blocks, 1);
        assert_eq!(ledger.tip().id(), tip_id);
        assert_eq!(ledger.state().state_root(), state_root);
        // The chain keeps growing from the recovered tip.
        ledger.attach_store(Box::new(store));
        grow(&mut ledger, &key, 2);
        assert_eq!(ledger.height(), 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_disagreeing_with_log_falls_back_to_replay() {
        let dir = test_dir("disk-bad-snap");
        let key = AuthorityKey::from_seed(1);
        let config = StorageConfig { snapshot_every: 2, ..StorageConfig::default() };

        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).unwrap();
        store.recover_into(&mut ledger).unwrap();
        ledger.attach_store(Box::new(store));
        grow(&mut ledger, &key, 4);
        let tip_id = ledger.tip().id();
        drop(ledger);

        // Replace the newest snapshot with one from a *different* chain:
        // internally consistent, but its tip id won't match the log.
        let other_snaps = SnapshotStore::open(&dir).unwrap();
        let mut other = fresh_ledger(&AuthorityKey::from_seed(2));
        grow(&mut other, &AuthorityKey::from_seed(2), 4);
        let foreign_fourth = other.block(4).unwrap();
        other_snaps.write(foreign_fourth, other.state(), &other.state_tree()).unwrap();

        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).unwrap();
        let report = store.recover_into(&mut ledger).unwrap();
        assert_eq!(report.tip_id, tip_id);
        // The forged height-4 snapshot was rejected; height 2 still agrees.
        assert_eq!(report.from_snapshot, Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[cfg(test)]
mod crash_points {
    //! Every crash point of one scripted run, checked offline (DESIGN.md
    //! §8). A site adopts a payload that recovery refuses and discards
    //! it, adopts a peer's snapshot, pages its state under a tiny cache
    //! and commits blocks under `FsyncPolicy::Always`, across segment
    //! rolls, full and delta snapshots, prunes and page spills, on the
    //! crash model of `durable.rs`. For every prefix of the operations it
    //! made and every allowed set of unsynced effects (all of them when
    //! few, a seeded sample when many), recovery into a fresh ledger must
    //! reach a tip at or above the last acknowledged height with the
    //! run's own tip id and state root there, or refuse with a named
    //! error; it must never panic. Once the discard returned, the refused
    //! payload must never come back.

    use super::*;
    use crate::durable::model::{Effect, Image, Model, Op};
    use crate::record::frame_record;
    use crate::snapshot::snapshot_payload;
    use medchain_chain::ledger::NullRuntime;
    use medchain_chain::sig::{Address, AuthorityKey};
    use medchain_chain::tx::{Transaction, TxPayload};
    use medchain_chain::{KeyRegistry, StateCacheConfig};
    use medchain_runtime::check::{check, CheckConfig};
    use medchain_runtime::metrics::Registry;
    use medchain_runtime::rng::DetRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const DIR: &str = "/data/site-0";
    const SEED: u64 = 41;
    /// Height of the peer snapshot the site adopts.
    const ADOPTED: u64 = 4;
    /// Height of the payload the site adopts first, which recovery
    /// refuses: CRC-framed like any snapshot, but no snapshot inside.
    const REFUSED: u64 = 2;
    const REFUSED_PAYLOAD: &[u8] = b"a payload that decodes as no snapshot";
    /// Height the site commits to after it.
    const TIP: u64 = 20;
    const CONFIG: StorageConfig =
        StorageConfig { segment_bytes: 4096, fsync: FsyncPolicy::Always, snapshot_every: 4 };
    /// Most ways a crash point's unsynced effects may land for all of
    /// them to be tried; past it the point is left to the sample.
    const EXHAUSTIVE: usize = 64;

    fn fresh_ledger() -> Ledger {
        let key = AuthorityKey::from_seed(SEED);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let mut ledger = Ledger::new("crash-points", registry, Box::new(NullRuntime));
        ledger.state_mut().credit(key.address(), 1_000_000);
        ledger
    }

    /// Four transfers across a 64-account universe, or anchors.
    fn next_block(rng: &mut DetRng, ledger: &mut Ledger) -> Block {
        let key = AuthorityKey::from_seed(SEED);
        let height = ledger.height() + 1;
        let nonce = ledger.state().account(&key.address()).nonce;
        let txs: Vec<Transaction> = (0..4)
            .map(|k| {
                let payload = if !rng.next_u64().is_multiple_of(3) {
                    let mut to = [0u8; 20];
                    to[..8].copy_from_slice(&(rng.next_u64() % 64).to_le_bytes());
                    TxPayload::Transfer { to: Address(to), amount: 1 + rng.next_u64() % 50 }
                } else {
                    let label = format!("scan-{height}-{k}");
                    TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }
                };
                Transaction::new(key.address(), nonce + k, payload, 100).signed(&key)
            })
            .collect();
        ledger.propose(key.address(), height * 50, txs)
    }

    type Recovered = Result<RecoveryReport, StoreError>;

    /// The scripted run: its operations, when each height was
    /// acknowledged, and each height's block id and state root.
    struct Run {
        ops: Vec<Op>,
        /// `(operations made, height)`: `height` was acknowledged once
        /// that many operations were made.
        acks: Vec<(usize, u64)>,
        tips: Vec<(Hash256, Hash256)>,
        /// The site's own blocks, by height.
        blocks: Vec<Block>,
        /// `storage.fsyncs` over the run, and the syncs the model logged.
        fsyncs: (u64, usize),
        /// Operations made when the refused payload's discard returned.
        discarded: usize,
    }

    fn scripted_run() -> Run {
        let mut rng = DetRng::from_seed(SEED);
        // A peer's chain to the adopted height: the site adopts its
        // snapshot as streamed bootstrap does (DESIGN.md §14).
        let mut peer = fresh_ledger();
        let mut tips = vec![(peer.tip().id(), peer.state().state_root())];
        while peer.height() < ADOPTED {
            let block = next_block(&mut rng, &mut peer);
            peer.apply(&block).expect("peer block commits");
            tips.push((block.id(), block.header.state_root));
        }
        let payload = snapshot_payload(peer.tip(), peer.state(), &peer.state_tree());

        let (model, registry) = (Model::default(), Registry::new());
        let disk = Disk::new(Arc::new(model.clone()), registry.handle());
        let mut store = DiskStore::open_in(disk.clone(), Path::new(DIR), CONFIG).expect("opens");
        // A streamed payload that fails to install is discarded, as
        // `stream_into` does.
        store.snapshots().adopt_payload(REFUSED, REFUSED_PAYLOAD).expect("payload adopted");
        let refused = store.recover_into(&mut fresh_ledger()).expect("recovers to genesis");
        assert_eq!(refused.from_snapshot, None, "the payload installed");
        store.snapshots().discard(REFUSED).expect("refused payload discarded");
        let discarded = model.len();
        store.snapshots().adopt_payload(ADOPTED, &payload).expect("snapshot adopted");
        let mut ledger = fresh_ledger();
        store.recover_into(&mut ledger).expect("adopted snapshot installs");
        let mut acks = vec![(model.len(), ADOPTED)];
        let path = Path::new(DIR).join("pages.bin");
        let pages = Arc::new(PageStore::open_in(disk, &path, 2).expect("page store opens"));
        store.attach_pages(Arc::clone(&pages));
        ledger.attach_state_cache(StateCacheConfig {
            pager: pages,
            max_hot_accounts: 8,
            node_budget: 16,
        });
        ledger.attach_store(Box::new(store));
        let mut blocks = vec![peer.tip().clone(); ADOPTED as usize + 1];
        while ledger.height() < TIP {
            let block = next_block(&mut rng, &mut ledger);
            ledger.apply(&block).expect("block commits");
            acks.push((model.len(), block.header.height));
            tips.push((block.id(), block.header.state_root));
            blocks.push(block);
        }
        let fsyncs = (registry.counter_value("storage.fsyncs"), model.syncs());
        Run { ops: model.ops(), acks, tips, blocks, fsyncs, discarded }
    }

    impl Run {
        /// The image a crash after `k` operations finds, before it lands
        /// any unsynced effect.
        fn image_at(&self, k: usize) -> Image {
            let mut image = Image::default();
            self.ops[..k].iter().for_each(|op| image.apply(op));
            image
        }

        /// The highest height acknowledged after `k` operations (0 when
        /// none was).
        fn acked_at(&self, k: usize) -> u64 {
            self.acks.iter().filter(|(made, _)| *made <= k).map(|(_, h)| *h).max().unwrap_or(0)
        }

        /// Recovers a fresh ledger from `image`, and says whether the
        /// store holds the refused payload; `Err` if recovery panics.
        fn restart(&self, image: Image) -> Result<(Recovered, Ledger, bool), String> {
            catch_unwind(AssertUnwindSafe(|| {
                let disk = Disk::new(Arc::new(Model::holding(image)), Metrics::noop());
                let mut ledger = fresh_ledger();
                let mut store = DiskStore::open_in(disk, Path::new(DIR), CONFIG);
                let refused = store.as_ref().is_ok_and(|store| {
                    let served = store.snapshots().raw_payload(REFUSED);
                    served.is_ok_and(|payload| payload.as_deref() == Some(REFUSED_PAYLOAD))
                });
                let report = store.as_mut().map_err(|e| e.clone());
                (report.and_then(|store| store.recover_into(&mut ledger)), ledger, refused)
            }))
            .map_err(|panic| {
                let said = panic.downcast_ref::<String>().cloned();
                let said = said.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
                format!("recovery panicked: {}", said.unwrap_or_default())
            })
        }

        /// The oracle, for a crash after `k` operations whose unsynced
        /// `effects` land as `picks`: `Ok(true)` if recovery reaches a tip
        /// at or above the acknowledged height that is the run's own, tip
        /// id and state root, `Ok(false)` if it refuses with a named error.
        fn recovers(
            &self,
            k: usize,
            image: &Image,
            effects: &[Effect],
            picks: &[u64],
        ) -> Result<bool, String> {
            let acked = self.acked_at(k);
            let (report, ledger, refused) = self.restart(image.crash(effects, picks))?;
            let ops = self.ops.len();
            if refused && k >= self.discarded {
                let came_back = "the discarded payload came back";
                return Err(format!("crash after {k} of {ops} operations, {effects:?} as {picks:?}: {came_back}"));
            }
            if report.is_err() {
                return Ok(false);
            }
            let height = ledger.height();
            let got = (ledger.tip().id(), ledger.state().state_root());
            let wrong = match self.tips.get(height as usize) {
                _ if height < acked => format!("recovered to {height}, below acknowledged {acked}"),
                Some(want) if got == *want => return Ok(true),
                _ => format!("the state recovered at {height} is not the run's"),
            };
            Err(format!("crash after {k} of {ops} operations, {effects:?} as {picks:?}: {wrong}"))
        }

        /// The crash right after the write of block `height`'s record,
        /// which keeps half of it and no other unsynced effect.
        fn torn_append(&self, height: u64) -> Image {
            let record = frame_record(&self.blocks[height as usize].encoded()).expect("frames");
            let written = self.ops.iter().position(|op| {
                matches!(op, Op::Write { bytes, .. } if *bytes == record)
            });
            let image = self.image_at(written.expect("the record was written") + 1);
            let effects = image.unsynced();
            let picks: Vec<u64> = effects
                .iter()
                .map(|effect| match *effect {
                    Effect::Tail { synced, live, .. } if live - synced == record.len() as u64 => {
                        synced + (live - synced) / 2
                    }
                    Effect::Tail { synced, .. } => synced,
                    _ => 0,
                })
                .collect();
            image.crash(&effects, &picks)
        }
    }

    /// Every crash point passes the oracle, and their number is pinned:
    /// a change to what the store writes or syncs moves it.
    #[test]
    fn every_crash_point_recovers_to_its_acknowledged_tip() {
        let run = scripted_run();
        assert_eq!(run.fsyncs.0, run.fsyncs.1 as u64, "storage.fsyncs is not the sync log");
        let (mut states, mut refused, mut wide) = (0usize, 0usize, Vec::new());
        let mut image = Image::default();
        for k in 0..=run.ops.len() {
            if k > 0 {
                image.apply(&run.ops[k - 1]);
            }
            let effects = image.unsynced();
            let picks: Vec<Vec<u64>> = effects.iter().map(Effect::picks).collect();
            let ways: usize = picks.iter().map(Vec::len).product();
            if ways > EXHAUSTIVE {
                wide.push(k);
                continue;
            }
            for way in 0..ways {
                let (mut rest, mut chosen) = (way, Vec::with_capacity(picks.len()));
                for options in &picks {
                    chosen.push(options[rest % options.len()]);
                    rest /= options.len();
                }
                let recovered = run.recovers(k, &image, &effects, &chosen);
                let recovered = recovered.unwrap_or_else(|e| panic!("{e}"));
                states += 1;
                refused += usize::from(!recovered);
            }
        }
        let tally = (run.ops.len() + 1, states, refused, wide.len());
        assert_eq!(tally, (146, 647, 0, 0), "(crash points, states, refused, left to the sample)");

        // Points with too many ways to try them all, and any point with
        // an unsynced tail cut at any byte, are drawn by seed.
        let points = if wide.is_empty() { (0..=run.ops.len()).collect() } else { wide.clone() };
        check("crash points with drawn unsynced effects", CheckConfig::cases(32), |g| {
            let k = points[g.usize_in(0, points.len())];
            let image = run.image_at(k);
            let effects = image.unsynced();
            let chosen: Vec<u64> = effects.iter().map(|e| e.draw(g)).collect();
            run.recovers(k, &image, &effects, &chosen).map(|_| ())
        });
    }

    /// The torn-append crash points: a crash that keeps half of a block's
    /// record loses that block and nothing before it, mid-segment or as
    /// the first record of a fresh one.
    #[test]
    fn a_torn_append_recovers_to_the_block_before_it() {
        let run = scripted_run();
        let torn = [
            ("torn append three blocks past a full snapshot", 19, 2),
            ("torn first record of a fresh segment", 17, 0),
        ];
        for (name, height, replayed) in torn {
            let (report, ledger, _) = run.restart(run.torn_append(height)).expect(name);
            let report = report.unwrap_or_else(|e| panic!("{name}: {e}"));
            let got = (report.height, report.truncated_records, report.from_snapshot);
            assert_eq!(got, (height - 1, 1, Some(16)), "{name}");
            assert_eq!(report.replayed_blocks, replayed, "{name}");
            let tip = (ledger.tip().id(), ledger.state().state_root());
            assert_eq!(tip, run.tips[height as usize - 1], "{name}");
        }
    }
}
