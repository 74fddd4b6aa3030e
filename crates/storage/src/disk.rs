//! [`DiskStore`] — the durable [`BlockStore`] a node attaches to its
//! ledger, combining the segmented block log and the snapshot store
//! with a recovery path and fault injection.
//!
//! Lifecycle:
//!
//! 1. [`DiskStore::open`] scans the log, truncating a torn tail.
//! 2. [`DiskStore::recover_into`] restores the ledger from the newest
//!    usable snapshot and replays the log tail through
//!    [`Ledger::apply`] — deterministic re-execution, so the replayed
//!    tip hash and state root are *verified* against what was stored,
//!    not assumed.
//! 3. `ledger.attach_store(Box::new(store))` — every later commit is
//!    persisted write-ahead ([`BlockStore::append`]), then offered back
//!    with its authenticated tree ([`BlockStore::checkpoint`]), which
//!    is where the periodic snapshot is written.

use crate::pages::PageStore;
use crate::snapshot::SnapshotStore;
use crate::wal::SegmentedLog;
use medchain_chain::store::{BlockStore, StoreError};
use medchain_chain::{Block, Hash256, Ledger, StateTree, WorldState};
use medchain_runtime::codec::Encode;
use medchain_runtime::metrics::Metrics;
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

/// Fault injection for crash testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// When the block at height `at` is appended, write only half its
    /// record and fail with [`StoreError::InjectedCrash`] — simulating a
    /// process death mid-`write`. One-shot: the fault disarms after
    /// firing.
    TornAppend {
        /// Height whose append is torn.
        at: u64,
    },
}

/// Snapshot files kept on disk; older ones are pruned as each new one
/// lands.
const RETAIN_SNAPSHOTS: usize = 2;

/// Configuration for a [`DiskStore`].
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    /// Roll to a new log segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Fsync policy for log appends.
    pub fsync: FsyncPolicy,
    /// Write a world-state snapshot every this many blocks (0 = never).
    pub snapshot_every: u64,
    /// Optional fault injector.
    pub fault: Option<StorageFault>,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::Always,
            snapshot_every: 64,
            fault: None,
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
    /// Height of the snapshot recovery started from, if any.
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
    /// Blocks scanned from the log on open, held until `recover_into`
    /// consumes them (or the first append discards them).
    scanned: Option<Vec<Block>>,
    /// State page cache attached via [`DiskStore::attach_pages`]:
    /// dirty pages are written back at snapshot boundaries.
    pages: Option<Arc<PageStore>>,
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
        let dir = dir.as_ref().to_path_buf();
        let (log, scan) = SegmentedLog::open(&dir, config.segment_bytes)?;
        let snaps = SnapshotStore::open(&dir)?;
        if scan.truncated_records > 0 {
            metrics.counter("storage.truncated_records", scan.truncated_records);
        }
        Ok(DiskStore {
            dir,
            log,
            snaps,
            config,
            metrics,
            truncated_records: scan.truncated_records,
            scanned: Some(scan.blocks),
            pages: None,
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
        let blocks = self.scanned.take().unwrap_or_default();
        let report = self.recover_blocks(ledger, blocks)?;
        self.metrics.counter("storage.replayed_blocks", report.replayed_blocks);
        Ok(report)
    }

    fn recover_blocks(
        &mut self,
        ledger: &mut Ledger,
        blocks: Vec<Block>,
    ) -> Result<RecoveryReport, StoreError> {
        let Some(last) = blocks.last() else {
            // Empty log: either a fresh store, or everything up to a
            // snapshot was pruned.
            let snap = self.snaps.latest_valid(u64::MAX)?;
            return match snap {
                None => Ok(RecoveryReport {
                    height: ledger.height(),
                    tip_id: ledger.tip().id(),
                    replayed_blocks: 0,
                    truncated_records: self.truncated_records,
                    from_snapshot: None,
                }),
                Some(snap) => {
                    let height = snap.height;
                    ledger
                        .restore_with_tree(snap.state, snap.tip, snap.tree)
                        .map_err(|e| StoreError::Recovery(e.to_string()))?;
                    Ok(RecoveryReport {
                        height,
                        tip_id: ledger.tip().id(),
                        replayed_blocks: 0,
                        truncated_records: self.truncated_records,
                        from_snapshot: Some(height),
                    })
                }
            };
        };
        let (tip_height, tip_id) = (last.header.height, last.id());
        let first_height = blocks[0].header.height;

        // Pick the newest snapshot that agrees with the log: its height
        // must fall where the log (or genesis) can extend it, and if the
        // log still has the block at that height, the ids must match.
        let mut from_snapshot = None;
        let mut max = tip_height;
        while from_snapshot.is_none() {
            let Some(snap) = self.snaps.latest_valid(max)? else { break };
            let logged = blocks
                .iter()
                .find(|b| b.header.height == snap.height)
                .map(Block::id);
            let agrees = match logged {
                Some(logged_id) => logged_id == snap.tip.id(),
                None => snap.height + 1 == first_height,
            };
            if agrees {
                from_snapshot = Some(snap);
            } else if snap.height == 0 {
                break;
            } else {
                max = snap.height - 1;
            }
        }

        let replay_above = match from_snapshot.as_ref() {
            Some(snap) => {
                let height = snap.height;
                ledger
                    .restore_with_tree(snap.state.clone(), snap.tip.clone(), snap.tree.clone())
                    .map_err(|e| StoreError::Recovery(e.to_string()))?;
                height
            }
            None => {
                if first_height != ledger.height() + 1 {
                    return Err(StoreError::Recovery(format!(
                        "log starts at height {first_height} but ledger is at \
                         {} and no usable snapshot bridges the gap",
                        ledger.height()
                    )));
                }
                ledger.height()
            }
        };

        let mut replayed = 0u64;
        for block in blocks.iter().filter(|b| b.header.height > replay_above) {
            ledger.apply(block).map_err(|e| {
                StoreError::Recovery(format!(
                    "replay rejected block {}: {e}",
                    block.header.height
                ))
            })?;
            replayed += 1;
        }
        if ledger.tip().id() != tip_id {
            return Err(StoreError::Recovery(format!(
                "replayed tip {} does not match stored tip at height {tip_height}",
                ledger.height()
            )));
        }
        Ok(RecoveryReport {
            height: tip_height,
            tip_id,
            replayed_blocks: replayed,
            truncated_records: self.truncated_records,
            from_snapshot: from_snapshot.map(|s| s.height),
        })
    }

    /// Writes the snapshot due at `tip`, prunes older ones, and writes
    /// back the page cache.
    fn snapshot(
        &mut self,
        tip: &Block,
        state: &WorldState,
        tree: &StateTree,
    ) -> Result<(), StoreError> {
        let bytes = self.snaps.write(tip, state, tree)?;
        self.snaps.prune(RETAIN_SNAPSHOTS)?;
        // Snapshot boundaries are the page cache's write-back points:
        // the cold state this snapshot summarizes becomes durable in
        // the page file too (derived data, but keeping the two in step
        // bounds how stale the page file can be).
        if let Some(pages) = &self.pages {
            pages.flush().map_err(StoreError::from)?;
        }
        self.metrics.counter("storage.snapshots", 1);
        self.metrics.counter("storage.bytes", bytes);
        self.metrics.counter("storage.fsyncs", 1);
        Ok(())
    }
}

impl BlockStore for DiskStore {
    fn append(&mut self, block: &Block, _state: &WorldState) -> Result<(), StoreError> {
        // Stale scan results are meaningless once new blocks land.
        self.scanned = None;
        let payload = block.encoded();
        if let Some(StorageFault::TornAppend { at }) = self.config.fault {
            if block.header.height == at {
                self.config.fault = None;
                self.log.append_torn(block.header.height, &payload)?;
                return Err(StoreError::InjectedCrash);
            }
        }
        let bytes = self.log.append(block.header.height, &payload)?;
        self.metrics.counter("storage.appends", 1);
        self.metrics.counter("storage.bytes", bytes);
        if self.config.fsync == FsyncPolicy::Always {
            self.log.sync()?;
            self.metrics.counter("storage.fsyncs", 1);
        }
        Ok(())
    }

    fn checkpoint(
        &mut self,
        tip: &Block,
        state: &WorldState,
        tree: &StateTree,
    ) -> Result<(), StoreError> {
        let every = self.config.snapshot_every;
        if every == 0 || tip.header.height % every != 0 {
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
        self.log.sync()?;
        self.metrics.counter("storage.fsyncs", 1);
        Ok(())
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
    fn torn_append_recovers_to_pre_crash_tip() {
        let dir = test_dir("disk-torn");
        let key = AuthorityKey::from_seed(1);
        let config = StorageConfig {
            snapshot_every: 2,
            fault: Some(StorageFault::TornAppend { at: 5 }),
            ..StorageConfig::default()
        };

        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).unwrap();
        store.recover_into(&mut ledger).unwrap();
        ledger.attach_store(Box::new(store));
        grow(&mut ledger, &key, 4);
        let (tip_id, state_root) = (ledger.tip().id(), ledger.state().state_root());

        // Block 5 is torn mid-append: the write-ahead hook fails, so the
        // in-memory ledger never commits it either.
        let tx = Transaction::new(
            key.address(),
            ledger.state().account(&key.address()).nonce,
            TxPayload::Anchor { root: Hash256::ZERO, label: "crash".into() },
            100,
        )
        .signed(&key);
        let block = ledger.propose(key.address(), 250, vec![tx]);
        let err = ledger.apply(&block).unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert_eq!(ledger.height(), 4);
        drop(ledger);

        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(store.truncated_records(), 1);
        let report = store.recover_into(&mut ledger).unwrap();
        assert_eq!(report.height, 4);
        assert_eq!(report.tip_id, tip_id);
        assert_eq!(report.truncated_records, 1);
        assert_eq!(ledger.state().state_root(), state_root);
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
