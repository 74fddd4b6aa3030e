//! World-state snapshots: the fast-sync anchor that bounds replay.
//!
//! A snapshot file `snap-<height, zero-padded>.bin` is one record (the
//! crate's one record format, `record.rs`) whose payload,
//! [`snapshot_payload`], is the canonical bytes of the tip [`Block`],
//! the canonical bytes of the post-execution [`WorldState`], and the
//! node pages of the authenticated [`StateTree`] (hashes included).
//! Carrying the block — not just the state — gives recovery the
//! parent-linkage anchor it needs to replay the log tail, and lets it
//! cross-check the snapshot against the log (`snapshot tip id ==
//! logged block id at that height`) before trusting it. Carrying the
//! tree lets recovery rebuild the authenticated root by *decoding*
//! rather than rehashing: loading checks the decoded tree's cached root
//! against the tip header — O(1) after decode — instead of the old
//! O(total state) full rehash. The writer does not hash either:
//! [`SnapshotStore::write`] is handed the tree the ledger's commit
//! already built. Integrity against disk corruption rests on the
//! record CRC, the same trust the block log itself gets; the
//! root-vs-header check then binds tree and block together.
//!
//! A delta snapshot `delta-<height>.bin` is one record too, over the
//! tip [`Block`], the height and block id of the full snapshot it
//! builds on (its *base*), and a [`StateDelta`] of every write since
//! that base. It costs bytes in proportion to churn, not state size,
//! and it cannot stand alone: [`SnapshotDelta::onto`] applies it to its
//! decoded base, state and tree, and checks the merged tree's root
//! against the delta's tip — O(entries × depth), never O(state).
//!
//! Writes go to a `.tmp` sibling first and rename into place, syncing
//! the directory, so a crash mid-snapshot leaves either the old set or
//! the new set — never a half-written file that parses, nor a renamed
//! one that a crash forgets.

use crate::durable::{self, Disk, Mode};
use crate::record::{read_record, write_record, RecordError};
use medchain_chain::store::StoreError;
use medchain_chain::{Block, Hash256, StateDelta, StateTree, WorldState};
use medchain_runtime::codec::{Decode, Encode, Reader};
use medchain_runtime::metrics::Metrics;
use std::path::{Path, PathBuf};

const SNAP_PREFIX: &str = "snap-";
const DELTA_PREFIX: &str = "delta-";
const SNAP_SUFFIX: &str = ".bin";

/// A decoded snapshot: the chain tip it was taken at plus the full
/// world state after executing that tip and its authenticated tree.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Height of [`Snapshot::tip`].
    pub height: u64,
    /// The block this snapshot was taken after.
    pub tip: Block,
    /// World state after executing `tip`.
    pub state: WorldState,
    /// The authenticated state tree of `state`, decoded with its cached
    /// hashes — recovery installs it via `Ledger::restore_with_tree`
    /// without rehashing the state.
    pub tree: StateTree,
}

/// A decoded delta snapshot, not yet applied: the tip it was taken at,
/// the full snapshot it builds on, and every write since that one.
#[derive(Debug, Clone)]
pub struct SnapshotDelta {
    /// The block this delta was taken after.
    pub tip: Block,
    /// Height of the full snapshot the delta builds on.
    pub base_height: u64,
    /// Block id of that full snapshot's tip.
    pub base_tip: Hash256,
    /// Every write from the base's tip to this tip, later ones winning.
    pub writes: StateDelta,
}

impl SnapshotDelta {
    /// The snapshot at this delta's tip: `base` with the writes applied
    /// to its state and merged into its tree. `None` unless `base` is
    /// the full snapshot this delta names (height and tip id) and the
    /// merged tree's root is the tip's state root over as many leaves
    /// as the state holds. The check costs what the merge does, O(writes
    /// × depth): the base's tree is decoded, never rebuilt.
    pub fn onto(self, base: Snapshot) -> Option<Snapshot> {
        if base.height != self.base_height || base.tip.id() != self.base_tip {
            return None;
        }
        let Snapshot { mut state, mut tree, .. } = base;
        tree.merge_delta(&self.writes);
        self.writes.apply_to(&mut state);
        if tree.versioned_root() != self.tip.header.state_root || tree.len() != state.leaf_count() {
            return None;
        }
        Some(Snapshot { height: self.tip.header.height, tip: self.tip, state, tree })
    }
}

/// The snapshot directory manager.
#[derive(Debug)]
pub struct SnapshotStore {
    disk: Disk,
    dir: PathBuf,
}

fn snap_name(height: u64) -> String {
    durable::height_name(SNAP_PREFIX, height, SNAP_SUFFIX)
}

fn delta_name(height: u64) -> String {
    durable::height_name(DELTA_PREFIX, height, SNAP_SUFFIX)
}

/// A full snapshot's payload: tip ‖ state ‖ tree, canonical bytes. The
/// one encoder both a snapshot file and a streamed snapshot use, so a
/// joiner adopts a peer's payload as a local file and loads it through
/// [`SnapshotStore::load`], which [`decode_snapshot`]s it.
pub fn snapshot_payload(tip: &Block, state: &WorldState, tree: &StateTree) -> Vec<u8> {
    let mut payload = tip.encoded();
    state.encode(&mut payload);
    tree.encode(&mut payload);
    payload
}

/// The snapshot at `height` a [`snapshot_payload`] holds; `None` unless
/// it decodes exactly, its tip is at `height`, and its tree's root is
/// the tip's state root over as many leaves as the state holds.
fn decode_snapshot(payload: &[u8], height: u64) -> Option<Snapshot> {
    let mut reader = Reader::new(payload);
    let tip = Block::decode(&mut reader).ok()?;
    let state = WorldState::decode(&mut reader).ok()?;
    let tree = StateTree::decode(&mut reader).ok()?;
    // The decoded tree carries its hashes, so the root check is O(1) —
    // no full-state rehash on the recovery path. The leaf count ties the
    // tree to the state it claims to authenticate; byte-level integrity
    // is the record CRC's job.
    let consistent = reader.remaining() == 0
        && tip.header.height == height
        && tree.versioned_root() == tip.header.state_root
        && tree.len() == state.leaf_count();
    consistent.then_some(Snapshot { height, tip, state, tree })
}

/// The delta at `height` a delta file's payload holds; `None` unless it
/// decodes exactly, its tip is at `height` and its base is below it.
fn decode_delta(payload: &[u8], height: u64) -> Option<SnapshotDelta> {
    let mut reader = Reader::new(payload);
    let tip = Block::decode(&mut reader).ok()?;
    let base_height = u64::decode(&mut reader).ok()?;
    let base_tip = Hash256::decode(&mut reader).ok()?;
    let writes = StateDelta::decode(&mut reader).ok()?;
    let consistent = reader.remaining() == 0 && tip.header.height == height && base_height < height;
    consistent.then_some(SnapshotDelta { tip, base_height, base_tip, writes })
}

impl SnapshotStore {
    /// Opens (creating if absent) the snapshot directory.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: &Path) -> Result<SnapshotStore, StoreError> {
        SnapshotStore::open_in(Disk::os(Metrics::noop()), dir)
    }

    /// [`SnapshotStore::open`] on `disk`.
    pub(crate) fn open_in(disk: Disk, dir: &Path) -> Result<SnapshotStore, StoreError> {
        disk.create_dir(dir)?;
        Ok(SnapshotStore { disk, dir: dir.to_path_buf() })
    }

    /// Writes `payload` to `path` as one record through a `.tmp` sibling
    /// synced, then renamed into place with its directory synced: two
    /// fsyncs. Returns the bytes written.
    fn write_file(&self, path: &Path, payload: &[u8]) -> Result<u64, StoreError> {
        let tmp_path = path.with_extension("bin.tmp");
        let written = (|| {
            let mut file = self.disk.open(&tmp_path, Mode::Create)?;
            let bytes = write_record(&mut file, payload)?;
            file.sync()?;
            drop(file);
            self.disk.rename_into_place(&tmp_path, path)?;
            Ok::<_, RecordError>(bytes)
        })();
        written.map_err(|e| {
            let _ = self.disk.remove(&tmp_path);
            e.into()
        })
    }

    /// The payload of the record file at `path`; `None` if the file is
    /// missing, torn, overlong for its length, or fails its CRC.
    fn read_file(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
        let mut file = match self.disk.open(path, Mode::Read) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let file_len = file.len()?;
        match read_record(&mut file.reader_at(0), file_len) {
            Ok(payload) => Ok(Some(payload)),
            Err(RecordError::Io(e)) => Err(e.into()),
            Err(_) => Ok(None),
        }
    }

    /// Writes a snapshot at `tip`'s height: `tip`, `state` and `tree` —
    /// which must be the authenticated tree of `state` (the ledger hands
    /// over the one its commit built; [`SnapshotStore::load`] rejects a
    /// file whose tree does not match its tip). Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure; no partial file is
    /// left behind.
    pub fn write(
        &self,
        tip: &Block,
        state: &WorldState,
        tree: &StateTree,
    ) -> Result<u64, StoreError> {
        let payload = snapshot_payload(tip, state, tree);
        self.write_file(&self.dir.join(snap_name(tip.header.height)), &payload)
    }

    /// Writes a delta snapshot at `tip`'s height: `writes`, every write
    /// since the full snapshot at `base_height` whose tip id is
    /// `base_tip`. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure; no partial file is
    /// left behind.
    pub fn write_delta(
        &self,
        tip: &Block,
        base_height: u64,
        base_tip: Hash256,
        writes: &StateDelta,
    ) -> Result<u64, StoreError> {
        let mut payload = tip.encoded();
        base_height.encode(&mut payload);
        base_tip.encode(&mut payload);
        writes.encode(&mut payload);
        self.write_file(&self.dir.join(delta_name(tip.header.height)), &payload)
    }

    /// Adopts a snapshot payload assembled from a peer's stream
    /// (DESIGN.md §14) as the local `snap-<height>.bin`, framed exactly
    /// as [`SnapshotStore::write`] frames a locally-taken snapshot —
    /// tmp + rename, so a crash mid-adopt never leaves a torn file.
    ///
    /// Adopting performs **no validation**: the payload stays untrusted
    /// until local recovery loads it through [`SnapshotStore::load`].
    /// One that fails there must be [`discard`](Self::discard)ed, or
    /// the CRC-valid file would be served on to the next joiner.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure.
    pub fn adopt_payload(&self, height: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.write_file(&self.dir.join(snap_name(height)), payload).map(|_| ())
    }

    /// Deletes the snapshot file at `height` — an adopted payload that
    /// failed to install — and syncs the directory, so a crash cannot
    /// bring back a refused payload that still passes its CRC.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn discard(&self, height: u64) -> Result<(), StoreError> {
        self.disk.remove(&self.dir.join(snap_name(height)))?;
        Ok(self.disk.sync_dir(&self.dir)?)
    }

    /// The CRC-verified raw payload of the snapshot at `height` — the
    /// bytes a streaming peer chunks and serves. `None` if the file is
    /// missing, torn, or fails its CRC (decode validity is the
    /// receiver's problem; a peer only promises intact bytes).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure (other than absence).
    pub fn raw_payload(&self, height: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.read_file(&self.dir.join(snap_name(height)))
    }

    /// Heights of all full snapshot files, ascending (validity
    /// unchecked).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn heights(&self) -> Result<Vec<u64>, StoreError> {
        self.heights_of(SNAP_PREFIX)
    }

    /// Heights of all delta snapshot files, ascending (validity
    /// unchecked).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn delta_heights(&self) -> Result<Vec<u64>, StoreError> {
        self.heights_of(DELTA_PREFIX)
    }

    fn heights_of(&self, prefix: &str) -> Result<Vec<u64>, StoreError> {
        let files = self.disk.height_files(&self.dir, prefix, SNAP_SUFFIX)?;
        Ok(files.into_iter().map(|(height, _)| height).collect())
    }

    /// Loads and validates the snapshot at `height`; `None` if the file
    /// is missing, torn, corrupt, or inconsistent with itself.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure (other than absence).
    pub fn load(&self, height: u64) -> Result<Option<Snapshot>, StoreError> {
        let payload = self.read_file(&self.dir.join(snap_name(height)))?;
        Ok(payload.and_then(|payload| decode_snapshot(&payload, height)))
    }

    /// Reads the delta snapshot at `height`, unapplied; `None` if the
    /// file is missing, torn, corrupt, or names no earlier base.
    /// [`SnapshotDelta::onto`] its base full snapshot is what validates
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure (other than absence).
    pub fn read_delta(&self, height: u64) -> Result<Option<SnapshotDelta>, StoreError> {
        let payload = self.read_file(&self.dir.join(delta_name(height)))?;
        Ok(payload.and_then(|payload| decode_delta(&payload, height)))
    }

    /// Deletes all but the newest `fulls` full snapshots, and every
    /// delta but the newest `deltas` above height `base` — the full
    /// snapshot the writer's deltas build on. A delta at or below it
    /// builds on an older full and adds nothing `base` does not.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn prune(&self, fulls: usize, deltas: usize, base: u64) -> Result<(), StoreError> {
        let heights = self.heights()?;
        for height in &heights[..heights.len().saturating_sub(fulls)] {
            self.disk.remove(&self.dir.join(snap_name(*height)))?;
        }
        let delta_heights = self.delta_heights()?;
        let on_base = delta_heights.iter().filter(|h| **h > base).count();
        let keep_from = delta_heights.len() - on_base.min(deltas);
        for height in &delta_heights[..keep_from] {
            self.disk.remove(&self.dir.join(delta_name(*height)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_dir;
    use std::fs;

    fn tip_and_state(height: u64) -> (Block, WorldState, StateTree) {
        let mut state = WorldState::new();
        state.set_code(medchain_chain::Address::from_seed(height), vec![height as u8; 4]);
        let tree = StateTree::from_state(&state);
        let mut tip = Block::genesis("snap-test");
        tip.header.height = height;
        tip.header.state_root = tree.versioned_root();
        (tip, state, tree)
    }

    #[test]
    fn write_load_prune_round_trip() {
        let dir = test_dir("snap-roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        for h in [4u64, 8, 12] {
            let (tip, state, tree) = tip_and_state(h);
            store.write(&tip, &state, &tree).unwrap();
        }
        assert_eq!(store.heights().unwrap(), vec![4, 8, 12]);
        let snap = store.load(12).unwrap().unwrap();
        assert_eq!(snap.height, 12);
        assert_eq!(snap.state.state_root(), snap.tip.header.state_root);
        // The persisted tree is the state's tree, hashes intact.
        assert_eq!(snap.tree.versioned_root(), snap.tip.header.state_root);
        assert_eq!(snap.tree.len(), snap.state.leaf_count());
        assert!(snap.tree.audit());
        assert_eq!(store.load(8).unwrap().unwrap().height, 8);
        store.prune(1, 0, 12).unwrap();
        assert_eq!(store.heights().unwrap(), vec![12]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_skipped_for_older_valid_one() {
        let dir = test_dir("snap-corrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        for h in [4u64, 8] {
            let (tip, state, tree) = tip_and_state(h);
            store.write(&tip, &state, &tree).unwrap();
        }
        // Flip one byte in the newest snapshot's payload.
        let path = dir.join(snap_name(8));
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] ^= 0xFF;
        fs::write(&path, bytes).unwrap();
        assert!(store.load(8).unwrap().is_none());
        assert_eq!(store.load(4).unwrap().unwrap().height, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_with_mismatched_header_root_is_rejected() {
        let dir = test_dir("snap-root-mismatch");
        let store = SnapshotStore::open(&dir).unwrap();
        let (mut tip, state, tree) = tip_and_state(4);
        // A tip whose header root disagrees with its state must never
        // load — the tree-vs-header check is what recovery trusts.
        tip.header.state_root = medchain_chain::Hash256::digest(b"someone else's root");
        store.write(&tip, &state, &tree).unwrap();
        assert!(store.load(4).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Pruning keeps the newest two fulls and the newest two deltas on
    /// the newest full; a delta on an older full goes.
    #[test]
    fn prune_keeps_the_newest_fulls_and_the_newest_deltas_on_the_base() {
        let dir = test_dir("snap-prune");
        let store = SnapshotStore::open(&dir).unwrap();
        for h in [4u64, 8, 12] {
            let (tip, state, tree) = tip_and_state(h);
            store.write(&tip, &state, &tree).unwrap();
        }
        let writes = medchain_chain::StateDelta::default();
        for h in [6u64, 10, 14, 16, 18] {
            let (tip, _, _) = tip_and_state(h);
            store.write_delta(&tip, 12, Hash256::ZERO, &writes).unwrap();
        }
        store.prune(2, 2, 12).unwrap();
        assert_eq!(store.heights().unwrap(), vec![8, 12]);
        assert_eq!(store.delta_heights().unwrap(), vec![16, 18]);
        // A leftover temporary file is neither height list's.
        fs::write(dir.join("delta-00000000000000000020.bin.tmp"), b"torn").unwrap();
        assert_eq!(store.delta_heights().unwrap(), vec![16, 18]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
