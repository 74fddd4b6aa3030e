//! World-state snapshots: the fast-sync anchor that bounds replay.
//!
//! A snapshot file `snap-<height, zero-padded>.bin` holds one CRC-framed
//! record (same framing as the block log) whose payload is the canonical
//! bytes of the tip [`Block`], the canonical bytes of the post-execution
//! [`WorldState`], and the node pages of the authenticated [`StateTree`]
//! (hashes included). Carrying the block — not just the state — gives
//! recovery the parent-linkage anchor it needs to replay the log tail,
//! and lets it cross-check the snapshot against the log
//! (`snapshot tip id == logged block id at that height`) before
//! trusting it. Carrying the tree lets recovery rebuild the
//! authenticated root by *decoding* rather than rehashing: loading
//! checks the decoded tree's cached root against the tip header — O(1)
//! after decode — instead of the old O(total state) full rehash. The
//! writer does not hash either: [`SnapshotStore::write`] is handed the
//! tree the ledger's commit already built.
//! Integrity against disk corruption rests on the record CRC, the same
//! trust the block log itself gets; the root-vs-header check then binds
//! tree and block together.
//!
//! Writes go to a `.tmp` sibling first and rename into place, so a
//! crash mid-snapshot leaves either the old set or the new set — never
//! a half-written file that parses.

use medchain_chain::hash::crc32;
use crate::wal::RECORD_HEADER_BYTES;
use medchain_chain::store::StoreError;
use medchain_chain::{Block, StateTree, WorldState};
use medchain_runtime::codec::{Decode, Encode, Reader};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const SNAP_PREFIX: &str = "snap-";
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

/// The snapshot directory manager.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

fn snap_name(height: u64) -> String {
    format!("{SNAP_PREFIX}{height:020}{SNAP_SUFFIX}")
}

fn snap_height(name: &str) -> Option<u64> {
    name.strip_prefix(SNAP_PREFIX)?.strip_suffix(SNAP_SUFFIX)?.parse().ok()
}

/// Writes `payload` to `path` as one CRC-framed record (the block log's
/// framing: `u32` length, `u32` CRC, payload) through a `.tmp` sibling
/// renamed into place. Returns the bytes written.
fn write_record(path: &Path, payload: &[u8]) -> Result<u64, StoreError> {
    let len = u32::try_from(payload.len())
        .map_err(|_| StoreError::Io("snapshot payload exceeds the record length field".into()))?;
    let tmp_path = path.with_extension("bin.tmp");
    let written = (|| {
        let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp_path)?;
        file.write_all(&len.to_le_bytes())?;
        file.write_all(&crc32(payload).to_le_bytes())?;
        file.write_all(payload)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp_path, path)
    })();
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp_path);
        return Err(e.into());
    }
    Ok(RECORD_HEADER_BYTES + u64::from(len))
}

/// The CRC-verified payload of the record file at `path`; `None` if the
/// file is missing, torn, or fails its CRC. The header is read on its
/// own and the payload straight into its buffer, so a multi-megabyte
/// snapshot is neither copied nor moved after the read.
fn read_record(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    if file_len < RECORD_HEADER_BYTES {
        return Ok(None);
    }
    let mut header = [0u8; RECORD_HEADER_BYTES as usize];
    file.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    // The length is bounded by the file before anything is allocated.
    if file_len - RECORD_HEADER_BYTES < u64::from(len) {
        return Ok(None);
    }
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload)?;
    Ok((crc32(&payload) == crc).then_some(payload))
}

impl SnapshotStore {
    /// Opens (creating if absent) the snapshot directory.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: &Path) -> Result<SnapshotStore, StoreError> {
        fs::create_dir_all(dir)?;
        Ok(SnapshotStore { dir: dir.to_path_buf() })
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
        let mut payload = tip.encoded();
        state.encode(&mut payload);
        tree.encode(&mut payload);
        write_record(&self.dir.join(snap_name(tip.header.height)), &payload)
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
        write_record(&self.dir.join(snap_name(height)), payload).map(|_| ())
    }

    /// Deletes the snapshot file at `height` — an adopted payload that
    /// failed to install.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn discard(&self, height: u64) -> Result<(), StoreError> {
        Ok(fs::remove_file(self.dir.join(snap_name(height)))?)
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
        read_record(&self.dir.join(snap_name(height)))
    }

    /// Heights of all snapshot files, ascending (validity unchecked).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn heights(&self) -> Result<Vec<u64>, StoreError> {
        let mut heights = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(h) = snap_height(name) {
                heights.push(h);
            }
        }
        heights.sort_unstable();
        Ok(heights)
    }

    /// The newest snapshot with height ≤ `max_height` that passes CRC
    /// and decode checks and whose state hashes to the tip's state root.
    /// Unreadable candidates are skipped, not fatal — an older valid
    /// snapshot still anchors recovery.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn latest_valid(&self, max_height: u64) -> Result<Option<Snapshot>, StoreError> {
        let mut heights = self.heights()?;
        heights.retain(|h| *h <= max_height);
        for height in heights.into_iter().rev() {
            if let Some(snap) = self.load(height)? {
                return Ok(Some(snap));
            }
        }
        Ok(None)
    }

    /// Loads and validates the snapshot at `height`; `None` if the file
    /// is missing, torn, corrupt, or inconsistent with itself.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on read failure (other than absence).
    pub fn load(&self, height: u64) -> Result<Option<Snapshot>, StoreError> {
        let Some(payload) = read_record(&self.dir.join(snap_name(height)))? else {
            return Ok(None);
        };
        let mut reader = Reader::new(&payload);
        let (Ok(tip), Ok(state), Ok(tree)) = (
            Block::decode(&mut reader),
            WorldState::decode(&mut reader),
            StateTree::decode(&mut reader),
        ) else {
            return Ok(None);
        };
        // The decoded tree carries its hashes, so the root check is
        // O(1) — no full-state rehash on the recovery path. The leaf
        // count ties the tree to the state it claims to authenticate;
        // byte-level integrity is the CRC's job (checked above).
        if reader.remaining() != 0
            || tip.header.height != height
            || tree.versioned_root() != tip.header.state_root
            || tree.len() != state.leaf_count()
        {
            return Ok(None);
        }
        Ok(Some(Snapshot { height, tip, state, tree }))
    }

    /// Deletes all but the newest `retain` snapshot files.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn prune(&self, retain: usize) -> Result<(), StoreError> {
        let heights = self.heights()?;
        if heights.len() <= retain {
            return Ok(());
        }
        for height in &heights[..heights.len() - retain] {
            fs::remove_file(self.dir.join(snap_name(*height)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_dir;

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
        let snap = store.latest_valid(u64::MAX).unwrap().unwrap();
        assert_eq!(snap.height, 12);
        assert_eq!(snap.state.state_root(), snap.tip.header.state_root);
        // The persisted tree is the state's tree, hashes intact.
        assert_eq!(snap.tree.versioned_root(), snap.tip.header.state_root);
        assert_eq!(snap.tree.len(), snap.state.leaf_count());
        assert!(snap.tree.audit());
        // Bounded lookup skips newer files.
        assert_eq!(store.latest_valid(9).unwrap().unwrap().height, 8);
        store.prune(1).unwrap();
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
        let snap = store.latest_valid(u64::MAX).unwrap().unwrap();
        assert_eq!(snap.height, 4);
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
}
