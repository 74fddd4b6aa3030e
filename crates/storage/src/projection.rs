//! `latest_state` projection: an O(1) read index over committed state.
//!
//! The HIE query path (paper Fig. 5) wants "current value of X" lookups
//! at interactive latency, but the authoritative answer lives behind
//! the ledger's state maps and — once state pages to disk (DESIGN.md
//! §14) — possibly behind a page fault. Following maple's WorldLine
//! `latest_state` table (SNIPPETS.md §2), this module maintains a
//! derived key → newest-value index fed by the ledger's commit
//! observer: every committed block hands over its flattened
//! `(leaf key, new value)` updates, a snapshot install hands over every
//! leaf of the installed state, and the projection records each value
//! together with the block that delivered it.
//!
//! # Contract
//!
//! - **Derived, never authoritative.** The projection is rebuilt by
//!   recovery (it starts empty and is fed the installed snapshot's
//!   leaves, then the replayed tail's committed deltas); it is not
//!   persisted, not hashed, and never consulted by consensus or proof
//!   paths. A reader who needs authentication asks the ledger for
//!   a [`StateProof`](medchain_chain::StateProof) instead.
//! - **Exactly the committed sequence.** Entries carry the height and
//!   id of the block that last wrote them — or, for keys last written
//!   below the snapshot a restart installed, of that snapshot's tip — so
//!   a reader can cross-check a projected value against a proof at the
//!   same height.
//! - **Thread-safe.** The ledger commits under `&mut self` while HIE
//!   readers query concurrently; the map sits behind a `Mutex` shared
//!   via `Arc`.

use medchain_chain::hash::Hash256;
use medchain_chain::{Block, LeafKey};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// One projected value: the newest committed bytes for a leaf key and
/// the block that wrote them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectedEntry {
    /// Canonical value bytes as of `height`.
    pub value: Vec<u8>,
    /// Height of the block that last wrote this key.
    pub height: u64,
    /// Id of the block that last wrote this key.
    pub block_id: Hash256,
}

/// The `latest_state` projection: leaf key → newest committed value.
///
/// Feed it from a ledger commit observer (wired by
/// `Network`); read it from anywhere via `Arc`.
#[derive(Debug, Default)]
pub struct LatestState {
    entries: Mutex<BTreeMap<LeafKey, ProjectedEntry>>,
}

impl LatestState {
    /// An empty projection (no committed blocks observed yet).
    pub fn new() -> LatestState {
        LatestState::default()
    }

    /// Folds one committed block's flattened updates in — the commit
    /// observer's body. `None` values are deletions and drop the key.
    pub fn record(&self, block: &Block, updates: &[(LeafKey, Option<Vec<u8>>)]) {
        let mut entries = self.entries.lock().expect("projection poisoned");
        let height = block.header.height;
        let block_id = block.id();
        for (key, value) in updates {
            match value {
                Some(value) => {
                    entries.insert(
                        key.clone(),
                        ProjectedEntry { value: value.clone(), height, block_id },
                    );
                }
                None => {
                    entries.remove(key);
                }
            }
        }
    }

    /// The newest committed value for `key`, if the key currently
    /// exists. O(log keys) — no state-map walk, no page fault.
    pub fn get(&self, key: &LeafKey) -> Option<ProjectedEntry> {
        self.entries.lock().expect("projection poisoned").get(key).cloned()
    }

    /// Number of live projected keys.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("projection poisoned").len()
    }

    /// Whether no keys are projected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_chain::shard::ShardId;

    fn block(height: u64) -> Block {
        let mut b = Block::genesis_sharded("proj-test", ShardId::default());
        b.header.height = height;
        b
    }

    #[test]
    fn records_latest_value_and_writer_coordinates() {
        let latest = LatestState::new();
        let key = LeafKey::Anchor("trial".into());
        latest.record(&block(1), &[(key.clone(), Some(vec![1]))]);
        latest.record(&block(2), &[(key.clone(), Some(vec![2, 2]))]);
        let entry = latest.get(&key).expect("projected");
        assert_eq!(entry.value, vec![2, 2]);
        assert_eq!(entry.height, 2);
        assert_eq!(entry.block_id, block(2).id());
    }

    #[test]
    fn deletion_tombstones_drop_the_key() {
        let latest = LatestState::new();
        let key = LeafKey::Anchor("ephemeral".into());
        latest.record(&block(1), &[(key.clone(), Some(vec![9]))]);
        latest.record(&block(2), &[(key.clone(), None)]);
        assert_eq!(latest.get(&key), None);
        assert!(latest.is_empty());
    }
}
