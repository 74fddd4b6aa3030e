//! The [`BlockStore`] trait — the ledger's durable-persistence hook.
//!
//! The ledger calls [`BlockStore::append`] *before* committing a block
//! to memory (write-ahead ordering): a block is either on disk and in
//! memory, or in neither. Once the commit is final it calls
//! [`BlockStore::checkpoint`] with the authenticated tree that commit
//! built, so a store that snapshots never rehashes the state.
//! Implementations decide what "on disk" means —
//! [`MemStore`] keeps everything in memory (the default behaviour of a
//! ledger with no store attached is unchanged: no store, no overhead),
//! while `medchain-storage`'s `DiskStore` runs a segmented CRC-framed
//! write-ahead log with periodic world-state snapshots and crash
//! recovery.
//!
//! One store persists *one* sub-chain: the trait knows nothing about
//! sharding. A sharded consortium (DESIGN.md §9) simply opens one store
//! per (shard, site) pair under `root/shard-<s>/site-<j>` — plus
//! `root/coordinator/site-<i>` for the coordinator chain — and each
//! recovers independently through the same replay-and-validate path as
//! a single chain. Cross-shard consistency is re-established *above*
//! this layer: after every store has recovered, `ShardedNetwork` audits
//! each sub-chain tip against the newest cross-link records replayed
//! from the coordinator's own store, so a rolled-back or forked
//! sub-chain fails the restart instead of silently rejoining consensus.
//!
//! Contract for implementors, in order of importance:
//!
//! 1. **Atomic append or error.** If [`BlockStore::append`] returns
//!    `Ok`, the block must survive a crash; if it returns `Err`, the
//!    ledger never commits the block, so the store must not expose a
//!    partial record to recovery (torn tails are truncated, not
//!    parsed).
//! 2. **Contiguous heights.** Appends arrive in height order;
//!    implementations reject gaps with [`StoreError::HeightGap`].
//! 3. **Snapshots are an optimization, not a source of truth.** A
//!    snapshot may only replace replay for the prefix it covers;
//!    everything after it is re-validated block by block. They are
//!    written in [`BlockStore::checkpoint`], after the block is durable
//!    and committed, so a failed snapshot costs replay length and never
//!    a block: the implementation reports the failure, leaves no partial
//!    file behind, and tries again at its next boundary.

use crate::auth::StateTree;
use crate::block::Block;
use crate::ledger::WorldState;
use std::fmt;

/// Errors from a block store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O operation failed.
    Io(String),
    /// A stored record failed its integrity check.
    Corrupt {
        /// Which file.
        file: String,
        /// Byte offset of the bad record.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// An appended block does not extend the last stored height.
    HeightGap {
        /// Height the store expected next.
        expected: u64,
        /// Height the block carried.
        got: u64,
    },
    /// Recovery could not reconstruct a consistent ledger.
    Recovery(String),
    /// The configured fault injector simulated a crash mid-append.
    InjectedCrash,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Corrupt { file, offset, reason } => {
                write!(f, "corrupt record in {file} at offset {offset}: {reason}")
            }
            StoreError::HeightGap { expected, got } => {
                write!(f, "append height gap: expected {expected}, got {got}")
            }
            StoreError::Recovery(e) => write!(f, "recovery failed: {e}"),
            StoreError::InjectedCrash => f.write_str("simulated crash mid-append"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e.to_string())
    }
}

/// Durable persistence hook for the ledger commit path.
///
/// `append` makes the block durable; `checkpoint` then receives the
/// committed tip with its world state *and* authenticated tree, so
/// implementations can write periodic state snapshots without replaying
/// or rehashing.
pub trait BlockStore: Send {
    /// Persists `block` (post-execution state `post_state`).
    ///
    /// Called by [`crate::ledger::Ledger::apply`] after validation and
    /// execution but **before** the in-memory commit; returning an error
    /// aborts the commit, leaving the ledger unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the block could not be made durable.
    fn append(&mut self, block: &Block, post_state: &WorldState) -> Result<(), StoreError>;

    /// Offers the store the committed `tip`, its post-execution `state`
    /// and `tree` — the tree of exactly that state, as the commit built
    /// it — to snapshot from at whatever cadence it keeps.
    ///
    /// Called by [`crate::ledger::Ledger::apply`] once `tip` is appended
    /// and committed in memory. The default keeps no snapshots.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a snapshot was due and could not be
    /// written. The block stays committed (contract 3): callers carry on.
    fn checkpoint(
        &mut self,
        _tip: &Block,
        _state: &WorldState,
        _tree: &StateTree,
    ) -> Result<(), StoreError> {
        Ok(())
    }

    /// Forces buffered data to durable storage.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure.
    fn flush(&mut self) -> Result<(), StoreError>;
}

/// In-memory [`BlockStore`]: retains appended blocks (and the latest
/// state) without touching disk. Preserves today's default semantics
/// while letting tests and simulations exercise the store wiring.
#[derive(Debug, Default)]
pub struct MemStore {
    blocks: Vec<Block>,
    latest_state: Option<WorldState>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Blocks appended so far, oldest first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of appended blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no block has been appended.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The world state after the most recent append.
    pub fn latest_state(&self) -> Option<&WorldState> {
        self.latest_state.as_ref()
    }
}

impl BlockStore for MemStore {
    fn append(&mut self, block: &Block, post_state: &WorldState) -> Result<(), StoreError> {
        if let Some(last) = self.blocks.last() {
            let expected = last.header.height + 1;
            if block.header.height != expected {
                return Err(StoreError::HeightGap { expected, got: block.header.height });
            }
        }
        self.blocks.push(block.clone());
        self.latest_state = Some(post_state.clone());
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_tracks_appends_in_order() {
        let mut store = MemStore::new();
        assert!(store.is_empty());
        let genesis = Block::genesis("t");
        let mut b1 = Block::genesis("t");
        b1.header.height = 1;
        b1.header.parent = genesis.id();
        store.append(&b1, &WorldState::new()).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.latest_state().is_some());
        // A height gap is rejected.
        let mut b3 = b1.clone();
        b3.header.height = 3;
        assert_eq!(
            store.append(&b3, &WorldState::new()),
            Err(StoreError::HeightGap { expected: 2, got: 3 })
        );
        store.flush().unwrap();
    }

    #[test]
    fn store_error_display_is_informative() {
        let e = StoreError::Corrupt {
            file: "seg-1.wal".into(),
            offset: 42,
            reason: "crc mismatch".into(),
        };
        assert!(e.to_string().contains("seg-1.wal"));
        assert!(e.to_string().contains("42"));
        assert!(StoreError::from(std::io::Error::other("boom")).to_string().contains("boom"));
    }
}
