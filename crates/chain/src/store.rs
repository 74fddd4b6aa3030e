//! The [`BlockStore`] trait — the ledger's durable-persistence hook.
//!
//! The ledger calls [`BlockStore::append`] once a block has validated
//! and *before* its state changes (write-ahead ordering): a block is
//! either on disk and in memory, or in neither, and a failed append
//! leaves the ledger nothing to undo. Once the commit is final it calls
//! [`BlockStore::checkpoint`] with the state and authenticated tree that
//! commit built, so a store that snapshots never rehashes the state,
//! and with the block's writes, so it can snapshot only what changed.
//! `medchain-storage`'s `DiskStore` is the implementation: a segmented
//! CRC-framed write-ahead log with periodic world-state snapshots and
//! crash recovery. A ledger with no store attached keeps its chain in
//! memory only, at no cost; one with a store keeps decoded only the
//! blocks from the store's newest snapshot up, and reads older ones
//! back through [`BlockStore::read_block`].
//!
//! One store persists *one* sub-chain: the trait knows nothing about
//! sharding. A sharded consortium (DESIGN.md §9) simply opens one store
//! per (shard, site) pair under `root/shard-<s>/site-<j>` — plus
//! `root/coordinator/site-<i>` for the coordinator chain — and each
//! recovers independently through the same replay-and-validate path as
//! a single chain. Cross-shard consistency is re-established *above*
//! this layer: after every store has recovered, a sharded `Network` audits
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
use crate::exec::StateDelta;
use crate::state::WorldState;
use std::fmt;
use std::ops::Range;

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
    /// Persists `block`. From `Ledger::apply`, `state` is the state the
    /// block was validated against, not yet changed by it. No store in
    /// this repository reads it: stores that need state get it in
    /// [`checkpoint`](BlockStore::checkpoint).
    ///
    /// Called by [`crate::ledger::Ledger::apply`] after validation and
    /// execution but **before** the state changes; returning an error
    /// aborts the commit, leaving the ledger unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the block could not be made durable.
    fn append(&mut self, block: &Block, state: &WorldState) -> Result<(), StoreError>;

    /// Offers the store the committed `tip`, its post-execution `state`
    /// and `tree` — the tree of exactly that state, as the commit built
    /// it — to snapshot from at whatever cadence it keeps.
    ///
    /// `writes` is what `tip` wrote: `Some` when the state before it was
    /// the state of the previous checkpoint, so a store may sum the
    /// writes since its last full snapshot and write only those. `None`
    /// says the state moved by more than this block (a direct
    /// `Ledger::state_mut` write, a restore, or a caller that does not
    /// track writes), and a store must not build a delta across it.
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
        _writes: Option<&StateDelta>,
    ) -> Result<(), StoreError> {
        Ok(())
    }

    /// Forces buffered data to durable storage.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure.
    fn flush(&mut self) -> Result<(), StoreError>;

    /// The block at `height` as this store holds it, read back from
    /// durable storage: how a ledger serves a block it no longer keeps
    /// decoded in memory. `Ok(None)` when the store holds no such
    /// height; the default holds none.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the block could not be read back.
    fn read_block(&self, height: u64) -> Result<Option<Block>, StoreError> {
        let _ = height;
        Ok(None)
    }

    /// The heights below the newest snapshot this store wrote or
    /// recovered from, full or delta, that [`BlockStore::read_block`]
    /// reads back: blocks a ledger need not keep decoded in memory. The
    /// default is empty, so a ledger keeps every block.
    fn below_snapshot(&self) -> Range<u64> {
        0..0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
