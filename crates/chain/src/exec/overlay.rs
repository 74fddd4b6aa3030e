//! Buffered world-state access: the overlay commit cache.
//!
//! [`StateAccess`] is the uniform read/write surface over
//! [`WorldState`]: the ledger, the contract runtime, and the VM all
//! mutate state through it, never through the maps directly. That
//! indirection is what makes block execution cheap to undo:
//! a [`WorldStateOverlay`] implements the same trait with reads falling
//! through to a base and writes buffered in front of it, so
//!
//! - a block runs against one overlay and its delta commits only after
//!   the state-root check passes (no whole-state clone per block);
//! - contract atomicity is a *child* overlay discarded on trap (no
//!   whole-state snapshot per `Deploy`/`Invoke`).
//!
//! Deletion semantics mirror [`WorldState::set_storage`]: an empty
//! value is a delete, buffered here as a `None` tombstone so the delta
//! replays identically onto any base.
//!
//! Account and storage writes, the ones a block makes by the hundred,
//! buffer in hash maps (std's keyed hasher, as the state's own account
//! map): a read or write is one hashed probe, and a storage read borrows
//! its slot key. They reach address order once, when
//! [`WorldStateOverlay::into_delta`] builds the canonical [`StateDelta`].

use crate::hash::Hash256;
use crate::ledger::LedgerError;
use crate::state::{Account, CrossLinkRecord, XsDecisionRecord, XsLock};
use crate::shard::ShardId;
use crate::sig::Address;
use std::collections::{BTreeMap, HashMap};

/// Uniform mutable access to world state.
///
/// Implemented by [`WorldState`] itself (direct map access) and by
/// [`WorldStateOverlay`] (buffered). During block application all
/// mutation flows through this trait — verify.sh greps that nothing
/// outside `exec/` and the ledger commit path touches the maps.
pub trait StateAccess: Send + Sync {
    /// Returns the account for `addr` (default if absent).
    fn account(&self, addr: &Address) -> Account;
    /// Installs `account` at `addr` (materializes the entry even when
    /// default-valued — entry presence is root-visible).
    fn set_account(&mut self, addr: Address, account: Account);
    /// Reads a contract storage slot.
    fn storage(&self, contract: &Address, key: &[u8]) -> Option<&[u8]>;
    /// Writes a contract storage slot (empty value deletes).
    fn set_storage(&mut self, contract: Address, key: Vec<u8>, value: Vec<u8>);
    /// Returns deployed code at `addr`.
    fn code(&self, addr: &Address) -> Option<&[u8]>;
    /// Installs contract code.
    fn set_code(&mut self, addr: Address, code: Vec<u8>);
    /// Looks up a data anchor by label.
    fn anchor(&self, label: &str) -> Option<Hash256>;
    /// Records a data anchor.
    fn set_anchor(&mut self, label: &str, root: Hash256);
    /// The newest cross-link recorded for `shard`.
    fn cross_link(&self, shard: ShardId) -> Option<CrossLinkRecord>;
    /// Records a cross-link.
    fn set_cross_link(&mut self, shard: ShardId, record: CrossLinkRecord);
    /// The 2PC lock held on `addr`, if any (DESIGN.md §12).
    fn lock(&self, addr: &Address) -> Option<XsLock>;
    /// Places a 2PC lock on `addr`.
    fn set_lock(&mut self, addr: Address, lock: XsLock);
    /// Releases the 2PC lock on `addr`.
    fn clear_lock(&mut self, addr: &Address);
    /// The coordinator's recorded decision for `xid`, if any.
    fn xs_decision(&self, xid: &Hash256) -> Option<XsDecisionRecord>;
    /// Records a cross-shard commit/abort decision.
    fn set_xs_decision(&mut self, xid: Hash256, decision: XsDecisionRecord);

    /// Credits `amount` to `addr`, materializing the entry.
    fn credit(&mut self, addr: Address, amount: u64) {
        let mut account = self.account(&addr);
        account.balance += amount;
        self.set_account(addr, account);
    }

    /// Debits `amount` from `addr`.
    ///
    /// Like [`WorldState::debit`], the account entry is materialized
    /// even when the debit fails — byte-compatible state roots depend
    /// on it.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::InsufficientBalance`] if funds are missing.
    fn debit(&mut self, addr: Address, amount: u64) -> Result<(), LedgerError> {
        let mut account = self.account(&addr);
        if account.balance < amount {
            let have = account.balance;
            self.set_account(addr, account);
            return Err(LedgerError::InsufficientBalance { address: addr, have, need: amount });
        }
        account.balance -= amount;
        self.set_account(addr, account);
        Ok(())
    }
}

/// The buffered writes of one overlay: everything needed to replay its
/// effects onto the base, in map order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StateDelta {
    pub(crate) accounts: BTreeMap<Address, Account>,
    /// `None` is a deletion tombstone (empty-value `set_storage`).
    pub(crate) storage: BTreeMap<(Address, Vec<u8>), Option<Vec<u8>>>,
    pub(crate) code: BTreeMap<Address, Vec<u8>>,
    pub(crate) anchors: BTreeMap<String, Hash256>,
    pub(crate) crosslinks: BTreeMap<u16, CrossLinkRecord>,
    /// `None` is a release tombstone (a finalize dropped the lock).
    pub(crate) locks: BTreeMap<Address, Option<XsLock>>,
    pub(crate) xs_decisions: BTreeMap<Hash256, XsDecisionRecord>,
}

impl StateDelta {
    /// Whether the delta buffers no writes at all.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
            && self.storage.is_empty()
            && self.code.is_empty()
            && self.anchors.is_empty()
            && self.crosslinks.is_empty()
            && self.locks.is_empty()
            && self.xs_decisions.is_empty()
    }

    /// Number of buffered entries across all maps.
    pub fn len(&self) -> usize {
        self.accounts.len()
            + self.storage.len()
            + self.code.len()
            + self.anchors.len()
            + self.crosslinks.len()
            + self.locks.len()
            + self.xs_decisions.len()
    }

    /// Folds `later`'s writes in, as if they ran after this delta's:
    /// where both write a key, `later`'s value wins, tombstones included,
    /// so the result replays onto a base exactly as the two in turn.
    /// This is how a store sums the blocks since its last full snapshot
    /// into one delta snapshot (DESIGN.md §8).
    pub fn absorb(&mut self, later: &StateDelta) {
        self.accounts.extend(later.accounts.iter().map(|(k, v)| (*k, *v)));
        self.storage.extend(later.storage.iter().map(|(k, v)| (k.clone(), v.clone())));
        self.code.extend(later.code.iter().map(|(k, v)| (*k, v.clone())));
        self.anchors.extend(later.anchors.iter().map(|(k, v)| (k.clone(), *v)));
        self.crosslinks.extend(later.crosslinks.iter().map(|(k, v)| (*k, *v)));
        self.locks.extend(later.locks.iter().map(|(k, v)| (*k, *v)));
        self.xs_decisions.extend(later.xs_decisions.iter().map(|(k, v)| (*k, *v)));
    }

    /// Replays the buffered writes onto `target` — the single commit
    /// path by which buffered execution reaches real state.
    pub fn apply_to(self, target: &mut dyn StateAccess) {
        for (addr, account) in self.accounts {
            target.set_account(addr, account);
        }
        for ((addr, key), value) in self.storage {
            // A tombstone replays as the empty-value delete.
            target.set_storage(addr, key, value.unwrap_or_default());
        }
        for (addr, code) in self.code {
            target.set_code(addr, code);
        }
        for (label, root) in self.anchors {
            target.set_anchor(&label, root);
        }
        for (shard, record) in self.crosslinks {
            target.set_cross_link(ShardId(shard), record);
        }
        for (addr, lock) in self.locks {
            match lock {
                Some(lock) => target.set_lock(addr, lock),
                None => target.clear_lock(&addr),
            }
        }
        for (xid, decision) in self.xs_decisions {
            target.set_xs_decision(xid, decision);
        }
    }
}

// The canonical bytes of a delta snapshot's writes: each map in
// declaration order, as the codec encodes a `BTreeMap`.
medchain_runtime::impl_codec_struct!(StateDelta {
    accounts,
    storage,
    code,
    anchors,
    crosslinks,
    locks,
    xs_decisions,
});

/// A copy-on-write view over any [`StateAccess`] base: reads fall
/// through, writes buffer in front of it. Dropping the overlay discards
/// the speculation; [`WorldStateOverlay::into_delta`] extracts it for
/// commit.
///
/// Overlays chain: contract execution gets a child of the block
/// overlay for trap atomicity.
pub struct WorldStateOverlay<'a> {
    base: &'a dyn StateAccess,
    /// Account writes, hash-indexed.
    accounts: HashMap<Address, Account>,
    /// Storage writes by contract, then by slot, so a read probes with
    /// the caller's borrowed key. `None` is a deletion tombstone.
    storage: HashMap<Address, HashMap<Vec<u8>, Option<Vec<u8>>>>,
    /// Every other write, already in the delta's canonical maps (its
    /// `accounts` and `storage` stay empty until `into_delta`).
    delta: StateDelta,
}

impl<'a> WorldStateOverlay<'a> {
    /// Creates an empty overlay over `base`.
    pub fn new(base: &'a dyn StateAccess) -> WorldStateOverlay<'a> {
        WorldStateOverlay {
            base,
            accounts: HashMap::new(),
            storage: HashMap::new(),
            delta: StateDelta::default(),
        }
    }

    /// Consumes the overlay, returning its buffered writes as the
    /// canonical delta: the hash-indexed buffers sorted into its maps.
    pub fn into_delta(self) -> StateDelta {
        let mut delta = self.delta;
        delta.accounts = self.accounts.into_iter().collect();
        delta.storage = self
            .storage
            .into_iter()
            .flat_map(|(contract, slots)| {
                slots.into_iter().map(move |(slot, value)| ((contract, slot), value))
            })
            .collect();
        delta
    }
}

impl StateAccess for WorldStateOverlay<'_> {
    fn account(&self, addr: &Address) -> Account {
        match self.accounts.get(addr) {
            Some(account) => *account,
            None => self.base.account(addr),
        }
    }

    fn set_account(&mut self, addr: Address, account: Account) {
        self.accounts.insert(addr, account);
    }

    fn storage(&self, contract: &Address, key: &[u8]) -> Option<&[u8]> {
        match self.storage.get(contract).and_then(|slots| slots.get(key)) {
            Some(Some(value)) => Some(value.as_slice()),
            Some(None) => None, // deleted in this overlay
            None => self.base.storage(contract, key),
        }
    }

    fn set_storage(&mut self, contract: Address, key: Vec<u8>, value: Vec<u8>) {
        let buffered = if value.is_empty() { None } else { Some(value) };
        self.storage.entry(contract).or_default().insert(key, buffered);
    }

    fn code(&self, addr: &Address) -> Option<&[u8]> {
        match self.delta.code.get(addr) {
            Some(code) => Some(code.as_slice()),
            None => self.base.code(addr),
        }
    }

    fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        self.delta.code.insert(addr, code);
    }

    fn anchor(&self, label: &str) -> Option<Hash256> {
        match self.delta.anchors.get(label) {
            Some(root) => Some(*root),
            None => self.base.anchor(label),
        }
    }

    fn set_anchor(&mut self, label: &str, root: Hash256) {
        self.delta.anchors.insert(label.to_string(), root);
    }

    fn cross_link(&self, shard: ShardId) -> Option<CrossLinkRecord> {
        match self.delta.crosslinks.get(&shard.0) {
            Some(record) => Some(*record),
            None => self.base.cross_link(shard),
        }
    }

    fn set_cross_link(&mut self, shard: ShardId, record: CrossLinkRecord) {
        self.delta.crosslinks.insert(shard.0, record);
    }

    fn lock(&self, addr: &Address) -> Option<XsLock> {
        match self.delta.locks.get(addr) {
            Some(lock) => *lock,
            None => self.base.lock(addr),
        }
    }

    fn set_lock(&mut self, addr: Address, lock: XsLock) {
        self.delta.locks.insert(addr, Some(lock));
    }

    fn clear_lock(&mut self, addr: &Address) {
        self.delta.locks.insert(*addr, None);
    }

    fn xs_decision(&self, xid: &Hash256) -> Option<XsDecisionRecord> {
        match self.delta.xs_decisions.get(xid) {
            Some(decision) => Some(*decision),
            None => self.base.xs_decision(xid),
        }
    }

    fn set_xs_decision(&mut self, xid: Hash256, decision: XsDecisionRecord) {
        self.delta.xs_decisions.insert(xid, decision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::WorldState;

    #[test]
    fn reads_fall_through_and_writes_buffer() {
        let mut base = WorldState::new();
        let a = Address::from_seed(1);
        base.credit(a, 100);
        base.set_storage(a, b"k".to_vec(), b"v".to_vec());

        let mut overlay = WorldStateOverlay::new(&base);
        assert_eq!(overlay.account(&a).balance, 100);
        assert_eq!(overlay.storage(&a, b"k"), Some(b"v".as_slice()));

        overlay.credit(a, 50);
        overlay.set_storage(a, b"k".to_vec(), b"w".to_vec());
        assert_eq!(overlay.account(&a).balance, 150);
        assert_eq!(overlay.storage(&a, b"k"), Some(b"w".as_slice()));
        // Base untouched until commit.
        assert_eq!(base.account(&a).balance, 100);
        assert_eq!(base.storage(&a, b"k"), Some(b"v".as_slice()));
    }

    #[test]
    fn empty_value_tombstone_shadows_base_and_replays_as_delete() {
        let mut base = WorldState::new();
        let a = Address::from_seed(1);
        base.set_storage(a, b"k".to_vec(), b"v".to_vec());

        let mut overlay = WorldStateOverlay::new(&base);
        overlay.set_storage(a, b"k".to_vec(), Vec::new());
        assert_eq!(overlay.storage(&a, b"k"), None, "tombstone hides the base value");

        let delta = overlay.into_delta();
        delta.apply_to(&mut base);
        assert_eq!(base.storage(&a, b"k"), None, "delete replayed onto base");
    }

    #[test]
    fn chained_overlays_commit_through_parent() {
        let mut base = WorldState::new();
        let a = Address::from_seed(1);
        base.credit(a, 10);

        let mut block = WorldStateOverlay::new(&base);
        block.credit(a, 5);
        let child_delta = {
            let mut child = WorldStateOverlay::new(&block);
            assert_eq!(child.account(&a).balance, 15, "child sees parent's buffer");
            child.credit(a, 1);
            child.into_delta()
        };
        child_delta.apply_to(&mut block);
        assert_eq!(block.account(&a).balance, 16);
        assert_eq!(base.account(&a).balance, 10);
    }

    #[test]
    fn failed_debit_materializes_entry_like_world_state() {
        // WorldState::debit inserts a default entry on failure; the
        // overlay must replay the same, or roots diverge.
        let a = Address::from_seed(7);
        let mut direct = WorldState::new();
        let _ = direct.debit(a, 5);

        let base = WorldState::new();
        let mut overlay = WorldStateOverlay::new(&base);
        assert!(overlay.debit(a, 5).is_err());
        let mut via_overlay = base.clone();
        overlay.into_delta().apply_to(&mut via_overlay);
        assert_eq!(direct.state_root(), via_overlay.state_root());
    }
}
