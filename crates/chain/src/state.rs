//! The replicated world state: account, storage, code, anchor,
//! cross-link, lock and decision records, and [`WorldState`], the
//! typed maps that hold them.
//!
//! The state changes only by committing a block's [`StateDelta`]
//! ([`WorldState::apply_delta`]), which the ledger does once the block
//! is durable; execution reads and writes it through [`StateAccess`].
//! With a pager attached, cold account records live on its pages
//! (DESIGN.md §14).

use crate::auth::{leaf::KeyRef, LeafKey, StateTree};
use crate::exec::{StateAccess, StateDelta};
use crate::hash::Hash256;
use crate::ledger::LedgerError;
use crate::pager::{ColdAccounts, Pager};
use crate::shard::ShardId;
use crate::sig::Address;
use medchain_runtime::codec::Encode;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// The newest cross-link the coordinator chain holds for one shard:
/// the shard's committed tip at link time (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossLinkRecord {
    /// Height of the linked shard tip.
    pub height: u64,
    /// Digest of the linked shard tip header.
    pub tip: Hash256,
}

/// A two-phase-commit lock held on one account by an in-flight
/// cross-shard transaction (DESIGN.md §12). Created by `XsPrepare`,
/// released by `XsFinalize`. A debit-side lock has already escrowed
/// `amount` out of the balance; an abort-finalize refunds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsLock {
    /// Cross-shard transaction holding the lock.
    pub xid: Hash256,
    /// Amount escrowed (debit) or pending (credit).
    pub amount: u64,
    /// Whether this is the debit (escrow) side.
    pub debit: bool,
    /// Chain-time deadline after which the coordinator may abort.
    pub deadline_ms: u64,
}

/// The coordinator chain's recorded commit/abort decision for one
/// cross-shard transaction. At most one record ever exists per `xid`;
/// participants resolve interrupted 2PC rounds against it on restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsDecisionRecord {
    /// `true` for commit, `false` for abort.
    pub commit: bool,
    /// Id of the `XsDecide` transaction, so gateways can serve the
    /// proof-carrying coordinator receipt for the decision.
    pub tx_id: Hash256,
}

/// An account record: token balance and replay-protection nonce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Account {
    /// Token balance in base units.
    pub balance: u64,
    /// Next expected transaction nonce.
    pub nonce: u64,
}

/// The replicated world state.
///
/// Storage nests per-contract so hot-path slot reads resolve with two
/// borrowed-key lookups instead of building an owned `(Address, Vec<u8>)`
/// tuple per read. Invariant: no contract maps to an empty slot map
/// (deletes prune it), keeping equality and the codec canonical.
///
/// Accounts are hash-indexed with std's keyed hasher (a `Transfer`
/// recipient is a client-chosen address, so a fixed hasher would let a
/// client pick colliding keys). The map has no order: every walk that
/// reaches bytes or a choice goes through one sort, in `hot_sorted`
/// (the canonical encoding, the hot/cold merge, `Debug`) or in
/// `demote_accounts` (lowest addresses first). verify.sh fails on any
/// other walk of `accounts` in this file.
///
/// With a [`Pager`] attached, cold account records live on its pages
/// and `accounts` holds only the hot set (see `crate::pager` for the
/// disjointness invariant). Everything observable — reads, deltas,
/// roots, encoded bytes — is independent of which records happen to be
/// resident.
#[derive(Default)]
pub struct WorldState {
    accounts: HashMap<Address, Account>,
    storage: BTreeMap<Address, BTreeMap<Vec<u8>, Vec<u8>>>,
    code: BTreeMap<Address, Vec<u8>>,
    anchors: BTreeMap<String, Hash256>,
    crosslinks: BTreeMap<u16, CrossLinkRecord>,
    locks: BTreeMap<Address, XsLock>,
    xs_decisions: BTreeMap<Hash256, XsDecisionRecord>,
    /// Cold account records; `None` = fully resident. Not part of the
    /// value: excluded from `Clone`/`PartialEq`/codec (clones
    /// materialize, equality and bytes compare the merged view).
    cold: Option<ColdAccounts>,
}

impl fmt::Debug for WorldState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorldState")
            .field("accounts", &self.hot_sorted())
            .field("paged_accounts", &self.paged_account_count())
            .field("storage", &self.storage)
            .field("code", &self.code)
            .field("anchors", &self.anchors)
            .field("crosslinks", &self.crosslinks)
            .field("locks", &self.locks)
            .field("xs_decisions", &self.xs_decisions)
            .finish()
    }
}

impl Clone for WorldState {
    /// Clones materialize: the copy is fully resident and detached from
    /// the pager (two states mutating one page set would corrupt each
    /// other's cold records).
    fn clone(&self) -> Self {
        let mut accounts = self.accounts.clone();
        if let Some(cold) = &self.cold {
            accounts.extend(cold.entries());
        }
        WorldState {
            accounts,
            storage: self.storage.clone(),
            code: self.code.clone(),
            anchors: self.anchors.clone(),
            crosslinks: self.crosslinks.clone(),
            locks: self.locks.clone(),
            xs_decisions: self.xs_decisions.clone(),
            cold: None,
        }
    }
}

impl PartialEq for WorldState {
    fn eq(&self, other: &Self) -> bool {
        let accounts_eq = if self.cold.is_none() && other.cold.is_none() {
            self.accounts == other.accounts
        } else {
            // Merged-view comparison: residency is representation, not
            // value.
            self.account_count() == other.account_count() && {
                let mut theirs = Vec::with_capacity(other.account_count());
                other.for_each_account(&mut |addr, account| theirs.push((*addr, *account)));
                let mut i = 0;
                let mut equal = true;
                self.for_each_account(&mut |addr, account| {
                    equal = equal && theirs[i] == (*addr, *account);
                    i += 1;
                });
                equal
            }
        };
        accounts_eq
            && self.storage == other.storage
            && self.code == other.code
            && self.anchors == other.anchors
            && self.crosslinks == other.crosslinks
            && self.locks == other.locks
            && self.xs_decisions == other.xs_decisions
    }
}

impl Eq for WorldState {}

impl WorldState {
    /// Creates an empty state.
    pub fn new() -> WorldState {
        WorldState::default()
    }

    /// Starts paging cold account records to `pager`. The resident map
    /// is the entire state at that moment, and only
    /// [`WorldState::demote_accounts`] moves records cold.
    pub(crate) fn attach_cold_pager(&mut self, pager: Arc<dyn Pager>) {
        debug_assert_eq!(self.paged_account_count(), 0, "cold records would be lost");
        self.cold = Some(ColdAccounts::new(pager));
    }

    /// Number of account records currently cold.
    pub fn paged_account_count(&self) -> usize {
        self.cold.as_ref().map_or(0, ColdAccounts::len)
    }

    /// Whether `addr`'s record is cold: demoted out of the resident map
    /// and held by the pager.
    pub fn account_is_cold(&self, addr: &Address) -> bool {
        self.cold.as_ref().is_some_and(|cold| cold.contains(addr))
    }

    /// Moves hot accounts (outside `keep`) to the pager until at most
    /// `max_hot` stay resident; returns how many were demoted. Lowest
    /// addresses demote first — the ledger passes the block's written
    /// addresses as `keep`, so the write-hot set stays resident.
    ///
    /// The victims are a selection over the hot set: at most
    /// `keep.len()` of the lowest `excess + keep.len()` hot addresses
    /// are kept, so those hold every victim, and only they are sorted
    /// and checked against `keep`. The cold set then stages the victims
    /// in the order a walk in address order would. A hot map left at
    /// under a quarter of its capacity (the attach that demotes a whole
    /// genesis) is shrunk.
    pub(crate) fn demote_accounts(&mut self, max_hot: usize, keep: &BTreeSet<Address>) -> usize {
        let Some(cold) = self.cold.as_mut() else { return 0 };
        let excess = self.accounts.len().saturating_sub(max_hot);
        if excess == 0 {
            return 0;
        }
        let mut lowest: Vec<Address> = self.accounts.keys().copied().collect();
        let reach = excess + keep.len();
        if reach < lowest.len() {
            lowest.select_nth_unstable(reach);
            lowest.truncate(reach);
        }
        lowest.sort_unstable();
        let victims: Vec<Address> =
            lowest.into_iter().filter(|a| !keep.contains(a)).take(excess).collect();
        for addr in &victims {
            let account = self.accounts.remove(addr).expect("victim is hot");
            cold.store(*addr, account);
        }
        if self.accounts.capacity() > 4 * self.accounts.len() {
            self.accounts.shrink_to(2 * self.accounts.len());
        }
        victims.len()
    }

    /// Promotes `addr`'s cold record into the resident map, if it has
    /// one. Every `&mut` account path calls this first, preserving
    /// hot/cold disjointness.
    fn promote(&mut self, addr: &Address) {
        if self.accounts.contains_key(addr) {
            return;
        }
        if let Some(account) = self.cold.as_mut().and_then(|cold| cold.take(addr)) {
            self.accounts.insert(*addr, account);
        }
    }

    /// The resident records in ascending address order: the one sorted
    /// walk of the hash-indexed hot map.
    fn hot_sorted(&self) -> Vec<(&Address, &Account)> {
        let mut hot: Vec<(&Address, &Account)> = self.accounts.iter().collect();
        hot.sort_unstable_by_key(|(addr, _)| **addr);
        hot
    }

    /// Feeds every account to `emit` in ascending address order, merging
    /// the sorted resident records with the cold ones (disjoint by
    /// invariant, so the merge is a plain ordered zip).
    fn for_each_account(&self, emit: &mut dyn FnMut(&Address, &Account)) {
        let hot = self.hot_sorted();
        let Some(cold) = &self.cold else {
            for (addr, account) in hot {
                emit(addr, account);
            }
            return;
        };
        let cold = cold.entries();
        let mut hot = hot.into_iter().peekable();
        let mut cold = cold.iter().map(|(addr, account)| (addr, account)).peekable();
        loop {
            let next = match (hot.peek(), cold.peek()) {
                (Some((ha, _)), Some((ca, _))) => {
                    debug_assert_ne!(ha, ca, "hot/cold disjointness violated");
                    if ha < ca {
                        hot.next()
                    } else {
                        cold.next()
                    }
                }
                (Some(_), None) => hot.next(),
                (None, Some(_)) => cold.next(),
                (None, None) => return,
            };
            let (addr, account) = next.expect("peeked");
            emit(addr, account);
        }
    }

    /// Returns the account for `addr` (default if absent), falling
    /// through to the pager for cold records.
    pub fn account(&self, addr: &Address) -> Account {
        if let Some(account) = self.accounts.get(addr) {
            return *account;
        }
        self.cold.as_ref().and_then(|cold| cold.load(addr)).unwrap_or_default()
    }

    /// Credits `amount` to `addr`.
    pub fn credit(&mut self, addr: Address, amount: u64) {
        self.promote(&addr);
        self.accounts.entry(addr).or_default().balance += amount;
    }

    /// Debits `amount` from `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::InsufficientBalance`] if funds are missing.
    pub fn debit(&mut self, addr: Address, amount: u64) -> Result<(), LedgerError> {
        self.promote(&addr);
        let account = self.accounts.entry(addr).or_default();
        if account.balance < amount {
            return Err(LedgerError::InsufficientBalance {
                address: addr,
                have: account.balance,
                need: amount,
            });
        }
        account.balance -= amount;
        Ok(())
    }

    /// Reads a contract storage slot. Allocation-free: both map lookups
    /// borrow the caller's key.
    pub fn storage(&self, contract: &Address, key: &[u8]) -> Option<&[u8]> {
        self.storage.get(contract)?.get(key).map(Vec::as_slice)
    }

    /// Writes a contract storage slot (empty value deletes).
    pub fn set_storage(&mut self, contract: Address, key: Vec<u8>, value: Vec<u8>) {
        if value.is_empty() {
            self.storage_remove(&contract, &key);
        } else {
            self.storage_insert(contract, key, value);
        }
    }

    /// Inserts one slot.
    fn storage_insert(&mut self, contract: Address, key: Vec<u8>, value: Vec<u8>) {
        self.storage.entry(contract).or_default().insert(key, value);
    }

    /// Removes one slot, pruning the contract's slot map if it becomes
    /// empty (canonical-form invariant).
    fn storage_remove(&mut self, contract: &Address, key: &[u8]) {
        let Some(slots) = self.storage.get_mut(contract) else { return };
        slots.remove(key);
        if slots.is_empty() {
            self.storage.remove(contract);
        }
    }

    /// Returns deployed code at `addr`.
    pub fn code(&self, addr: &Address) -> Option<&[u8]> {
        self.code.get(addr).map(Vec::as_slice)
    }

    /// Installs contract code.
    pub fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        self.code.insert(addr, code);
    }

    /// Looks up a data anchor by label.
    pub fn anchor(&self, label: &str) -> Option<Hash256> {
        self.anchors.get(label).copied()
    }

    /// Records a data anchor directly (genesis/state construction; live
    /// chains anchor through [`TxPayload::Anchor`](crate::tx::TxPayload::Anchor) transactions).
    pub fn set_anchor(&mut self, label: &str, root: Hash256) {
        self.anchors.insert(label.to_string(), root);
    }

    /// Number of recorded anchors.
    pub fn anchor_count(&self) -> usize {
        self.anchors.len()
    }

    /// The newest cross-link recorded for `shard` (coordinator chains
    /// only; always `None` on data shards).
    pub fn cross_link(&self, shard: ShardId) -> Option<CrossLinkRecord> {
        self.crosslinks.get(&shard.0).copied()
    }

    /// All recorded cross-links as `(shard, record)` pairs, sorted by
    /// shard — what recovery checks each sub-chain against.
    pub fn cross_links(&self) -> impl Iterator<Item = (ShardId, CrossLinkRecord)> + '_ {
        self.crosslinks.iter().map(|(s, r)| (ShardId(*s), *r))
    }

    /// The 2PC lock held on `addr`, if any (data shards only).
    pub fn lock(&self, addr: &Address) -> Option<XsLock> {
        self.locks.get(addr).copied()
    }

    /// All held 2PC locks as `(account, lock)` pairs, sorted by
    /// account — what the cross-shard resolver scans after a restart.
    pub fn locks(&self) -> impl Iterator<Item = (Address, XsLock)> + '_ {
        self.locks.iter().map(|(a, l)| (*a, *l))
    }

    /// The coordinator's recorded decision for cross-shard transaction
    /// `xid`, if one was ever committed (coordinator chains only).
    pub fn xs_decision(&self, xid: &Hash256) -> Option<XsDecisionRecord> {
        self.xs_decisions.get(xid).copied()
    }

    /// All recorded cross-shard decisions, sorted by `xid`.
    pub fn xs_decisions(&self) -> impl Iterator<Item = (Hash256, XsDecisionRecord)> + '_ {
        self.xs_decisions.iter().map(|(x, d)| (*x, *d))
    }

    /// Deterministic commitment to the entire state: the versioned root
    /// of the sparse Merkle tree over every leaf (DESIGN.md §13).
    ///
    /// This builds the tree from scratch — O(total state), one pass — and
    /// exists as the reference path for tests, recovery checks, and
    /// ad-hoc callers. The ledger itself never rebuilds per block: it
    /// maintains a [`StateTree`] incrementally and pays O(keys changed).
    pub fn state_root(&self) -> Hash256 {
        StateTree::from_state(self).versioned_root()
    }

    /// [`WorldState::state_root`] as if `delta` were already committed,
    /// without mutating the state. Identical to committing the delta and
    /// hashing (property-tested below); still O(total state) because it
    /// builds the tree over the merged leaves — the ledger's cached-tree
    /// path is the fast equivalent.
    pub fn state_root_with(&self, delta: &StateDelta) -> Hash256 {
        StateTree::from_state_with(self, delta).versioned_root()
    }

    /// Feeds every state entry to `emit` as its canonical
    /// (leaf key, value bytes) pair — the single enumeration the
    /// authenticated tree builds from.
    pub(crate) fn for_each_leaf(&self, emit: &mut dyn FnMut(KeyRef<'_>, &[u8])) {
        let mut scratch = Vec::new();
        self.for_each_account(&mut |addr, account| {
            scratch.clear();
            account.encode(&mut scratch);
            emit(KeyRef::Account(addr), &scratch);
        });
        for (contract, slots) in &self.storage {
            for (key, value) in slots {
                emit(KeyRef::Storage(contract, key), value);
            }
        }
        for (addr, code) in &self.code {
            emit(KeyRef::Code(addr), code);
        }
        for (label, root) in &self.anchors {
            emit(KeyRef::Anchor(label), &root.0);
        }
        for (shard, link) in &self.crosslinks {
            scratch.clear();
            link.encode(&mut scratch);
            emit(KeyRef::CrossLink(*shard), &scratch);
        }
        for (addr, lock) in &self.locks {
            scratch.clear();
            lock.encode(&mut scratch);
            emit(KeyRef::Lock(addr), &scratch);
        }
        for (xid, decision) in &self.xs_decisions {
            scratch.clear();
            decision.encode(&mut scratch);
            emit(KeyRef::XsDecision(xid), &scratch);
        }
    }

    /// Canonical authenticated-leaf value bytes stored at `key`, or
    /// `None` when the entry is absent. This is the byte string a
    /// [`StateProof`](crate::auth::StateProof) for `key` commits to.
    pub fn leaf_value(&self, key: &LeafKey) -> Option<Vec<u8>> {
        self.leaf_bytes(key.borrowed(), &mut Vec::new()).map(<[u8]>::to_vec)
    }

    /// [`WorldState::leaf_value`] of a borrowed key without allocating:
    /// stored bytes are borrowed, and encoded records are written to
    /// `scratch` (cleared first). Cold accounts are read, not promoted.
    pub(crate) fn leaf_bytes<'s>(
        &'s self,
        key: KeyRef<'_>,
        scratch: &'s mut Vec<u8>,
    ) -> Option<&'s [u8]> {
        scratch.clear();
        match key {
            KeyRef::Account(addr) => self
                .accounts
                .get(addr)
                .copied()
                .or_else(|| self.cold.as_ref().and_then(|cold| cold.load(addr)))?
                .encode(scratch),
            KeyRef::Storage(contract, slot) => return self.storage(contract, slot),
            KeyRef::Code(addr) => return self.code(addr),
            KeyRef::Anchor(label) => return self.anchors.get(label).map(|root| &root.0[..]),
            KeyRef::CrossLink(shard) => self.crosslinks.get(&shard)?.encode(scratch),
            KeyRef::Lock(addr) => self.locks.get(addr)?.encode(scratch),
            KeyRef::XsDecision(xid) => self.xs_decisions.get(xid)?.encode(scratch),
        }
        Some(scratch)
    }

    /// Total number of authenticated leaves (equals
    /// `StateTree::from_state(self).len()` without building the tree).
    pub fn leaf_count(&self) -> usize {
        self.account_count()
            + self.storage_slot_count()
            + self.code.len()
            + self.anchors.len()
            + self.crosslinks.len()
            + self.locks.len()
            + self.xs_decisions.len()
    }

    /// Number of accounts with a materialized record, hot or cold.
    pub(crate) fn account_count(&self) -> usize {
        self.accounts.len() + self.paged_account_count()
    }

    /// Total storage slots across all contracts.
    pub(crate) fn storage_slot_count(&self) -> usize {
        self.storage.values().map(BTreeMap::len).sum()
    }

    /// Number of contracts with deployed code.
    pub(crate) fn code_count(&self) -> usize {
        self.code.len()
    }

    /// Number of currently held 2PC locks.
    pub(crate) fn lock_count(&self) -> usize {
        self.locks.len()
    }

    /// Commits `delta` into the state, moving its keys and values in.
    /// The ledger calls it only once the block is durable, so a commit
    /// is never undone.
    pub(crate) fn apply_delta(&mut self, delta: StateDelta) {
        let StateDelta { accounts, storage, code, anchors, crosslinks, locks, xs_decisions } =
            delta;
        for (addr, account) in accounts {
            // Drops any cold copy: a write re-homes the record hot.
            StateAccess::set_account(self, addr, account);
        }
        for ((contract, key), value) in storage {
            match value {
                Some(value) => self.storage_insert(contract, key, value),
                None => self.storage_remove(&contract, &key),
            }
        }
        self.code.extend(code);
        self.anchors.extend(anchors);
        self.crosslinks.extend(crosslinks);
        for (addr, lock) in locks {
            match lock {
                Some(lock) => self.locks.insert(addr, lock),
                None => self.locks.remove(&addr),
            };
        }
        self.xs_decisions.extend(xs_decisions);
    }
}

/// Direct map access: [`WorldState`] is the root implementor of the
/// state-access surface that overlays buffer in front of.
impl StateAccess for WorldState {
    fn account(&self, addr: &Address) -> Account {
        WorldState::account(self, addr)
    }

    fn set_account(&mut self, addr: Address, account: Account) {
        // Drop any cold copy first: a write re-homes the record hot.
        if let Some(cold) = &mut self.cold {
            cold.take(&addr);
        }
        self.accounts.insert(addr, account);
    }

    fn storage(&self, contract: &Address, key: &[u8]) -> Option<&[u8]> {
        WorldState::storage(self, contract, key)
    }

    fn set_storage(&mut self, contract: Address, key: Vec<u8>, value: Vec<u8>) {
        WorldState::set_storage(self, contract, key, value)
    }

    fn code(&self, addr: &Address) -> Option<&[u8]> {
        WorldState::code(self, addr)
    }

    fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        WorldState::set_code(self, addr, code)
    }

    fn anchor(&self, label: &str) -> Option<Hash256> {
        WorldState::anchor(self, label)
    }

    fn set_anchor(&mut self, label: &str, root: Hash256) {
        WorldState::set_anchor(self, label, root)
    }

    fn cross_link(&self, shard: ShardId) -> Option<CrossLinkRecord> {
        WorldState::cross_link(self, shard)
    }

    fn set_cross_link(&mut self, shard: ShardId, record: CrossLinkRecord) {
        self.crosslinks.insert(shard.0, record);
    }

    fn lock(&self, addr: &Address) -> Option<XsLock> {
        WorldState::lock(self, addr)
    }

    fn set_lock(&mut self, addr: Address, lock: XsLock) {
        self.locks.insert(addr, lock);
    }

    fn clear_lock(&mut self, addr: &Address) {
        self.locks.remove(addr);
    }

    fn xs_decision(&self, xid: &Hash256) -> Option<XsDecisionRecord> {
        WorldState::xs_decision(self, xid)
    }

    fn set_xs_decision(&mut self, xid: Hash256, decision: XsDecisionRecord) {
        self.xs_decisions.insert(xid, decision);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::WorldStateOverlay;
    use crate::ledger::{cross_link_tx, sharded_ledger};
    use crate::sig::AuthorityKey;

    #[test]
    fn state_root_reflects_every_component() {
        let mut a = WorldState::new();
        let base = a.state_root();
        a.credit(Address::from_seed(1), 5);
        let with_account = a.state_root();
        assert_ne!(base, with_account);
        a.set_storage(Address::from_seed(2), b"k".to_vec(), b"v".to_vec());
        let with_storage = a.state_root();
        assert_ne!(with_account, with_storage);
        a.set_code(Address::from_seed(2), vec![1, 2, 3]);
        assert_ne!(with_storage, a.state_root());
    }

    #[test]
    fn state_root_with_matches_materialized_commit() {
        // Base with entries that get overridden, deleted, and kept.
        let mut base = WorldState::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        base.credit(a, 100);
        base.set_storage(a, b"keep".to_vec(), b"1".to_vec());
        base.set_storage(a, b"gone".to_vec(), b"2".to_vec());
        base.set_code(a, vec![9]);
        base.set_anchor("lbl", Hash256::digest(b"x"));

        let mut overlay = WorldStateOverlay::new(&base);
        overlay.credit(a, 5);
        overlay.credit(b, 7);
        overlay.set_storage(a, b"gone".to_vec(), Vec::new()); // tombstone
        overlay.set_storage(b, b"new".to_vec(), b"3".to_vec());
        overlay.set_code(b, vec![8]);
        overlay.set_anchor("lbl2", Hash256::digest(b"y"));
        overlay.set_cross_link(ShardId(3), CrossLinkRecord {
            height: 1,
            tip: Hash256::digest(b"t"),
        });
        let delta = overlay.into_delta();

        let merged_root = base.state_root_with(&delta);
        let mut materialized = base.clone();
        materialized.apply_delta(delta);
        assert_eq!(merged_root, materialized.state_root(), "merge-join root must match commit");
        assert_ne!(merged_root, base.state_root());
    }
    #[test]
    fn state_root_covers_cross_links() {
        // Two states differing only in the cross-link table must have
        // different roots, else a forged link would escape the header's
        // state commitment.
        let mut with_link = WorldState::new();
        with_link
            .crosslinks
            .insert(0, CrossLinkRecord { height: 1, tip: Hash256::digest(b"tip") });
        assert_ne!(with_link.state_root(), WorldState::new().state_root());

        let alice = AuthorityKey::from_seed(1);
        let mut coord = sharded_ledger(ShardId::COORDINATOR, 2, std::slice::from_ref(&alice));
        let block =
            coord.propose(alice.address(), 10, vec![cross_link_tx(&alice, 0, ShardId(0), 1)]);
        coord.apply(&block).unwrap();
        // Codec round-trip preserves the cross-link table and the root.
        use medchain_runtime::codec::{Decode, Encode};
        let bytes = coord.state().encoded();
        let decoded = WorldState::decoded(&bytes).unwrap();
        assert_eq!(decoded.cross_link(ShardId(0)), coord.state().cross_link(ShardId(0)));
        assert_eq!(decoded.state_root(), coord.state().state_root());
    }

    /// The hash-indexed account map never leaks its order: one set of
    /// account records, reached through different insertion orders and
    /// histories — direct credits, an overlay's delta, a decode, a
    /// clone — encodes byte-identically, hashes to one root, prints one
    /// `Debug` and compares equal. The paged half of this property (the
    /// grow/demote/promote histories and the victims demotion picks) is
    /// `tests/storage.rs::hash_order_never_reaches_paged_bytes_or_victims`,
    /// where the page store is.
    #[test]
    fn hash_order_never_reaches_bytes() {
        use medchain_runtime::check::{check, CheckConfig};
        use medchain_runtime::codec::{Decode, Encode};
        use medchain_runtime::{ensure, ensure_eq};
        check("hash order never reaches bytes", CheckConfig::cases(48), |g| {
            let universe = g.usize_in(1, 300) as u64;
            let mut credits: Vec<(Address, u64)> = (0..g.usize_in(1, 400))
                .map(|_| (Address::from_seed(g.u64() % universe), g.u64() % 1_000))
                .collect();
            let mut direct = WorldState::new();
            for (addr, amount) in &credits {
                direct.credit(*addr, *amount);
            }
            g.rng().shuffle(&mut credits);
            let base = WorldState::new();
            let mut overlay = WorldStateOverlay::new(&base);
            for (addr, amount) in &credits {
                overlay.credit(*addr, *amount);
            }
            let mut via_delta = WorldState::new();
            via_delta.apply_delta(overlay.into_delta());
            let decoded = WorldState::decoded(&via_delta.encoded()).map_err(|e| e.to_string())?;
            let bytes = direct.encoded();
            let root = direct.state_root();
            for (name, other) in
                [("overlay delta", &via_delta), ("decode", &decoded), ("clone", &decoded.clone())]
            {
                ensure!(other.encoded() == bytes, "{name}: encoding differs");
                ensure_eq!(other.state_root(), root);
                ensure!(*other == direct, "{name}: not equal");
                ensure_eq!(format!("{other:?}"), format!("{direct:?}"));
            }
            Ok(())
        });
    }
}

mod codec_impls {
    use super::{Account, Address, CrossLinkRecord, WorldState, XsDecisionRecord, XsLock};
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};
    use medchain_runtime::impl_codec_struct;

    impl_codec_struct!(Account { balance, nonce });
    impl_codec_struct!(CrossLinkRecord { height, tip });
    impl_codec_struct!(XsLock { xid, amount, debit, deadline_ms });
    impl_codec_struct!(XsDecisionRecord { commit, tx_id });

    // Hand-rolled (not `impl_codec_struct!`) because the account
    // component streams the *merged* hot+cold view in address order:
    // byte-identical to a fully resident `BTreeMap` encoding (u32 count,
    // ascending pairs), whatever the hash map's order and whichever
    // records are cold. The remaining fields follow declaration order
    // exactly as the macro would emit them.
    impl Encode for WorldState {
        fn encode(&self, out: &mut Vec<u8>) {
            let count = u32::try_from(self.account_count())
                .expect("account count exceeds u32 — canonical codec limit");
            count.encode(out);
            self.for_each_account(&mut |addr, account| {
                addr.encode(out);
                account.encode(out);
            });
            self.storage.encode(out);
            self.code.encode(out);
            self.anchors.encode(out);
            self.crosslinks.encode(out);
            self.locks.encode(out);
            self.xs_decisions.encode(out);
        }
    }

    impl Decode for WorldState {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            // Decoded states start fully resident; recovery re-attaches
            // a pager (and re-demotes) after install. The accounts are
            // read as the pairs they are encoded as (a repeated address
            // keeps its last value, as a `BTreeMap` decode would).
            let pairs: Vec<(Address, Account)> = Decode::decode(r)?;
            Ok(WorldState {
                accounts: pairs.into_iter().collect(),
                storage: Decode::decode(r)?,
                code: Decode::decode(r)?,
                anchors: Decode::decode(r)?,
                crosslinks: Decode::decode(r)?,
                locks: Decode::decode(r)?,
                xs_decisions: Decode::decode(r)?,
                cold: None,
            })
        }
    }
}
