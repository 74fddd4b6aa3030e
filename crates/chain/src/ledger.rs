//! World state, receipts, and the ledger (chain of applied blocks).
//!
//! The ledger is execution-layer-agnostic: `Deploy`/`Invoke` payloads are
//! delegated to a pluggable [`ContractRuntime`] (implemented by
//! `medchain-contracts`), while `Transfer` and `Anchor` payloads are
//! interpreted natively. Every node holds an identical ledger — this is
//! precisely the duplicated-computing property the paper sets out to
//! exploit and then reform.

use crate::auth::leaf::KeyRef;
use crate::auth::{LeafKey, StateProof, StateTree};
use crate::block::{Block, Body, Header};
use crate::exec::{self, ExecScope, StateAccess, StateDelta, WorldStateOverlay};
use crate::hash::Hash256;
use crate::pager::{ColdAccounts, Pager};
use crate::shard::ShardId;
use crate::sig::{Address, KeyRegistry};
use crate::store::BlockStore;
use crate::tx::SealedTx;
use medchain_runtime::codec::Encode;
use medchain_runtime::metrics::Metrics;
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

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

/// An event emitted during contract execution.
///
/// The off-chain monitor node (paper Fig. 3) subscribes to these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Emitting contract.
    pub contract: Address,
    /// Topic string, e.g. `"DataRequested"`.
    pub topic: String,
    /// Opaque payload.
    pub data: Vec<u8>,
}

/// Execution receipt for one transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Transaction id.
    pub tx_id: Hash256,
    /// Whether execution succeeded.
    pub ok: bool,
    /// Gas consumed.
    pub gas_used: u64,
    /// Return data (empty on failure).
    pub output: Vec<u8>,
    /// Events emitted (empty on failure).
    pub events: Vec<Event>,
    /// Error description when `ok` is false.
    pub error: Option<String>,
}

/// Successful contract execution outcome.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Gas consumed.
    pub gas_used: u64,
    /// Return data.
    pub output: Vec<u8>,
    /// Events emitted.
    pub events: Vec<Event>,
}

/// Error produced by contract execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Gas consumed before the failure.
    pub gas_used: u64,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "contract execution failed: {}", self.reason)
    }
}

impl std::error::Error for ExecError {}

/// Pluggable smart-contract execution layer.
///
/// Execution mutates state through the [`StateAccess`] trait rather
/// than a concrete [`WorldState`]: during block application the ledger
/// hands the runtime a buffered overlay, so contract writes stay
/// speculative until the block's delta commits (DESIGN.md §11).
#[allow(clippy::too_many_arguments)] // execution context is intrinsically wide
pub trait ContractRuntime: Send + Sync {
    /// Deploys `code` at `contract_addr`, running any constructor with
    /// `init`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the code is malformed or the constructor
    /// fails or runs out of gas.
    fn deploy(
        &self,
        sender: Address,
        contract_addr: Address,
        code: &[u8],
        init: &[u8],
        gas_limit: u64,
        now_ms: u64,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError>;

    /// Invokes the contract at `contract` with `input`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on missing contract, trap, or out-of-gas.
    fn invoke(
        &self,
        sender: Address,
        contract: Address,
        input: &[u8],
        gas_limit: u64,
        now_ms: u64,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError>;

    /// Statically classifies the state footprint of `code` for
    /// read/write-set inference (`exec::read_write_set`). The default is
    /// the conservative [`ExecScope::MayEscape`]; runtimes that can
    /// prove code touches only its own contract return
    /// [`ExecScope::SelfContained`] to unlock parallel scheduling.
    fn code_scope(&self, code: &[u8]) -> ExecScope {
        let _ = code;
        ExecScope::MayEscape
    }
}

/// Runtime that rejects all contract transactions; used by chain-only
/// deployments and tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRuntime;

impl ContractRuntime for NullRuntime {
    fn deploy(
        &self,
        _sender: Address,
        _contract_addr: Address,
        _code: &[u8],
        _init: &[u8],
        gas_limit: u64,
        _now_ms: u64,
        _state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        let _ = gas_limit;
        Err(ExecError { gas_used: 0, reason: "no contract runtime installed".into() })
    }

    fn invoke(
        &self,
        _sender: Address,
        _contract: Address,
        _input: &[u8],
        _gas_limit: u64,
        _now_ms: u64,
        _state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        Err(ExecError { gas_used: 0, reason: "no contract runtime installed".into() })
    }

    fn code_scope(&self, _code: &[u8]) -> ExecScope {
        // Rejecting an invoke touches no state at all.
        ExecScope::SelfContained
    }
}

/// The replicated world state.
///
/// Storage nests per-contract so hot-path slot reads resolve with two
/// borrowed-key lookups instead of building an owned `(Address, Vec<u8>)`
/// tuple per read. Invariant: no contract maps to an empty slot map
/// (deletes prune it), keeping equality and the codec canonical.
///
/// With a [`Pager`] attached, cold account records live on its pages
/// and `accounts` holds only the hot set (see `crate::pager` for the
/// disjointness invariant). Everything observable — reads, deltas,
/// roots, encoded bytes — is independent of which records happen to be
/// resident.
#[derive(Default)]
pub struct WorldState {
    accounts: BTreeMap<Address, Account>,
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
            .field("accounts", &self.accounts)
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
    pub(crate) fn demote_accounts(&mut self, max_hot: usize, keep: &BTreeSet<Address>) -> usize {
        let Some(cold) = self.cold.as_mut() else { return 0 };
        let excess = self.accounts.len().saturating_sub(max_hot);
        if excess == 0 {
            return 0;
        }
        let victims: Vec<Address> =
            self.accounts.keys().filter(|a| !keep.contains(a)).take(excess).copied().collect();
        for addr in &victims {
            let account = self.accounts.remove(addr).expect("victim is hot");
            cold.store(*addr, account);
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

    /// Feeds every account to `emit` in ascending address order, merging
    /// the resident map with the cold records (disjoint by invariant, so
    /// the merge is a plain ordered zip).
    fn for_each_account(&self, emit: &mut dyn FnMut(&Address, &Account)) {
        let Some(cold) = &self.cold else {
            for (addr, account) in &self.accounts {
                emit(addr, account);
            }
            return;
        };
        let cold = cold.entries();
        let mut hot = self.accounts.iter().peekable();
        let mut cold = cold.iter().peekable();
        loop {
            match (hot.peek(), cold.peek()) {
                (Some((ha, _)), Some((ca, _))) => {
                    debug_assert_ne!(*ha, ca, "hot/cold disjointness violated");
                    if *ha < ca {
                        let (addr, account) = hot.next().expect("peeked");
                        emit(addr, account);
                    } else {
                        let (addr, account) = cold.next().expect("peeked");
                        emit(addr, account);
                    }
                }
                (Some(_), None) => {
                    let (addr, account) = hot.next().expect("peeked");
                    emit(addr, account);
                }
                (None, Some(_)) => {
                    let (addr, account) = cold.next().expect("peeked");
                    emit(addr, account);
                }
                (None, None) => return,
            }
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

    /// Iterates over the storage slots of one contract.
    pub fn storage_of<'a>(
        &'a self,
        contract: &'a Address,
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.storage
            .get(contract)
            .into_iter()
            .flat_map(|slots| slots.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
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
    /// chains anchor through [`TxPayload::Anchor`] transactions).
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
    /// [`StateProof`] for `key` commits to.
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
    pub fn account_count(&self) -> usize {
        self.accounts.len() + self.paged_account_count()
    }

    /// Total storage slots across all contracts.
    pub fn storage_slot_count(&self) -> usize {
        self.storage.values().map(BTreeMap::len).sum()
    }

    /// Number of contracts with deployed code.
    pub fn code_count(&self) -> usize {
        self.code.len()
    }

    /// Number of currently held 2PC locks.
    pub fn lock_count(&self) -> usize {
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

/// Errors raised while validating or applying blocks and transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// Transaction signature missing or invalid.
    BadSignature(Hash256),
    /// Transaction nonce does not match the account.
    BadNonce {
        /// Offending transaction.
        tx_id: Hash256,
        /// Nonce the account expected.
        expected: u64,
        /// Nonce the transaction carried.
        got: u64,
    },
    /// Account balance too low.
    InsufficientBalance {
        /// Debited account.
        address: Address,
        /// Current balance.
        have: u64,
        /// Required amount.
        need: u64,
    },
    /// Block's parent does not match the chain tip.
    WrongParent,
    /// Block height is not tip + 1.
    WrongHeight {
        /// Expected height.
        expected: u64,
        /// Header height.
        got: u64,
    },
    /// Header `tx_root` does not commit to the body.
    BodyMismatch,
    /// Header `state_root` does not match post-execution state.
    StateRootMismatch,
    /// Block belongs to a different shard sub-chain than this ledger.
    WrongShard {
        /// Shard this ledger follows.
        expected: ShardId,
        /// Shard the header carried.
        got: ShardId,
    },
    /// An anchor label was re-registered with a different root.
    AnchorConflict(String),
    /// The account is locked by an in-flight cross-shard transaction
    /// (DESIGN.md §12); admission defers until the lock resolves.
    AccountLocked {
        /// Locked account.
        address: Address,
        /// Cross-shard transaction holding the lock.
        xid: Hash256,
    },
    /// A cross-shard debit prepare was signed by someone other than the
    /// account it escrows from (DESIGN.md §12): only the owner may lock
    /// its own funds.
    XsUnauthorizedDebit {
        /// Who signed the prepare.
        sender: Address,
        /// The account the debit leg tried to escrow.
        account: Address,
    },
    /// The attached [`BlockStore`] failed to persist the block. The
    /// block is logged before the state changes, so nothing committed.
    Storage(String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::BadSignature(id) => write!(f, "bad signature on transaction {id:?}"),
            LedgerError::BadNonce { tx_id, expected, got } => {
                write!(f, "bad nonce on {tx_id:?}: expected {expected}, got {got}")
            }
            LedgerError::InsufficientBalance { address, have, need } => {
                write!(f, "insufficient balance on {address:?}: have {have}, need {need}")
            }
            LedgerError::WrongParent => f.write_str("block parent does not match chain tip"),
            LedgerError::WrongHeight { expected, got } => {
                write!(f, "wrong block height: expected {expected}, got {got}")
            }
            LedgerError::BodyMismatch => f.write_str("tx root does not commit to block body"),
            LedgerError::StateRootMismatch => {
                f.write_str("state root does not match post-execution state")
            }
            LedgerError::WrongShard { expected, got } => {
                write!(f, "block belongs to {got}, this ledger follows {expected}")
            }
            LedgerError::AnchorConflict(label) => {
                write!(f, "anchor label {label:?} already registered with different root")
            }
            LedgerError::AccountLocked { address, xid } => {
                write!(f, "account {address:?} locked by cross-shard transaction {xid:?}")
            }
            LedgerError::XsUnauthorizedDebit { sender, account } => {
                write!(
                    f,
                    "debit prepare from {sender:?} on {account:?}: only the owner may escrow"
                )
            }
            LedgerError::Storage(e) => write!(f, "block store rejected commit: {e}"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Counters describing the work a ledger has performed — inputs to the
/// energy model and the duplicated-computing experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Blocks applied.
    pub blocks: u64,
    /// Transactions executed.
    pub transactions: u64,
    /// Total gas consumed by contract execution.
    pub gas_used: u64,
    /// Transactions that failed execution.
    pub failed: u64,
}

/// A node's replicated ledger: block store + world state + receipts.
///
/// The ledger retains a suffix of the chain in memory (`base_height` is
/// the height of the oldest retained block — 0 until
/// [`Ledger::prune_below`] or [`Ledger::restore_with_tree`] is used)
/// and, when a [`BlockStore`] is attached, persists every block
/// write-ahead before the in-memory commit.
pub struct Ledger {
    /// Retained blocks; `blocks[0]` has height `base_height`.
    blocks: Vec<Block>,
    base_height: u64,
    state: WorldState,
    /// The receipts of every block applied since genesis or the last
    /// restore, one entry per block, oldest first, moved in by
    /// [`Ledger::apply`] and kept through [`Ledger::prune_below`]. Each
    /// entry carries the commit-order position of its first receipt.
    receipts: Vec<(u64, Vec<Receipt>)>,
    /// `tx id → commit-order position` of every receipt in `receipts`,
    /// 40 bytes an entry. Ids come from clients, so the map keeps std's
    /// keyed hasher.
    tx_index: HashMap<Hash256, u64>,
    registry: KeyRegistry,
    runtime: Box<dyn ContractRuntime>,
    stats: LedgerStats,
    store: Option<Box<dyn BlockStore>>,
    shard: ShardId,
    shard_count: u16,
    /// Worker lanes for parallel block execution; 0 or 1 = sequential.
    exec_threads: usize,
    metrics: Metrics,
    /// Incrementally maintained authenticated state tree: the tree of
    /// `state` at the committed tip or, while `proposal` is set, that
    /// tree with the proposal's delta merged in (the tree runs ahead).
    /// Empty after a direct [`Ledger::state_mut`] mutation (genesis
    /// funding); lazily rebuilt by [`Ledger::state_tree`].
    tree: OnceCell<StateTree>,
    /// What [`Ledger::propose`] computed for the block it built last,
    /// until that block or another one is applied, or the state changes.
    proposal: Option<Proposal>,
    /// Paged-state configuration (DESIGN.md §14); `None` = fully
    /// resident. When set, every commit demotes cold accounts past
    /// `max_hot_accounts` and spills cold tree subtrees past
    /// `node_budget`.
    state_cache: Option<StateCacheConfig>,
}

/// A block this ledger proposed and has not committed: its id (which
/// commits to the parent, height, timestamp and transaction ids), its
/// body (the ids leave the signatures out, so the body is kept to match
/// on them too) and the receipts and delta executing it produced. The
/// delta is already merged into the ledger's tree.
struct Proposal {
    id: Hash256,
    body: Body,
    receipts: Vec<Receipt>,
    delta: StateDelta,
}

/// Wiring for the paged state cache (DESIGN.md §14): the pager cold
/// account records and cold tree subtrees go to, and how much stays
/// resident.
pub struct StateCacheConfig {
    /// Disk store for cold account pages and spilled tree subtrees.
    pub pager: Arc<dyn Pager>,
    /// Account records kept resident; the rest demote after each commit
    /// (the block's written addresses always stay hot).
    pub max_hot_accounts: usize,
    /// Tree nodes kept resident; cold subtrees past this spill to pages.
    pub node_budget: usize,
}

impl fmt::Debug for StateCacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateCacheConfig")
            .field("max_hot_accounts", &self.max_hot_accounts)
            .field("node_budget", &self.node_budget)
            .finish()
    }
}

impl fmt::Debug for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ledger")
            .field("height", &self.height())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Ledger {
    /// Creates a ledger with the genesis block for `chain_id` — the
    /// unsharded case: shard 0 of a one-shard topology.
    pub fn new(chain_id: &str, registry: KeyRegistry, runtime: Box<dyn ContractRuntime>) -> Ledger {
        Ledger::new_sharded(chain_id, ShardId::default(), 1, registry, runtime)
    }

    /// Creates the ledger of sub-chain `shard` in a `shard_count`-shard
    /// topology (DESIGN.md §9). Contract addresses deployed here are
    /// derived with [`sharded_contract_address`] when `shard_count > 1`,
    /// so the invoke routing rule maps them back to this shard; blocks
    /// from any other shard are rejected with
    /// [`LedgerError::WrongShard`]. Pass [`ShardId::COORDINATOR`] for
    /// the cross-link chain.
    pub fn new_sharded(
        chain_id: &str,
        shard: ShardId,
        shard_count: u16,
        registry: KeyRegistry,
        runtime: Box<dyn ContractRuntime>,
    ) -> Ledger {
        assert!(shard_count > 0, "shard_count must be at least 1");
        Ledger {
            blocks: vec![Block::genesis_sharded(chain_id, shard)],
            base_height: 0,
            state: WorldState::new(),
            receipts: Vec::new(),
            tx_index: HashMap::new(),
            registry,
            runtime,
            stats: LedgerStats::default(),
            store: None,
            shard,
            shard_count,
            exec_threads: 1,
            metrics: Metrics::noop(),
            tree: OnceCell::from(StateTree::new()),
            proposal: None,
            state_cache: None,
        }
    }

    /// Attaches the paged state cache (DESIGN.md §14): cold accounts and
    /// cold tree subtrees past the configured budgets move to the pager
    /// after every commit, keeping the resident footprint bounded while
    /// state roots stay byte-identical to a fully-resident node.
    ///
    /// Attach **after** any recovery replay or
    /// [`Ledger::restore_with_tree`]: the pager must be empty (the page
    /// file is derived data, truncated on open), and a restore drops the
    /// cache so a stale pager can never shadow the restored state.
    pub fn attach_state_cache(&mut self, cache: StateCacheConfig) {
        self.state.attach_cold_pager(Arc::clone(&cache.pager));
        if let Some(tree) = self.tree.get_mut() {
            tree.spill_to_budget(&cache.pager, cache.node_budget);
        }
        self.state.demote_accounts(cache.max_hot_accounts, &BTreeSet::new());
        self.state_cache = Some(cache);
    }

    /// Enables wave-parallel block execution over `threads` worker
    /// lanes (DESIGN.md §11). `0` or `1` keeps the sequential path; the
    /// parallel schedule is guaranteed — property-tested — to produce
    /// byte-identical state roots and receipts.
    pub fn set_parallel_exec(&mut self, threads: usize) {
        self.exec_threads = threads.max(1);
    }

    /// Configured parallel-execution lanes (1 = sequential).
    pub fn parallel_exec(&self) -> usize {
        self.exec_threads
    }

    /// Installs a metrics handle; block application reports `exec.*`
    /// counters and histograms (waves per block, wave widths, conflict
    /// rate, per-wave wall) through it.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    pub(crate) fn exec_ctx(&self) -> exec::ExecCtx<'_> {
        exec::ExecCtx {
            runtime: &*self.runtime,
            registry: &self.registry,
            shard: self.shard,
            shard_count: self.shard_count,
            metrics: &self.metrics,
        }
    }

    /// Which sub-chain this ledger follows.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Number of data shards in the topology this ledger is part of
    /// (1 for unsharded chains).
    pub fn shard_count(&self) -> u16 {
        self.shard_count
    }

    /// Attaches a durable [`BlockStore`]: every subsequent
    /// [`Ledger::apply`] persists the block *before* committing it in
    /// memory. Attach after any recovery replay so replayed blocks are
    /// not re-appended.
    pub fn attach_store(&mut self, store: Box<dyn BlockStore>) {
        self.store = Some(store);
    }

    /// Current chain height (genesis = 0).
    pub fn height(&self) -> u64 {
        self.blocks.last().expect("genesis always present").header.height
    }

    /// The tip block.
    pub fn tip(&self) -> &Block {
        self.blocks.last().expect("genesis always present")
    }

    /// Block at `height`, if applied **and still retained in memory**
    /// (pruned heights return `None`; a storage-backed node serves them
    /// from its block log).
    pub fn block(&self, height: u64) -> Option<&Block> {
        let index = height.checked_sub(self.base_height)?;
        self.blocks.get(index as usize)
    }

    /// The retained blocks, oldest first. Before any pruning this is the
    /// whole chain, genesis first; after [`Ledger::prune_below`] or a
    /// snapshot [`Ledger::restore_with_tree`] it is the retained suffix
    /// starting at [`Ledger::base_height`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Height of the oldest retained block (0 until pruned/restored).
    pub fn base_height(&self) -> u64 {
        self.base_height
    }

    /// Retained blocks with height ≥ `height`, oldest first. Returns the
    /// whole retained suffix when `height` predates it — callers that
    /// need truly older blocks must go to the block store.
    pub fn blocks_from(&self, height: u64) -> &[Block] {
        let from = height.saturating_sub(self.base_height).min(self.blocks.len() as u64);
        &self.blocks[from as usize..]
    }

    /// Drops retained blocks below `height` (the tip is always kept), so
    /// a storage-backed node can bound in-memory history. Returns the
    /// number of blocks dropped. State, receipts, and stats are
    /// untouched; pruned heights remain readable from the block store.
    pub fn prune_below(&mut self, height: u64) -> usize {
        let keep_from = height.min(self.height());
        let drop = keep_from.saturating_sub(self.base_height) as usize;
        if drop > 0 {
            self.blocks.drain(..drop);
            self.base_height = keep_from;
        }
        drop
    }

    /// Fast-sync restore, the one snapshot install path: installs a
    /// snapshot (`state` at `tip`, with its persisted authenticated
    /// `tree`) as the new chain suffix, replacing all retained history.
    /// Subsequent [`Ledger::apply`] calls replay blocks above `tip`'s
    /// height. Snapshots persist the tree, so installing it skips the
    /// O(total state) rehash entirely — the tree's cached root is checked
    /// against the tip header instead.
    ///
    /// The tree must be the tree *of* `state`: the root check binds its
    /// hashes to the block header, and the leaf-count check rejects a
    /// tree/state pair that drifted in size. A corrupt-but-root-matching
    /// tree would require a SHA-256 break or a tampered snapshot whose
    /// header root was also tampered — which recovery's header-chain
    /// validation catches.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::StateRootMismatch`] if the tree's
    /// versioned root does not match `tip.header.state_root` or its leaf
    /// count disagrees with `state`.
    pub fn restore_with_tree(
        &mut self,
        state: WorldState,
        tip: Block,
        tree: StateTree,
    ) -> Result<(), LedgerError> {
        if tree.versioned_root() != tip.header.state_root || tree.len() != state.leaf_count() {
            return Err(LedgerError::StateRootMismatch);
        }
        self.base_height = tip.header.height;
        self.blocks = vec![tip];
        self.state = state;
        // Receipts only cover blocks applied after the snapshot: a
        // restored node re-learns them as it replays.
        self.receipts.clear();
        self.tx_index.clear();
        self.stats = LedgerStats::default();
        self.tree = OnceCell::from(tree);
        self.proposal = None;
        // A restored state is fully resident and the old pager may hold
        // pages of the replaced state — drop the cache rather than let
        // stale pages shadow it. Wiring re-attaches a fresh cache.
        self.state_cache = None;
        Ok(())
    }

    /// Current world state.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// Mutable world state access, for genesis funding in simulations.
    ///
    /// Direct mutation bypasses the delta path the authenticated tree is
    /// maintained from, so the cached tree is dropped here and lazily
    /// rebuilt (O(total state), once) on the next root or proof request.
    /// A pending proposal was computed against the old state and goes too.
    pub fn state_mut(&mut self) -> &mut WorldState {
        self.tree.take();
        self.proposal = None;
        &mut self.state
    }

    /// The authenticated tree over the committed state (clone is O(1) —
    /// nodes are shared). Rebuilds the cache first if a [`state_mut`]
    /// mutation invalidated it. While a proposal is pending the cached
    /// tree is ahead of the state; the clone is pulled back, and the
    /// cache stays ahead for the commit.
    ///
    /// [`state_mut`]: Ledger::state_mut
    pub fn state_tree(&self) -> StateTree {
        let mut tree = self.tree.get_or_init(|| self.built_tree()).clone();
        if let Some(proposal) = &self.proposal {
            self.pull_back(&mut tree, &proposal.delta);
        }
        tree
    }

    /// The tree of the committed state, built from scratch and spilled
    /// to the page budget.
    fn built_tree(&self) -> StateTree {
        let mut tree = StateTree::from_state(&self.state);
        if let Some(cache) = &self.state_cache {
            tree.spill_to_budget(&cache.pager, cache.node_budget);
        }
        tree
    }

    /// Takes the tree out of its cache, building it if a
    /// [`Ledger::state_mut`] dropped it, so a merge finds the nodes this
    /// ledger alone holds unshared and rewrites them in place.
    fn take_tree(&mut self) -> StateTree {
        match self.tree.take() {
            Some(tree) => tree,
            None => self.built_tree(),
        }
    }

    /// The one way back for a tree that ran ahead of the state: re-merges
    /// every key `delta` writes with its committed value, read from the
    /// untouched state (cold accounts without promoting them).
    fn pull_back(&self, tree: &mut StateTree, delta: &StateDelta) {
        tree_pass(&self.metrics, || tree.pull_back(delta, &self.state));
        self.metrics.counter("auth.tree_pullbacks", 1);
    }

    /// Drops the pending proposal, if any, pulling the tree back in place.
    fn drop_proposal(&mut self) {
        if let Some(proposal) = self.proposal.take() {
            let mut tree = self.tree.take().expect("a pending proposal keeps its tree");
            self.pull_back(&mut tree, &proposal.delta);
            self.tree = OnceCell::from(tree);
        }
    }

    /// A commit that failed after its merge: pulls the tree back in place
    /// and puts it back in the cache, then hands `err` on.
    fn fail_commit(
        &mut self,
        mut tree: StateTree,
        delta: &StateDelta,
        err: LedgerError,
    ) -> LedgerError {
        self.pull_back(&mut tree, delta);
        self.tree = OnceCell::from(tree);
        err
    }

    /// Builds the proof-carrying response for a light-client state query
    /// (DESIGN.md §13): the value at `key` (or `None`), its Merkle path,
    /// and the coordinates of the tip block the proof verifies against.
    ///
    /// The proof speaks about the *committed* state at the current tip.
    /// Between a direct [`Ledger::state_mut`] mutation (genesis funding)
    /// and the next applied block, state and tip header disagree by
    /// construction — proofs from that window fail client verification,
    /// matching the rule that only block-committed state is provable.
    pub fn prove_state(&self, key: &LeafKey) -> StateProof {
        let tree = self.state_tree();
        let tip = self.tip();
        StateProof {
            key: key.clone(),
            value: self.state.leaf_value(key),
            proof: tree.prove(key),
            state_root: tip.header.state_root,
            block_id: tip.id(),
            height: tip.header.height,
            shard: self.shard,
        }
    }

    /// Receipt for a transaction, if executed.
    pub fn receipt(&self, tx_id: &Hash256) -> Option<&Receipt> {
        let (height, index) = self.locate_tx(tx_id)?;
        self.block_receipts(height)?.get(index)
    }

    /// `(block height, index in body)` of a committed transaction.
    pub fn locate_tx(&self, tx_id: &Hash256) -> Option<(u64, usize)> {
        let position = *self.tx_index.get(tx_id)?;
        // The last block starting at or before the position holds it.
        let block = self.receipts.partition_point(|(first, _)| *first <= position) - 1;
        let index = position - self.receipts[block].0;
        Some((self.first_receipt_height() + block as u64, index as usize))
    }

    /// The receipts of the block at `height`, if it was applied since
    /// genesis or the last restore.
    fn block_receipts(&self, height: u64) -> Option<&[Receipt]> {
        let block = height.checked_sub(self.first_receipt_height())?;
        self.receipts.get(usize::try_from(block).ok()?).map(|(_, receipts)| receipts.as_slice())
    }

    /// Height of the block `receipts` starts with: one entry per block
    /// applied since genesis or the last restore, the newest at the tip.
    fn first_receipt_height(&self) -> u64 {
        self.height() + 1 - self.receipts.len() as u64
    }

    /// Builds the proof-carrying client receipt for a committed
    /// transaction (DESIGN.md §10).
    ///
    /// Returns `None` if the transaction never committed here or its
    /// block has been pruned from in-memory history — storage-backed
    /// nodes can still serve old blocks from the block log, but this
    /// fast path only proves against retained blocks.
    pub fn tx_receipt(&self, tx_id: &Hash256) -> Option<crate::receipt::TxReceipt> {
        let (height, index) = self.locate_tx(tx_id)?;
        let exec = self.block_receipts(height)?.get(index)?;
        crate::receipt::TxReceipt::for_block(self.block(height)?, index, exec)
    }

    /// Work counters.
    pub fn stats(&self) -> LedgerStats {
        self.stats
    }

    /// The consortium membership registry.
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    /// Validates `tx` statelessly plus nonce/balance against current
    /// state. Used by the mempool for admission control.
    ///
    /// # Errors
    ///
    /// Returns the specific [`LedgerError`] that admission failed with.
    pub fn check_admissible(&self, tx: &SealedTx) -> Result<(), LedgerError> {
        if !tx.verify(&self.registry) {
            return Err(LedgerError::BadSignature(tx.id()));
        }
        self.check_nonce(tx)
    }

    /// Lock-aware admission (DESIGN.md §12): while a 2PC lock is held
    /// on an account, any new balance-moving transaction touching it is
    /// deferred instead of queueing work that is guaranteed to fail
    /// execution. `XsFinalize` stays admissible — it is what releases
    /// the lock.
    fn check_locks(&self, tx: &SealedTx) -> Result<(), LedgerError> {
        let touched: &[&Address] = match &tx.payload {
            crate::tx::TxPayload::Transfer { to, .. } => &[&tx.sender, to],
            crate::tx::TxPayload::XsPrepare { leg, .. } => {
                // Mirror of the execution-time authorization (DESIGN.md
                // §12): a debit prepare not signed by the account owner
                // is refused here instead of queueing guaranteed-to-fail
                // work — and, more importantly, instead of letting a
                // hostile client freeze a victim's account.
                if leg.debit && tx.sender != leg.account {
                    return Err(LedgerError::XsUnauthorizedDebit {
                        sender: tx.sender,
                        account: leg.account,
                    });
                }
                &[&leg.account]
            }
            _ => &[],
        };
        for addr in touched {
            if let Some(lock) = self.state.lock(addr) {
                return Err(LedgerError::AccountLocked { address: **addr, xid: lock.xid });
            }
        }
        Ok(())
    }

    /// Nonce-only admission check against current state, for callers
    /// that have **already verified the signature** (the gateway's
    /// batch-verify path, see `ChainApp::submit_verified`).
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::BadNonce`] for an already-used nonce.
    pub fn check_nonce(&self, tx: &SealedTx) -> Result<(), LedgerError> {
        let account = self.state.account(&tx.sender);
        if tx.nonce < account.nonce {
            return Err(LedgerError::BadNonce {
                tx_id: tx.id(),
                expected: account.nonce,
                got: tx.nonce,
            });
        }
        self.check_locks(tx)
    }

    /// Builds an unsealed block extending the tip with `txs`, executing
    /// them against a buffered overlay of the state (never a clone) to
    /// compute the state root.
    ///
    /// Transactions that fail admission are dropped; transactions that
    /// fail execution are included with failure receipts (as real chains
    /// do), so their gas is still accounted.
    ///
    /// The ledger keeps what it computed as its pending proposal: the
    /// receipts, the delta, and its own tree with the delta merged in
    /// place. [`Ledger::apply`] of this same block then commits them
    /// without executing or merging again. Until then the tree runs
    /// ahead of the state; readers still see the committed tree
    /// ([`Ledger::state_tree`]). A proposal still pending from an earlier
    /// call is dropped first.
    pub fn propose<T: Into<SealedTx>>(
        &mut self,
        proposer: Address,
        timestamp_ms: u64,
        txs: Vec<T>,
    ) -> Block {
        self.drop_proposal();
        let ctx = self.exec_ctx();
        let mut overlay = WorldStateOverlay::new(&self.state);
        let mut included = Vec::with_capacity(txs.len());
        let mut receipts = Vec::with_capacity(txs.len());
        for tx in txs {
            let tx: SealedTx = tx.into();
            if exec::admission_check(&self.registry, &overlay, &tx).is_ok() {
                receipts.push(exec::execute_tx(&ctx, &mut overlay, &tx, timestamp_ms));
                included.push(tx);
            }
        }
        self.metrics.counter("exec.txs", receipts.len() as u64);
        let delta = overlay.into_delta();
        // The body hashes its transaction tree here, once; every replica
        // that is handed this block reads the root and cuts receipts
        // from the same tree.
        let transactions = Body::from(included);
        // Incremental, O(keys changed), and in place: the tree runs ahead
        // of the state until this block commits or is superseded.
        let mut tree = self.take_tree();
        tree_pass(&self.metrics, || tree.merge_delta(&delta));
        let header = Header {
            height: self.height() + 1,
            parent: self.tip().id(),
            tx_root: transactions.tree().root(),
            state_root: tree.versioned_root(),
            timestamp_ms,
            proposer,
            shard: self.shard,
        };
        self.tree = OnceCell::from(tree);
        let seal = crate::block::Seal::Genesis;
        let block = Block { header: header.into(), transactions, seal };
        let body = block.transactions.clone();
        self.proposal = Some(Proposal { id: block.id(), body, receipts, delta });
        block
    }

    /// Validates and applies a sealed block and returns its receipts,
    /// which the ledger keeps. Every transaction is executed, except in
    /// the block this ledger proposed itself: that one commits the
    /// receipts and delta [`Ledger::propose`] kept, once the same
    /// structural checks pass.
    ///
    /// # Errors
    ///
    /// Returns a [`LedgerError`] and leaves the ledger unchanged if any
    /// structural or execution-commitment check fails.
    pub fn apply(&mut self, block: &Block) -> Result<&[Receipt], LedgerError> {
        if block.header.shard != self.shard {
            return Err(LedgerError::WrongShard {
                expected: self.shard,
                got: block.header.shard,
            });
        }
        if block.header.parent != self.tip().id() {
            return Err(LedgerError::WrongParent);
        }
        if block.header.height != self.height() + 1 {
            return Err(LedgerError::WrongHeight {
                expected: self.height() + 1,
                got: block.header.height,
            });
        }
        if !block.is_body_consistent() {
            return Err(LedgerError::BodyMismatch);
        }
        let started = Instant::now();
        let tx_count = block.transactions.len();
        // This ledger's own proposal is already executed and merged. A
        // different block at the same height (a view change, or an
        // equivocating leader) pulls the tree back before executing. So
        // does the same block id over a body whose signatures differ from
        // the proposed one (an id leaves them out): it executes, and its
        // admission checks refuse a stripped or forged signature. The
        // proposer's own body is the same allocation, one pointer compare.
        let kept = self.proposal.take_if(|proposal| {
            proposal.id == block.id() && proposal.body == block.transactions
        });
        self.drop_proposal();
        let merged = kept.is_some();
        // Execute against an overlay — sequentially, or wave-parallel
        // when enabled (exec::run_block_parallel guarantees identical
        // receipts and delta, falling back to sequential on any audited
        // footprint violation).
        let (receipts, delta, parallel_stats) = match kept {
            Some(Proposal { receipts, delta, .. }) => (receipts, delta, None),
            None => {
                let ctx = self.exec_ctx();
                if self.exec_threads > 1 && tx_count > 1 {
                    let run = exec::run_block_parallel(
                        &ctx,
                        &self.state,
                        &block.transactions,
                        block.header.timestamp_ms,
                        self.exec_threads,
                    )?;
                    (run.receipts, run.delta, Some(run.stats))
                } else {
                    let (receipts, delta) = exec::run_block_sequential(
                        &ctx,
                        &self.state,
                        &block.transactions,
                        block.header.timestamp_ms,
                    )?;
                    (receipts, delta, None)
                }
            }
        };
        // Incremental root check before the state changes: the committed
        // delta merges into the authenticated tree at O(keys changed ·
        // log n) — per-block root cost no longer scales with total state
        // size. The cache lets go of the tree first, so the merge finds
        // the nodes this ledger alone holds unshared and rewrites them in
        // place: the replaced version is never built, nor released. Any
        // failure below pulls the tree back in place.
        let mut updated_tree = self.take_tree();
        if !merged {
            tree_pass(&self.metrics, || updated_tree.merge_delta(&delta));
        }
        if updated_tree.versioned_root() != block.header.state_root {
            return Err(self.fail_commit(updated_tree, &delta, LedgerError::StateRootMismatch));
        }
        // Write-ahead: the block is logged before the state changes, so
        // a failed append leaves nothing to undo, and a crash leaves disk
        // and memory agreeing (disk may carry a torn tail record, which
        // recovery truncates).
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.append(block, &self.state) {
                let err = LedgerError::Storage(e.to_string());
                return Err(self.fail_commit(updated_tree, &delta, err));
            }
        }
        // Captured before `apply_delta` consumes the delta: the written
        // account addresses that must stay hot through this commit's
        // demotion.
        let written_accounts: Option<BTreeSet<Address>> = self
            .state_cache
            .as_ref()
            .map(|_| delta.accounts.keys().copied().collect());
        // Commit. Pages only the replaced nodes named were freed by the
        // merge, before the spill below stores new ones; the new tree is
        // installed once spilled. The receipts move into the ledger.
        self.state.apply_delta(delta);
        let first = self.receipts.last().map_or(0, |(first, kept)| first + kept.len() as u64);
        self.tx_index.reserve(receipts.len());
        for (position, receipt) in (first..).zip(&receipts) {
            self.stats.transactions += 1;
            self.stats.gas_used += receipt.gas_used;
            if !receipt.ok {
                self.stats.failed += 1;
            }
            self.tx_index.insert(receipt.tx_id, position);
        }
        self.receipts.push((first, receipts));
        self.stats.blocks += 1;
        self.blocks.push(block.clone());
        // The commit is final: offer the store this block's tree to
        // snapshot from, before demotion pages any of the state out. A
        // snapshot is an optimisation (store contract 3) — a failed one
        // is the store's to report and retry, never a reason to lose a
        // block that is already durable.
        if let Some(store) = self.store.as_mut() {
            let _ = store.checkpoint(block, &self.state, &updated_tree);
        }
        // Paged state cache: after the commit is final, push cold
        // accounts and cold tree subtrees back under budget. Addresses
        // this block wrote stay hot — they are the working set.
        if let Some(cache) = &self.state_cache {
            let keep = written_accounts.as_ref().expect("captured before commit");
            let demoted = self.state.demote_accounts(cache.max_hot_accounts, keep);
            updated_tree.spill_to_budget(&cache.pager, cache.node_budget);
            if self.metrics.enabled() {
                if demoted > 0 {
                    self.metrics.counter("state.accounts_demoted", demoted as u64);
                }
                self.metrics
                    .gauge("state.paged_accounts", self.state.paged_account_count() as i64);
                self.metrics.gauge("auth.resident_nodes", updated_tree.resident_nodes() as i64);
            }
        }
        self.tree = OnceCell::from(updated_tree);
        if self.metrics.enabled() {
            self.metrics.counter("exec.blocks", 1);
            self.metrics.observe("exec.block_apply_us", started.elapsed().as_secs_f64() * 1e6);
            self.metrics.gauge("state.accounts", self.state.account_count() as i64);
            self.metrics.gauge("state.storage_slots", self.state.storage_slot_count() as i64);
            self.metrics.gauge("state.code_entries", self.state.code_count() as i64);
            self.metrics.gauge("state.anchors", self.state.anchor_count() as i64);
            self.metrics.gauge("state.locks", self.state.lock_count() as i64);
            if let Some(stats) = parallel_stats {
                self.metrics.counter("exec.parallel_blocks", 1);
                self.metrics.observe("exec.waves_per_block", stats.waves as f64);
                self.metrics.observe(
                    "exec.conflict_rate",
                    stats.delayed as f64 / tx_count.max(1) as f64,
                );
                for width in stats.wave_widths {
                    self.metrics.observe("exec.wave_width", width as f64);
                }
                for wall in stats.wave_walls_us {
                    self.metrics.observe("exec.wave_wall_us", wall);
                }
                if stats.fell_back {
                    self.metrics.counter("exec.fallback_blocks", 1);
                }
            }
        }
        Ok(&self.receipts.last().expect("just pushed").1)
    }
}

/// Runs one pass over the state tree — a merge or a pull-back — timed
/// into `auth.root_update_us`.
fn tree_pass(metrics: &Metrics, pass: impl FnOnce()) {
    let started = metrics.enabled().then(Instant::now);
    pass();
    if let Some(started) = started {
        metrics.observe("auth.root_update_us", started.elapsed().as_secs_f64() * 1e6);
    }
}

/// Deterministic contract address derivation: `H(sender ‖ nonce)`.
pub fn contract_address(sender: &Address, nonce: u64) -> Address {
    let mut bytes = sender.0.to_vec();
    bytes.extend_from_slice(&nonce.to_le_bytes());
    Address::from_key_material(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use crate::shard::sharded_contract_address;
    use crate::sig::AuthorityKey;
    use crate::tx::TxPayload;

    fn funded_ledger(keys: &[AuthorityKey]) -> Ledger {
        let mut registry = KeyRegistry::new();
        for k in keys {
            registry.enroll(k);
        }
        let mut ledger = Ledger::new("test-chain", registry, Box::new(NullRuntime));
        for k in keys {
            ledger.state_mut().credit(k.address(), 1_000);
        }
        ledger
    }

    fn transfer(key: &AuthorityKey, nonce: u64, to: Address, amount: u64) -> Transaction {
        Transaction::new(key.address(), nonce, TxPayload::Transfer { to, amount }, 100).signed(key)
    }

    fn grow_by_transfers(ledger: &mut Ledger, key: &AuthorityKey, to: Address, n: u64) {
        for _ in 0..n {
            let nonce = ledger.state().account(&key.address()).nonce;
            let block = ledger.propose(
                key.address(),
                (ledger.height() + 1) * 10,
                vec![transfer(key, nonce, to, 1)],
            );
            ledger.apply(&block).unwrap();
        }
    }

    #[test]
    fn blocks_from_and_prune_below_respect_base_height() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        grow_by_transfers(&mut ledger, &alice, bob.address(), 5);
        assert_eq!(ledger.base_height(), 0);
        assert_eq!(ledger.blocks_from(0).len(), 6); // genesis..=5
        assert_eq!(ledger.blocks_from(3).len(), 3);
        assert_eq!(ledger.blocks_from(3)[0].header.height, 3);
        assert!(ledger.blocks_from(99).is_empty());

        // Prune everything below height 4: 0..=3 dropped, 4..=5 kept.
        assert_eq!(ledger.prune_below(4), 4);
        assert_eq!(ledger.base_height(), 4);
        assert!(ledger.block(3).is_none());
        assert_eq!(ledger.block(4).unwrap().header.height, 4);
        assert_eq!(ledger.blocks_from(0).len(), 2);
        assert_eq!(ledger.tip().header.height, 5);

        // Pruning past the tip always keeps the tip block.
        assert_eq!(ledger.prune_below(100), 1);
        assert_eq!(ledger.base_height(), 5);
        assert_eq!(ledger.tip().header.height, 5);
        assert_eq!(ledger.blocks_from(5).len(), 1);

        // The pruned ledger still extends normally.
        grow_by_transfers(&mut ledger, &alice, bob.address(), 1);
        assert_eq!(ledger.height(), 6);
        assert_eq!(ledger.block(6).unwrap().header.height, 6);
    }

    /// `exec.txs` counts executions where they happen: the proposer runs
    /// a block once, in `propose`, and commits what it kept; a replica
    /// runs it once, in `apply`.
    #[test]
    fn a_block_executes_once_on_its_proposer_and_once_on_a_replica() {
        use medchain_runtime::metrics::Registry;
        let keys: Vec<AuthorityKey> = (1..=64).map(AuthorityKey::from_seed).collect();
        let sink = |ledger: &mut Ledger| {
            let registry = Registry::new();
            ledger.set_metrics(registry.handle());
            registry
        };
        let mut proposer = funded_ledger(&keys);
        let mut replica = funded_ledger(&keys);
        let (at_proposer, at_replica) = (sink(&mut proposer), sink(&mut replica));
        let txs: Vec<Transaction> = keys
            .iter()
            .flat_map(|k| (0..4).map(move |n| transfer(k, n, Address::from_seed(900 + n), 1)))
            .collect();
        let block = proposer.propose(keys[0].address(), 10, txs);
        assert_eq!(block.transactions.len(), 256);
        assert_eq!(at_proposer.counter_value("exec.txs"), 256);
        assert_eq!(proposer.apply(&block).unwrap().len(), 256);
        assert_eq!(at_proposer.counter_value("exec.txs"), 256, "the proposer ran its block twice");
        assert_eq!(replica.apply(&block).unwrap().len(), 256);
        assert_eq!(at_replica.counter_value("exec.txs"), 256);
        assert_eq!(proposer.state(), replica.state());
        assert_eq!(at_proposer.counter_value("auth.tree_pullbacks"), 0);
        for tx in block.transactions.iter() {
            assert_eq!(proposer.receipt(&tx.id()), replica.receipt(&tx.id()));
        }
    }

    /// A proposal that does not commit is pulled back out of the tree:
    /// by a read while it is pending (on a clone), by another block at
    /// its height, and by a commit that fails after the merge.
    #[test]
    fn a_tree_that_ran_ahead_is_pulled_back() {
        use medchain_runtime::metrics::Registry;
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let mut other = funded_ledger(&[alice.clone(), bob.clone()]);
        let registry = Registry::new();
        ledger.set_metrics(registry.handle());
        let committed = ledger.state_tree();

        let own = ledger.propose(alice.address(), 10, vec![transfer(&alice, 0, bob.address(), 5)]);
        assert_eq!(ledger.state_tree(), committed, "a reader saw the pending proposal");
        let foreign =
            other.propose(alice.address(), 10, vec![transfer(&alice, 0, bob.address(), 7)]);
        assert_ne!(own.id(), foreign.id());
        ledger.apply(&foreign).unwrap();
        other.apply(&foreign).unwrap();
        assert_eq!(ledger.state_tree(), other.state_tree());
        assert_eq!(ledger.state().account(&bob.address()).balance, 1_007);
        assert_eq!(ledger.apply(&own), Err(LedgerError::WrongParent));

        let mut forged =
            ledger.propose(alice.address(), 20, vec![transfer(&alice, 1, bob.address(), 5)]);
        forged.header.state_root = Hash256::digest(b"forged");
        assert_eq!(ledger.apply(&forged), Err(LedgerError::StateRootMismatch));
        assert_eq!(ledger.state_tree(), other.state_tree());
        assert_eq!(ledger.state_tree().versioned_root(), ledger.tip().header.state_root);
        assert_eq!(registry.counter_value("auth.tree_pullbacks"), 4);
    }

    /// Receipts live with the ledger: pruning keeps them (their block's
    /// proof goes), a restore starts them afresh.
    #[test]
    fn receipts_outlive_pruning_and_restart_at_a_restore() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let first = transfer(&alice, 0, bob.address(), 1);
        let block = ledger.propose(alice.address(), 10, vec![first.clone()]);
        ledger.apply(&block).unwrap();
        let empty = ledger.propose(alice.address(), 20, Vec::<Transaction>::new());
        ledger.apply(&empty).unwrap();
        grow_by_transfers(&mut ledger, &alice, bob.address(), 2);
        let id = first.id();
        assert_eq!(ledger.locate_tx(&id), Some((1, 0)));
        assert!(ledger.tx_receipt(&id).is_some());
        let after_empty = ledger.block(3).unwrap().transactions[0].id();
        assert_eq!(ledger.locate_tx(&after_empty), Some((3, 0)));
        assert_eq!(ledger.receipt(&after_empty).map(|r| r.tx_id), Some(after_empty));

        ledger.prune_below(3);
        assert_eq!(ledger.locate_tx(&id), Some((1, 0)));
        assert!(ledger.receipt(&id).is_some_and(|r| r.ok && r.tx_id == id));
        assert!(ledger.tx_receipt(&id).is_none(), "the proof's block is pruned");

        let (state, tip) = (ledger.state().clone(), ledger.tip().clone());
        ledger.restore_with_tree(state, tip, ledger.state_tree()).unwrap();
        assert_eq!(ledger.locate_tx(&id), None);
        assert!(ledger.receipt(&id).is_none());
        let next = transfer(&alice, 3, bob.address(), 1);
        let block = ledger.propose(alice.address(), 60, vec![next.clone()]);
        ledger.apply(&block).unwrap();
        assert_eq!(ledger.locate_tx(&next.id()), Some((5, 0)));
        assert!(ledger.tx_receipt(&next.id()).is_some());
    }

    #[test]
    fn propose_and_apply_transfer() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let block =
            ledger.propose(alice.address(), 10, vec![transfer(&alice, 0, bob.address(), 250)]);
        let receipts = ledger.apply(&block).unwrap();
        assert!(receipts[0].ok);
        assert_eq!(ledger.state().account(&alice.address()).balance, 750);
        assert_eq!(ledger.state().account(&bob.address()).balance, 1_250);
        assert_eq!(ledger.height(), 1);
    }

    #[test]
    fn overdraft_produces_failed_receipt_but_block_applies() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let block =
            ledger.propose(alice.address(), 10, vec![transfer(&alice, 0, bob.address(), 5_000)]);
        let receipts = ledger.apply(&block).unwrap();
        assert!(!receipts[0].ok);
        assert_eq!(ledger.state().account(&alice.address()).balance, 1_000);
        assert_eq!(ledger.stats().failed, 1);
        // Nonce still consumed.
        assert_eq!(ledger.state().account(&alice.address()).nonce, 1);
    }

    #[test]
    fn apply_rejects_wrong_parent() {
        let alice = AuthorityKey::from_seed(1);
        let mut ledger = funded_ledger(std::slice::from_ref(&alice));
        let mut block = ledger.propose(alice.address(), 10, Vec::<Transaction>::new());
        block.header.parent = Hash256::digest(b"bogus");
        // Recompute nothing: parent check fires first.
        assert_eq!(ledger.apply(&block), Err(LedgerError::WrongParent));
    }

    #[test]
    fn apply_rejects_tampered_body() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let mut block =
            ledger.propose(alice.address(), 10, vec![transfer(&alice, 0, bob.address(), 1)]);
        let mut tampered = Transaction::clone(&block.transactions[0]);
        tampered.payload = TxPayload::Transfer { to: bob.address(), amount: 999 };
        block.transactions = vec![tampered].into();
        assert_eq!(ledger.apply(&block), Err(LedgerError::BodyMismatch));
    }

    #[test]
    fn apply_of_its_own_block_id_still_checks_every_signature() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let mut block =
            ledger.propose(alice.address(), 10, vec![transfer(&alice, 0, bob.address(), 1)]);
        let before = (ledger.tip().id(), ledger.state().clone(), ledger.state_tree());
        // Same id and a consistent body: the tx root hashes ids, which
        // leave the signature out.
        let mut stripped = Transaction::clone(&block.transactions[0]);
        stripped.signature = None;
        let id = block.id();
        block.transactions = vec![stripped].into();
        assert_eq!(block.id(), id);
        assert!(block.is_body_consistent());
        let tx_id = block.transactions[0].id();
        assert_eq!(ledger.apply(&block), Err(LedgerError::BadSignature(tx_id)));
        assert_eq!((ledger.tip().id(), ledger.state().clone(), ledger.state_tree()), before);
        assert_eq!(ledger.height(), 0);
        assert!(ledger.receipt(&tx_id).is_none());
        assert_eq!(ledger.state_tree().root(), StateTree::from_state(ledger.state()).root());
    }

    #[test]
    fn apply_rejects_state_root_mismatch() {
        let alice = AuthorityKey::from_seed(1);
        let mut ledger = funded_ledger(std::slice::from_ref(&alice));
        let mut block = ledger.propose(alice.address(), 10, Vec::<Transaction>::new());
        block.header.state_root = Hash256::digest(b"wrong");
        assert_eq!(ledger.apply(&block), Err(LedgerError::StateRootMismatch));
    }

    #[test]
    fn propose_drops_bad_nonce_and_unsigned() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let bad_nonce = transfer(&alice, 5, bob.address(), 1);
        let unsigned = Transaction::new(
            alice.address(),
            0,
            TxPayload::Transfer { to: bob.address(), amount: 1 },
            100,
        );
        let good = transfer(&alice, 0, bob.address(), 1);
        let block = ledger.propose(alice.address(), 10, vec![bad_nonce, unsigned, good]);
        assert_eq!(block.transactions.len(), 1);
    }

    #[test]
    fn anchor_round_trip_and_conflict() {
        let alice = AuthorityKey::from_seed(1);
        let mut ledger = funded_ledger(std::slice::from_ref(&alice));
        let root = Hash256::digest(b"dataset-v1");
        let anchor = |nonce, root, label: &str| {
            Transaction::new(
                alice.address(),
                nonce,
                TxPayload::Anchor { root, label: label.into() },
                100,
            )
            .signed(&alice)
        };
        let block =
            ledger.propose(alice.address(), 1, vec![anchor(0, root, "hospital-1/emr")]);
        ledger.apply(&block).unwrap();
        assert_eq!(ledger.state().anchor("hospital-1/emr"), Some(root));

        // Re-anchoring with a different root fails.
        let conflicting =
            anchor(1, Hash256::digest(b"dataset-v2-tampered"), "hospital-1/emr");
        let block2 = ledger.propose(alice.address(), 2, vec![conflicting]);
        let receipts = ledger.apply(&block2).unwrap();
        assert!(!receipts[0].ok);
        assert_eq!(ledger.state().anchor("hospital-1/emr"), Some(root));
    }

    #[test]
    fn sequential_nonces_apply_in_one_block() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let txs = (0..5).map(|n| transfer(&alice, n, bob.address(), 10)).collect();
        let block = ledger.propose(alice.address(), 10, txs);
        assert_eq!(block.transactions.len(), 5);
        ledger.apply(&block).unwrap();
        assert_eq!(ledger.state().account(&bob.address()).balance, 1_050);
    }

    #[test]
    fn replay_is_rejected_by_nonce() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let tx = transfer(&alice, 0, bob.address(), 10);
        let block = ledger.propose(alice.address(), 10, vec![tx.clone()]);
        ledger.apply(&block).unwrap();
        // Same tx again: dropped at proposal.
        let block2 = ledger.propose(alice.address(), 20, vec![tx]);
        assert!(block2.transactions.is_empty());
    }

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
    fn storage_of_iterates_only_own_contract() {
        let mut s = WorldState::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        s.set_storage(a, b"x".to_vec(), b"1".to_vec());
        s.set_storage(a, b"y".to_vec(), b"2".to_vec());
        s.set_storage(b, b"z".to_vec(), b"3".to_vec());
        let keys: Vec<&[u8]> = s.storage_of(&a).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"x".as_slice(), b"y".as_slice()]);
    }

    #[test]
    fn contract_addresses_are_unique_per_nonce() {
        let sender = Address::from_seed(1);
        assert_ne!(contract_address(&sender, 0), contract_address(&sender, 1));
        assert_eq!(contract_address(&sender, 0), contract_address(&sender, 0));
    }

    // === Consensus-level sharding (DESIGN.md §9) ===

    fn sharded_ledger(shard: ShardId, shard_count: u16, keys: &[AuthorityKey]) -> Ledger {
        let mut registry = KeyRegistry::new();
        for k in keys {
            registry.enroll(k);
        }
        let mut ledger =
            Ledger::new_sharded("test-chain", shard, shard_count, registry, Box::new(NullRuntime));
        for k in keys {
            ledger.state_mut().credit(k.address(), 1_000);
        }
        ledger
    }

    fn cross_link_tx(key: &AuthorityKey, nonce: u64, shard: ShardId, height: u64) -> Transaction {
        let tip = Hash256::digest(&height.to_le_bytes());
        Transaction::new(
            key.address(),
            nonce,
            TxPayload::CrossLink { shard, height, tip },
            100,
        )
        .signed(key)
    }

    #[test]
    fn coordinator_records_monotonic_cross_links() {
        let alice = AuthorityKey::from_seed(1);
        let mut coord =
            sharded_ledger(ShardId::COORDINATOR, 2, std::slice::from_ref(&alice));
        let block = coord.propose(
            alice.address(),
            10,
            vec![
                cross_link_tx(&alice, 0, ShardId(0), 4),
                cross_link_tx(&alice, 1, ShardId(1), 3),
            ],
        );
        let receipts = coord.apply(&block).unwrap();
        assert!(receipts.iter().all(|r| r.ok));
        assert_eq!(coord.state().cross_link(ShardId(0)).unwrap().height, 4);
        assert_eq!(coord.state().cross_link(ShardId(1)).unwrap().height, 3);

        // Advancing shard 0 supersedes its record; rewinding it fails.
        let block = coord.propose(
            alice.address(),
            20,
            vec![
                cross_link_tx(&alice, 2, ShardId(0), 7),
                cross_link_tx(&alice, 3, ShardId(0), 5),
            ],
        );
        let receipts = coord.apply(&block).unwrap();
        assert!(receipts[0].ok);
        assert!(!receipts[1].ok, "height regression must fail");
        assert!(receipts[1].error.as_deref().unwrap().contains("regression"));
        assert_eq!(coord.state().cross_link(ShardId(0)).unwrap().height, 7);
        assert_eq!(coord.state().cross_links().count(), 2);
    }

    #[test]
    fn cross_link_fails_on_data_shard_and_for_coordinator_target() {
        let alice = AuthorityKey::from_seed(1);
        let mut data = sharded_ledger(ShardId(0), 2, std::slice::from_ref(&alice));
        let block =
            data.propose(alice.address(), 10, vec![cross_link_tx(&alice, 0, ShardId(1), 2)]);
        let receipts = data.apply(&block).unwrap();
        assert!(!receipts[0].ok);
        assert!(receipts[0].error.as_deref().unwrap().contains("non-coordinator"));

        let mut coord =
            sharded_ledger(ShardId::COORDINATOR, 2, std::slice::from_ref(&alice));
        let block = coord.propose(
            alice.address(),
            10,
            vec![cross_link_tx(&alice, 0, ShardId::COORDINATOR, 2)],
        );
        let receipts = coord.apply(&block).unwrap();
        assert!(!receipts[0].ok, "a cross-link cannot reference the coordinator");
    }

    #[test]
    fn apply_rejects_block_from_another_shard() {
        let alice = AuthorityKey::from_seed(1);
        let mut shard0 = sharded_ledger(ShardId(0), 2, std::slice::from_ref(&alice));
        let mut shard1 = sharded_ledger(ShardId(1), 2, std::slice::from_ref(&alice));
        let foreign = shard1.propose(alice.address(), 10, Vec::<Transaction>::new());
        assert_eq!(
            shard0.apply(&foreign),
            Err(LedgerError::WrongShard { expected: ShardId(0), got: ShardId(1) })
        );
        // The rejected block would have applied cleanly on its own chain.
        assert!(shard1.apply(&foreign).is_ok());
    }

    /// Accepts every deploy by storing the code verbatim — enough to
    /// observe the derived contract address in the receipt.
    struct StoreCodeRuntime;

    impl ContractRuntime for StoreCodeRuntime {
        fn deploy(
            &self,
            _sender: Address,
            contract_addr: Address,
            code: &[u8],
            _init: &[u8],
            _gas_limit: u64,
            _now_ms: u64,
            state: &mut dyn StateAccess,
        ) -> Result<ExecOutcome, ExecError> {
            state.set_code(contract_addr, code.to_vec());
            Ok(ExecOutcome { gas_used: 50, ..ExecOutcome::default() })
        }

        fn invoke(
            &self,
            _sender: Address,
            _contract: Address,
            _input: &[u8],
            _gas_limit: u64,
            _now_ms: u64,
            _state: &mut dyn StateAccess,
        ) -> Result<ExecOutcome, ExecError> {
            Ok(ExecOutcome { gas_used: 10, ..ExecOutcome::default() })
        }
    }

    #[test]
    fn sharded_deploy_lands_in_own_shard() {
        let alice = AuthorityKey::from_seed(1);
        let shard_count = 3u16;
        let home = crate::shard::shard_for_key(&alice.address().0, shard_count);
        let mut registry = KeyRegistry::new();
        registry.enroll(&alice);
        let mut ledger = Ledger::new_sharded(
            "test-chain",
            home,
            shard_count,
            registry,
            Box::new(StoreCodeRuntime),
        );
        ledger.state_mut().credit(alice.address(), 1_000);
        let deploy = Transaction::new(
            alice.address(),
            0,
            TxPayload::Deploy { code: vec![1, 2, 3], init: Vec::new() },
            1_000,
        )
        .signed(&alice);
        let block = ledger.propose(alice.address(), 10, vec![deploy]);
        let receipts = ledger.apply(&block).unwrap();
        assert!(receipts[0].ok);
        let addr = Address(receipts[0].output.clone().try_into().unwrap());
        assert_eq!(
            crate::shard::shard_for_key(&addr.0, shard_count),
            home,
            "invoke routing must map the deployed address back to its shard"
        );
        assert_eq!(addr, sharded_contract_address(&alice.address(), 0, home, shard_count));
    }

    #[test]
    fn debit_prepare_by_non_owner_is_refused_and_fails_execution() {
        use crate::tx::XsLeg;
        let alice = AuthorityKey::from_seed(1);
        let mallory = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), mallory.clone()]);
        let leg = XsLeg {
            shard: crate::shard::shard_for_key(&alice.address().0, 1),
            account: alice.address(),
            amount: 400,
            debit: true,
        };
        let forged = Transaction::new(
            mallory.address(),
            0,
            TxPayload::XsPrepare { xid: Hash256::digest(b"forged"), leg, deadline_ms: 10_000 },
            1_000,
        )
        .signed(&mallory);
        let forged = SealedTx::from(forged);
        // Admission refuses the forged escrow outright…
        assert!(matches!(
            ledger.check_admissible(&forged),
            Err(LedgerError::XsUnauthorizedDebit { .. })
        ));
        // …and a proposer including it anyway only produces a failed
        // receipt: no lock, no escrow, the victim's balance untouched.
        let block = ledger.propose(mallory.address(), 10, vec![forged]);
        let receipts = ledger.apply(&block).unwrap();
        assert_eq!(receipts.len(), 1);
        assert!(!receipts[0].ok);
        assert!(
            receipts[0].error.as_deref().unwrap().contains("only the owner"),
            "got: {:?}",
            receipts[0].error
        );
        assert!(ledger.state().lock(&alice.address()).is_none());
        assert_eq!(ledger.state().account(&alice.address()).balance, 1_000);

        // A *credit* leg prepared by a third party stays legal — paying
        // someone else is the point of the credit side.
        let credit_leg = XsLeg {
            shard: crate::shard::shard_for_key(&alice.address().0, 1),
            account: alice.address(),
            amount: 400,
            debit: false,
        };
        let credit = Transaction::new(
            mallory.address(),
            1,
            TxPayload::XsPrepare {
                xid: Hash256::digest(b"credit"),
                leg: credit_leg,
                deadline_ms: 10_000,
            },
            1_000,
        )
        .signed(&mallory);
        assert!(ledger.check_admissible(&credit.into()).is_ok());
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
}

mod codec_impls {
    use super::{
        Account, CrossLinkRecord, Event, Receipt, WorldState, XsDecisionRecord, XsLock,
    };
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};
    use medchain_runtime::impl_codec_struct;

    impl_codec_struct!(Account { balance, nonce });
    impl_codec_struct!(Event { contract, topic, data });
    impl_codec_struct!(Receipt { tx_id, ok, gas_used, output, events, error });
    impl_codec_struct!(CrossLinkRecord { height, tip });
    impl_codec_struct!(XsLock { xid, amount, debit, deadline_ms });
    impl_codec_struct!(XsDecisionRecord { commit, tx_id });

    // Hand-rolled (not `impl_codec_struct!`) because the account
    // component streams the *merged* hot+cold view: byte-identical to a
    // fully resident `BTreeMap` encoding (u32 count, ascending pairs),
    // regardless of which records are cold. The remaining fields
    // follow declaration order exactly as the macro would emit them.
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
            // a pager (and re-demotes) after install.
            Ok(WorldState {
                accounts: Decode::decode(r)?,
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
