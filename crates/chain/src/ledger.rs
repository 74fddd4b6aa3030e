//! World state, receipts, and the ledger (chain of applied blocks).
//!
//! The ledger is execution-layer-agnostic: `Deploy`/`Invoke` payloads are
//! delegated to a pluggable [`ContractRuntime`] (implemented by
//! `medchain-contracts`), while `Transfer` and `Anchor` payloads are
//! interpreted natively. Every node holds an identical ledger — this is
//! precisely the duplicated-computing property the paper sets out to
//! exploit and then reform.

use crate::auth::{LeafKey, StateProof, StateTree};
use crate::block::{Block, Body, Header};
use crate::exec::{self, ExecScope, StateAccess, StateDelta, WorldStateOverlay};
use crate::hash::Hash256;
use crate::shard::ShardId;
use crate::sig::{Address, KeyRegistry};
use crate::store::BlockStore;
use crate::tx::SealedTx;
use medchain_runtime::codec::Encode;
use medchain_runtime::metrics::Metrics;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};
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

/// Disk backing for cold account records (DESIGN.md §14) — implemented
/// by `medchain-storage`'s page cache.
///
/// The ledger's invariant is **hot/cold disjointness**: an address lives
/// in the resident map *or* in the pager, never both. Every write path
/// promotes (takes) the cold record first, and
/// [`WorldState::demote_accounts`] moves records the other way, so the
/// merged view — reads, iteration, counts, equality, and the canonical
/// encoding — is identical to a fully resident state. Paging is
/// representation, never semantics.
///
/// Only accounts page out. `storage`/`code` reads hand back borrowed
/// slices (`Option<&[u8]>`), which a disk fall-through behind `&self`
/// cannot produce without changing the `StateAccess` contract, so those
/// components stay resident; accounts are the patient-scale component
/// the paper's consortium actually grows by the million.
///
/// Implementors must tolerate `&self` mutation (interior mutability) and
/// concurrent readers: parallel block execution reads accounts from
/// worker lanes. Cold-record load failure is unrecoverable data loss —
/// panic with context, don't return a default (see the page-store
/// contract in `medchain-storage`).
pub trait AccountPager: Send + Sync {
    /// Reads the cold record for `addr` without promoting it.
    fn load(&self, addr: &Address) -> Option<Account>;
    /// Removes and returns the cold record for `addr` (promotion).
    fn take(&self, addr: &Address) -> Option<Account>;
    /// Demotes one record to cold storage (the address must not already
    /// be cold — the ledger only demotes hot records).
    fn store(&self, addr: &Address, account: &Account);
    /// Number of cold records.
    fn len(&self) -> usize;
    /// Whether no records are cold.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Every cold record in ascending address order — the merge feed for
    /// iteration and the canonical encoding.
    fn entries(&self) -> Vec<(Address, Account)>;
    /// Writes buffered pages to disk (called at snapshot boundaries).
    fn flush(&self);
}

/// The replicated world state.
///
/// Storage nests per-contract so hot-path slot reads resolve with two
/// borrowed-key lookups instead of building an owned `(Address, Vec<u8>)`
/// tuple per read. Invariant: no contract maps to an empty slot map
/// (deletes prune it), keeping equality and the codec canonical.
///
/// With an [`AccountPager`] attached, cold account records live on disk
/// and `accounts` holds only the hot set (see the trait's disjointness
/// contract). Everything observable — reads, deltas, roots, encoded
/// bytes — is independent of which records happen to be resident.
#[derive(Default)]
pub struct WorldState {
    accounts: BTreeMap<Address, Account>,
    storage: BTreeMap<Address, BTreeMap<Vec<u8>, Vec<u8>>>,
    code: BTreeMap<Address, Vec<u8>>,
    anchors: BTreeMap<String, Hash256>,
    crosslinks: BTreeMap<u16, CrossLinkRecord>,
    locks: BTreeMap<Address, XsLock>,
    xs_decisions: BTreeMap<Hash256, XsDecisionRecord>,
    /// Cold-account backing; `None` = fully resident. Not part of the
    /// value: excluded from `Clone`/`PartialEq`/codec (clones
    /// materialize, equality and bytes compare the merged view).
    pager: Option<Arc<dyn AccountPager>>,
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
    /// the pager (two states mutating one spill file would corrupt each
    /// other's cold sets).
    fn clone(&self) -> Self {
        let mut accounts = self.accounts.clone();
        if let Some(pager) = &self.pager {
            accounts.extend(pager.entries());
        }
        WorldState {
            accounts,
            storage: self.storage.clone(),
            code: self.code.clone(),
            anchors: self.anchors.clone(),
            crosslinks: self.crosslinks.clone(),
            locks: self.locks.clone(),
            xs_decisions: self.xs_decisions.clone(),
            pager: None,
        }
    }
}

impl PartialEq for WorldState {
    fn eq(&self, other: &Self) -> bool {
        let accounts_eq = if self.pager.is_none() && other.pager.is_none() {
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

    /// Attaches the cold-account store. The pager must start empty; the
    /// resident map is the entire state at that moment, and only
    /// [`WorldState::demote_accounts`] moves records cold.
    pub fn attach_account_pager(&mut self, pager: Arc<dyn AccountPager>) {
        debug_assert!(pager.is_empty(), "account pager must be attached empty");
        self.pager = Some(pager);
    }

    /// Number of account records currently cold.
    pub fn paged_account_count(&self) -> usize {
        self.pager.as_ref().map_or(0, |p| p.len())
    }

    /// Moves hot accounts (outside `keep`) to the pager until at most
    /// `max_hot` stay resident; returns how many were demoted. Lowest
    /// addresses demote first — the ledger passes the block's written
    /// addresses as `keep`, so the write-hot set stays resident.
    pub fn demote_accounts(&mut self, max_hot: usize, keep: &BTreeSet<Address>) -> usize {
        let Some(pager) = self.pager.clone() else { return 0 };
        let excess = self.accounts.len().saturating_sub(max_hot);
        if excess == 0 {
            return 0;
        }
        let victims: Vec<Address> =
            self.accounts.keys().filter(|a| !keep.contains(a)).take(excess).copied().collect();
        for addr in &victims {
            let account = self.accounts.remove(addr).expect("victim is hot");
            pager.store(addr, &account);
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
        if let Some(account) = self.pager.as_ref().and_then(|p| p.take(addr)) {
            self.accounts.insert(*addr, account);
        }
    }

    /// Feeds every account to `emit` in ascending address order, merging
    /// the resident map with the pager's cold records (disjoint by
    /// invariant, so the merge is a plain ordered zip).
    fn for_each_account(&self, emit: &mut dyn FnMut(&Address, &Account)) {
        let Some(pager) = &self.pager else {
            for (addr, account) in &self.accounts {
                emit(addr, account);
            }
            return;
        };
        let cold = pager.entries();
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
        self.pager.as_ref().and_then(|p| p.load(addr)).unwrap_or_default()
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

    /// Inserts one slot, returning the prior value.
    fn storage_insert(&mut self, contract: Address, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        self.storage.entry(contract).or_default().insert(key, value)
    }

    /// Removes one slot, returning the prior value and pruning the
    /// contract's slot map if it becomes empty (canonical-form
    /// invariant).
    fn storage_remove(&mut self, contract: &Address, key: &[u8]) -> Option<Vec<u8>> {
        let slots = self.storage.get_mut(contract)?;
        let prior = slots.remove(key);
        if slots.is_empty() {
            self.storage.remove(contract);
        }
        prior
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
    pub(crate) fn for_each_leaf(&self, emit: &mut dyn FnMut(LeafKey, &[u8])) {
        let mut scratch = Vec::new();
        self.for_each_account(&mut |addr, account| {
            scratch.clear();
            account.encode(&mut scratch);
            emit(LeafKey::Account(*addr), &scratch);
        });
        for (contract, slots) in &self.storage {
            for (key, value) in slots {
                emit(LeafKey::Storage(*contract, key.clone()), value);
            }
        }
        for (addr, code) in &self.code {
            emit(LeafKey::Code(*addr), code);
        }
        for (label, root) in &self.anchors {
            emit(LeafKey::Anchor(label.clone()), &root.0);
        }
        for (shard, link) in &self.crosslinks {
            scratch.clear();
            link.encode(&mut scratch);
            emit(LeafKey::CrossLink(*shard), &scratch);
        }
        for (addr, lock) in &self.locks {
            scratch.clear();
            lock.encode(&mut scratch);
            emit(LeafKey::Lock(*addr), &scratch);
        }
        for (xid, decision) in &self.xs_decisions {
            scratch.clear();
            decision.encode(&mut scratch);
            emit(LeafKey::XsDecision(*xid), &scratch);
        }
    }

    /// Canonical authenticated-leaf value bytes stored at `key`, or
    /// `None` when the entry is absent. This is the byte string a
    /// [`StateProof`] for `key` commits to.
    pub fn leaf_value(&self, key: &LeafKey) -> Option<Vec<u8>> {
        match key {
            LeafKey::Account(addr) => self
                .accounts
                .get(addr)
                .copied()
                .or_else(|| self.pager.as_ref().and_then(|p| p.load(addr)))
                .map(|a| a.encoded()),
            LeafKey::Storage(contract, slot) => {
                self.storage(contract, slot).map(|v| v.to_vec())
            }
            LeafKey::Code(addr) => self.code(addr).map(|c| c.to_vec()),
            LeafKey::Anchor(label) => self.anchor(label).map(|root| root.0.to_vec()),
            LeafKey::CrossLink(shard) => {
                self.cross_link(ShardId(*shard)).map(|link| link.encoded())
            }
            LeafKey::Lock(addr) => self.lock(addr).map(|lock| lock.encoded()),
            LeafKey::XsDecision(xid) => self.xs_decision(xid).map(|d| d.encoded()),
        }
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

    /// Commits `delta` into the state, returning the undo log that
    /// [`WorldState::revert`] uses if the write-ahead store append fails
    /// after the in-memory mutation.
    pub(crate) fn apply_delta(&mut self, delta: StateDelta) -> StateUndo {
        let mut undo = StateUndo::default();
        let StateDelta { accounts, storage, code, anchors, crosslinks, locks, xs_decisions } =
            delta;
        for (addr, account) in accounts {
            // The undo records the *merged* prior value: a delta write to
            // a cold address removes its pager record (disjointness), so
            // revert must be able to re-materialize it hot.
            let cold = self.pager.as_ref().and_then(|p| p.take(&addr));
            let prior = self.accounts.insert(addr, account).or(cold);
            undo.accounts.push((addr, prior));
        }
        for ((contract, key), value) in storage {
            let prior = match value {
                Some(value) => self.storage_insert(contract, key.clone(), value),
                None => self.storage_remove(&contract, &key),
            };
            undo.storage.push(((contract, key), prior));
        }
        for (addr, code) in code {
            undo.code.push((addr, self.code.insert(addr, code)));
        }
        for (label, root) in anchors {
            let prior = self.anchors.insert(label.clone(), root);
            undo.anchors.push((label, prior));
        }
        for (shard, link) in crosslinks {
            undo.crosslinks.push((shard, self.crosslinks.insert(shard, link)));
        }
        for (addr, lock) in locks {
            let prior = match lock {
                Some(lock) => self.locks.insert(addr, lock),
                None => self.locks.remove(&addr),
            };
            undo.locks.push((addr, prior));
        }
        for (xid, decision) in xs_decisions {
            undo.xs_decisions.push((xid, self.xs_decisions.insert(xid, decision)));
        }
        undo
    }

    /// Rolls back a [`WorldState::apply_delta`] exactly.
    pub(crate) fn revert(&mut self, undo: StateUndo) {
        for (addr, prior) in undo.accounts {
            match prior {
                Some(account) => self.accounts.insert(addr, account),
                None => self.accounts.remove(&addr),
            };
        }
        for ((contract, key), prior) in undo.storage {
            match prior {
                Some(value) => self.storage_insert(contract, key, value),
                None => self.storage_remove(&contract, &key),
            };
        }
        for (addr, prior) in undo.code {
            match prior {
                Some(code) => self.code.insert(addr, code),
                None => self.code.remove(&addr),
            };
        }
        for (label, prior) in undo.anchors {
            match prior {
                Some(root) => self.anchors.insert(label, root),
                None => self.anchors.remove(&label),
            };
        }
        for (shard, prior) in undo.crosslinks {
            match prior {
                Some(link) => self.crosslinks.insert(shard, link),
                None => self.crosslinks.remove(&shard),
            };
        }
        for (addr, prior) in undo.locks {
            match prior {
                Some(lock) => self.locks.insert(addr, lock),
                None => self.locks.remove(&addr),
            };
        }
        for (xid, prior) in undo.xs_decisions {
            match prior {
                Some(decision) => self.xs_decisions.insert(xid, decision),
                None => self.xs_decisions.remove(&xid),
            };
        }
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
        if let Some(pager) = &self.pager {
            pager.take(&addr);
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

/// Prior values captured by [`WorldState::apply_delta`], `None` meaning
/// the key was absent.
#[derive(Debug, Default)]
pub(crate) struct StateUndo {
    accounts: Vec<(Address, Option<Account>)>,
    storage: Vec<((Address, Vec<u8>), Option<Vec<u8>>)>,
    code: Vec<(Address, Option<Vec<u8>>)>,
    anchors: Vec<(String, Option<Hash256>)>,
    crosslinks: Vec<(u16, Option<CrossLinkRecord>)>,
    locks: Vec<(Address, Option<XsLock>)>,
    xs_decisions: Vec<(Hash256, Option<XsDecisionRecord>)>,
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
    /// The attached [`BlockStore`] failed to persist the block; the
    /// in-memory commit was aborted (write-ahead ordering).
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
/// [`Ledger::prune_below`] or [`Ledger::restore`] is used) and, when a
/// [`BlockStore`] is attached, persists every block write-ahead before
/// the in-memory commit.
pub struct Ledger {
    /// Retained blocks; `blocks[0]` has height `base_height`.
    blocks: Vec<Block>,
    base_height: u64,
    state: WorldState,
    receipts: BTreeMap<Hash256, Receipt>,
    /// `tx id → (block height, index in body)` for every committed
    /// transaction, feeding [`Ledger::tx_receipt`] proofs.
    tx_locations: BTreeMap<Hash256, (u64, usize)>,
    registry: KeyRegistry,
    runtime: Box<dyn ContractRuntime>,
    stats: LedgerStats,
    store: Option<Box<dyn BlockStore>>,
    shard: ShardId,
    shard_count: u16,
    /// Worker lanes for parallel block execution; 0 or 1 = sequential.
    exec_threads: usize,
    metrics: Metrics,
    /// Incrementally maintained authenticated state tree, always in sync
    /// with `state` at the committed tip. `None` after a direct
    /// [`Ledger::state_mut`] mutation (genesis funding); lazily rebuilt
    /// by [`Ledger::state_tree`]. The `Mutex` exists only for that lazy
    /// rebuild from `&self` paths (`propose`, `prove_state`).
    tree: Mutex<Option<StateTree>>,
    /// Paged-state configuration (DESIGN.md §14); `None` = fully
    /// resident. When set, every commit demotes cold accounts past
    /// `max_hot_accounts` and spills cold tree subtrees past
    /// `node_budget`.
    state_cache: Option<StateCacheConfig>,
    /// Post-commit hook fed the block and its flattened leaf updates —
    /// how derived projections (`latest_state`) stay current without a
    /// second delta pass through public API.
    commit_observer: Option<CommitObserver>,
}

/// Post-commit callback: the committed block plus its state changes as
/// `(leaf key, new value)` pairs (`None` = deleted), in
/// [`delta_updates`](crate::auth::delta_updates) order.
pub type CommitObserver = Box<dyn FnMut(&Block, &[(LeafKey, Option<Vec<u8>>)]) + Send>;

/// Wiring for the paged state cache (DESIGN.md §14): where cold account
/// records and cold tree subtrees go, and how much stays resident.
pub struct StateCacheConfig {
    /// Disk store for cold account records.
    pub accounts: Arc<dyn AccountPager>,
    /// Disk store for spilled state-tree subtrees.
    pub nodes: Arc<dyn crate::auth::NodePager>,
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
            receipts: BTreeMap::new(),
            tx_locations: BTreeMap::new(),
            registry,
            runtime,
            stats: LedgerStats::default(),
            store: None,
            shard,
            shard_count,
            exec_threads: 1,
            metrics: Metrics::noop(),
            tree: Mutex::new(Some(StateTree::new())),
            state_cache: None,
            commit_observer: None,
        }
    }

    /// Attaches the paged state cache (DESIGN.md §14): cold accounts and
    /// cold tree subtrees past the configured budgets move to the pagers
    /// after every commit, keeping the resident footprint bounded while
    /// state roots stay byte-identical to a fully-resident node.
    ///
    /// Attach **after** any recovery replay or [`Ledger::restore`]: both
    /// pagers must be empty (the page file is derived data, truncated on
    /// open), and a restore drops the cache so a stale pager can never
    /// shadow the restored state.
    pub fn attach_state_cache(&mut self, cache: StateCacheConfig) {
        self.state.attach_account_pager(Arc::clone(&cache.accounts));
        if let Some(tree) = self.tree.get_mut().expect("state tree cache poisoned").as_mut() {
            tree.attach_pager(Arc::clone(&cache.nodes));
            tree.spill_to_budget(cache.node_budget);
        }
        self.state.demote_accounts(cache.max_hot_accounts, &BTreeSet::new());
        self.state_cache = Some(cache);
    }

    /// Whether a paged state cache is attached.
    pub fn has_state_cache(&self) -> bool {
        self.state_cache.is_some()
    }

    /// Installs the post-commit observer: after every successful
    /// [`Ledger::apply`] it receives the block and its flattened
    /// `(leaf key, new value)` updates, and after a snapshot install
    /// ([`Ledger::restore_with_tree`]) the installed tip with every leaf
    /// of the installed state as one batch. Used by the `latest_state`
    /// projection; at most one observer is held (setting replaces).
    pub fn set_commit_observer(&mut self, observer: CommitObserver) {
        self.commit_observer = Some(observer);
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

    /// Whether a durable store is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Mutable access to the attached store (diagnostics, flushing).
    pub fn store_mut(&mut self) -> Option<&mut (dyn BlockStore + 'static)> {
        self.store.as_deref_mut()
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
    /// snapshot [`Ledger::restore`] it is the retained suffix starting
    /// at [`Ledger::base_height`].
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

    /// Fast-sync restore: installs a snapshot (`state` at `tip`) as the
    /// new chain suffix, replacing all retained history. Subsequent
    /// [`Ledger::apply`] calls replay blocks above `tip`'s height.
    ///
    /// # Errors
    ///
    /// Returns [`LedgerError::StateRootMismatch`] if `state` does not
    /// hash to `tip.header.state_root` — a snapshot that disagrees with
    /// its block is never installed.
    pub fn restore(&mut self, state: WorldState, tip: Block) -> Result<(), LedgerError> {
        let tree = StateTree::from_state(&state);
        self.restore_with_tree(state, tip, tree)
    }

    /// [`Ledger::restore`] with a pre-built authenticated tree (fast
    /// recovery: snapshots persist the tree, so installing it skips the
    /// O(total state) rehash entirely — the tree's cached root is
    /// checked against the tip header instead).
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
        self.receipts.clear();
        // Like receipts, locations only cover blocks applied after the
        // snapshot: a restored node re-learns them as it replays.
        self.tx_locations.clear();
        self.stats = LedgerStats::default();
        *self.tree.get_mut().expect("state tree cache poisoned") = Some(tree);
        // A restored state is fully resident and the old pagers may hold
        // entries for the replaced state — drop the cache rather than
        // let stale pages shadow it. Wiring re-attaches a fresh cache.
        self.state_cache = None;
        // No block carries the installed state's writes, so an observer
        // learns them here: everything the state holds, as of the tip.
        if let Some(observer) = self.commit_observer.as_mut() {
            let mut leaves = Vec::with_capacity(self.state.leaf_count());
            self.state.for_each_leaf(&mut |key, value| leaves.push((key, Some(value.to_vec()))));
            observer(&self.blocks[0], &leaves);
        }
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
    pub fn state_mut(&mut self) -> &mut WorldState {
        *self.tree.get_mut().expect("state tree cache poisoned") = None;
        &mut self.state
    }

    /// The authenticated tree over the committed state (clone is O(1) —
    /// nodes are shared). Rebuilds the cache first if a [`state_mut`]
    /// mutation invalidated it.
    ///
    /// [`state_mut`]: Ledger::state_mut
    pub fn state_tree(&self) -> StateTree {
        let mut cached = self.tree.lock().expect("state tree cache poisoned");
        if cached.is_none() {
            let mut tree = StateTree::from_state(&self.state);
            if let Some(cache) = &self.state_cache {
                tree.attach_pager(Arc::clone(&cache.nodes));
                tree.spill_to_budget(cache.node_budget);
            }
            *cached = Some(tree);
        }
        cached.as_ref().expect("cache just filled").clone()
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
        self.receipts.get(tx_id)
    }

    /// `(block height, index in body)` of a committed transaction.
    pub fn locate_tx(&self, tx_id: &Hash256) -> Option<(u64, usize)> {
        self.tx_locations.get(tx_id).copied()
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
        let block = self.block(height)?;
        let exec = self.receipt(tx_id)?;
        crate::receipt::TxReceipt::for_block(block, index, exec)
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
    pub fn propose<T: Into<SealedTx>>(
        &self,
        proposer: Address,
        timestamp_ms: u64,
        txs: Vec<T>,
    ) -> Block {
        let ctx = self.exec_ctx();
        let mut overlay = WorldStateOverlay::new(&self.state);
        let mut included = Vec::with_capacity(txs.len());
        for tx in txs {
            let tx: SealedTx = tx.into();
            if exec::admission_check(&self.registry, &overlay, &tx).is_ok() {
                let _ = exec::execute_tx(&ctx, &mut overlay, &tx, timestamp_ms);
                included.push(tx);
            }
        }
        let delta = overlay.into_delta();
        // The body hashes its transaction tree here, once; every replica
        // that is handed this block reads the root and cuts receipts
        // from the same tree.
        let transactions = Body::from(included);
        let header = Header {
            height: self.height() + 1,
            parent: self.tip().id(),
            tx_root: transactions.tree().root(),
            // Incremental: delta applied to the cached tree, O(keys
            // changed), without touching committed state.
            state_root: self.state_tree().with_delta(&delta).versioned_root(),
            timestamp_ms,
            proposer,
            shard: self.shard,
        };
        Block { header: header.into(), transactions, seal: crate::block::Seal::Genesis }
    }

    /// Validates and applies a sealed block, executing all transactions.
    ///
    /// # Errors
    ///
    /// Returns a [`LedgerError`] and leaves the ledger unchanged if any
    /// structural or execution-commitment check fails.
    pub fn apply(&mut self, block: &Block) -> Result<Vec<Receipt>, LedgerError> {
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
        // Execute against an overlay — sequentially, or wave-parallel
        // when enabled (exec::run_block_parallel guarantees identical
        // receipts and delta, falling back to sequential on any audited
        // footprint violation).
        let (receipts, delta, parallel_stats) = {
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
        };
        // Incremental root check before any mutation: the committed
        // delta folds into the cached authenticated tree at O(keys
        // changed · log n) — per-block root cost no longer scales with
        // total state size.
        let root_started = Instant::now();
        let updated_tree = self.state_tree().with_delta(&delta);
        let root_wall_us = root_started.elapsed().as_secs_f64() * 1e6;
        if updated_tree.versioned_root() != block.header.state_root {
            return Err(LedgerError::StateRootMismatch);
        }
        // Captured before `apply_delta` consumes the delta: the flat
        // leaf updates for the commit observer, and the written account
        // addresses that must stay hot through this commit's demotion.
        let observer_updates = self
            .commit_observer
            .as_ref()
            .map(|_| crate::auth::delta_updates(&delta));
        let written_accounts: Option<BTreeSet<Address>> = self
            .state_cache
            .as_ref()
            .map(|_| delta.accounts.keys().copied().collect());
        // Write-ahead: the block must be durable before the in-memory
        // commit, so a crash leaves disk and memory agreeing (disk may
        // carry a torn tail record, which recovery truncates). The store
        // needs the post-state, so the delta commits first and is
        // reverted exactly if the append fails.
        let undo = self.state.apply_delta(delta);
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.append(block, &self.state) {
                self.state.revert(undo);
                return Err(LedgerError::Storage(e.to_string()));
            }
        }
        // State and tree now advance together (the revert path above
        // leaves the old cache in place, matching the reverted state).
        *self.tree.get_mut().expect("state tree cache poisoned") = Some(updated_tree);
        // Commit.
        for receipt in &receipts {
            self.stats.transactions += 1;
            self.stats.gas_used += receipt.gas_used;
            if !receipt.ok {
                self.stats.failed += 1;
            }
            self.receipts.insert(receipt.tx_id, receipt.clone());
        }
        for (index, tx) in block.transactions.iter().enumerate() {
            self.tx_locations.insert(tx.id(), (block.header.height, index));
        }
        self.stats.blocks += 1;
        self.blocks.push(block.clone());
        if let Some(observer) = self.commit_observer.as_mut() {
            let updates = observer_updates.as_deref().expect("captured before commit");
            observer(self.blocks.last().expect("just pushed"), updates);
        }
        // The commit is final: offer the store this block's tree to
        // snapshot from, before demotion pages any of the state out. A
        // snapshot is an optimisation (store contract 3) — a failed one
        // is the store's to report and retry, never a reason to lose a
        // block that is already durable.
        if let Some(store) = self.store.as_mut() {
            let tree = self.tree.get_mut().expect("state tree cache poisoned");
            let tree = tree.as_ref().expect("set by this commit");
            let _ = store.checkpoint(block, &self.state, tree);
        }
        // Paged state cache: after the commit is final, push cold
        // accounts and cold tree subtrees back under budget. Addresses
        // this block wrote stay hot — they are the working set.
        if let Some(cache) = &self.state_cache {
            let keep = written_accounts.as_ref().expect("captured before commit");
            let demoted = self.state.demote_accounts(cache.max_hot_accounts, keep);
            let tree_guard = self.tree.get_mut().expect("state tree cache poisoned");
            if let Some(tree) = tree_guard.as_mut() {
                if tree.pager().is_none() {
                    tree.attach_pager(Arc::clone(&cache.nodes));
                }
                tree.spill_to_budget(cache.node_budget);
            }
            if self.metrics.enabled() {
                if demoted > 0 {
                    self.metrics.counter("state.accounts_demoted", demoted as u64);
                }
                self.metrics
                    .gauge("state.paged_accounts", self.state.paged_account_count() as i64);
                if let Some(tree) = tree_guard.as_ref() {
                    self.metrics.gauge("auth.resident_nodes", tree.resident_nodes() as i64);
                }
            }
        }
        if self.metrics.enabled() {
            self.metrics.counter("exec.blocks", 1);
            self.metrics.counter("exec.txs", tx_count as u64);
            self.metrics.observe("exec.block_apply_us", started.elapsed().as_secs_f64() * 1e6);
            self.metrics.observe("auth.root_update_us", root_wall_us);
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
        Ok(receipts)
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
        let ledger = funded_ledger(&[alice.clone(), bob.clone()]);
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
        let undo = materialized.apply_delta(delta);
        assert_eq!(merged_root, materialized.state_root(), "merge-join root must match commit");
        assert_ne!(merged_root, base.state_root());

        // Revert restores the base exactly (write-ahead failure path).
        materialized.revert(undo);
        assert_eq!(materialized.state_root(), base.state_root());
        assert_eq!(materialized, base);
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
    // regardless of which records the pager holds. The remaining fields
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
                pager: None,
            })
        }
    }

}
