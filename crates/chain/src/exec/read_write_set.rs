//! Static read/write-set inference for transactions.
//!
//! Every [`TxPayload`] variant maps to a set of
//! [`StateKey`]s it may read or write during execution. The scheduler
//! (`exec::scheduler`) partitions a block into conflict-free waves by
//! key overlap, so the sets must be **supersets** of what execution
//! actually touches — an under-declared access would be a silent race.
//! The inference here is deliberately conservative: anything it cannot
//! bound statically is marked *global* and serializes against the whole
//! block (see [`RwSet::global`]).
//!
//! Inference rules (DESIGN.md §11):
//!
//! - every tx writes `Account(sender)` — admission reads the nonce and
//!   execution bumps it;
//! - `Transfer` additionally writes `Account(to)`;
//! - `Anchor` writes `Anchor(label)` (the conflict check reads the same
//!   label);
//! - `CrossLink` writes `CrossLink(shard)`;
//! - `XsPrepare` / `XsFinalize` write `Account(account)` of their leg —
//!   lock state is account-scoped, so the account key already covers
//!   both the balance and the lock; `XsDecide` writes
//!   `XsDecision(xid)`;
//! - `Deploy` writes `Contract(addr)` for the statically derivable
//!   contract address; a non-empty constructor runs the deployed code,
//!   so the code is classified via [`ContractRuntime::code_scope`];
//! - `Invoke` writes `Contract(contract)` when the installed code is
//!   [`ExecScope::SelfContained`]; code that may re-enter other
//!   contracts — or code not yet visible in committed state (it may be
//!   deployed earlier in the same block) — is global.

use crate::ledger::{contract_address, ContractRuntime};
use crate::state::WorldState;
use crate::shard::{sharded_contract_address, ShardId};
use crate::sig::Address;
use crate::tx::{Transaction, TxPayload};
use std::collections::BTreeSet;

/// Static classification of a piece of contract code's state footprint,
/// reported by [`ContractRuntime::code_scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecScope {
    /// Execution touches only the invoked contract's own storage/code
    /// (plus whatever the ledger itself declares, e.g. the sender
    /// account). Safe to schedule under `Contract(addr)`.
    SelfContained,
    /// Execution may reach other contracts or accounts (e.g. via a
    /// cross-contract call instruction); the tx serializes against the
    /// whole block.
    MayEscape,
}

/// One unit of conflict granularity over [`WorldState`].
///
/// `Contract(addr)` covers the contract's code *and all of its storage
/// slots* — coarse, but it makes self-contained invokes of distinct
/// contracts provably independent without tracking per-slot keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StateKey {
    /// Balance + nonce of one account.
    Account(Address),
    /// Code and every storage slot of one contract address.
    Contract(Address),
    /// One data-anchor label.
    Anchor(String),
    /// The coordinator's cross-link record for one shard.
    CrossLink(u16),
    /// The coordinator's commit/abort record for one cross-shard
    /// transaction (2PC locks themselves are account-scoped and ride
    /// under [`StateKey::Account`]).
    XsDecision(crate::hash::Hash256),
}

/// The declared read/write footprint of one transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSet {
    /// Keys execution may read.
    pub reads: BTreeSet<StateKey>,
    /// Keys execution may write (a write implies read access).
    pub writes: BTreeSet<StateKey>,
    /// Escape hatch: the footprint could not be bounded statically; the
    /// tx conflicts with every other tx in the block.
    pub global: bool,
}

impl RwSet {
    /// Empty set.
    pub fn new() -> RwSet {
        RwSet::default()
    }

    /// Declares a read of `key`.
    pub fn read(&mut self, key: StateKey) {
        self.reads.insert(key);
    }

    /// Declares a write of `key`.
    pub fn write(&mut self, key: StateKey) {
        self.writes.insert(key);
    }

    /// Whether `key` is covered by this set (reads or writes).
    pub fn declares(&self, key: &StateKey) -> bool {
        self.global || self.writes.contains(key) || self.reads.contains(key)
    }

    /// Whether `key` is covered as a write.
    pub fn declares_write(&self, key: &StateKey) -> bool {
        self.global || self.writes.contains(key)
    }
}

/// Infers the read/write set of `tx` as it would execute on a ledger
/// following `shard` of a `shard_count`-shard topology, against the
/// committed `state` (pre-block; in-block deploys are *not* visible,
/// which is exactly why an invoke of an unknown address goes global).
///
/// The inferred set is a superset of the keys [`Ledger::apply`]
/// (crate::ledger::Ledger::apply) actually touches — property-tested in
/// `tests/exec_parallel.rs` against a recording overlay.
pub fn infer_rw_set(
    tx: &Transaction,
    shard: ShardId,
    shard_count: u16,
    state: &WorldState,
    runtime: &dyn ContractRuntime,
) -> RwSet {
    let mut set = RwSet::new();
    // Admission reads the sender nonce; execution bumps it.
    set.write(StateKey::Account(tx.sender));
    match &tx.payload {
        TxPayload::Transfer { to, .. } => set.write(StateKey::Account(*to)),
        TxPayload::Anchor { label, .. } => set.write(StateKey::Anchor(label.clone())),
        TxPayload::CrossLink { shard, .. } => set.write(StateKey::CrossLink(shard.0)),
        // 2PC lock state is account-scoped (DESIGN.md §12): prepare and
        // finalize read/write the lock *and* the balance of the leg's
        // account, both covered by `Account(account)`.
        TxPayload::XsPrepare { leg, .. } => set.write(StateKey::Account(leg.account)),
        TxPayload::XsFinalize { account, .. } => set.write(StateKey::Account(*account)),
        TxPayload::XsDecide { xid, .. } => set.write(StateKey::XsDecision(*xid)),
        TxPayload::Deploy { code, init } => {
            if shard_count > 1 && shard.is_coordinator() {
                // No data-shard address exists for a coordinator deploy;
                // execution is undefined here, so stay maximally wide.
                set.global = true;
            } else {
                let addr = if shard_count > 1 {
                    sharded_contract_address(&tx.sender, tx.nonce, shard, shard_count)
                } else {
                    contract_address(&tx.sender, tx.nonce)
                };
                set.write(StateKey::Contract(addr));
                // A constructor runs the freshly deployed code.
                if !init.is_empty() && runtime.code_scope(code) == ExecScope::MayEscape {
                    set.global = true;
                }
            }
        }
        TxPayload::Invoke { contract, .. } => {
            set.write(StateKey::Contract(*contract));
            match state.code(contract) {
                // Code is immutable once installed (set_code only runs at
                // a fresh address), so classifying the committed bytes is
                // stable for the whole block.
                Some(code) => {
                    if runtime.code_scope(code) == ExecScope::MayEscape {
                        set.global = true;
                    }
                }
                // Absent code may still be deployed by an earlier tx in
                // this very block — widen rather than race.
                None => set.global = true,
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::NullRuntime;

    fn transfer_tx(sender: Address, to: Address) -> Transaction {
        Transaction::new(sender, 0, TxPayload::Transfer { to, amount: 1 }, 100)
    }

    #[test]
    fn transfer_set_covers_both_accounts() {
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        let set = infer_rw_set(
            &transfer_tx(a, b),
            ShardId::default(),
            1,
            &WorldState::new(),
            &NullRuntime,
        );
        assert!(set.declares_write(&StateKey::Account(a)));
        assert!(set.declares_write(&StateKey::Account(b)));
        assert!(!set.global);
    }

    #[test]
    fn disjoint_transfers_do_not_conflict() {
        let state = WorldState::new();
        let mk = |s, t| {
            infer_rw_set(
                &transfer_tx(Address::from_seed(s), Address::from_seed(t)),
                ShardId::default(),
                1,
                &state,
                &NullRuntime,
            )
        };
        let waves = |a, b| crate::exec::scheduler::schedule(&[a, b]).waves.len();
        assert_eq!(waves(mk(1, 2), mk(3, 4)), 1);
        assert_eq!(waves(mk(1, 2), mk(2, 3)), 2, "shared recipient/sender account");
        assert_eq!(waves(mk(1, 2), mk(1, 4)), 2, "shared sender account");
    }

    #[test]
    fn invoke_of_unknown_code_is_global() {
        let a = Address::from_seed(1);
        let tx = Transaction::new(
            a,
            0,
            TxPayload::Invoke { contract: Address::from_seed(9), input: Vec::new() },
            100,
        );
        let set = infer_rw_set(&tx, ShardId::default(), 1, &WorldState::new(), &NullRuntime);
        assert!(set.global);
    }

    #[test]
    fn invoke_with_self_contained_runtime_is_keyed() {
        // NullRuntime rejects invokes without touching state, so its
        // code_scope is SelfContained and a known address stays keyed.
        let a = Address::from_seed(1);
        let c = Address::from_seed(9);
        let mut state = WorldState::new();
        state.set_code(c, vec![1, 2, 3]);
        let tx =
            Transaction::new(a, 0, TxPayload::Invoke { contract: c, input: Vec::new() }, 100);
        let set = infer_rw_set(&tx, ShardId::default(), 1, &state, &NullRuntime);
        assert!(!set.global);
        assert!(set.declares_write(&StateKey::Contract(c)));
    }

    #[test]
    fn anchor_and_crosslink_are_label_keyed() {
        let a = Address::from_seed(1);
        let anchor = Transaction::new(
            a,
            0,
            TxPayload::Anchor { root: crate::hash::Hash256::digest(b"d"), label: "l1".into() },
            100,
        );
        let set =
            infer_rw_set(&anchor, ShardId::default(), 1, &WorldState::new(), &NullRuntime);
        assert!(set.declares_write(&StateKey::Anchor("l1".into())));
        assert!(!set.declares(&StateKey::Anchor("l2".into())));
    }
}
