//! Pending-transaction pool with per-sender nonce ordering and
//! fee/priority lanes.
//!
//! Admission is lane-aware (DESIGN.md §10): the gateway routes client
//! transactions into a **priority** or **normal** lane, block proposal
//! drains priority senders first, and a slice of the pool's capacity is
//! reserved for priority traffic so a flood of normal-lane submissions
//! cannot starve it. Mutating methods are `pub(crate)`: outside
//! `medchain-chain`, transactions enter a pool only through
//! [`crate::node::ChainApp`]'s admission API, which enforces
//! signature/nonce checks and dedup-before-verify.

use crate::hash::Hash256;
use crate::sig::Address;
use crate::tx::SealedTx;
use medchain_runtime::metrics::Metrics;
use std::collections::{BTreeMap, HashSet};

/// Which admission lane a transaction was routed into.
///
/// A sender occupies one lane at a time: the lane of its first queued
/// transaction sticks until the sender's queue empties (so nonce runs
/// are never split across lanes), and later submissions in a different
/// lane are coerced onto the sticky one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Lane {
    /// Drained first at block proposal; admitted into the reserved
    /// capacity slice even when the normal lane is full.
    Priority,
    /// Default lane for ordinary traffic.
    #[default]
    Normal,
}

impl Lane {
    /// Human-readable label (metrics keys, reports).
    pub fn label(&self) -> &'static str {
        match self {
            Lane::Priority => "priority",
            Lane::Normal => "normal",
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of [`Mempool::try_insert_in`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The transaction entered a previously empty `(sender, nonce)`
    /// slot, on the lane it was actually queued in (the sender's sticky
    /// lane, which may differ from the requested one).
    Inserted(Lane),
    /// The transaction replaced the prior occupant of its `(sender,
    /// nonce)` slot; the evicted transaction is returned so callers can
    /// surface or re-gossip it, and its id is forgotten so it may be
    /// re-submitted.
    Replaced(SealedTx),
    /// The exact transaction id is already pending or was gossiped.
    DuplicateId,
    /// The pool (or, for normal-lane inserts, the unreserved slice of
    /// it) is at capacity and the transaction would grow it.
    Full,
}

/// A mempool holding admissible transactions until block inclusion.
///
/// Transactions are keyed by `(sender, nonce)`; [`Mempool::take_batch`]
/// pops a gap-free nonce run per sender, priority-lane senders first, so
/// the proposer never includes a transaction whose predecessor is
/// missing.
#[derive(Debug, Default, Clone)]
pub struct Mempool {
    by_sender: BTreeMap<Address, BTreeMap<u64, SealedTx>>,
    /// Sticky lane per sender with queued transactions.
    lane_of: BTreeMap<Address, Lane>,
    seen: HashSet<Hash256>,
    capacity: usize,
    /// Capacity slice only priority-lane inserts may use.
    priority_reserve: usize,
    size: usize,
    metrics: Metrics,
}

impl Mempool {
    /// Creates a pool bounded at `capacity` transactions, with a quarter
    /// of the capacity reserved for the priority lane.
    pub fn new(capacity: usize) -> Mempool {
        Mempool { capacity, priority_reserve: capacity / 4, ..Mempool::default() }
    }

    /// Installs a metrics handle; all `mempool.*` counters report there.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Sets the capacity slice reserved for priority-lane admissions
    /// (clamped to the pool capacity).
    ///
    /// Resizing never evicts queued transactions: if the reserve grows
    /// while the pool already holds more than `capacity - reserve`
    /// transactions, the existing occupancy stays queued and drains
    /// through [`Mempool::take_batch`]/[`Mempool::prune`] as usual. The
    /// new limit binds at *admission* time only — normal-lane inserts
    /// are rejected with [`InsertOutcome::Full`] until the pool shrinks
    /// back below `capacity - reserve`, and priority-lane inserts keep
    /// the full capacity. Property-tested in
    /// `reserve_resize_never_evicts_and_binds_at_admission`.
    #[cfg(test)]
    fn set_priority_reserve(&mut self, reserve: usize) {
        self.priority_reserve = reserve.min(self.capacity);
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Whether a transaction id is pending here, or left in a batch
    /// whose block has not committed yet.
    pub fn contains(&self, id: &Hash256) -> bool {
        self.seen.contains(id)
    }

    /// The sticky lane a sender's queued transactions occupy, if any.
    pub fn lane_of(&self, sender: &Address) -> Option<Lane> {
        self.lane_of.get(sender).copied()
    }

    /// Pending transactions queued on `lane`.
    #[cfg(test)]
    fn lane_len(&self, lane: Lane) -> usize {
        self.by_sender
            .iter()
            .filter(|(sender, _)| self.lane_of.get(sender).copied().unwrap_or_default() == lane)
            .map(|(_, queue)| queue.len())
            .sum()
    }

    /// Sum of per-sender queue lengths. Always equals [`Mempool::len`];
    /// exposed so tests can check the invariant from outside.
    pub fn queued(&self) -> usize {
        self.by_sender.values().map(|queue| queue.len()).sum()
    }

    /// Ids the pool currently remembers (test observability).
    #[cfg(test)]
    pub(crate) fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// Inserts a transaction on the normal lane (test convenience).
    /// Returns `false` if it was a duplicate or the pool is full; a
    /// replacement of an existing `(sender, nonce)` slot counts as
    /// success.
    #[cfg(test)]
    pub(crate) fn insert(&mut self, tx: impl Into<SealedTx>) -> bool {
        matches!(
            self.try_insert(tx),
            InsertOutcome::Inserted(_) | InsertOutcome::Replaced(_)
        )
    }

    /// Normal-lane [`Mempool::try_insert_in`] (test convenience).
    #[cfg(test)]
    pub(crate) fn try_insert(&mut self, tx: impl Into<SealedTx>) -> InsertOutcome {
        self.try_insert_in(tx, Lane::Normal)
    }

    /// Inserts a transaction on `lane`, reporting exactly what happened.
    ///
    /// Replacing an occupied `(sender, nonce)` slot removes the evicted
    /// transaction's id from the seen-set (so it can be re-submitted
    /// later) and returns it in [`InsertOutcome::Replaced`]. A
    /// replacement is admitted even at capacity because the pool size
    /// does not grow. Normal-lane inserts are rejected once the pool
    /// reaches `capacity - priority_reserve`, keeping the reserved slice
    /// available for priority traffic under backpressure.
    pub(crate) fn try_insert_in(&mut self, tx: impl Into<SealedTx>, lane: Lane) -> InsertOutcome {
        let tx: SealedTx = tx.into();
        if self.seen.contains(&tx.id()) {
            self.metrics.counter("mempool.dedup_hits", 1);
            return InsertOutcome::DuplicateId;
        }
        let sender = tx.sender;
        // Sticky sender lane: the first queued transaction fixes it.
        let effective = match self.lane_of.get(&sender) {
            Some(&current) => {
                if current != lane {
                    self.metrics.counter("mempool.lane_coerced", 1);
                }
                current
            }
            None => lane,
        };
        let replacing =
            self.by_sender.get(&sender).is_some_and(|queue| queue.contains_key(&tx.nonce));
        if !replacing {
            let limit = match effective {
                Lane::Priority => self.capacity,
                Lane::Normal => self.capacity.saturating_sub(self.priority_reserve),
            };
            if self.size >= limit {
                self.metrics.counter("mempool.full_rejects", 1);
                return InsertOutcome::Full;
            }
        }
        self.seen.insert(tx.id());
        let nonce = tx.nonce;
        self.lane_of.insert(sender, effective);
        match self.by_sender.entry(sender).or_default().insert(nonce, tx) {
            Some(evicted) => {
                // The bug this fixes: the evicted id used to stay in
                // `seen` forever, permanently banning re-submission.
                self.seen.remove(&evicted.id());
                self.metrics.counter("mempool.evictions", 1);
                self.metrics.event(
                    "mempool",
                    "evicted",
                    &[("sender", format!("{sender:?}")), ("nonce", nonce.to_string())],
                );
                InsertOutcome::Replaced(evicted)
            }
            None => {
                self.size += 1;
                self.metrics.counter("mempool.inserted", 1);
                self.metrics.counter(
                    match effective {
                        Lane::Priority => "mempool.inserted_priority",
                        Lane::Normal => "mempool.inserted_normal",
                    },
                    1,
                );
                self.metrics.gauge("mempool.len", self.size as i64);
                InsertOutcome::Inserted(effective)
            }
        }
    }

    /// Takes up to `max` transactions, respecting gap-free nonce runs
    /// starting from each sender's `next_nonce`. Priority-lane senders
    /// are drained before normal-lane senders.
    pub(crate) fn take_batch(
        &mut self,
        max: usize,
        mut next_nonce: impl FnMut(&Address) -> u64,
    ) -> Vec<SealedTx> {
        let mut batch = Vec::new();
        let mut senders: Vec<Address> = self.by_sender.keys().copied().collect();
        // Stable partition: priority senders first, address order within
        // each lane (BTreeMap iteration is already address-ordered).
        senders.sort_by_key(|s| self.lane_of.get(s).copied().unwrap_or_default());
        'outer: for sender in senders {
            let mut nonce = next_nonce(&sender);
            while batch.len() < max {
                let Some(queue) = self.by_sender.get_mut(&sender) else { break };
                match queue.remove(&nonce) {
                    Some(tx) => {
                        self.size -= 1;
                        batch.push(tx);
                        nonce += 1;
                    }
                    None => break,
                }
            }
            if let Some(queue) = self.by_sender.get(&sender) {
                if queue.is_empty() {
                    self.by_sender.remove(&sender);
                    self.lane_of.remove(&sender);
                }
            }
            if batch.len() >= max {
                break 'outer;
            }
        }
        if !batch.is_empty() {
            self.metrics.observe("mempool.batch_size", batch.len() as f64);
            self.metrics.gauge("mempool.len", self.size as i64);
        }
        batch
    }

    /// Removes transactions already included in a committed block and
    /// stale nonces below each sender's account nonce, and forgets their
    /// ids: a committed id is answered from the ledger
    /// ([`crate::ledger::Ledger::locate_tx`]), so `seen` holds what is
    /// pending or proposed and never grows with the chain.
    pub(crate) fn prune(
        &mut self,
        committed: &[SealedTx],
        account_nonce: impl Fn(&Address) -> u64,
    ) {
        let before = self.size;
        for tx in committed {
            self.seen.remove(&tx.id());
            if let Some(queue) = self.by_sender.get_mut(&tx.sender) {
                if let Some(pooled) = queue.remove(&tx.nonce) {
                    self.seen.remove(&pooled.id());
                    self.size -= 1;
                }
            }
        }
        let senders: Vec<Address> = self.by_sender.keys().copied().collect();
        for sender in senders {
            let floor = account_nonce(&sender);
            let queue = self.by_sender.get_mut(&sender).expect("sender present");
            let live = queue.split_off(&floor);
            for stale in std::mem::replace(queue, live).into_values() {
                self.seen.remove(&stale.id());
                self.size -= 1;
            }
            if queue.is_empty() {
                self.by_sender.remove(&sender);
                self.lane_of.remove(&sender);
            }
        }
        if before > self.size {
            self.metrics.counter("mempool.pruned", (before - self.size) as u64);
            self.metrics.gauge("mempool.len", self.size as i64);
        }
    }
}

mod codec_impls {
    use super::Lane;
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};

    impl Encode for Lane {
        fn encode(&self, out: &mut Vec<u8>) {
            out.push(match self {
                Lane::Priority => 0,
                Lane::Normal => 1,
            });
        }
    }

    impl Decode for Lane {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            match u8::decode(r)? {
                0 => Ok(Lane::Priority),
                1 => Ok(Lane::Normal),
                tag => Err(CodecError::InvalidTag { ty: "Lane", tag }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use crate::sig::AuthorityKey;
    use crate::tx::TxPayload;

    fn tx(key: &AuthorityKey, nonce: u64) -> Transaction {
        Transaction::new(
            key.address(),
            nonce,
            TxPayload::Transfer { to: Address::from_seed(99), amount: 1 },
            100,
        )
        .signed(key)
    }

    #[test]
    fn insert_dedupes() {
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(10);
        assert!(pool.insert(tx(&key, 0)));
        assert!(!pool.insert(tx(&key, 0)));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(2);
        pool.set_priority_reserve(0);
        assert!(pool.insert(tx(&key, 0)));
        assert!(pool.insert(tx(&key, 1)));
        assert!(!pool.insert(tx(&key, 2)));
    }

    #[test]
    fn take_batch_respects_nonce_gaps() {
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(10);
        pool.insert(tx(&key, 0));
        pool.insert(tx(&key, 2)); // gap at 1
        let batch = pool.take_batch(10, |_| 0);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].nonce, 0);
        assert_eq!(pool.len(), 1); // nonce 2 still waiting
    }

    #[test]
    fn take_batch_starts_at_account_nonce() {
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(10);
        pool.insert(tx(&key, 3));
        pool.insert(tx(&key, 4));
        let batch = pool.take_batch(10, |_| 3);
        assert_eq!(batch.iter().map(|t| t.nonce).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn take_batch_honours_max() {
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(10);
        for n in 0..5 {
            pool.insert(tx(&key, n));
        }
        assert_eq!(pool.take_batch(3, |_| 0).len(), 3);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn prune_removes_committed_and_stale() {
        let a = AuthorityKey::from_seed(1);
        let b = AuthorityKey::from_seed(2);
        let mut pool = Mempool::new(10);
        let committed = tx(&a, 0);
        pool.insert(committed.clone());
        pool.insert(tx(&a, 1));
        pool.insert(tx(&b, 0)); // stale: account nonce already 2
        pool.prune(&[committed.into()], |addr| if *addr == b.address() { 2 } else { 1 });
        assert_eq!(pool.len(), 1);
        let batch = pool.take_batch(10, |_| 1);
        assert_eq!(batch[0].nonce, 1);
        assert_eq!(batch[0].sender, a.address());
    }

    /// The bug this pins: `seen` used to gain an id on every insert and
    /// lose one only on replacement, so a replica kept every id it had
    /// ever pooled. Committed, displaced and stale ids all leave it now.
    #[test]
    fn prune_forgets_committed_displaced_and_stale_ids() {
        let a = AuthorityKey::from_seed(1);
        let b = AuthorityKey::from_seed(2);
        let mut pool = Mempool::new(10);
        // Proposer's view: the batch left the queue, its ids stayed.
        pool.insert(tx(&a, 0));
        let batch = pool.take_batch(10, |_| 0);
        assert_eq!((pool.len(), pool.seen_len()), (0, 1));
        pool.prune(&batch, |_| 1);
        assert_eq!(pool.seen_len(), 0);
        // Follower's view: still queued when the block commits; and a
        // different transaction in a committed slot is displaced.
        pool.insert(tx(&a, 1));
        pool.insert(tx_with_amount(&b, 0, 7));
        pool.insert(tx(&b, 3)); // stays pending
        let committed: Vec<SealedTx> = vec![tx(&a, 1).into(), tx_with_amount(&b, 0, 9).into()];
        pool.prune(&committed, |addr| if *addr == b.address() { 1 } else { 2 });
        assert_eq!((pool.len(), pool.seen_len()), (1, 1));
        assert!(pool.contains(&tx(&b, 3).id()));
        // Stale: the account nonce moved past a queued transaction.
        pool.prune(&[], |_| 4);
        assert_eq!((pool.len(), pool.seen_len()), (0, 0));
    }

    /// Same `(sender, nonce)` slot, different payload → different id.
    fn tx_with_amount(key: &AuthorityKey, nonce: u64, amount: u64) -> Transaction {
        Transaction::new(
            key.address(),
            nonce,
            TxPayload::Transfer { to: Address::from_seed(99), amount },
            100,
        )
        .signed(key)
    }

    #[test]
    fn replacement_surfaces_eviction_and_frees_seen_id() {
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(10);
        let original = tx_with_amount(&key, 0, 1);
        let replacement = tx_with_amount(&key, 0, 2);
        assert_eq!(pool.try_insert(original.clone()), InsertOutcome::Inserted(Lane::Normal));
        // The replacement evicts the original and hands it back.
        assert_eq!(pool.try_insert(replacement.clone()), InsertOutcome::Replaced(original.clone().into()));
        assert_eq!(pool.len(), 1);
        // Regression: the evicted id must leave the seen-set so the
        // original can be re-submitted (it used to be banned forever).
        assert!(!pool.contains(&original.id()));
        assert!(pool.contains(&replacement.id()));
        assert_eq!(pool.try_insert(original.clone()), InsertOutcome::Replaced(replacement.into()));
        assert!(pool.contains(&original.id()));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn replacement_is_admitted_at_capacity() {
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(2);
        pool.set_priority_reserve(0);
        assert!(pool.insert(tx_with_amount(&key, 0, 1)));
        assert!(pool.insert(tx_with_amount(&key, 1, 1)));
        // Pool is full, but a replacement does not grow it.
        assert!(matches!(
            pool.try_insert(tx_with_amount(&key, 0, 7)),
            InsertOutcome::Replaced(_)
        ));
        assert_eq!(pool.try_insert(tx_with_amount(&key, 2, 1)), InsertOutcome::Full);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn insert_outcomes_feed_metrics_counters() {
        use medchain_runtime::metrics::Registry;
        let registry = Registry::new();
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(2);
        pool.set_priority_reserve(0);
        pool.set_metrics(registry.handle());
        pool.insert(tx_with_amount(&key, 0, 1)); // inserted
        pool.insert(tx_with_amount(&key, 0, 1)); // dedup hit
        pool.insert(tx_with_amount(&key, 0, 2)); // eviction
        pool.insert(tx_with_amount(&key, 1, 1)); // inserted
        pool.insert(tx_with_amount(&key, 2, 1)); // full
        assert_eq!(registry.counter_value("mempool.inserted"), 2);
        assert_eq!(registry.counter_value("mempool.dedup_hits"), 1);
        assert_eq!(registry.counter_value("mempool.evictions"), 1);
        assert_eq!(registry.counter_value("mempool.full_rejects"), 1);
        let events = registry.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].scope, "mempool");
        assert_eq!(events[0].name, "evicted");
    }

    /// Moved from `tests/metrics.rs` when mempool mutators became
    /// `pub(crate)`: a replacement eviction is visible at the sink and
    /// frees the evicted id for re-submission.
    #[test]
    fn replacement_eviction_reaches_the_sink() {
        use medchain_runtime::metrics::Registry;
        let registry = Registry::default();
        let key = AuthorityKey::from_seed(9);
        let mut pool = Mempool::new(16);
        pool.set_metrics(registry.handle());
        assert!(matches!(pool.try_insert(tx_with_amount(&key, 0, 1)), InsertOutcome::Inserted(_)));
        let evicted = match pool.try_insert(tx_with_amount(&key, 0, 2)) {
            InsertOutcome::Replaced(old) => old,
            other => panic!("expected replacement, got {other:?}"),
        };
        assert_eq!(registry.counter_value("mempool.evictions"), 1);
        assert_eq!(registry.counter_value("mempool.inserted"), 1);
        // The evicted id is free again: re-inserting it is not a dedup hit.
        assert!(matches!(pool.try_insert(evicted), InsertOutcome::Replaced(_)));
        assert_eq!(registry.counter_value("mempool.dedup_hits"), 0);
        assert_eq!(registry.counter_value("mempool.evictions"), 2);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn len_matches_queued_after_mixed_operations() {
        // Property: size bookkeeping equals the sum of per-sender queue
        // lengths after arbitrary insert/take/prune sequences.
        use medchain_runtime::check::{check, CheckConfig};
        use medchain_runtime::ensure_eq;
        let keys: Vec<AuthorityKey> = (0..4).map(AuthorityKey::from_seed).collect();
        check("mempool len == queued", CheckConfig::cases(64), |g| {
            let mut pool = Mempool::new(g.usize_in(1, 24));
            let steps = g.usize_in(1, 60);
            for _ in 0..steps {
                match g.usize_in(0, 3) {
                    0 | 1 => {
                        let key = &keys[g.usize_in(0, keys.len() - 1)];
                        let nonce = g.u64() % 8;
                        let amount = 1 + g.u64() % 4;
                        let lane =
                            if g.usize_in(0, 1) == 0 { Lane::Priority } else { Lane::Normal };
                        pool.try_insert_in(tx_with_amount(key, nonce, amount), lane);
                    }
                    2 => {
                        let floor = g.u64() % 8;
                        pool.take_batch(g.usize_in(0, 8), |_| floor);
                    }
                    _ => {
                        let floor = g.u64() % 8;
                        pool.prune(&[], |_| floor);
                    }
                }
                ensure_eq!(pool.len(), pool.queued());
                ensure_eq!(pool.len(), pool.lane_len(Lane::Priority) + pool.lane_len(Lane::Normal));
            }
            Ok(())
        });
    }

    /// Post-resize invariant of [`Mempool::set_priority_reserve`]: a
    /// reserve change never evicts queued transactions, and the new
    /// limit binds at admission — a fresh normal-lane insert succeeds
    /// iff `len < capacity - reserve`, a priority-lane insert iff
    /// `len < capacity` (sticky sender lanes aside, which the probe
    /// senders below avoid by being fresh each check).
    #[test]
    fn reserve_resize_never_evicts_and_binds_at_admission() {
        use medchain_runtime::check::{check, CheckConfig};
        use medchain_runtime::{ensure, ensure_eq};
        let keys: Vec<AuthorityKey> = (0..4).map(AuthorityKey::from_seed).collect();
        check("mempool reserve resize invariant", CheckConfig::cases(64), |g| {
            let capacity = g.usize_in(2, 24);
            let mut pool = Mempool::new(capacity);
            let mut probe_seed = 100u64;
            let steps = g.usize_in(1, 40);
            for _ in 0..steps {
                match g.usize_in(0, 4) {
                    0 | 1 => {
                        let key = &keys[g.usize_in(0, keys.len() - 1)];
                        let nonce = g.u64() % 8;
                        let lane =
                            if g.usize_in(0, 1) == 0 { Lane::Priority } else { Lane::Normal };
                        pool.try_insert_in(tx(key, nonce), lane);
                    }
                    2 => {
                        // Resize, possibly past current occupancy. Must
                        // never evict.
                        let before = pool.len();
                        pool.set_priority_reserve(g.usize_in(0, capacity + 4));
                        ensure_eq!(pool.len(), before);
                    }
                    _ => {
                        let floor = g.u64() % 8;
                        pool.take_batch(g.usize_in(0, 6), |_| floor);
                    }
                }
                ensure!(
                    pool.priority_reserve <= capacity,
                    "reserve clamped to capacity"
                );
                // Probe both lanes with fresh senders (fresh sender =
                // no sticky-lane coercion, no slot replacement).
                for (lane, limit) in [
                    (Lane::Normal, capacity - pool.priority_reserve),
                    (Lane::Priority, capacity),
                ] {
                    let probe = AuthorityKey::from_seed(probe_seed);
                    probe_seed += 1;
                    let before = pool.len();
                    let outcome = pool.try_insert_in(tx(&probe, 0), lane);
                    if before < limit {
                        ensure_eq!(outcome, InsertOutcome::Inserted(lane));
                        // Undo the probe so it doesn't skew occupancy.
                        pool.take_batch(usize::MAX, |s| {
                            if *s == probe.address() { 0 } else { u64::MAX }
                        });
                        ensure_eq!(pool.len(), before);
                    } else {
                        ensure_eq!(outcome, InsertOutcome::Full);
                    }
                }
                ensure_eq!(pool.len(), pool.queued());
            }
            Ok(())
        });
    }

    /// Moved from `tests/properties.rs` when mempool mutators became
    /// `pub(crate)`: batches are gap-free nonce runs per sender.
    #[test]
    fn batches_are_nonce_ordered() {
        use medchain_runtime::check::{check, CheckConfig};
        use medchain_runtime::{ensure, ensure_eq};
        check("mempool batches are nonce ordered", CheckConfig::cases(64), |g| {
            let inserts = g.vec_of(1, 30, |g| (g.usize_in(0, 3), g.rng().gen_range(0u64..8)));
            let max = g.usize_in(1, 20);
            let keys: Vec<AuthorityKey> =
                (0..3).map(|i| AuthorityKey::from_seed(i as u64)).collect();
            let mut pool = Mempool::new(256);
            for &(who, nonce) in &inserts {
                let who = who.min(2);
                let tx = Transaction::new(
                    keys[who].address(),
                    nonce,
                    TxPayload::Transfer { to: keys[(who + 1) % 3].address(), amount: 1 },
                    100,
                )
                .signed(&keys[who]);
                pool.insert(tx);
            }
            let batch = pool.take_batch(max, |_| 0);
            ensure!(batch.len() <= max, "batch exceeds max");
            // Per sender: nonces start at 0 and are contiguous.
            for key in &keys {
                let nonces: Vec<u64> = batch
                    .iter()
                    .filter(|tx| tx.sender == key.address())
                    .map(|tx| tx.nonce)
                    .collect();
                for (i, n) in nonces.iter().enumerate() {
                    ensure_eq!(*n, i as u64);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn multiple_senders_interleave() {
        let a = AuthorityKey::from_seed(1);
        let b = AuthorityKey::from_seed(2);
        let mut pool = Mempool::new(10);
        pool.insert(tx(&a, 0));
        pool.insert(tx(&b, 0));
        pool.insert(tx(&b, 1));
        let batch = pool.take_batch(10, |_| 0);
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn priority_lane_drains_first() {
        let a = AuthorityKey::from_seed(1); // normal
        let b = AuthorityKey::from_seed(2); // priority
        let mut pool = Mempool::new(10);
        pool.try_insert_in(tx(&a, 0), Lane::Normal);
        pool.try_insert_in(tx(&b, 0), Lane::Priority);
        pool.try_insert_in(tx(&b, 1), Lane::Priority);
        let batch = pool.take_batch(2, |_| 0);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|t| t.sender == b.address()), "priority sender first");
        // The normal-lane transaction is still queued.
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.lane_len(Lane::Normal), 1);
    }

    #[test]
    fn priority_reserve_admits_priority_when_normal_is_full() {
        let a = AuthorityKey::from_seed(1);
        let b = AuthorityKey::from_seed(2);
        let mut pool = Mempool::new(4);
        pool.set_priority_reserve(2);
        // Normal lane fills its unreserved slice (4 - 2 = 2)…
        assert!(matches!(pool.try_insert_in(tx(&a, 0), Lane::Normal), InsertOutcome::Inserted(_)));
        assert!(matches!(pool.try_insert_in(tx(&a, 1), Lane::Normal), InsertOutcome::Inserted(_)));
        assert_eq!(pool.try_insert_in(tx(&a, 2), Lane::Normal), InsertOutcome::Full);
        // …but priority traffic still gets in, up to full capacity.
        assert!(matches!(
            pool.try_insert_in(tx(&b, 0), Lane::Priority),
            InsertOutcome::Inserted(Lane::Priority)
        ));
        assert!(matches!(
            pool.try_insert_in(tx(&b, 1), Lane::Priority),
            InsertOutcome::Inserted(Lane::Priority)
        ));
        assert_eq!(pool.try_insert_in(tx(&b, 2), Lane::Priority), InsertOutcome::Full);
    }

    #[test]
    fn sender_lane_is_sticky_until_queue_empties() {
        use medchain_runtime::metrics::Registry;
        let registry = Registry::new();
        let key = AuthorityKey::from_seed(1);
        let mut pool = Mempool::new(10);
        pool.set_metrics(registry.handle());
        assert_eq!(
            pool.try_insert_in(tx(&key, 0), Lane::Priority),
            InsertOutcome::Inserted(Lane::Priority)
        );
        // A normal-lane submission from the same sender is coerced onto
        // the sticky priority lane so its nonce run stays unsplit.
        assert_eq!(
            pool.try_insert_in(tx(&key, 1), Lane::Normal),
            InsertOutcome::Inserted(Lane::Priority)
        );
        assert_eq!(registry.counter_value("mempool.lane_coerced"), 1);
        // Draining the sender resets the lane.
        pool.take_batch(10, |_| 0);
        assert_eq!(
            pool.try_insert_in(tx(&key, 2), Lane::Normal),
            InsertOutcome::Inserted(Lane::Normal)
        );
    }

    #[test]
    fn lane_round_trips_through_codec() {
        use medchain_runtime::codec::{Decode, Encode, Reader};
        for lane in [Lane::Priority, Lane::Normal] {
            let bytes = lane.encoded();
            let mut reader = Reader::new(&bytes);
            assert_eq!(Lane::decode(&mut reader).unwrap(), lane);
        }
    }
}
