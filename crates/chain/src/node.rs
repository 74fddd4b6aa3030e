//! [`ChainApp`] — the application side of a consensus replica: ledger,
//! mempool, and client transaction submission.

use crate::block::Block;
use crate::consensus::Application;
use crate::hash::Hash256;
use crate::ledger::{ContractRuntime, Ledger, LedgerStats, NullRuntime, Receipt};
use crate::mempool::{InsertOutcome, Lane, Mempool};
use crate::receipt::TxReceipt;
use crate::sig::{Address, KeyRegistry};
use crate::tx::SealedTx;

/// Default mempool capacity.
const DEFAULT_MEMPOOL_CAPACITY: usize = 4096;
/// Default maximum transactions per block.
const DEFAULT_MAX_BLOCK_TXS: usize = 256;

/// Outcome of lane-aware admission ([`ChainApp::submit_in`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued for inclusion on `lane` (the sender's sticky lane, which
    /// may differ from the requested one); `replaced` is true when the
    /// transaction displaced a prior occupant of its `(sender, nonce)`
    /// slot.
    Admitted {
        /// Lane the transaction was queued on.
        lane: Lane,
        /// Whether a prior transaction in the same slot was evicted.
        replaced: bool,
    },
    /// The exact transaction id is already pending or committed —
    /// detected *before* any signature work, so re-submitting a
    /// duplicate costs no MAC check.
    Duplicate,
    /// The pool (or the normal lane's unreserved slice) is full.
    Full,
    /// Signature or nonce check failed.
    Inadmissible,
}

impl SubmitOutcome {
    /// Whether the transaction is now queued.
    pub fn is_admitted(&self) -> bool {
        matches!(self, SubmitOutcome::Admitted { .. })
    }
}

/// A full node's chain-facing application state.
///
/// Every replica holds an identical `ChainApp` and executes every
/// committed transaction — the duplicated computing the paper starts
/// from. Work performed here is metered via [`LedgerStats`].
pub struct ChainApp {
    ledger: Ledger,
    mempool: Mempool,
    max_block_txs: usize,
    timestamp_quantum_ms: u64,
    metrics: medchain_runtime::metrics::Metrics,
}

impl std::fmt::Debug for ChainApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainApp")
            .field("height", &self.ledger.height())
            .field("mempool", &self.mempool.len())
            .finish()
    }
}

impl ChainApp {
    /// Creates a node with the [`NullRuntime`] (no contract execution).
    pub fn new(chain_id: &str, registry: KeyRegistry) -> ChainApp {
        Self::with_runtime(chain_id, registry, Box::new(NullRuntime))
    }

    /// Creates a node with a contract runtime installed.
    pub fn with_runtime(
        chain_id: &str,
        registry: KeyRegistry,
        runtime: Box<dyn ContractRuntime>,
    ) -> ChainApp {
        Self::from_ledger(Ledger::new(chain_id, registry, runtime))
    }

    /// Creates a replica of sub-chain `shard` in a `shard_count`-shard
    /// topology (DESIGN.md §9): the ledger follows that shard's genesis
    /// and rejects blocks from any other sub-chain.
    pub fn sharded(
        chain_id: &str,
        shard: crate::shard::ShardId,
        shard_count: u16,
        registry: KeyRegistry,
        runtime: Box<dyn ContractRuntime>,
    ) -> ChainApp {
        Self::from_ledger(Ledger::new_sharded(chain_id, shard, shard_count, registry, runtime))
    }

    fn from_ledger(ledger: Ledger) -> ChainApp {
        ChainApp {
            ledger,
            mempool: Mempool::new(DEFAULT_MEMPOOL_CAPACITY),
            max_block_txs: DEFAULT_MAX_BLOCK_TXS,
            timestamp_quantum_ms: 1,
            metrics: medchain_runtime::metrics::Metrics::noop(),
        }
    }

    /// Installs a metrics handle on the app, its mempool, and its
    /// ledger; commits report under `chain.*`, admission under
    /// `mempool.*`, block execution under `exec.*`.
    pub fn set_metrics(&mut self, metrics: medchain_runtime::metrics::Metrics) {
        self.mempool.set_metrics(metrics.clone());
        self.ledger.set_metrics(metrics.clone());
        self.metrics = metrics;
    }

    /// Sets the per-block transaction cap.
    pub fn set_max_block_txs(&mut self, max: usize) {
        self.max_block_txs = max;
    }

    /// Quantizes proposed block timestamps down to a multiple of
    /// `quantum_ms` (0 is treated as 1, i.e. no quantization).
    ///
    /// Block ids commit to the header timestamp, so a cluster running on
    /// wall-clock sockets produces different hashes from a logical-clock
    /// simulation unless proposals land on the same grid. Setting the
    /// quantum to the block interval on every replica makes the two
    /// transports byte-identical for the same workload: a proposal made
    /// anywhere inside tick *k* is stamped `k · interval`.
    pub fn set_timestamp_quantum_ms(&mut self, quantum_ms: u64) {
        self.timestamp_quantum_ms = quantum_ms.max(1);
    }

    /// Submits a client transaction to the local mempool.
    ///
    /// Returns `false` if the transaction is inadmissible or a duplicate.
    pub fn submit(&mut self, tx: impl Into<SealedTx>) -> bool {
        self.submit_in(tx, Lane::Normal).is_admitted()
    }

    /// Lane-aware submission with full signature verification.
    ///
    /// Dedup by transaction id — against the pool, then against the
    /// committed chain — runs **before** the signature check, so a
    /// client retrying a submission gets a cheap idempotent answer: no
    /// second HMAC verification and no second nonce or admission check.
    pub fn submit_in(&mut self, tx: impl Into<SealedTx>, lane: Lane) -> SubmitOutcome {
        self.admit(tx.into(), lane, Ledger::check_admissible)
    }

    /// Lane-aware submission for transactions whose signature was
    /// **already verified by the caller** — the gateway's inline
    /// check. Only the nonce is re-checked against current state.
    ///
    /// Trust boundary: callers must have run `tx.verify(registry)` (or
    /// equivalent) on this exact transaction. The pool takes their word;
    /// the chain does not — a transaction this process never verified is
    /// still checked, once, when it is proposed (and by every replica
    /// that is handed other bytes than the ones checked), so unsigned
    /// data is dropped there rather than committed.
    pub fn submit_verified(&mut self, tx: impl Into<SealedTx>, lane: Lane) -> SubmitOutcome {
        self.admit(tx.into(), lane, Ledger::check_nonce)
    }

    fn admit(
        &mut self,
        tx: SealedTx,
        lane: Lane,
        check: fn(&Ledger, &SealedTx) -> Result<(), crate::ledger::LedgerError>,
    ) -> SubmitOutcome {
        if self.mempool.contains(&tx.id()) || self.ledger.locate_tx(&tx.id()).is_some() {
            self.metrics.counter("mempool.dedup_hits", 1);
            return SubmitOutcome::Duplicate;
        }
        if check(&self.ledger, &tx).is_err() {
            self.metrics.counter("mempool.inadmissible", 1);
            return SubmitOutcome::Inadmissible;
        }
        let sender = tx.sender;
        match self.mempool.try_insert_in(tx, lane) {
            InsertOutcome::Inserted(lane) => SubmitOutcome::Admitted { lane, replaced: false },
            InsertOutcome::Replaced(_) => SubmitOutcome::Admitted {
                // A replacement lands on the sender's sticky lane.
                lane: self.mempool.lane_of(&sender).unwrap_or(lane),
                replaced: true,
            },
            InsertOutcome::DuplicateId => SubmitOutcome::Duplicate,
            InsertOutcome::Full => SubmitOutcome::Full,
        }
    }

    /// Whether a transaction id is currently pending in the mempool.
    pub fn mempool_contains(&self, tx_id: &Hash256) -> bool {
        self.mempool.contains(tx_id)
    }

    /// Proof-carrying client receipt for a committed transaction
    /// (see [`crate::ledger::Ledger::tx_receipt`]).
    pub fn tx_receipt(&self, tx_id: &Hash256) -> Option<TxReceipt> {
        self.ledger.tx_receipt(tx_id)
    }

    /// The underlying ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Mutable ledger access (genesis funding in simulations).
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// Attaches a durable [`crate::store::BlockStore`] to the ledger:
    /// every committed block is persisted before the in-memory commit.
    pub fn attach_store(&mut self, store: Box<dyn crate::store::BlockStore>) {
        self.ledger.attach_store(store);
    }

    /// Pending transaction count.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// The pooled transaction a drain is stuck on, as `(sender, nonce)`:
    /// the lowest one above its sender's committed nonce, else the
    /// lowest pooled (see `Mempool::stalled`).
    pub fn stalled_tx(&self) -> Option<(Address, u64)> {
        let state = self.ledger.state();
        self.mempool.stalled(|sender| state.account(sender).nonce)
    }

    /// Receipt lookup (see [`Ledger::receipt`]).
    pub fn receipt(&self, tx_id: &Hash256) -> Option<Receipt> {
        self.ledger.receipt(tx_id)
    }

    /// Ledger work counters.
    pub fn stats(&self) -> LedgerStats {
        self.ledger.stats()
    }

    /// Block id at `height` (test/diagnostic helper).
    ///
    /// # Panics
    ///
    /// Panics if `height` has not been committed.
    pub fn tip_at(&self, height: u64) -> Hash256 {
        self.ledger.block(height).expect("height committed").id()
    }
}

impl Application for ChainApp {
    fn height(&self) -> u64 {
        self.ledger.height()
    }

    fn tip_id(&self) -> Hash256 {
        self.ledger.tip().id()
    }

    fn make_block(&mut self, proposer: Address, now_ms: u64) -> Block {
        let state = self.ledger.state();
        let batch = self
            .mempool
            .take_batch(self.max_block_txs, |sender| state.account(sender).nonce);
        let stamped = (now_ms / self.timestamp_quantum_ms) * self.timestamp_quantum_ms;
        self.ledger.propose(proposer, stamped, batch)
    }

    fn validate_block(&self, block: &Block) -> bool {
        block.header.parent == self.tip_id()
            && block.header.height == self.height() + 1
            && block.is_body_consistent()
            && block.transactions.iter().all(|tx| tx.verify(self.ledger.registry()))
    }

    fn sealed_block(&self, height: u64) -> Option<Block> {
        self.ledger.block(height).cloned()
    }

    fn commit_block(&mut self, block: &Block) -> bool {
        match self.ledger.apply(block) {
            Ok(_) => {
                let state = self.ledger.state();
                self.mempool.prune(&block.transactions, |addr| state.account(addr).nonce);
                self.metrics.counter("chain.blocks_committed", 1);
                self.metrics.counter("chain.txs_committed", block.transactions.len() as u64);
                true
            }
            Err(_) => {
                self.metrics.counter("chain.commit_failures", 1);
                false
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

    fn setup() -> (ChainApp, AuthorityKey, AuthorityKey) {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut registry = KeyRegistry::new();
        registry.enroll(&alice);
        registry.enroll(&bob);
        let mut app = ChainApp::new("node-test", registry);
        app.ledger_mut().state_mut().credit(alice.address(), 1_000);
        (app, alice, bob)
    }

    fn transfer(key: &AuthorityKey, nonce: u64, to: Address, amount: u64) -> Transaction {
        Transaction::new(key.address(), nonce, TxPayload::Transfer { to, amount }, 100).signed(key)
    }

    #[test]
    fn submit_propose_commit_round_trip() {
        let (mut app, alice, bob) = setup();
        assert!(app.submit(transfer(&alice, 0, bob.address(), 100)));
        let block = app.make_block(alice.address(), 50);
        assert_eq!(block.transactions.len(), 1);
        assert!(app.validate_block(&block));
        assert!(app.commit_block(&block));
        assert_eq!(app.ledger().state().account(&bob.address()).balance, 100);
        assert_eq!(app.mempool_len(), 0);
    }

    #[test]
    fn submit_rejects_bad_signature() {
        let (mut app, alice, bob) = setup();
        let mut tx = transfer(&alice, 0, bob.address(), 100);
        tx.signature = None;
        assert!(!app.submit(tx));
    }

    #[test]
    fn validate_rejects_foreign_block() {
        let (app, alice, _) = setup();
        let other_registry = {
            let mut r = KeyRegistry::new();
            r.enroll(&alice);
            r
        };
        let mut other = ChainApp::new("different-chain", other_registry);
        let block = other.make_block(alice.address(), 10);
        assert!(!app.validate_block(&block));
    }

    #[test]
    fn block_cap_is_respected() {
        let (mut app, alice, bob) = setup();
        app.set_max_block_txs(3);
        for n in 0..10 {
            assert!(app.submit(transfer(&alice, n, bob.address(), 1)));
        }
        let block = app.make_block(alice.address(), 10);
        assert_eq!(block.transactions.len(), 3);
        assert_eq!(app.mempool_len(), 7);
    }

    /// A replica's memory of ids is bounded by what is pending, not by
    /// the length of the chain, and a committed transaction coming back
    /// is answered from the ledger before any signature work — shown by
    /// resubmitting it with its signature stripped (the id does not
    /// cover the signature): a path that verified would say
    /// `Inadmissible`.
    #[test]
    fn committed_ids_leave_the_pool_and_resubmission_is_a_duplicate() {
        let (mut app, alice, bob) = setup();
        let mut committed = Vec::new();
        for n in 0..1_000 {
            let tx = transfer(&alice, n, bob.address(), 1);
            assert!(app.submit(tx.clone()));
            let block = app.make_block(alice.address(), 50 + n);
            assert!(app.commit_block(&block));
            committed.push(tx);
        }
        let pending = transfer(&alice, 1_000, bob.address(), 1);
        assert!(app.submit(pending.clone()));
        assert_eq!(app.mempool.seen_len(), 1, "only the pending id is remembered");
        assert!(app.mempool_contains(&pending.id()));

        let mut unsigned = committed[500].clone();
        unsigned.signature = None;
        for tx in [committed[0].clone(), committed[999].clone(), unsigned] {
            assert_eq!(app.submit_in(tx.clone(), Lane::Normal), SubmitOutcome::Duplicate);
            assert_eq!(app.submit_verified(tx, Lane::Priority), SubmitOutcome::Duplicate);
        }
        assert_eq!(app.mempool_len(), 1);
    }

    #[test]
    fn commit_returns_false_on_invalid_block() {
        let (mut app, alice, bob) = setup();
        app.submit(transfer(&alice, 0, bob.address(), 100));
        let mut block = app.make_block(alice.address(), 50);
        block.header.state_root = Hash256::digest(b"forged");
        assert!(!app.commit_block(&block));
        assert_eq!(app.height(), 0);
    }
}
