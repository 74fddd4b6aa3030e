//! The ledger: proposes, applies and commits blocks over the world
//! state, keeping the state's authenticated tree and, when one is
//! attached, writing each block to the store before it commits.
//!
//! The state itself is [`WorldState`] (`state.rs`); committed blocks,
//! receipts and the tx-id index are the crate-private `History`
//! (`history.rs`), whose readers the ledger forwards.
//!
//! The ledger is execution-layer-agnostic: `Deploy`/`Invoke` payloads are
//! delegated to a pluggable [`ContractRuntime`] (implemented by
//! `medchain-contracts`), while `Transfer` and `Anchor` payloads are
//! interpreted natively. Every node holds an identical ledger — this is
//! precisely the duplicated-computing property the paper sets out to
//! exploit and then reform.

use crate::auth::{LeafKey, StateProof, StateTree};
use crate::block::{Block, Body, Header};
use crate::exec::{self, StateAccess, StateDelta, WorldStateOverlay};
use crate::hash::Hash256;
use crate::history::History;
use crate::pager::Pager;
use crate::shard::ShardId;
use crate::sig::{Address, KeyRegistry};
use crate::state::WorldState;
use crate::store::BlockStore;
use crate::tx::SealedTx;
use medchain_runtime::metrics::Metrics;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// An event emitted during contract execution.
///
/// The off-chain monitor node (paper Fig. 3) polls for these.
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
/// Every block from `base_height` (0 until [`Ledger::prune_below`] or
/// [`Ledger::restore_with_tree`] is used) to the tip is readable. When
/// a [`BlockStore`] is attached, the ledger persists every block
/// write-ahead before the in-memory commit, keeps decoded only the
/// blocks from the store's newest snapshot up, and reads older ones
/// back from the store.
pub struct Ledger {
    /// Readable blocks, receipts, the tx-id index and the work counters.
    history: History,
    state: WorldState,
    registry: KeyRegistry,
    runtime: Box<dyn ContractRuntime>,
    store: Option<Box<dyn BlockStore>>,
    /// The state changed outside a block (a [`Ledger::state_mut`] write
    /// or a restore) since the store's last checkpoint: the next one
    /// passes no writes, so the store builds no delta across it.
    written_out_of_band: bool,
    shard: ShardId,
    shard_count: u16,
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
            .field("stats", &self.stats())
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
    /// topology (DESIGN.md §9). Contract addresses deployed on a data
    /// shard are derived with [`sharded_contract_address`] when
    /// `shard_count > 1`, so the invoke routing rule maps them back to
    /// this shard; the coordinator derives them as a flat chain does. Blocks
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
            history: History::new(Block::genesis_sharded(chain_id, shard)),
            state: WorldState::new(),
            registry,
            runtime,
            store: None,
            written_out_of_band: false,
            shard,
            shard_count,
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

    /// Selects nothing: a block is always executed in order, on the
    /// calling thread (DESIGN.md §11). Kept, with its signature, only
    /// because medbench's `exec_probe` still calls it; the benchmark
    /// change that drops that probe deletes this method too.
    pub fn set_parallel_exec(&mut self, threads: usize) {
        let _ = threads;
    }

    /// Installs a metrics handle; block application reports `exec.txs`,
    /// `exec.blocks` and `exec.block_apply_us` through it.
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
        self.history.tip().header.height
    }

    /// The tip block.
    pub fn tip(&self) -> &Block {
        self.history.tip()
    }

    /// Block at `height`, for every height from [`Ledger::base_height`]
    /// to the tip. A ledger with a store keeps decoded only the blocks
    /// from the store's newest snapshot up; an older one is read back
    /// from the store into a slot of its height, which the next commit
    /// empties, so the reference stays valid while `&self` is borrowed.
    /// `None` above the tip, below the base height, or when the store
    /// cannot read the block back.
    pub fn block(&self, height: u64) -> Option<&Block> {
        self.history.block_at(height, self.store.as_deref())
    }

    /// Height of the oldest readable block: genesis, the restore point,
    /// or the height [`Ledger::prune_below`] last kept from.
    pub fn base_height(&self) -> u64 {
        self.history.base_height()
    }

    /// The readable blocks with height ≥ `height`, oldest first, each
    /// read as [`Ledger::block`] reads it: from the base height when
    /// `height` predates it, ending at the tip or at the first block the
    /// store cannot read back. Lazy: a caller that stops early reads no
    /// further.
    pub fn blocks_from(&self, height: u64) -> impl Iterator<Item = &Block> + '_ {
        (height.max(self.base_height())..=self.height()).map_while(|h| self.block(h))
    }

    /// Makes the heights below `height` unreadable (the tip is always
    /// kept), from memory and from any store alike. Returns the number
    /// of heights dropped. State, receipts, and stats are untouched;
    /// [`Ledger::tx_receipt`] has no proof for a dropped block's
    /// transactions. A ledger with a store needs no pruning to bound its
    /// memory: it keeps decoded only the blocks from the store's newest
    /// snapshot up.
    pub fn prune_below(&mut self, height: u64) -> usize {
        self.history.prune_below(height)
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
        self.history.reset_to(tip);
        self.state = state;
        self.tree = OnceCell::from(tree);
        self.proposal = None;
        self.written_out_of_band = true;
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
        self.written_out_of_band = true;
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

    /// Receipt for a transaction applied since genesis or the last
    /// restore (pruning keeps it), rebuilt from the outcome that history
    /// keeps.
    pub fn receipt(&self, tx_id: &Hash256) -> Option<Receipt> {
        self.history.receipt(tx_id)
    }

    /// `(block height, index in body)` of a committed transaction.
    pub fn locate_tx(&self, tx_id: &Hash256) -> Option<(u64, usize)> {
        self.history.locate_tx(tx_id)
    }

    /// Builds the proof-carrying client receipt for a committed
    /// transaction (DESIGN.md §10), from its block as [`Ledger::block`]
    /// reads it.
    ///
    /// Returns `None` if the transaction never committed here or its
    /// block is no longer readable: a proof is cut only from the block.
    pub fn tx_receipt(&self, tx_id: &Hash256) -> Option<crate::receipt::TxReceipt> {
        self.history.tx_receipt(tx_id, self.store.as_deref())
    }

    /// Work counters of the blocks applied since genesis or the last
    /// restore.
    pub fn stats(&self) -> LedgerStats {
        self.history.stats()
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
    /// inline check, see `ChainApp::submit_verified`).
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

    /// Validates and applies a sealed block; its receipts move into the
    /// history, where [`Ledger::receipt`] reads them. Every transaction
    /// is executed, except in the block this ledger proposed itself: that
    /// one commits the receipts and delta [`Ledger::propose`] kept, once
    /// the same structural checks pass.
    ///
    /// # Errors
    ///
    /// Returns a [`LedgerError`] and leaves the ledger unchanged if any
    /// structural or execution-commitment check fails.
    pub fn apply(&mut self, block: &Block) -> Result<(), LedgerError> {
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
        // Execute against an overlay, in block order.
        let (receipts, delta) = match kept {
            Some(Proposal { receipts, delta, .. }) => (receipts, delta),
            None => exec::run_block_sequential(
                &self.exec_ctx(),
                &self.state,
                &block.transactions,
                block.header.timestamp_ms,
            )?,
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
        // Kept for the store's checkpoint, which may snapshot only what
        // changed; a ledger with no store clones nothing.
        let writes = (self.store.is_some() && !self.written_out_of_band).then(|| delta.clone());
        // Commit. Pages only the replaced nodes named were freed by the
        // merge, before the spill below stores new ones; the new tree is
        // installed once spilled. The receipts move into the history.
        self.state.apply_delta(delta);
        self.history.push(block.clone(), receipts);
        // The commit is final: offer the store this block's tree to
        // snapshot from, before demotion pages any of the state out. A
        // snapshot is an optimisation (store contract 3) — a failed one
        // is the store's to report and retry, never a reason to lose a
        // block that is already durable. Then the blocks the store reads
        // back below its newest snapshot leave memory.
        if let Some(store) = self.store.as_mut() {
            let _ = store.checkpoint(block, &self.state, &updated_tree, writes.as_ref());
            self.written_out_of_band = false;
            self.history.release_below(store.below_snapshot());
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
        }
        Ok(())
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

/// Ledger fixtures the state and history tests share.
#[cfg(test)]
pub(crate) use tests::{cross_link_tx, funded_ledger, grow_by_transfers, sharded_ledger, transfer};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use crate::shard::sharded_contract_address;
    use crate::sig::AuthorityKey;
    use crate::tx::TxPayload;

    pub(crate) fn funded_ledger(keys: &[AuthorityKey]) -> Ledger {
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

    pub(crate) fn transfer(key: &AuthorityKey, nonce: u64, to: Address, amount: u64) -> Transaction {
        Transaction::new(key.address(), nonce, TxPayload::Transfer { to, amount }, 100).signed(key)
    }

    /// Applies `block` and reads its receipts back, in body order.
    fn commit(ledger: &mut Ledger, block: &Block) -> Vec<Receipt> {
        ledger.apply(block).unwrap();
        block.transactions.iter().map(|tx| ledger.receipt(&tx.id()).expect("kept")).collect()
    }

    pub(crate) fn grow_by_transfers(ledger: &mut Ledger, key: &AuthorityKey, to: Address, n: u64) {
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
        assert_eq!(commit(&mut proposer, &block).len(), 256);
        assert_eq!(at_proposer.counter_value("exec.txs"), 256, "the proposer ran its block twice");
        assert_eq!(commit(&mut replica, &block).len(), 256);
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

    #[test]
    fn propose_and_apply_transfer() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        let block =
            ledger.propose(alice.address(), 10, vec![transfer(&alice, 0, bob.address(), 250)]);
        let receipts = commit(&mut ledger, &block);
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
        let receipts = commit(&mut ledger, &block);
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
        let receipts = commit(&mut ledger, &block2);
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
    fn contract_addresses_are_unique_per_nonce() {
        let sender = Address::from_seed(1);
        assert_ne!(contract_address(&sender, 0), contract_address(&sender, 1));
        assert_eq!(contract_address(&sender, 0), contract_address(&sender, 0));
    }

    // === Consensus-level sharding (DESIGN.md §9) ===

    pub(crate) fn sharded_ledger(shard: ShardId, shard_count: u16, keys: &[AuthorityKey]) -> Ledger {
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

    pub(crate) fn cross_link_tx(key: &AuthorityKey, nonce: u64, shard: ShardId, height: u64) -> Transaction {
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
        let receipts = commit(&mut coord, &block);
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
        let receipts = commit(&mut coord, &block);
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
        let receipts = commit(&mut data, &block);
        assert!(!receipts[0].ok);
        assert!(receipts[0].error.as_deref().unwrap().contains("non-coordinator"));

        let mut coord =
            sharded_ledger(ShardId::COORDINATOR, 2, std::slice::from_ref(&alice));
        let block = coord.propose(
            alice.address(),
            10,
            vec![cross_link_tx(&alice, 0, ShardId::COORDINATOR, 2)],
        );
        let receipts = commit(&mut coord, &block);
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
        let receipts = commit(&mut ledger, &block);
        assert!(receipts[0].ok);
        let addr = Address(receipts[0].output.clone().try_into().unwrap());
        assert_eq!(
            crate::shard::shard_for_key(&addr.0, shard_count),
            home,
            "invoke routing must map the deployed address back to its shard"
        );
        assert_eq!(addr, sharded_contract_address(&alice.address(), 0, home, shard_count));
    }

    /// The coordinator is the home chain of the standard contracts: a
    /// deploy there derives the flat address, both on the proposer and
    /// on a peer that applies the proposer's block. There is no shard to
    /// grind the address onto, so a grind would panic every replica.
    #[test]
    fn a_coordinator_deploy_commits_on_proposer_and_peer() {
        let alice = AuthorityKey::from_seed(1);
        let coordinator = || {
            let mut registry = KeyRegistry::new();
            registry.enroll(&alice);
            let runtime = Box::new(StoreCodeRuntime);
            let mut ledger = Ledger::new_sharded("c", ShardId::COORDINATOR, 2, registry, runtime);
            ledger.state_mut().credit(alice.address(), 1_000);
            ledger
        };
        let (mut proposer, mut peer) = (coordinator(), coordinator());
        let code = TxPayload::Deploy { code: vec![1, 2, 3], init: Vec::new() };
        let deploy = Transaction::new(alice.address(), 0, code, 1_000).signed(&alice);
        let block = proposer.propose(alice.address(), 10, vec![deploy]);
        let receipts = commit(&mut proposer, &block);
        assert!(receipts[0].ok, "{:?}", receipts[0].error);
        assert_eq!(receipts[0].output, contract_address(&alice.address(), 0).0.to_vec());
        assert_eq!(commit(&mut peer, &block), receipts);
        assert_eq!(peer.tip().id(), proposer.tip().id());
    }

    /// The rare parts of a receipt, a deploy's output and a failure's
    /// error, come back whole from what history keeps: by id, and with
    /// an inclusion proof.
    #[test]
    fn a_deploys_output_and_a_failures_error_come_back_from_history() {
        let alice = AuthorityKey::from_seed(1);
        let mut registry = KeyRegistry::new();
        registry.enroll(&alice);
        let mut ledger = Ledger::new("test-chain", registry, Box::new(StoreCodeRuntime));
        ledger.state_mut().credit(alice.address(), 1_000);
        let code = TxPayload::Deploy { code: vec![1, 2, 3], init: Vec::new() };
        let deploy = Transaction::new(alice.address(), 0, code, 1_000).signed(&alice);
        let overdraft = transfer(&alice, 1, Address::from_seed(2), 5_000);
        let block = ledger.propose(alice.address(), 10, vec![deploy.clone(), overdraft.clone()]);
        let [deployed, failed]: [Receipt; 2] = commit(&mut ledger, &block).try_into().unwrap();
        assert!(deployed.ok && deployed.output.len() == 20 && deployed.error.is_none());
        assert!(ledger.state().code(&Address(deployed.output.clone().try_into().unwrap())).is_some());
        assert!(!failed.ok && failed.output.is_empty());
        assert!(failed.error.as_deref().is_some_and(|error| !error.is_empty()));
        for (tx, receipt) in [(&deploy, &deployed), (&overdraft, &failed)] {
            assert_eq!(ledger.receipt(&tx.id()).as_ref(), Some(receipt));
            let proven = ledger.tx_receipt(&tx.id()).expect("block retained");
            assert_eq!((proven.ok, proven.gas_used), (receipt.ok, receipt.gas_used));
            assert_eq!((&proven.output, &proven.error), (&receipt.output, &receipt.error));
            assert!(proven.verify_against(&block.header.tx_root));
        }
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
        let receipts = commit(&mut ledger, &block);
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
}

mod codec_impls {
    use super::{Event, Receipt};
    use medchain_runtime::impl_codec_struct;

    impl_codec_struct!(Event { contract, topic, data });
    impl_codec_struct!(Receipt { tx_id, ok, gas_used, output, events, error });
}
