//! Committed history: the blocks a ledger can serve, the outcome of
//! every transaction in the blocks it applied, the tx-id index over
//! them, and the work counters those commits add up to.
//!
//! [`History`] is the one owner of that bookkeeping: the ledger pushes
//! each committed block here and forwards its history readers. The
//! rules it keeps are pinned by a model-checked property below:
//! - every block from `base_height` to the tip is readable; pruning
//!   drops older ones but always keeps the tip;
//! - receipts and the tx-id index cover every block pushed since
//!   genesis or the last restore, pruned or not;
//! - a proof-carrying [`TxReceipt`] is cut only from a readable block.
//!
//! A block is readable from memory or from the ledger's store. Without
//! a store every block stays decoded. With one, the blocks the store
//! reads back below its newest snapshot ([`BlockStore::below_snapshot`])
//! leave memory at the commit that finds them there, each for an 8-byte
//! slot: a read fills the slot from [`BlockStore::read_block`] and the
//! next push empties it again, so a store-backed ledger keeps at most
//! one snapshot interval of blocks decoded, plus the base block (genesis
//! or the restore point, which the store need not hold), between reads.
//!
//! It keeps only what this replica alone knows. A block kept from its
//! commit shares its header and body with every other copy of the block
//! in the process; its seal is this replica's own. A receipt is kept as
//! a 24-byte `Outcome` whose tx id is the index's key, and is rebuilt
//! when it is read.

use crate::block::Block;
use crate::hash::Hash256;
use crate::ledger::{Event, LedgerStats, Receipt};
use crate::receipt::TxReceipt;
use crate::store::BlockStore;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::ops::Range;

/// A ledger's committed history (see the module docs).
pub(crate) struct History {
    /// One slot per height from `base_height` below the resident window:
    /// the base block's is filled for good, any other only while a read
    /// has filled it since the last push.
    older: Vec<OnceCell<Box<Block>>>,
    /// Heights of the `older` slots a read filled since the last push.
    filled: RefCell<Vec<u64>>,
    /// Decoded blocks from `base_height + older.len()` to the tip, oldest
    /// first; the tip is always among them.
    blocks: Vec<Block>,
    base_height: u64,
    /// The outcome of every transaction pushed since genesis or the last
    /// restore, in commit order, moved in by [`History::push`] and kept
    /// through [`History::prune_below`]. They are stored
    /// [`OUTCOME_CHUNK`] to an allocation, each chunk allocated whole
    /// when the one before it fills: no block pays an allocation of its
    /// own, and growth never copies what is kept nor leaves more than one
    /// chunk of slack, as doubling one flat list would.
    outcomes: Vec<Vec<Outcome>>,
    /// The commit-order position of each pushed block's first outcome,
    /// one entry per block, oldest first.
    starts: Vec<u64>,
    /// `tx id → commit-order position` of every outcome in `outcomes`,
    /// 40 bytes an entry. Ids come from clients, so the map keeps std's
    /// keyed hasher.
    tx_index: HashMap<Hash256, u64>,
    stats: LedgerStats,
}

/// Outcomes per allocation of [`History`]'s outcome list: 1,536 bytes.
const OUTCOME_CHUNK: usize = 64;

/// A kept [`Receipt`] without its tx id, which is the index's key:
/// 24 bytes. Output, events and error are boxed together, and only when
/// one of them is non-empty, which few receipts have.
struct Outcome {
    gas_used: u64,
    ok: bool,
    rare: Option<Box<Rare>>,
}

/// The parts of a receipt most transactions leave empty.
struct Rare {
    output: Vec<u8>,
    events: Vec<Event>,
    error: Option<String>,
}

impl Outcome {
    /// Splits a receipt into its id and its outcome, moving the rare
    /// parts in.
    fn kept(receipt: Receipt) -> (Hash256, Outcome) {
        let Receipt { tx_id, ok, gas_used, output, events, error } = receipt;
        let rare = (!output.is_empty() || !events.is_empty() || error.is_some())
            .then(|| Box::new(Rare { output, events, error }));
        (tx_id, Outcome { gas_used, ok, rare })
    }

    /// The receipt of `tx_id` this outcome was kept from.
    fn receipt(&self, tx_id: Hash256) -> Receipt {
        let (output, events, error) = match self.rare.as_deref() {
            Some(Rare { output, events, error }) => (output.clone(), events.clone(), error.clone()),
            None => Default::default(),
        };
        Receipt { tx_id, ok: self.ok, gas_used: self.gas_used, output, events, error }
    }
}

impl History {
    /// History of a chain that holds only its genesis block.
    pub(crate) fn new(genesis: Block) -> History {
        let (older, filled, outcomes, starts, tx_index, stats) = Default::default();
        let blocks = vec![genesis];
        History { older, filled, blocks, base_height: 0, outcomes, starts, tx_index, stats }
    }

    /// Records a committed block and moves its receipts in, counting
    /// them into the stats, and empties every slot a read filled.
    pub(crate) fn push(&mut self, block: Block, receipts: Vec<Receipt>) {
        for height in self.filled.get_mut().drain(..) {
            if let Some(slot) = self.older.get_mut((height - self.base_height) as usize) {
                slot.take();
            }
        }
        let first = self.outcome_count();
        self.tx_index.reserve(receipts.len());
        for (receipt, position) in receipts.into_iter().zip(first..) {
            let (tx_id, outcome) = Outcome::kept(receipt);
            self.stats.transactions += 1;
            self.stats.gas_used += outcome.gas_used;
            self.stats.failed += u64::from(!outcome.ok);
            self.tx_index.insert(tx_id, position);
            if self.outcomes.last().is_none_or(|chunk| chunk.len() == OUTCOME_CHUNK) {
                self.outcomes.push(Vec::with_capacity(OUTCOME_CHUNK));
            }
            self.outcomes.last_mut().expect("a chunk with room").push(outcome);
        }
        self.starts.push(first);
        self.stats.blocks += 1;
        self.blocks.push(block);
    }

    /// Replaces all history with `tip` alone, as a snapshot restore
    /// does. Receipts only cover blocks applied after the snapshot: a
    /// restored node re-learns them as it replays.
    pub(crate) fn reset_to(&mut self, tip: Block) {
        self.base_height = tip.header.height;
        self.older.clear();
        self.filled.get_mut().clear();
        self.blocks = vec![tip];
        self.outcomes.clear();
        self.starts.clear();
        self.tx_index.clear();
        self.stats = LedgerStats::default();
    }

    /// The tip block; its height is the chain's.
    pub(crate) fn tip(&self) -> &Block {
        self.blocks.last().expect("genesis always present")
    }

    /// Height of the oldest decoded block of the resident window.
    fn window_start(&self) -> u64 {
        self.base_height + self.older.len() as u64
    }

    /// Block at `height`, if readable: from memory, or read back from
    /// `store` into its slot. A store that cannot read it gives `None`.
    pub(crate) fn block_at(&self, height: u64, store: Option<&dyn BlockStore>) -> Option<&Block> {
        let index = height.checked_sub(self.base_height)? as usize;
        let Some(slot) = self.older.get(index) else {
            return self.blocks.get(index - self.older.len());
        };
        if let Some(block) = slot.get() {
            return Some(block);
        }
        let block = store?.read_block(height).ok()??;
        if block.header.height != height {
            return None;
        }
        self.filled.borrow_mut().push(height);
        Some(slot.get_or_init(|| Box::new(block)))
    }

    /// Height of the oldest readable block.
    pub(crate) fn base_height(&self) -> u64 {
        self.base_height
    }

    /// Lets the decoded blocks whose heights `readable` covers leave
    /// memory, oldest first and never the tip, for slots a read fills
    /// again. The base block keeps its slot filled, since a store need
    /// not hold it; a block `readable` does not cover stops the move.
    pub(crate) fn release_below(&mut self, readable: Range<u64>) {
        let end = readable.end.min(self.tip().header.height);
        let mut moved = 0;
        for height in self.window_start()..end {
            if height != self.base_height && !readable.contains(&height) {
                break;
            }
            moved += 1;
        }
        for block in self.blocks.drain(..moved) {
            let slot = if block.header.height == self.base_height {
                OnceCell::from(Box::new(block))
            } else {
                OnceCell::new()
            };
            self.older.push(slot);
        }
    }

    /// Makes heights below `height` unreadable, always keeping the tip,
    /// and returns how many were dropped. Receipts and stats are
    /// untouched.
    pub(crate) fn prune_below(&mut self, height: u64) -> usize {
        let keep_from = height.min(self.tip().header.height);
        let drop = keep_from.saturating_sub(self.base_height) as usize;
        let from_older = drop.min(self.older.len());
        self.older.drain(..from_older);
        self.blocks.drain(..drop - from_older);
        // A height at or below the base drops nothing and keeps it.
        self.base_height = self.base_height.max(keep_from);
        let base = self.base_height;
        self.filled.get_mut().retain(|filled| *filled >= base);
        drop
    }

    /// Receipt for a transaction pushed since genesis or the last
    /// restore.
    pub(crate) fn receipt(&self, tx_id: &Hash256) -> Option<Receipt> {
        let position = *self.tx_index.get(tx_id)?;
        Some(self.outcome_at(position).receipt(*tx_id))
    }

    /// `(block height, index in body)` of a transaction pushed since
    /// genesis or the last restore.
    pub(crate) fn locate_tx(&self, tx_id: &Hash256) -> Option<(u64, usize)> {
        let position = *self.tx_index.get(tx_id)?;
        // The last block starting at or before the position holds it.
        let block = self.starts.partition_point(|first| *first <= position) - 1;
        let index = position - self.starts[block];
        Some((self.first_receipt_height() + block as u64, index as usize))
    }

    /// Height of the block `starts` begins with: one entry per block
    /// pushed since genesis or the last restore, the newest at the tip.
    fn first_receipt_height(&self) -> u64 {
        self.tip().header.height + 1 - self.starts.len() as u64
    }

    /// How many outcomes are kept.
    fn outcome_count(&self) -> u64 {
        let full = self.outcomes.len().saturating_sub(1) * OUTCOME_CHUNK;
        (full + self.outcomes.last().map_or(0, Vec::len)) as u64
    }

    /// The outcome at commit-order `position`.
    fn outcome_at(&self, position: u64) -> &Outcome {
        let position = position as usize;
        &self.outcomes[position / OUTCOME_CHUNK][position % OUTCOME_CHUNK]
    }

    /// The proof-carrying receipt of a transaction whose block is still
    /// readable, from memory or from `store`.
    pub(crate) fn tx_receipt(
        &self,
        tx_id: &Hash256,
        store: Option<&dyn BlockStore>,
    ) -> Option<TxReceipt> {
        let (height, index) = self.locate_tx(tx_id)?;
        TxReceipt::for_block(self.block_at(height, store)?, index, self.receipt(tx_id)?)
    }

    /// Work counters of the blocks pushed since genesis or the last
    /// restore.
    pub(crate) fn stats(&self) -> LedgerStats {
        self.stats
    }
}

#[cfg(test)]
impl History {
    /// How many blocks are decoded in memory: the resident window and
    /// every filled slot.
    fn decoded_blocks(&self) -> usize {
        self.blocks.len() + self.older.iter().filter(|slot| slot.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Body, Header, Seal};
    use crate::ledger::{funded_ledger, grow_by_transfers, transfer};
    use crate::shard::ShardId;
    use crate::sig::{Address, AuthorityKey};
    use crate::state::WorldState;
    use crate::store::StoreError;
    use crate::tx::{SealedTx, Transaction, TxPayload};
    use medchain_runtime::check::{check, CheckConfig, Gen};
    use medchain_runtime::{ensure, ensure_eq};

    #[test]
    fn blocks_from_and_prune_below_respect_base_height() {
        let alice = AuthorityKey::from_seed(1);
        let bob = AuthorityKey::from_seed(2);
        let mut ledger = funded_ledger(&[alice.clone(), bob.clone()]);
        grow_by_transfers(&mut ledger, &alice, bob.address(), 5);
        assert_eq!(ledger.base_height(), 0);
        assert_eq!(ledger.blocks_from(0).count(), 6); // genesis..=5
        assert_eq!(ledger.blocks_from(3).count(), 3);
        assert_eq!(ledger.blocks_from(3).next().unwrap().header.height, 3);
        assert_eq!(ledger.blocks_from(99).count(), 0);

        // Prune everything below height 4: 0..=3 dropped, 4..=5 kept.
        assert_eq!(ledger.prune_below(4), 4);
        assert_eq!(ledger.base_height(), 4);
        assert!(ledger.block(3).is_none());
        assert_eq!(ledger.block(4).unwrap().header.height, 4);
        assert_eq!(ledger.blocks_from(0).count(), 2);
        assert_eq!(ledger.tip().header.height, 5);

        // Pruning past the tip always keeps the tip block.
        assert_eq!(ledger.prune_below(100), 1);
        assert_eq!(ledger.base_height(), 5);
        assert_eq!(ledger.tip().header.height, 5);
        assert_eq!(ledger.blocks_from(5).count(), 1);

        // The pruned ledger still extends normally.
        grow_by_transfers(&mut ledger, &alice, bob.address(), 1);
        assert_eq!(ledger.height(), 6);
        assert_eq!(ledger.block(6).unwrap().header.height, 6);
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

    /// What history keeps of a receipt besides its index entry.
    #[test]
    fn an_outcome_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Outcome>(), 24);
    }

    /// A block of `txs` extending `parent`; history never executes or
    /// checks what it is handed, so nothing here is signed.
    fn child(parent: &Block, txs: Vec<SealedTx>) -> Block {
        let transactions = Body::from(txs);
        let header = Header {
            height: parent.header.height + 1,
            parent: parent.id(),
            tx_root: transactions.tree().root(),
            state_root: Hash256::ZERO,
            timestamp_ms: parent.header.timestamp_ms + 10,
            proposer: Address::from_seed(0),
            shard: ShardId::default(),
        };
        Block { header: header.into(), transactions, seal: Seal::Genesis }
    }

    /// A store that logs every block pushed after genesis and reads it
    /// back, with a snapshot floor the property moves.
    #[derive(Default)]
    struct LogStore {
        log: Vec<Block>,
        floor: u64,
    }

    impl BlockStore for LogStore {
        fn append(&mut self, block: &Block, _state: &WorldState) -> Result<(), StoreError> {
            self.log.push(block.clone());
            Ok(())
        }

        fn flush(&mut self) -> Result<(), StoreError> {
            Ok(())
        }

        fn read_block(&self, height: u64) -> Result<Option<Block>, StoreError> {
            Ok(height.checked_sub(1).and_then(|i| self.log.get(i as usize)).cloned())
        }

        fn below_snapshot(&self) -> Range<u64> {
            1..self.floor.clamp(1, self.log.len() as u64 + 1)
        }
    }

    /// The plain model: every block ever pushed, with its receipts, and
    /// the two heights the rules turn on.
    struct Model {
        chain: Vec<(Block, Vec<Receipt>)>,
        /// Oldest retained height.
        base: u64,
        /// Height of the last restore (0 = none): receipts cover the
        /// blocks above it.
        restored: u64,
    }

    impl Model {
        fn tip(&self) -> u64 {
            self.chain.len() as u64 - 1
        }
    }

    /// A receipt whose output, events and error are each empty about half
    /// the time, so outcomes with and without their boxed part both occur;
    /// an empty error string is not a missing one.
    fn random_receipt(g: &mut Gen, tx_id: Hash256) -> Receipt {
        let ok = g.bool();
        let output = if g.bool() { Vec::new() } else { g.bytes(0, 24) };
        let events = (0..if g.bool() { 0 } else { g.usize_in(1, 3) })
            .map(|_| Event {
                contract: Address::from_seed(g.u64() % 4),
                topic: format!("topic-{}", g.u64() % 3),
                data: g.bytes(0, 8),
            })
            .collect();
        let error = (!ok).then(|| if g.bool() { String::new() } else { "failed".to_string() });
        Receipt { tx_id, ok, gas_used: g.u64() % 100, output, events, error }
    }

    fn push_random(
        g: &mut Gen,
        history: &mut History,
        store: Option<&mut LogStore>,
        model: &mut Model,
        nonce: &mut u64,
    ) -> Result<(), String> {
        let parent = &model.chain.last().expect("genesis").0;
        let mut txs = Vec::new();
        for _ in 0..g.usize_in(0, 3) {
            let payload = TxPayload::Transfer { to: Address::from_seed(2), amount: 1 };
            txs.push(SealedTx::from(Transaction::new(Address::from_seed(1), *nonce, payload, 100)));
            *nonce += 1;
        }
        let receipts: Vec<Receipt> = txs.iter().map(|tx| random_receipt(g, tx.id())).collect();
        let block = child(parent, txs);
        history.push(block.clone(), receipts.clone());
        if let Some(store) = store {
            store.append(&block, &WorldState::new()).map_err(|e| e.to_string())?;
            history.release_below(store.below_snapshot());
        }
        model.chain.push((block, receipts));
        Ok(())
    }

    /// With a store, a commit leaves decoded only the blocks from the
    /// store's floor (or the base, when higher) to the tip, and the base
    /// block.
    fn decoded_within_the_window(
        history: &History,
        store: Option<&LogStore>,
        model: &Model,
    ) -> Result<(), String> {
        let Some(store) = store else { return Ok(()) };
        let from = store.floor.max(model.base).min(model.tip());
        let most = (model.tip() - from) as usize + 2;
        let decoded = history.decoded_blocks();
        ensure!(decoded <= most, "{decoded} blocks decoded above floor {}", store.floor);
        Ok(())
    }

    fn matches_model(
        history: &History,
        store: Option<&dyn BlockStore>,
        model: &Model,
    ) -> Result<(), String> {
        let tip = model.tip();
        ensure_eq!(history.tip(), &model.chain[tip as usize].0);
        ensure_eq!(history.base_height(), model.base);
        for height in 0..=tip + 1 {
            let retained = (model.base..=tip).contains(&height);
            let want = retained.then(|| &model.chain[height as usize].0);
            ensure!(history.block_at(height, store) == want, "block_at({height})");
        }
        let mut stats = LedgerStats::default();
        for (height, (block, receipts)) in model.chain.iter().enumerate().skip(1) {
            let height = height as u64;
            let remembered = height > model.restored;
            if remembered {
                stats.blocks += 1;
            }
            for (index, exec) in receipts.iter().enumerate() {
                let id = exec.tx_id;
                if !remembered {
                    ensure!(history.locate_tx(&id).is_none(), "{id:?} outlived its restore");
                    ensure!(history.receipt(&id).is_none());
                    ensure!(history.tx_receipt(&id, store).is_none());
                    continue;
                }
                stats.transactions += 1;
                stats.gas_used += exec.gas_used;
                stats.failed += u64::from(!exec.ok);
                ensure_eq!(history.locate_tx(&id), Some((height, index)));
                ensure_eq!(history.receipt(&id), Some(exec.clone()));
                let want = (height >= model.base)
                    .then(|| TxReceipt::for_block(block, index, exec.clone()))
                    .flatten();
                ensure!(history.tx_receipt(&id, store) == want, "tx_receipt at height {height}");
            }
        }
        ensure_eq!(history.stats(), stats);
        Ok(())
    }

    /// Random pushes, prunes (up to tip + 2), restores at the tip and,
    /// in half the cases, snapshots of a store that reads blocks back,
    /// against a model that keeps everything: the readable range, the
    /// receipts that outlive pruning but not a restore, proofs only from
    /// readable blocks, and with a store no more decoded blocks after a
    /// commit than its snapshot window and the base block.
    #[test]
    fn history_matches_a_model_that_keeps_everything() {
        check("history matches the keep-everything model", CheckConfig::cases(64), |g| {
            let genesis = Block::genesis("history-model");
            let mut history = History::new(genesis.clone());
            let mut store = g.bool().then(LogStore::default);
            let mut model = Model { chain: vec![(genesis, Vec::new())], base: 0, restored: 0 };
            let mut nonce = 0;
            for _ in 0..g.usize_in(1, 40) {
                match g.usize_in(0, 6) {
                    0..=2 => {
                        push_random(g, &mut history, store.as_mut(), &mut model, &mut nonce)?;
                        decoded_within_the_window(&history, store.as_ref(), &model)?;
                    }
                    3 => {
                        let tip = model.tip();
                        let height = g.usize_in(0, tip as usize + 2) as u64;
                        let keep_from = height.min(tip);
                        let dropped = keep_from.saturating_sub(model.base);
                        ensure_eq!(history.prune_below(height), dropped as usize);
                        model.base = model.base.max(keep_from);
                    }
                    4 => {
                        history.reset_to(history.tip().clone());
                        model.base = model.tip();
                        model.restored = model.tip();
                    }
                    _ => {
                        if let Some(store) = store.as_mut() {
                            store.floor = model.tip();
                        }
                    }
                }
                let store = store.as_ref().map(|store| store as &dyn BlockStore);
                matches_model(&history, store, &model)?;
            }
            Ok(())
        });
    }
}
