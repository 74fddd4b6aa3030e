//! Proof-of-work consensus with real hash grinding.
//!
//! Every miner repeatedly hashes candidate headers; the winning nonce is
//! broadcast and the longest chain wins. Difficulty is kept low enough to
//! run on a laptop, but the hashes are *real* SHA-256 evaluations and are
//! counted per node — the input to experiment E3's energy model, which
//! reproduces the paper's Digiconomist-based waste argument (§I).
//!
//! Fork policy: first-seen per height; competing blocks are dropped.
//! Deep reorganisations are out of scope for the simulation (the
//! experiments use LAN latencies and calibrated difficulty where forks
//! are rare).

use crate::block::{Block, Seal};
use crate::consensus::{Application, Engine, Outbox, WorkCounters};
use crate::sig::AuthorityKey;
use medchain_transport::{NodeId, Wire};
use std::collections::HashMap;

/// Wire messages of the PoW protocol.
#[derive(Debug, Clone)]
pub enum PowMsg {
    /// A newly mined block.
    NewBlock(Block),
}

medchain_runtime::impl_codec_enum!(PowMsg {
    0 => NewBlock(block),
});

impl Wire for PowMsg {
    fn wire_size(&self) -> usize {
        use medchain_runtime::codec::Encode;
        self.encoded().len()
    }
}

const MINE_TICK: u64 = 0;

/// Proof-of-work miner for one node.
#[derive(Debug)]
pub struct PowEngine {
    node: NodeId,
    key: AuthorityKey,
    difficulty_bits: u32,
    /// Simulated hash rate in hashes per second.
    hashrate: u64,
    /// Length of one mining slot in simulated milliseconds.
    slot_ms: u64,
    candidate: Option<Block>,
    next_nonce: u64,
    buffered: HashMap<u64, Block>,
    work: WorkCounters,
}

impl PowEngine {
    /// Creates a miner.
    ///
    /// `difficulty_bits` is the required number of leading zero bits;
    /// expected work per block is `2^difficulty_bits` hashes split across
    /// all miners.
    pub fn new(
        node: NodeId,
        key: AuthorityKey,
        difficulty_bits: u32,
        hashrate: u64,
        slot_ms: u64,
    ) -> PowEngine {
        PowEngine {
            node,
            key,
            difficulty_bits,
            hashrate,
            slot_ms,
            candidate: None,
            next_nonce: 0,
            buffered: HashMap::new(),
            work: WorkCounters::default(),
        }
    }

    /// Builds `n` miners with equal hash rate.
    pub fn make_miners(
        n: usize,
        difficulty_bits: u32,
        hashrate: u64,
        slot_ms: u64,
    ) -> Vec<PowEngine> {
        (0..n)
            .map(|i| {
                PowEngine::new(
                    NodeId(i),
                    AuthorityKey::from_seed(i as u64),
                    difficulty_bits,
                    hashrate,
                    slot_ms,
                )
            })
            .collect()
    }

    /// Total hash evaluations performed by this miner.
    pub fn hashes(&self) -> u64 {
        self.work.hashes
    }

    fn refresh_candidate(&mut self, app: &mut dyn Application, now_ms: u64) {
        let needs_new = match &self.candidate {
            Some(c) => c.header.height != app.height() + 1 || c.header.parent != app.tip_id(),
            None => true,
        };
        if needs_new {
            self.candidate = Some(app.make_block(self.key.address(), now_ms));
            self.next_nonce = 0;
        }
    }

    fn mine_slot(&mut self, app: &mut dyn Application, out: &mut Outbox<PowMsg>) {
        self.refresh_candidate(app, out.now_ms);
        let attempts = (self.hashrate * self.slot_ms / 1000).max(1);
        let candidate = self.candidate.clone().expect("refreshed above");
        for _ in 0..attempts {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            self.work.hashes += 1;
            if candidate.header.pow_digest(nonce).leading_zero_bits() >= self.difficulty_bits {
                let mut sealed = candidate;
                sealed.seal = Seal::Work { nonce, difficulty_bits: self.difficulty_bits };
                if app.commit_block(&sealed) {
                    out.broadcast(PowMsg::NewBlock(sealed));
                    self.candidate = None;
                }
                return;
            }
        }
    }

    fn verify_seal(&mut self, block: &Block) -> bool {
        self.work.hashes += 1;
        match block.seal {
            Seal::Work { nonce, difficulty_bits } => {
                difficulty_bits >= self.difficulty_bits
                    && block.header.pow_digest(nonce).leading_zero_bits() >= difficulty_bits
            }
            _ => false,
        }
    }

    fn try_accept(&mut self, block: Block, app: &mut dyn Application) {
        let height = block.header.height;
        if height <= app.height() {
            return;
        }
        if height == app.height() + 1 && block.header.parent == app.tip_id() {
            if app.validate_block(&block) && app.commit_block(&block) {
                self.candidate = None;
                // A buffered successor may now connect.
                while let Some(next) = self.buffered.remove(&(app.height() + 1)) {
                    if !(next.header.parent == app.tip_id()
                        && app.validate_block(&next)
                        && app.commit_block(&next))
                    {
                        break;
                    }
                }
            }
        } else {
            // Gap or competing branch: keep the first block seen per height.
            self.buffered.entry(height).or_insert(block);
        }
    }
}

impl Engine for PowEngine {
    type Msg = PowMsg;

    fn node(&self) -> NodeId {
        self.node
    }

    fn start(&mut self, _app: &mut dyn Application, out: &mut Outbox<PowMsg>) {
        // Desynchronise slot boundaries slightly by node index.
        out.set_timer_in(self.slot_ms + self.node.0 as u64 % 7, MINE_TICK);
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: PowMsg,
        app: &mut dyn Application,
        _out: &mut Outbox<PowMsg>,
    ) {
        match msg {
            PowMsg::NewBlock(block) => {
                if self.verify_seal(&block) {
                    self.try_accept(block, app);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, app: &mut dyn Application, out: &mut Outbox<PowMsg>) {
        debug_assert_eq!(token, MINE_TICK);
        self.mine_slot(app, out);
        out.set_timer_in(self.slot_ms, MINE_TICK);
    }

    fn work(&self) -> WorkCounters {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{seeded_consortium, Cluster};
    use crate::node::ChainApp;

    fn cluster(n: usize, difficulty_bits: u32) -> Cluster<PowEngine, ChainApp> {
        let engines = PowEngine::make_miners(n, difficulty_bits, 200_000, 100);
        let (_, registry) = seeded_consortium(n);
        let apps = (0..n).map(|_| ChainApp::new("pow-test", registry.clone())).collect();
        Cluster::new(engines, apps, 21)
    }

    #[test]
    fn miners_find_and_propagate_blocks() {
        let mut c = cluster(3, 12);
        let report = c.run_until_height(3, 600_000);
        assert!(report.reached, "mining stalled: {report:?}");
    }

    #[test]
    fn committed_blocks_have_valid_seals() {
        let mut c = cluster(2, 10);
        c.run_until_height(2, 600_000);
        for h in 1..=2 {
            let block = c.replicas[0].app.ledger().block(h).unwrap();
            match block.seal {
                Seal::Work { nonce, difficulty_bits } => {
                    assert!(
                        block.header.pow_digest(nonce).leading_zero_bits() >= difficulty_bits
                    );
                }
                ref other => panic!("expected work seal, got {other:?}"),
            }
        }
    }

    #[test]
    fn hash_work_scales_with_difficulty() {
        let mut easy = cluster(2, 8);
        let easy_report = easy.run_until_height(3, 600_000);
        let mut hard = cluster(2, 13);
        let hard_report = hard.run_until_height(3, 3_600_000);
        assert!(easy_report.reached && hard_report.reached);
        assert!(
            hard_report.work.hashes > easy_report.work.hashes * 4,
            "difficulty 13 should need ≫ hashes than 8: {} vs {}",
            hard_report.work.hashes,
            easy_report.work.hashes
        );
    }

    #[test]
    fn total_work_grows_with_miner_count() {
        // The duplicated-computing claim: more miners burn more total
        // hashes for the same chain height.
        let mut few = cluster(1, 11);
        let few_report = few.run_until_height(2, 3_600_000);
        let mut many = cluster(6, 11);
        let many_report = many.run_until_height(2, 3_600_000);
        assert!(few_report.reached && many_report.reached);
        assert!(many_report.work.hashes > few_report.work.hashes);
    }
}

#[cfg(test)]
mod fork_tests {
    use super::*;
    use crate::consensus::{Application, Outbox};
    use crate::node::ChainApp;
    use crate::sig::KeyRegistry;

    /// Two competing valid blocks at the same height: first-seen wins,
    /// the loser is dropped, and the node never rolls back.
    #[test]
    fn competing_blocks_keep_the_first_seen() {
        let key_a = AuthorityKey::from_seed(1);
        let key_b = AuthorityKey::from_seed(2);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key_a);
        registry.enroll(&key_b);
        let difficulty = 4u32; // trivially minable in-test
        let mut engine = PowEngine::new(NodeId(0), key_a.clone(), difficulty, 1_000, 100);
        let mut app = ChainApp::new("fork-test", registry.clone());

        // Mine two competing height-1 blocks (different proposers ⇒
        // different ids) with valid seals.
        let mine = |proposer: &AuthorityKey, app: &ChainApp| {
            let mut other = ChainApp::new("fork-test", registry.clone());
            assert_eq!(other.tip_id(), app.tip_id());
            let candidate = other.make_block(proposer.address(), 10);
            let mut nonce = 0u64;
            loop {
                if candidate.header.pow_digest(nonce).leading_zero_bits() >= difficulty {
                    let mut sealed = candidate;
                    sealed.seal = Seal::Work { nonce, difficulty_bits: difficulty };
                    return sealed;
                }
                nonce += 1;
            }
        };
        let block_a = mine(&key_a, &app);
        let block_b = mine(&key_b, &app);
        assert_ne!(block_a.id(), block_b.id());

        let mut out = Outbox::new(0);
        engine.on_message(NodeId(1), PowMsg::NewBlock(block_a.clone()), &mut app, &mut out);
        assert_eq!(app.height(), 1);
        let tip = app.tip_id();
        engine.on_message(NodeId(2), PowMsg::NewBlock(block_b), &mut app, &mut out);
        assert_eq!(app.height(), 1, "no double commit");
        assert_eq!(app.tip_id(), tip, "first-seen block retained");
    }

    /// A block with an invalid proof is rejected outright.
    #[test]
    fn invalid_seal_is_rejected() {
        let key = AuthorityKey::from_seed(1);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let mut engine = PowEngine::new(NodeId(0), key.clone(), 24, 1_000, 100);
        let mut app = ChainApp::new("seal-test", registry.clone());
        let mut other = ChainApp::new("seal-test", registry);
        let mut forged = other.make_block(key.address(), 10);
        forged.seal = Seal::Work { nonce: 0, difficulty_bits: 24 };
        let mut out = Outbox::new(0);
        engine.on_message(NodeId(1), PowMsg::NewBlock(forged), &mut app, &mut out);
        assert_eq!(app.height(), 0, "forged proof must not commit");
    }
}
