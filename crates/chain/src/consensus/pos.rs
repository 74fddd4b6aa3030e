//! Proof-of-stake slot-lottery consensus ("virtual mining").
//!
//! Reproduces the paper's §I observation: proof of stake removes the
//! energy waste of mining (one lottery hash per node per slot instead of
//! continuous grinding) **but remains duplicated computing** — every node
//! still validates and executes every transaction. Experiment E3 uses
//! both properties.
//!
//! Protocol: time is divided into slots. In each slot every node draws
//! `H(chain_seed ‖ slot ‖ address)`; draws under a stake-proportional
//! threshold make the node a leader. Leaders broadcast a signed proposal;
//! at the next slot boundary every node commits the valid proposal with
//! the lowest draw, which makes tie-breaking deterministic network-wide.

use crate::block::{Block, Seal};
use crate::consensus::{seeded_consortium, Application, Engine, Outbox, WorkCounters};
use crate::hash::Hash256;
use crate::sig::{Address, AuthorityKey, AuthoritySignature, KeyRegistry};
use medchain_transport::{NodeId, Wire};
use std::collections::HashMap;

/// Wire messages of the PoS protocol.
#[derive(Debug, Clone)]
pub enum PosMsg {
    /// A slot leader's proposal.
    Proposal {
        /// Slot in which leadership was won.
        slot: u64,
        /// The leader's lottery draw (lower wins ties).
        draw: u64,
        /// Proposed block.
        block: Block,
        /// Leader signature over the block id.
        sig: AuthoritySignature,
    },
}

medchain_runtime::impl_codec_enum!(PosMsg {
    0 => Proposal { slot, draw, block, sig },
});

impl Wire for PosMsg {
    fn wire_size(&self) -> usize {
        use medchain_runtime::codec::Encode;
        self.encoded().len()
    }
}

const SLOT_TICK: u64 = 0;

/// Proof-of-stake engine for one node.
#[derive(Debug)]
pub struct PosEngine {
    node: NodeId,
    key: AuthorityKey,
    registry: KeyRegistry,
    stakes: HashMap<Address, u64>,
    total_stake: u64,
    chain_seed: u64,
    slot_ms: u64,
    /// Expected number of leaders per slot (lottery tuning).
    target_leaders: f64,
    /// Candidate proposals per height, keyed for lowest-draw commit.
    pending: HashMap<u64, (u64, Block, AuthoritySignature)>,
    proposed_slot: Option<u64>,
    work: WorkCounters,
}

impl PosEngine {
    /// Creates a staker. `stakes` maps every participant to its stake.
    pub fn new(
        node: NodeId,
        key: AuthorityKey,
        registry: KeyRegistry,
        stakes: HashMap<Address, u64>,
        chain_seed: u64,
        slot_ms: u64,
        target_leaders: f64,
    ) -> PosEngine {
        let total_stake = stakes.values().sum::<u64>().max(1);
        PosEngine {
            node,
            key,
            registry,
            stakes,
            total_stake,
            chain_seed,
            slot_ms,
            target_leaders,
            pending: HashMap::new(),
            proposed_slot: None,
            work: WorkCounters::default(),
        }
    }

    /// Builds `n` stakers over [`seeded_consortium`] with the given
    /// stake distribution (uniform if `stakes` is `None`); returns the
    /// engines and the registry.
    pub fn make_stakers(
        n: usize,
        stakes: Option<Vec<u64>>,
        slot_ms: u64,
    ) -> (Vec<PosEngine>, KeyRegistry) {
        let (keys, registry) = seeded_consortium(n);
        let stake_values = stakes.unwrap_or_else(|| vec![100; n]);
        let stake_map: HashMap<Address, u64> = keys
            .iter()
            .zip(&stake_values)
            .map(|(k, s)| (k.address(), *s))
            .collect();
        let engines = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                PosEngine::new(
                    NodeId(i),
                    key,
                    registry.clone(),
                    stake_map.clone(),
                    0xc0ffee,
                    slot_ms,
                    1.2,
                )
            })
            .collect();
        (engines, registry)
    }

    /// The lottery draw of `who` at `slot`: a uniform `u64` derived from
    /// the chain seed.
    pub fn draw(&self, slot: u64, who: &Address) -> u64 {
        let mut bytes = Vec::with_capacity(36);
        bytes.extend_from_slice(&self.chain_seed.to_le_bytes());
        bytes.extend_from_slice(&slot.to_le_bytes());
        bytes.extend_from_slice(&who.0);
        let digest = Hash256::digest(&bytes);
        u64::from_le_bytes(digest.0[..8].try_into().expect("8 bytes"))
    }

    /// Stake-proportional winning threshold for `who`.
    pub fn threshold(&self, who: &Address) -> u64 {
        let stake = self.stakes.get(who).copied().unwrap_or(0);
        let fraction = stake as f64 / self.total_stake as f64 * self.target_leaders;
        (u64::MAX as f64 * fraction.min(1.0)) as u64
    }

    fn is_leader(&self, slot: u64, who: &Address) -> bool {
        self.draw(slot, who) < self.threshold(who)
    }

    fn slot_of(&self, now_ms: u64) -> u64 {
        now_ms / self.slot_ms
    }

    fn commit_best(&mut self, app: &mut dyn Application) {
        while let Some((_, block, sig)) = self.pending.remove(&(app.height() + 1)) {
            let draw = self.draw_of_block(&block, &sig);
            let mut sealed = block;
            sealed.seal = Seal::Stake {
                winner: sig,
                stake: self.stakes.get(&sig.signer).copied().unwrap_or(0),
            };
            let _ = draw;
            if !app.commit_block(&sealed) {
                break;
            }
        }
    }

    fn draw_of_block(&self, block: &Block, sig: &AuthoritySignature) -> u64 {
        self.draw(self.slot_of(block.header.timestamp_ms), &sig.signer)
    }
}

impl Engine for PosEngine {
    type Msg = PosMsg;

    fn node(&self) -> NodeId {
        self.node
    }

    fn start(&mut self, _app: &mut dyn Application, out: &mut Outbox<PosMsg>) {
        out.set_timer_in(self.slot_ms, SLOT_TICK);
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: PosMsg,
        app: &mut dyn Application,
        _out: &mut Outbox<PosMsg>,
    ) {
        let PosMsg::Proposal { slot, draw, block, sig } = msg;
        let height = block.header.height;
        if height <= app.height() {
            return;
        }
        // Verify leadership claim and signature.
        self.work.verifications += 1;
        self.work.hashes += 1;
        if self.draw(slot, &sig.signer) != draw
            || draw >= self.threshold(&sig.signer)
            || !self.registry.verify(&block.id().0, &sig)
        {
            return;
        }
        // Keep the lowest draw per height (deterministic tie-break).
        match self.pending.get(&height) {
            Some((best, _, _)) if *best <= draw => {}
            _ => {
                self.pending.insert(height, (draw, block, sig));
            }
        }
    }

    fn on_timer(&mut self, token: u64, app: &mut dyn Application, out: &mut Outbox<PosMsg>) {
        debug_assert_eq!(token, SLOT_TICK);
        // Slot boundary: first commit the best proposal from the previous
        // slot, then run this slot's lottery.
        self.commit_best(app);

        let slot = self.slot_of(out.now_ms);
        let me = self.key.address();
        self.work.hashes += 1; // one lottery draw — virtual mining
        if self.proposed_slot != Some(slot) && self.is_leader(slot, &me) {
            self.proposed_slot = Some(slot);
            let block = app.make_block(me, out.now_ms);
            let draw = self.draw(slot, &me);
            let sig = self.key.sign(&block.id().0);
            self.work.signatures += 1;
            // Record own proposal for the slot-boundary commit.
            let height = block.header.height;
            match self.pending.get(&height) {
                Some((best, _, _)) if *best <= draw => {}
                _ => {
                    self.pending.insert(height, (draw, block.clone(), sig));
                }
            }
            out.broadcast(PosMsg::Proposal { slot, draw, block, sig });
        }
        out.set_timer_in(self.slot_ms, SLOT_TICK);
    }

    fn work(&self) -> WorkCounters {
        self.work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::Cluster;
    use crate::node::ChainApp;

    fn cluster(n: usize, stakes: Option<Vec<u64>>) -> Cluster<PosEngine, ChainApp> {
        let (engines, registry) = PosEngine::make_stakers(n, stakes, 100);
        let apps = (0..n).map(|_| ChainApp::new("pos-test", registry.clone())).collect();
        Cluster::new(engines, apps, 5)
    }

    #[test]
    fn stakers_reach_height() {
        let mut c = cluster(4, None);
        let report = c.run_until_height(3, 600_000);
        assert!(report.reached, "stalled: {report:?}");
    }

    #[test]
    fn chains_agree() {
        let mut c = cluster(5, None);
        c.run_until_height(3, 600_000);
        let ids: Vec<Hash256> = c.replicas.iter().map(|r| r.app.tip_at(3)).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "forks: {ids:?}");
    }

    #[test]
    fn stake_weight_biases_leadership() {
        // One node holds 90% of stake: it should propose most blocks.
        let mut c = cluster(4, Some(vec![900, 30, 30, 40]));
        c.run_until_height(10, 3_600_000);
        let whale = AuthorityKey::from_seed(0).address();
        let whale_blocks = (1..=10)
            .filter(|h| c.replicas[0].app.ledger().block(*h).unwrap().header.proposer == whale)
            .count();
        assert!(whale_blocks >= 6, "whale proposed only {whale_blocks}/10");
    }

    #[test]
    fn virtual_mining_uses_orders_of_magnitude_fewer_hashes_than_pow() {
        let mut pos = cluster(4, None);
        let pos_report = pos.run_until_height(3, 600_000);
        assert!(pos_report.reached);
        // One draw per node per slot: bounded by nodes × slots.
        let slots = pos_report.elapsed_ms / 100 + 1;
        assert!(pos_report.work.hashes <= 4 * slots * 2);
    }

    #[test]
    fn seal_records_winner_stake() {
        let mut c = cluster(3, Some(vec![50, 100, 150]));
        c.run_until_height(1, 600_000);
        let block = c.replicas[0].app.ledger().block(1).unwrap();
        match &block.seal {
            Seal::Stake { stake, .. } => assert!([50, 100, 150].contains(stake)),
            other => panic!("expected stake seal, got {other:?}"),
        }
    }
}
