//! Round-robin proof-of-authority consensus.
//!
//! The proposer for height `h` is `validators[h % n]`. The proposer
//! builds a candidate from its mempool, signs and broadcasts it; every
//! validator checks the proposal, broadcasts a vote, and commits once a
//! two-thirds quorum of votes for the same block id accumulates. This is
//! the consortium-chain model (cf. Hyperledger Fabric / EEA private
//! chains in paper §I) used as the default substrate everywhere else in
//! the reproduction.

use crate::block::{Block, Seal};
use crate::consensus::{two_thirds_quorum, Application, Engine, Outbox, WorkCounters};
use crate::hash::Hash256;
use crate::sig::{Address, AuthorityKey, AuthoritySignature, KeyRegistry};
use medchain_transport::{NodeId, Wire};
use std::collections::{BTreeMap, HashMap};

/// Wire messages of the PoA protocol.
// A proposal is moved once per hop and its body is already behind an
// `Arc`; boxing the block would add an allocation to save a memcpy.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PoaMsg {
    /// A signed block proposal for `height`.
    Proposal {
        /// Proposed block (unsealed).
        block: Block,
        /// Proposer signature over the header digest.
        sig: AuthoritySignature,
    },
    /// A validator's vote for a block id.
    Vote {
        /// Voted block height.
        height: u64,
        /// Voted block id.
        block_id: Hash256,
        /// Voter signature over the block id.
        sig: AuthoritySignature,
    },
    /// Catch-up probe from a lagging node: "I have up to `have`".
    SyncRequest {
        /// Sender's committed height.
        have: u64,
    },
    /// Sealed blocks answering a [`PoaMsg::SyncRequest`].
    SyncResponse {
        /// Contiguous sealed blocks starting at the requester's
        /// `have + 1`.
        blocks: Vec<Block>,
    },
}

medchain_runtime::impl_codec_enum!(PoaMsg {
    0 => Proposal { block, sig },
    1 => Vote { height, block_id, sig },
    2 => SyncRequest { have },
    3 => SyncResponse { blocks },
});

impl Wire for PoaMsg {
    fn wire_size(&self) -> usize {
        use medchain_runtime::codec::Encode;
        // A block knows its length from the lengths its transactions
        // were sealed with; only block-free messages are encoded to be
        // counted (1 = the variant tag, 4 = a list's count prefix).
        match self {
            PoaMsg::Proposal { block, sig } => 1 + block.wire_size() + sig.encoded().len(),
            PoaMsg::SyncResponse { blocks } => {
                1 + 4 + blocks.iter().map(Block::wire_size).sum::<usize>()
            }
            PoaMsg::Vote { .. } | PoaMsg::SyncRequest { .. } => self.encoded().len(),
        }
    }
}

const TICK: u64 = 0;

#[derive(Debug, Default)]
struct HeightState {
    block: Option<Block>,
    proposer_sig: Option<AuthoritySignature>,
    votes: HashMap<Hash256, BTreeMap<Address, AuthoritySignature>>,
    voted: bool,
}

/// Proof-of-authority engine for one validator.
#[derive(Debug)]
pub struct PoaEngine {
    node: NodeId,
    key: AuthorityKey,
    validators: Vec<Address>,
    registry: KeyRegistry,
    block_interval_ms: u64,
    heights: HashMap<u64, HeightState>,
    proposed_at: Option<u64>,
    last_tick_height: u64,
    work: WorkCounters,
}

impl PoaEngine {
    /// Creates the engine for `node`, whose key must be
    /// `validators[node.0]`.
    ///
    /// # Panics
    ///
    /// Panics if the key's address does not match its validator slot.
    pub fn new(
        node: NodeId,
        key: AuthorityKey,
        validators: Vec<Address>,
        registry: KeyRegistry,
        block_interval_ms: u64,
    ) -> PoaEngine {
        assert_eq!(validators[node.0], key.address(), "validator slot mismatch");
        PoaEngine {
            node,
            key,
            validators,
            registry,
            block_interval_ms,
            heights: HashMap::new(),
            proposed_at: None,
            last_tick_height: 0,
            work: WorkCounters::default(),
        }
    }

    fn proposer_for(&self, height: u64) -> Address {
        self.validators[(height % self.validators.len() as u64) as usize]
    }

    fn quorum(&self) -> usize {
        two_thirds_quorum(self.validators.len())
    }

    /// Builds a convenience cluster of `n` PoA validators.
    ///
    /// Returns the engines plus the shared registry and validator set.
    pub fn make_validators(
        n: usize,
        block_interval_ms: u64,
    ) -> (Vec<PoaEngine>, KeyRegistry, Vec<Address>) {
        let keys: Vec<AuthorityKey> = (0..n).map(|i| AuthorityKey::from_seed(i as u64)).collect();
        let mut registry = KeyRegistry::new();
        for k in &keys {
            registry.enroll(k);
        }
        let validators: Vec<Address> = keys.iter().map(AuthorityKey::address).collect();
        let engines = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                PoaEngine::new(
                    NodeId(i),
                    key,
                    validators.clone(),
                    registry.clone(),
                    block_interval_ms,
                )
            })
            .collect();
        (engines, registry, validators)
    }

    fn maybe_propose(&mut self, app: &mut dyn Application, out: &mut Outbox<PoaMsg>) {
        let next = app.height() + 1;
        if self.proposer_for(next) != self.key.address() || self.proposed_at == Some(next) {
            return;
        }
        self.proposed_at = Some(next);
        let block = app.make_block(self.key.address(), out.now_ms);
        let sig = self.key.sign(&block.id().0);
        self.work.signatures += 1;
        self.work.hashes += 1;
        // Deliver to self directly, then broadcast.
        self.accept_proposal(block.clone(), sig, app, out);
        out.broadcast(PoaMsg::Proposal { block, sig });
    }

    fn accept_proposal(
        &mut self,
        block: Block,
        sig: AuthoritySignature,
        app: &mut dyn Application,
        out: &mut Outbox<PoaMsg>,
    ) {
        let height = block.header.height;
        if height <= app.height() {
            return; // stale
        }
        self.work.verifications += 1;
        if sig.signer != self.proposer_for(height)
            || block.header.proposer != sig.signer
            || !self.registry.verify(&block.id().0, &sig)
        {
            return; // wrong or forged proposer
        }
        let entry = self.heights.entry(height).or_default();
        if entry.block.is_some() {
            return; // first valid proposal wins within a height
        }
        entry.block = Some(block);
        entry.proposer_sig = Some(sig);
        self.try_vote(height, app, out);
        self.try_commit(app, out);
    }

    fn try_vote(&mut self, height: u64, app: &mut dyn Application, out: &mut Outbox<PoaMsg>) {
        if height != app.height() + 1 {
            return; // only vote for the immediate next height
        }
        let Some(entry) = self.heights.get_mut(&height) else { return };
        if entry.voted {
            return;
        }
        let Some(block) = entry.block.clone() else { return };
        if !app.validate_block(&block) {
            return;
        }
        entry.voted = true;
        let block_id = block.id();
        let sig = self.key.sign(&block_id.0);
        self.work.signatures += 1;
        let vote = PoaMsg::Vote { height, block_id, sig };
        // Record own vote locally, then broadcast it.
        self.record_vote(height, block_id, sig);
        out.broadcast(vote);
    }

    fn record_vote(&mut self, height: u64, block_id: Hash256, sig: AuthoritySignature) {
        self.heights
            .entry(height)
            .or_default()
            .votes
            .entry(block_id)
            .or_default()
            .insert(sig.signer, sig);
    }

    fn try_commit(&mut self, app: &mut dyn Application, out: &mut Outbox<PoaMsg>) {
        loop {
            let next = app.height() + 1;
            let quorum = self.quorum();
            let Some(entry) = self.heights.get(&next) else { return };
            let Some(block) = entry.block.clone() else { return };
            let id = block.id();
            let Some(votes) = entry.votes.get(&id) else { return };
            if votes.len() < quorum {
                return;
            }
            let mut sealed = block;
            sealed.seal = Seal::Authority {
                proposer: entry.proposer_sig.expect("proposal recorded with signature"),
                votes: votes.values().copied().collect(),
            };
            if !app.commit_block(&sealed) {
                return;
            }
            self.heights.remove(&next);
            // Vote for a buffered next-height proposal if one is waiting;
            // our own next proposal happens on the next tick (bounded
            // stack: no propose→commit recursion within one event).
            self.try_vote(app.height() + 1, app, out);
        }
    }
}

impl PoaEngine {
    /// Verifies an authority seal: correct proposer signature and a
    /// two-thirds vote quorum from enrolled validators, all over the
    /// block id. Used when committing synced blocks, whose quorum
    /// evidence arrives in the seal rather than as live votes.
    fn verify_seal(&mut self, block: &Block) -> bool {
        let Seal::Authority { proposer, votes } = &block.seal else { return false };
        let id = block.id();
        self.work.verifications += 1;
        if proposer.signer != self.proposer_for(block.header.height)
            || !self.registry.verify(&id.0, proposer)
        {
            return false;
        }
        let mut signers = std::collections::BTreeSet::new();
        for vote in votes {
            self.work.verifications += 1;
            if self.registry.verify(&id.0, vote) {
                signers.insert(vote.signer);
            }
        }
        signers.len() >= self.quorum()
    }

    /// Applies synced blocks in order, verifying each seal.
    fn handle_sync_response(
        &mut self,
        blocks: Vec<Block>,
        app: &mut dyn Application,
        out: &mut Outbox<PoaMsg>,
    ) {
        for block in blocks {
            if block.header.height != app.height() + 1 {
                continue;
            }
            if !self.verify_seal(&block) || !app.commit_block(&block) {
                break;
            }
            self.heights.remove(&block.header.height);
        }
        // Fresh evidence may already be buffered for the next height.
        self.try_vote(app.height() + 1, app, out);
        self.try_commit(app, out);
    }
}

impl Engine for PoaEngine {
    type Msg = PoaMsg;

    fn node(&self) -> NodeId {
        self.node
    }

    fn start(&mut self, app: &mut dyn Application, out: &mut Outbox<PoaMsg>) {
        // A (re)start forgets any in-flight proposal so a healed node can
        // re-propose its height (peers keep the first proposal they saw).
        self.proposed_at = None;
        self.maybe_propose(app, out);
        out.set_timer_in(self.block_interval_ms, TICK);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: PoaMsg,
        app: &mut dyn Application,
        out: &mut Outbox<PoaMsg>,
    ) {
        match msg {
            PoaMsg::Proposal { block, sig } => self.accept_proposal(block, sig, app, out),
            PoaMsg::Vote { height, block_id, sig } => {
                if height <= app.height() {
                    return;
                }
                self.work.verifications += 1;
                if !self.registry.verify(&block_id.0, &sig) {
                    return;
                }
                self.record_vote(height, block_id, sig);
                self.try_commit(app, out);
            }
            PoaMsg::SyncRequest { have } => {
                if let Some(blocks) = super::sync_page(have, app) {
                    out.send(from, PoaMsg::SyncResponse { blocks });
                }
            }
            PoaMsg::SyncResponse { blocks } => self.handle_sync_response(blocks, app, out),
        }
    }

    fn on_timer(&mut self, token: u64, app: &mut dyn Application, out: &mut Outbox<PoaMsg>) {
        debug_assert_eq!(token, TICK);
        self.maybe_propose(app, out);
        self.try_vote(app.height() + 1, app, out);
        self.try_commit(app, out);
        // Stall detection: no progress since the previous tick means we
        // may have missed blocks (e.g. after a heal) — probe for catch-up.
        if app.height() == self.last_tick_height {
            out.broadcast(PoaMsg::SyncRequest { have: app.height() });
        }
        self.last_tick_height = app.height();
        out.set_timer_in(self.block_interval_ms, TICK);
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
    use medchain_transport::{FaultyTransport, SimTransport};

    fn cluster(n: usize) -> Cluster<PoaEngine, ChainApp> {
        let (engines, registry, validators) = PoaEngine::make_validators(n, 50);
        let apps = validators
            .iter()
            .map(|_| ChainApp::new("poa-test", registry.clone()))
            .collect();
        Cluster::new(engines, apps, 99)
    }

    #[test]
    fn empty_blocks_advance_all_nodes() {
        let mut c = cluster(4);
        let report = c.run_until_height(5, 60_000);
        assert!(report.reached, "cluster stalled: {report:?}");
        for r in &c.replicas {
            assert!(r.app.height() >= 5);
        }
    }

    #[test]
    fn single_validator_commits_alone() {
        let mut c = cluster(1);
        let report = c.run_until_height(3, 10_000);
        assert!(report.reached);
    }

    #[test]
    fn all_nodes_agree_on_block_ids() {
        let mut c = cluster(5);
        c.run_until_height(4, 60_000);
        let ids: Vec<Hash256> = c.replicas.iter().map(|r| r.app.tip_at(4)).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "divergent chains: {ids:?}");
    }

    #[test]
    fn proposers_rotate() {
        let mut c = cluster(3);
        c.run_until_height(6, 60_000);
        let proposers: Vec<Address> = (1..=6)
            .map(|h| c.replicas[0].app.ledger().block(h).unwrap().header.proposer)
            .collect();
        // Round-robin: consecutive proposers differ, pattern repeats mod 3.
        assert_ne!(proposers[0], proposers[1]);
        assert_eq!(proposers[0], proposers[3]);
        assert_eq!(proposers[1], proposers[4]);
    }

    #[test]
    fn committed_blocks_carry_quorum_seals() {
        let mut c = cluster(4);
        c.run_until_height(2, 60_000);
        let block = c.replicas[0].app.ledger().block(1).unwrap().clone();
        match block.seal {
            Seal::Authority { votes, .. } => assert!(votes.len() >= two_thirds_quorum(4)),
            other => panic!("expected authority seal, got {other:?}"),
        }
    }

    #[test]
    fn survives_minority_node_failure() {
        let (engines, registry, _) = PoaEngine::make_validators(4, 50);
        let apps = (0..4).map(|_| ChainApp::new("poa-test", registry.clone())).collect();
        let net = FaultyTransport::new(SimTransport::new(4, 99), 99);
        let mut c = Cluster::with_transport(engines, apps, net);
        c.run_until_height(1, 60_000);
        // Fail one non-essential validator: quorum of 3 of 4 remains
        // reachable, but round-robin skips stall when the failed node is
        // proposer — liveness holds because other proposers continue at
        // their heights. Node 3 proposes heights 3, 7, ...
        c.net.fail_node(NodeId(3));
        let report = c.run_until_height(2, 120_000);
        assert!(report.reached, "cluster should reach height 2 without node 3");
    }
}
