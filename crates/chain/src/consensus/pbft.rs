//! Practical Byzantine Fault Tolerance (three-phase) consensus.
//!
//! Classic PBFT over the simulated network: the view-`v` primary (the
//! [`Quorum`]'s leader of round `v`) pre-prepares a block for the next
//! height, replicas broadcast signed prepares then commits, and a block
//! is applied once an `n − f` commit quorum of members accumulates
//! (`f = (n-1)/3`; `2f + 1` when `n = 3f + 1`). A progress timeout
//! triggers a view change so the cluster survives primary crashes — the
//! crash-fault-tolerance property PoA's fixed rotation lacks.

use crate::block::{Block, Seal};
use crate::consensus::{
    seeded_consortium, Application, Engine, Outbox, Quorum, Tally, WorkCounters,
};
use crate::hash::Hash256;
use crate::sig::{AuthorityKey, AuthoritySignature, KeyRegistry};
use medchain_transport::{NodeId, Wire};
use std::collections::HashMap;

/// Wire messages of the PBFT protocol.
// A proposal is moved once per hop and its body is already behind an
// `Arc`; boxing the block would add an allocation to save a memcpy.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum PbftMsg {
    /// Primary's proposal for a height.
    PrePrepare {
        /// Proposal view.
        view: u64,
        /// Proposed block.
        block: Block,
        /// Primary signature over the block id.
        sig: AuthoritySignature,
    },
    /// Phase-2 prepare vote.
    Prepare {
        /// View.
        view: u64,
        /// Height.
        height: u64,
        /// Block id.
        digest: Hash256,
        /// Replica signature over the block id.
        sig: AuthoritySignature,
    },
    /// Phase-3 commit vote.
    Commit {
        /// View.
        view: u64,
        /// Height.
        height: u64,
        /// Block id.
        digest: Hash256,
        /// Replica signature over the block id.
        sig: AuthoritySignature,
    },
    /// Vote to move to `new_view` after a progress timeout.
    ViewChange {
        /// Proposed view.
        new_view: u64,
        /// Sender's committed height (so the new primary syncs).
        height: u64,
        /// Signature over the new-view number.
        sig: AuthoritySignature,
    },
    /// Catch-up probe from a lagging replica.
    SyncRequest {
        /// Sender's committed height.
        have: u64,
    },
    /// Sealed blocks answering a [`PbftMsg::SyncRequest`].
    SyncResponse {
        /// Contiguous committed blocks from `have + 1`.
        blocks: Vec<Block>,
    },
}

medchain_runtime::impl_codec_enum!(PbftMsg {
    0 => PrePrepare { view, block, sig },
    1 => Prepare { view, height, digest, sig },
    2 => Commit { view, height, digest, sig },
    3 => ViewChange { new_view, height, sig },
    4 => SyncRequest { have },
    5 => SyncResponse { blocks },
});

impl Wire for PbftMsg {
    fn wire_size(&self) -> usize {
        use medchain_runtime::codec::Encode;
        // As for `PoaMsg`: blocks are counted from their kept lengths.
        match self {
            PbftMsg::PrePrepare { block, sig, .. } => {
                1 + 8 + block.wire_size() + sig.encoded().len()
            }
            PbftMsg::SyncResponse { blocks } => {
                1 + 4 + blocks.iter().map(Block::wire_size).sum::<usize>()
            }
            _ => self.encoded().len(),
        }
    }
}

const TICK: u64 = 0;
const PROGRESS: u64 = 1;

#[derive(Debug, Default)]
struct HeightState {
    block: Option<Block>,
    prepares: Tally<Hash256>,
    commits: Tally<Hash256>,
    sent_prepare: bool,
    sent_commit: bool,
}

/// PBFT engine for one replica.
#[derive(Debug)]
pub struct PbftEngine {
    node: NodeId,
    key: AuthorityKey,
    quorum: Quorum,
    view: u64,
    block_interval_ms: u64,
    view_timeout_ms: u64,
    heights: HashMap<u64, HeightState>,
    view_votes: Tally<u64>,
    proposed_height: u64,
    last_proposal: Option<(u64, Block, AuthoritySignature)>,
    last_progress_height: u64,
    work: WorkCounters,
}

impl PbftEngine {
    /// Creates a replica engine. The quorum's member `node.0` must equal
    /// the key's address.
    ///
    /// # Panics
    ///
    /// Panics on a replica-slot mismatch.
    pub fn new(
        node: NodeId,
        key: AuthorityKey,
        quorum: Quorum,
        block_interval_ms: u64,
        view_timeout_ms: u64,
    ) -> PbftEngine {
        assert_eq!(quorum.members()[node.0], key.address(), "replica slot mismatch");
        PbftEngine {
            node,
            key,
            quorum,
            view: 0,
            block_interval_ms,
            view_timeout_ms,
            heights: HashMap::new(),
            view_votes: Tally::default(),
            proposed_height: 0,
            last_proposal: None,
            last_progress_height: 0,
            work: WorkCounters::default(),
        }
    }

    /// Builds `n` replica engines over [`seeded_consortium`]; returns
    /// the engines and the registry.
    pub fn make_replicas(
        n: usize,
        block_interval_ms: u64,
        view_timeout_ms: u64,
    ) -> (Vec<PbftEngine>, KeyRegistry) {
        let (keys, registry) = seeded_consortium(n);
        let quorum =
            Quorum::new(keys.iter().map(AuthorityKey::address).collect(), registry.clone());
        let engines = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| {
                PbftEngine::new(NodeId(i), key, quorum.clone(), block_interval_ms, view_timeout_ms)
            })
            .collect();
        (engines, registry)
    }

    fn is_primary(&self) -> bool {
        self.quorum.leader(self.view) == self.key.address()
    }

    fn maybe_propose(&mut self, app: &mut dyn Application, out: &mut Outbox<PbftMsg>) {
        let next = app.height() + 1;
        if !self.is_primary() {
            return;
        }
        if self.proposed_height >= next {
            // Re-broadcast the in-flight proposal so replicas that entered
            // the view late (or dropped the message) can still prepare.
            if let Some((view, block, sig)) = self.last_proposal.clone() {
                if view == self.view && block.header.height == next {
                    out.broadcast(PbftMsg::PrePrepare { view, block, sig });
                }
            }
            return;
        }
        self.proposed_height = next;
        let block = app.make_block(self.key.address(), out.now_ms);
        let sig = self.key.sign(&block.id().0);
        self.work.signatures += 1;
        let view = self.view;
        self.last_proposal = Some((view, block.clone(), sig));
        self.handle_preprepare(view, block.clone(), sig, app, out);
        out.broadcast(PbftMsg::PrePrepare { view, block, sig });
    }

    fn handle_preprepare(
        &mut self,
        view: u64,
        block: Block,
        sig: AuthoritySignature,
        app: &mut dyn Application,
        out: &mut Outbox<PbftMsg>,
    ) {
        if view != self.view {
            return;
        }
        let height = block.header.height;
        if height <= app.height() {
            return;
        }
        self.work.verifications += 1;
        if sig.signer != self.quorum.leader(view) || !self.quorum.admits(&block.id().0, &sig) {
            return;
        }
        let entry = self.heights.entry(height).or_default();
        if entry.block.is_some() {
            return;
        }
        entry.block = Some(block);
        self.advance(height, app, out);
    }

    /// Runs the prepare → commit → apply ladder for `height` as far as
    /// current evidence allows.
    fn advance(&mut self, height: u64, app: &mut dyn Application, out: &mut Outbox<PbftMsg>) {
        // Phase 2: prepare once we hold a valid pre-prepared block for the
        // immediate next height.
        if height == app.height() + 1 {
            let should_prepare = {
                let Some(entry) = self.heights.get(&height) else { return };
                !entry.sent_prepare && entry.block.is_some()
            };
            if should_prepare {
                let block = self
                    .heights
                    .get(&height)
                    .and_then(|e| e.block.clone())
                    .expect("checked above");
                if app.validate_block(&block) {
                    let digest = block.id();
                    let sig = self.key.sign(&digest.0);
                    self.work.signatures += 1;
                    let view = self.view;
                    let entry = self.heights.get_mut(&height).expect("present");
                    entry.sent_prepare = true;
                    entry.prepares.add(digest, sig);
                    out.broadcast(PbftMsg::Prepare { view, height, digest, sig });
                }
            }
        }

        // Phase 3: commit once prepared with a quorum.
        let quorum = self.quorum.threshold();
        let commit_digest = self.heights.get(&height).and_then(|entry| {
            if entry.sent_commit || !entry.sent_prepare {
                return None;
            }
            let digest = entry.block.as_ref()?.id();
            (entry.prepares.count(&digest) >= quorum).then_some(digest)
        });
        if let Some(digest) = commit_digest {
            let sig = self.key.sign(&digest.0);
            self.work.signatures += 1;
            let view = self.view;
            let entry = self.heights.get_mut(&height).expect("present");
            entry.sent_commit = true;
            entry.commits.add(digest, sig);
            out.broadcast(PbftMsg::Commit { view, height, digest, sig });
        }

        // Apply once committed with a quorum.
        let apply = self.heights.get(&height).and_then(|entry| {
            let block = entry.block.as_ref()?;
            let digest = block.id();
            (entry.commits.count(&digest) >= quorum && height == app.height() + 1).then(|| {
                let mut sealed = block.clone();
                sealed.seal =
                    Seal::Pbft { view: self.view, commits: entry.commits.signatures(&digest) };
                sealed
            })
        });
        if let Some(sealed) = apply {
            if app.commit_block(&sealed) {
                self.heights.remove(&height);
                self.last_progress_height = app.height();
                // Buffered evidence for the next height may now apply; our
                // own next proposal waits for the tick timer (bounded
                // stack: no propose→apply recursion within one event).
                if self.heights.contains_key(&(height + 1)) {
                    self.advance(height + 1, app, out);
                }
            }
        }
    }

    fn enter_view(&mut self, view: u64, app: &mut dyn Application, out: &mut Outbox<PbftMsg>) {
        self.view = view;
        // Forget un-applied phase state; the new primary re-proposes.
        self.heights.clear();
        self.proposed_height = app.height();
        self.maybe_propose(app, out);
    }
}

impl Engine for PbftEngine {
    type Msg = PbftMsg;

    fn node(&self) -> NodeId {
        self.node
    }

    fn start(&mut self, app: &mut dyn Application, out: &mut Outbox<PbftMsg>) {
        self.maybe_propose(app, out);
        out.set_timer_in(self.block_interval_ms, TICK);
        out.set_timer_in(self.view_timeout_ms, PROGRESS);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: PbftMsg,
        app: &mut dyn Application,
        out: &mut Outbox<PbftMsg>,
    ) {
        let is_commit = matches!(msg, PbftMsg::Commit { .. });
        match msg {
            PbftMsg::PrePrepare { view, block, sig } => {
                self.handle_preprepare(view, block, sig, app, out)
            }
            PbftMsg::Prepare { view, height, digest, sig }
            | PbftMsg::Commit { view, height, digest, sig } => {
                if view != self.view || height <= app.height() {
                    return;
                }
                self.work.verifications += 1;
                if !self.quorum.admits(&digest.0, &sig) {
                    return;
                }
                let entry = self.heights.entry(height).or_default();
                if is_commit { &mut entry.commits } else { &mut entry.prepares }.add(digest, sig);
                self.advance(height, app, out);
            }
            PbftMsg::SyncRequest { have } => {
                if let Some(blocks) = super::sync_page(have, app) {
                    out.send(from, PbftMsg::SyncResponse { blocks });
                }
            }
            PbftMsg::SyncResponse { blocks } => {
                let kind = |seal: &Seal| matches!(seal, Seal::Pbft { .. });
                if self.quorum.commit_synced(blocks, kind, app, &mut self.work) {
                    self.heights.retain(|&height, _| height > app.height());
                    self.last_progress_height = app.height();
                }
            }
            PbftMsg::ViewChange { new_view, sig, .. } => {
                if new_view <= self.view {
                    return;
                }
                self.work.verifications += 1;
                if !self.quorum.admits(&new_view.to_le_bytes(), &sig) {
                    return;
                }
                if self.view_votes.add(new_view, sig) >= self.quorum.threshold() {
                    self.enter_view(new_view, app, out);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, app: &mut dyn Application, out: &mut Outbox<PbftMsg>) {
        match token {
            TICK => {
                self.maybe_propose(app, out);
                out.set_timer_in(self.block_interval_ms, TICK);
            }
            PROGRESS => {
                if app.height() == self.last_progress_height {
                    // Maybe we just missed blocks (e.g. healed after a
                    // crash): probe for catch-up before forcing a view
                    // change.
                    out.broadcast(PbftMsg::SyncRequest { have: app.height() });
                    // No progress in a full timeout window: vote to change view.
                    let new_view = self.view + 1;
                    let sig = self.key.sign(&new_view.to_le_bytes());
                    self.work.signatures += 1;
                    self.view_votes.add(new_view, sig);
                    out.broadcast(PbftMsg::ViewChange {
                        new_view,
                        height: app.height(),
                        sig,
                    });
                }
                self.last_progress_height = app.height();
                out.set_timer_in(self.view_timeout_ms, PROGRESS);
            }
            _ => {}
        }
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
    use medchain_transport::{FaultyTransport, SimTransport, Transport};

    fn cluster(n: usize) -> Cluster<PbftEngine, ChainApp> {
        let (engines, registry) = PbftEngine::make_replicas(n, 50, 2_000);
        let apps = (0..n).map(|_| ChainApp::new("pbft-test", registry.clone())).collect();
        Cluster::new(engines, apps, 7)
    }

    #[test]
    fn four_replicas_reach_height() {
        let mut c = cluster(4);
        let report = c.run_until_height(5, 120_000);
        assert!(report.reached, "stalled: {report:?}");
    }

    #[test]
    fn replicas_agree() {
        let mut c = cluster(7);
        c.run_until_height(3, 120_000);
        let ids: Vec<Hash256> = c.replicas.iter().map(|r| r.app.tip_at(3)).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn seal_carries_commit_quorum() {
        let mut c = cluster(4);
        c.run_until_height(1, 120_000);
        let block = c.replicas[1].app.ledger().block(1).unwrap().clone();
        // Block-carrying messages count their bytes from kept lengths;
        // the count must still be the encoded length.
        use medchain_runtime::codec::Encode;
        let sig = AuthorityKey::from_seed(0).sign(&block.id().0);
        for msg in [
            PbftMsg::PrePrepare { view: 3, block: block.clone(), sig },
            PbftMsg::SyncResponse { blocks: vec![block.clone(), block.clone()] },
            PbftMsg::SyncRequest { have: 9 },
        ] {
            assert_eq!(msg.wire_size(), msg.encoded().len());
        }
        match block.seal {
            Seal::Pbft { commits, .. } => assert!(commits.len() >= 3),
            other => panic!("expected pbft seal, got {other:?}"),
        }
    }

    #[test]
    fn view_change_survives_primary_crash() {
        let (engines, registry) = PbftEngine::make_replicas(4, 50, 2_000);
        let apps = (0..4).map(|_| ChainApp::new("pbft-test", registry.clone())).collect();
        let net = FaultyTransport::new(SimTransport::new(4, 7), 7);
        let mut c = Cluster::with_transport(engines, apps, net);
        c.run_until_height(2, 120_000);
        // Crash the view-0 primary (node 0). Progress stalls, replicas
        // vote a view change, node 1 takes over.
        c.net.fail_node(NodeId(0));
        let report = c.run_until_height(4, 600_000);
        assert!(report.reached, "view change failed: {report:?}");
        for (i, r) in c.replicas.iter().enumerate() {
            if i != 0 {
                assert!(r.app.height() >= 4);
            }
        }
    }

    #[test]
    fn pbft_message_complexity_is_quadratic() {
        let mut small = cluster(4);
        small.run_until_height(3, 120_000);
        let per_block_small = small.net.stats().sent as f64 / 3.0;
        let mut large = cluster(8);
        large.run_until_height(3, 120_000);
        let per_block_large = large.net.stats().sent as f64 / 3.0;
        // Doubling replicas should roughly quadruple traffic (O(n^2)).
        let ratio = per_block_large / per_block_small;
        assert!(ratio > 2.5, "expected quadratic growth, ratio {ratio}");
    }
}
