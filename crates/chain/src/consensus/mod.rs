//! Consensus engines and the deterministic cluster harness.
//!
//! Four engines are provided, matching the mechanisms discussed in the
//! paper's introduction:
//!
//! * [`poa::PoaEngine`] — round-robin proof-of-authority with vote
//!   quorums; the realistic choice for a permissioned hospital consortium.
//! * [`pbft::PbftEngine`] — three-phase PBFT with view change.
//! * [`pow::PowEngine`] — proof-of-work with real hash grinding at low
//!   difficulty, so the energy experiment counts actual hashes.
//! * [`pos::PosEngine`] — "proof of stake" virtual-mining lottery
//!   (paper §I's energy fix that is *still* duplicated computing).
//!
//! The two voting engines, PoA and PBFT, share one [`Quorum`]: the
//! committee's members, one threshold rule and one certificate check,
//! so a signature counts only if a member made it.
//!
//! Engines are message-driven state machines running over any
//! [`Transport`] — the deterministic [`SimTransport`] simulator by
//! default, or real TCP sockets via
//! [`TcpTransport`](medchain_transport::TcpTransport), either one
//! optionally wrapped in a
//! [`FaultyTransport`](medchain_transport::FaultyTransport) for crashes,
//! partitions and loss; the [`Cluster`] harness drives any engine to a
//! target height and reports traffic, latency, and work counters.

pub mod pbft;
pub mod poa;
pub mod pos;
pub mod pow;

use crate::block::{Block, Seal};
use crate::hash::Hash256;
use crate::sig::{Address, AuthorityKey, AuthoritySignature, KeyRegistry};
use medchain_transport::{Event, NodeId, SimTransport, Transport, Wire};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;

/// The ledger-facing side of a consensus node: the engine decides *when*
/// to produce and commit blocks, the application decides *what* they
/// contain and whether they are valid.
pub trait Application {
    /// Current committed height.
    fn height(&self) -> u64;

    /// Digest of the current tip block.
    fn tip_id(&self) -> Hash256;

    /// Builds an unsealed candidate block extending the tip.
    fn make_block(&mut self, proposer: Address, now_ms: u64) -> Block;

    /// Structural validation of a proposed block (parent linkage, height,
    /// body commitment, transaction signatures). Full execution happens
    /// at commit.
    fn validate_block(&self, block: &Block) -> bool;

    /// Executes and commits a sealed block. Returns `false` if the block
    /// fails execution-level validation.
    fn commit_block(&mut self, block: &Block) -> bool;

    /// Returns the sealed, committed block at `height`, if any — used by
    /// catch-up (sync) protocols to serve lagging peers.
    fn sealed_block(&self, height: u64) -> Option<Block>;
}

/// Cryptographic/computation work performed by an engine, input to the
/// energy model (experiment E3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Hash evaluations (PoW grinding, lottery draws, digests).
    pub hashes: u64,
    /// Signatures produced.
    pub signatures: u64,
    /// Signatures verified.
    pub verifications: u64,
}

impl WorkCounters {
    /// Adds another counter set.
    pub fn merge(&mut self, other: WorkCounters) {
        self.hashes += other.hashes;
        self.signatures += other.signatures;
        self.verifications += other.verifications;
    }
}

/// Buffered outbound actions produced while handling one event.
#[derive(Debug)]
pub struct Outbox<M> {
    /// Logical time at which the handler ran.
    pub now_ms: u64,
    sends: Vec<(NodeId, M)>,
    broadcasts: Vec<M>,
    timers: Vec<(u64, u64)>,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox stamped at `now_ms`.
    pub fn new(now_ms: u64) -> Outbox<M> {
        Outbox { now_ms, sends: Vec::new(), broadcasts: Vec::new(), timers: Vec::new() }
    }

    /// Queues a unicast.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Queues a broadcast to all other nodes.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcasts.push(msg);
    }

    /// Schedules a timer `delay_ms` from now.
    pub fn set_timer_in(&mut self, delay_ms: u64, token: u64) {
        self.timers.push((self.now_ms + delay_ms, token));
    }
}

/// A message-driven consensus state machine.
pub trait Engine {
    /// Wire message type exchanged between replicas.
    type Msg: Clone + Wire;

    /// This engine's node id.
    fn node(&self) -> NodeId;

    /// Called once at simulation start.
    fn start(&mut self, app: &mut dyn Application, out: &mut Outbox<Self::Msg>);

    /// Handles an incoming message.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        app: &mut dyn Application,
        out: &mut Outbox<Self::Msg>,
    );

    /// Handles a timer the engine set earlier.
    fn on_timer(&mut self, token: u64, app: &mut dyn Application, out: &mut Outbox<Self::Msg>);

    /// Work performed so far.
    fn work(&self) -> WorkCounters;
}

/// One replica: engine plus its application.
#[derive(Debug)]
pub struct Replica<E, A> {
    /// Consensus state machine.
    pub engine: E,
    /// Ledger-facing application.
    pub app: A,
}

/// Result of driving a cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Logical time when the run stopped.
    pub elapsed_ms: u64,
    /// Whether the target predicate was reached before `max_time_ms`.
    pub reached: bool,
    /// Aggregate work across all replicas.
    pub work: WorkCounters,
}

/// Harness driving `N` replicas over any [`Transport`].
///
/// The transport parameter defaults to the deterministic simulator, so
/// `Cluster<PoaEngine, ChainApp>` and [`Cluster::new`] keep their
/// historical meaning: logical time, seeded latency, bit-reproducible
/// runs. [`Cluster::with_transport`] accepts any other transport — real
/// TCP sockets, or the fault-injecting wrapper around either — and the
/// harness drives the same engines unchanged.
pub struct Cluster<E: Engine, A, T = SimTransport<<E as Engine>::Msg>> {
    /// The network fabric (public for latency/fault configuration).
    pub net: T,
    /// The replicas (public for inspection between runs).
    pub replicas: Vec<Replica<E, A>>,
    started: bool,
    metrics: medchain_runtime::metrics::Metrics,
    reported_work: WorkCounters,
    reported_height: u64,
}

impl<E: Engine, A: fmt::Debug, T> fmt::Debug for Cluster<E, A, T>
where
    E: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.replicas)
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl<E, A> Cluster<E, A>
where
    E: Engine,
    A: Application,
{
    /// Builds a simulator-backed cluster from matching engine/application
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if `engines` and `apps` differ in length.
    pub fn new(engines: Vec<E>, apps: Vec<A>, seed: u64) -> Cluster<E, A> {
        let net = SimTransport::new(engines.len(), seed);
        Cluster::with_transport(engines, apps, net)
    }
}

impl<E, A, T> Cluster<E, A, T>
where
    E: Engine,
    A: Application,
    T: Transport<E::Msg>,
{
    /// Builds a cluster over an explicit transport (simulated, TCP, or
    /// fault-wrapped).
    ///
    /// # Panics
    ///
    /// Panics if `engines` and `apps` differ in length, or if the
    /// transport hosts a different number of nodes.
    pub fn with_transport(engines: Vec<E>, apps: Vec<A>, net: T) -> Cluster<E, A, T> {
        assert_eq!(engines.len(), apps.len(), "engine/app count mismatch");
        assert_eq!(engines.len(), net.node_count(), "engine/transport node count mismatch");
        let replicas = engines
            .into_iter()
            .zip(apps)
            .map(|(engine, app)| Replica { engine, app })
            .collect();
        Cluster {
            net,
            replicas,
            started: false,
            metrics: medchain_runtime::metrics::Metrics::noop(),
            reported_work: WorkCounters::default(),
            reported_height: 0,
        }
    }

    /// Installs a metrics handle; each [`Cluster::run_until`] call then
    /// emits `consensus.*` counters (rounds, messages, timers, and the
    /// [`WorkCounters`] deltas since the previous report).
    pub fn set_metrics(&mut self, metrics: medchain_runtime::metrics::Metrics) {
        self.metrics = metrics;
    }

    fn flush(net: &mut T, from: NodeId, out: Outbox<E::Msg>) {
        for (to, msg) in out.sends {
            net.send(from, to, msg);
        }
        for msg in out.broadcasts {
            net.broadcast(from, msg);
        }
        for (at, token) in out.timers {
            net.set_timer(from, at, token);
        }
    }

    /// Re-invokes `start` on one replica's engine. Timers owned by a
    /// failed node are suppressed by the fault layer, so a node healed
    /// with [`FaultyTransport::heal_node`](medchain_transport::FaultyTransport::heal_node)
    /// must be kicked to resume participating.
    pub fn kick(&mut self, node: NodeId) {
        let replica = &mut self.replicas[node.0];
        let mut out = Outbox::new(self.net.now_ms());
        replica.engine.start(&mut replica.app, &mut out);
        Self::flush(&mut self.net, node, out);
    }

    /// Drives the simulation until `pred` holds over the replicas or
    /// logical time exceeds `max_time_ms`.
    pub fn run_until(
        &mut self,
        mut pred: impl FnMut(&[Replica<E, A>]) -> bool,
        max_time_ms: u64,
    ) -> RunReport {
        if !self.started {
            self.started = true;
            for i in 0..self.replicas.len() {
                let replica = &mut self.replicas[i];
                let mut out = Outbox::new(self.net.now_ms());
                replica.engine.start(&mut replica.app, &mut out);
                Self::flush(&mut self.net, replica.engine.node(), out);
            }
        }
        let mut reached = pred(&self.replicas);
        let (mut messages, mut timers) = (0u64, 0u64);
        while !reached {
            let Some((at, event)) = self.net.next() else { break };
            if at > max_time_ms {
                break;
            }
            match event {
                Event::Message { from, to, msg } => {
                    messages += 1;
                    let replica = &mut self.replicas[to.0];
                    let mut out = Outbox::new(at);
                    replica.engine.on_message(from, msg, &mut replica.app, &mut out);
                    Self::flush(&mut self.net, to, out);
                }
                Event::Timer { node, token } => {
                    timers += 1;
                    let replica = &mut self.replicas[node.0];
                    let mut out = Outbox::new(at);
                    replica.engine.on_timer(token, &mut replica.app, &mut out);
                    Self::flush(&mut self.net, node, out);
                }
            }
            reached = pred(&self.replicas);
        }
        let mut work = WorkCounters::default();
        for replica in &self.replicas {
            work.merge(replica.engine.work());
        }
        if self.metrics.enabled() {
            self.metrics.counter("consensus.messages", messages);
            self.metrics.counter("consensus.timers", timers);
            let tip = self.replicas.iter().map(|r| r.app.height()).max().unwrap_or(0);
            self.metrics.counter("consensus.rounds", tip.saturating_sub(self.reported_height));
            self.reported_height = tip.max(self.reported_height);
            // WorkCounters are cumulative per engine; report only the
            // delta since the last run so repeated runs don't double-count.
            self.metrics
                .counter("consensus.hashes", work.hashes - self.reported_work.hashes);
            self.metrics
                .counter("consensus.signatures", work.signatures - self.reported_work.signatures);
            self.metrics.counter(
                "consensus.verifications",
                work.verifications - self.reported_work.verifications,
            );
            self.reported_work = work;
        }
        RunReport { elapsed_ms: self.net.now_ms(), reached, work }
    }

    /// Drives the cluster until every live replica reaches `height`.
    pub fn run_until_height(&mut self, height: u64, max_time_ms: u64) -> RunReport {
        let failed: Vec<bool> =
            (0..self.replicas.len()).map(|i| self.net.is_failed(NodeId(i))).collect();
        self.run_until(
            move |replicas| {
                replicas
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !failed[*i])
                    .all(|(_, r)| r.app.height() >= height)
            },
            max_time_ms,
        )
    }

    /// Gracefully releases the transport (socket transports join their
    /// threads; the simulator is a no-op).
    pub fn shutdown(&mut self) {
        self.net.shutdown();
    }
}

/// The one threshold rule of the voting engines: strictly more than two
/// thirds of `n`, which is `n − f` for the `f = (n − 1) / 3` faults `n`
/// members tolerate (PBFT's `2f + 1` when `n = 3f + 1`).
pub fn two_thirds_quorum(n: usize) -> usize {
    2 * n / 3 + 1
}

/// `n` members keyed from seeds `0..n`, all enrolled in one registry:
/// the consortium the engines' `make_*` builders, the experiments and
/// the tests run.
pub fn seeded_consortium(n: usize) -> (Vec<AuthorityKey>, KeyRegistry) {
    let keys: Vec<AuthorityKey> = (0..n).map(|i| AuthorityKey::from_seed(i as u64)).collect();
    let mut registry = KeyRegistry::new();
    for key in &keys {
        registry.enroll(key);
    }
    (keys, registry)
}

/// The voting members of a PoA or PBFT committee: who they are, in
/// leader order, their keys, and how many of them make a quorum. A
/// signature counts only if its signer is a member, so an enrolled
/// non-member (a gateway client, say) can neither vote nor seal.
#[derive(Debug, Clone)]
pub struct Quorum {
    members: Vec<Address>,
    registry: KeyRegistry,
    threshold: usize,
}

impl Quorum {
    /// The quorum of `members`, whose keys `registry` holds (anyone else
    /// it enrolls is not a member).
    pub fn new(members: Vec<Address>, registry: KeyRegistry) -> Quorum {
        let threshold = two_thirds_quorum(members.len());
        Quorum { members, registry, threshold }
    }

    /// The members, in leader order.
    pub(crate) fn members(&self) -> &[Address] {
        &self.members
    }

    /// Distinct member signatures a decision needs: [`two_thirds_quorum`].
    pub(crate) fn threshold(&self) -> usize {
        self.threshold
    }

    /// The leader of `round` (a PoA height, a PBFT view).
    pub(crate) fn leader(&self, round: u64) -> Address {
        self.members[(round % self.members.len() as u64) as usize]
    }

    /// Whether `sig` is a member's valid signature over `digest`.
    pub fn admits(&self, digest: &[u8], sig: &AuthoritySignature) -> bool {
        self.members.contains(&sig.signer) && self.registry.verify(digest, sig)
    }

    /// Whether at least [`two_thirds_quorum`] of the members, each
    /// counted once, signed `digest` validly among `sigs` — the check
    /// every reader of a commit certificate makes.
    pub fn certifies(&self, digest: &[u8], sigs: &[AuthoritySignature]) -> bool {
        let signers: BTreeSet<Address> =
            sigs.iter().filter(|sig| self.admits(digest, sig)).map(|sig| sig.signer).collect();
        signers.len() >= self.threshold
    }

    /// Whether `block`'s seal proves this quorum committed it: a PoA
    /// seal's proposer is the height's leader and its votes certify the
    /// block id; a PBFT seal's commits do.
    fn seals(&self, block: &Block, work: &mut WorkCounters) -> bool {
        let id = block.id();
        let sigs = match &block.seal {
            Seal::Authority { proposer, votes } => {
                work.verifications += 1;
                if proposer.signer != self.leader(block.header.height)
                    || !self.admits(&id.0, proposer)
                {
                    return false;
                }
                votes
            }
            Seal::Pbft { commits, .. } => commits,
            _ => return false,
        };
        work.verifications += sigs.len() as u64;
        self.certifies(&id.0, sigs)
    }

    /// Commits the synced `blocks` that extend the tip, in order, each
    /// only if `kind` is the engine's own seal and the quorum
    /// [seals](Quorum::seals) it; stops at the first that fails. Returns
    /// whether any block committed.
    fn commit_synced(
        &self,
        blocks: Vec<Block>,
        kind: fn(&Seal) -> bool,
        app: &mut dyn Application,
        work: &mut WorkCounters,
    ) -> bool {
        let from = app.height();
        for block in blocks {
            if block.header.height != app.height() + 1 {
                continue;
            }
            if !kind(&block.seal) || !self.seals(&block, work) || !app.commit_block(&block) {
                break;
            }
        }
        app.height() > from
    }
}

/// Member signatures gathered toward a quorum, at most one per signer
/// for each thing signed (a block id, a view).
#[derive(Debug)]
pub(crate) struct Tally<K> {
    sigs: HashMap<K, BTreeMap<Address, AuthoritySignature>>,
}

impl<K> Default for Tally<K> {
    fn default() -> Tally<K> {
        Tally { sigs: HashMap::new() }
    }
}

impl<K: Eq + Hash> Tally<K> {
    /// Records `sig` for `key` (a signer's repeat replaces its earlier
    /// signature) and returns how many signers `key` now has.
    pub(crate) fn add(&mut self, key: K, sig: AuthoritySignature) -> usize {
        let signers = self.sigs.entry(key).or_default();
        signers.insert(sig.signer, sig);
        signers.len()
    }

    /// How many signers `key` has.
    pub(crate) fn count(&self, key: &K) -> usize {
        self.sigs.get(key).map_or(0, BTreeMap::len)
    }

    /// `key`'s signatures in signer order: a seal's certificate.
    pub(crate) fn signatures(&self, key: &K) -> Vec<AuthoritySignature> {
        self.sigs.get(key).map_or_else(Vec::new, |signers| signers.values().copied().collect())
    }
}

/// Most sealed blocks one catch-up response carries.
const SYNC_PAGE_BLOCKS: u64 = 16;

/// The catch-up page for a lagging peer that holds `have` blocks: the
/// sealed blocks above `have`, at most [`SYNC_PAGE_BLOCKS`] of them, or
/// `None` when there is nothing to send. Each engine wraps the page in
/// its own response message.
fn sync_page(have: u64, app: &dyn Application) -> Option<Vec<Block>> {
    if have >= app.height() {
        return None;
    }
    let to = (have + SYNC_PAGE_BLOCKS).min(app.height());
    let blocks: Vec<Block> = (have + 1..=to).filter_map(|h| app.sealed_block(h)).collect();
    (!blocks.is_empty()).then_some(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes() {
        assert_eq!(two_thirds_quorum(1), 1);
        assert_eq!(two_thirds_quorum(3), 3);
        assert_eq!(two_thirds_quorum(4), 3);
        assert_eq!(two_thirds_quorum(7), 5);
        assert_eq!(two_thirds_quorum(10), 7);
        for n in 1..=31 {
            assert_eq!(two_thirds_quorum(n), n - (n - 1) / 3, "n − f at n = {n}");
        }
    }

    #[test]
    fn a_quorum_counts_distinct_members_only() {
        let (keys, mut registry) = seeded_consortium(4);
        let outsider = AuthorityKey::from_seed(0x1000_0000);
        registry.enroll(&outsider);
        let quorum = Quorum::new(keys.iter().map(AuthorityKey::address).collect(), registry);
        assert_eq!((quorum.threshold(), quorum.leader(5)), (3, keys[1].address()));
        let digest = Hash256::digest(b"block").0;
        let sig = |key: &AuthorityKey| key.sign(&digest);
        assert!(quorum.admits(&digest, &sig(&keys[0])));
        assert!(!quorum.admits(&digest, &sig(&outsider)), "enrolled, but not a member");
        assert!(!quorum.admits(b"other", &sig(&keys[0])));
        // A repeated member or an outsider does not make up the third.
        let two = [sig(&keys[0]), sig(&keys[1])];
        assert!(!quorum.certifies(&digest, &[two[0], two[1], two[1], sig(&outsider)]));
        assert!(quorum.certifies(&digest, &[two[0], two[1], sig(&keys[3])]));

        let mut tally = Tally::default();
        assert_eq!(tally.add(7u64, two[1]), 1);
        assert_eq!(tally.add(7, two[0]), 2);
        assert_eq!(tally.add(7, two[1]), 2, "a signer counts once");
        assert_eq!((tally.count(&7), tally.count(&8)), (2, 0));
        let signers: Vec<Address> = tally.signatures(&7).iter().map(|s| s.signer).collect();
        let mut sorted = signers.clone();
        sorted.sort();
        assert_eq!(signers, sorted, "a certificate lists its signers in address order");
    }

    /// Hostile input on the consensus sockets: arbitrary bytes, and
    /// truncations and single-byte flips of valid PoA and PBFT messages,
    /// sent as consensus frames under any sender (or none) and read back
    /// under the consensus bound, never panic the sender split or either
    /// decoder, and a sender outside the consortium is refused.
    #[test]
    fn hostile_consensus_frames_never_panic() {
        use super::pbft::PbftMsg;
        use super::poa::PoaMsg;
        use medchain_runtime::check::{check, CheckConfig};
        use medchain_runtime::codec::{Decode, Encode};
        use medchain_runtime::ensure;
        use medchain_transport::frame::{encode_frame, FrameReader};
        use medchain_transport::tcp::{consensus_frame, split_sender, MAX_FRAME};
        const NODES: usize = 4;
        let (keys, _) = seeded_consortium(NODES);
        let block = Block::genesis("hostile");
        let digest = block.id();
        let sig = keys[0].sign(&digest.0);
        let valid: Vec<Vec<u8>> = vec![
            PoaMsg::Proposal { block: block.clone(), sig }.encoded(),
            PoaMsg::Vote { height: 1, block_id: digest, sig }.encoded(),
            PoaMsg::SyncRequest { have: 3 }.encoded(),
            PoaMsg::SyncResponse { blocks: vec![block.clone()] }.encoded(),
            PbftMsg::PrePrepare { view: 0, block: block.clone(), sig }.encoded(),
            PbftMsg::Prepare { view: 0, height: 1, digest, sig }.encoded(),
            PbftMsg::Commit { view: 0, height: 1, digest, sig }.encoded(),
            PbftMsg::ViewChange { new_view: 1, height: 1, sig }.encoded(),
            PbftMsg::SyncRequest { have: 3 }.encoded(),
            PbftMsg::SyncResponse { blocks: vec![block] }.encoded(),
        ];
        check("hostile consensus frames never panic", CheckConfig::cases(256), |g| {
            let payload = match g.usize_in(0, 3) {
                0 => g.bytes(0, 300),
                1 => {
                    let v = &valid[g.usize_in(0, valid.len())];
                    v[..g.usize_in(0, v.len())].to_vec()
                }
                _ => {
                    let mut v = valid[g.usize_in(0, valid.len())].clone();
                    let at = g.usize_in(0, v.len());
                    v[at] ^= g.byte() | 1;
                    v
                }
            };
            let from = if g.bool() { g.usize_in(0, NODES) } else { g.u64() as usize };
            let with_sender = g.usize_in(0, 4) != 0;
            let wire = if with_sender {
                consensus_frame(NodeId(from), &payload)
            } else {
                encode_frame(&[&payload])
            };
            let mut frames = FrameReader::new(&wire[..], MAX_FRAME);
            let body = frames.read_frame(|| false).map_err(|e| e.to_string())?;
            match split_sender(body, NODES) {
                Some((sender, body)) => {
                    ensure!(!with_sender || (sender.0 == from && body == payload), "split");
                    let _ = PoaMsg::decoded(&body);
                    let _ = PbftMsg::decoded(&body);
                }
                None => ensure!(!with_sender || from >= NODES, "member {from} refused"),
            }
            Ok(())
        });
    }
}
