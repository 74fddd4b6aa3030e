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

use crate::block::Block;
use crate::hash::Hash256;
use crate::sig::Address;
use medchain_transport::{Event, NodeId, SimTransport, Transport, Wire};
use std::fmt;

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

    /// Schedules a timer at absolute time `at_ms` with `token`.
    pub fn set_timer_at(&mut self, at_ms: u64, token: u64) {
        self.timers.push((at_ms, token));
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

/// Simple quorum rule used by PoA and vote-counting engines: strictly
/// more than two thirds of `n`.
pub fn two_thirds_quorum(n: usize) -> usize {
    2 * n / 3 + 1
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
    }
}
