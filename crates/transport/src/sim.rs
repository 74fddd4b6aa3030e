//! Discrete-event simulated peer-to-peer network.
//!
//! Blockchain consensus broadcasts every intended ledger modification to
//! every participant (paper §I); the experiments need to *count* that
//! traffic and model its latency. [`SimTransport`] is a deterministic
//! discrete-event simulator behind the [`Transport`] seam: messages and
//! timers are delivered in logical time, every message is delayed by a
//! seeded [`LatencyModel`] sample, and all traffic is metered. It models
//! no faults: loss, crashes and partitions come from wrapping it in a
//! [`FaultyTransport`](crate::FaultyTransport).

use crate::{Event, LatencyModel, NetStats, NodeId, Transport, Wire};
use medchain_runtime::metrics::Metrics;
use medchain_runtime::DetRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

struct QueueEntry<M> {
    at: u64,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for QueueEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueueEntry<M> {}
impl<M> PartialOrd for QueueEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueueEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Deterministic discrete-event network simulator.
///
/// # Examples
///
/// ```
/// use medchain_transport::{Event, NodeId, SimTransport, Transport, Wire};
///
/// #[derive(Clone)]
/// struct Ping;
/// impl Wire for Ping {
///     fn wire_size(&self) -> usize { 8 }
/// }
///
/// let mut net = SimTransport::<Ping>::new(3, 42);
/// net.send(NodeId(0), NodeId(1), Ping);
/// let (at, event) = net.next().unwrap();
/// assert!(at > 0);
/// assert!(matches!(event, Event::Message { to: NodeId(1), .. }));
/// ```
pub struct SimTransport<M> {
    now_ms: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<QueueEntry<M>>>,
    latency: LatencyModel,
    rng: DetRng,
    stats: NetStats,
    node_count: usize,
    metrics: Metrics,
}

impl<M> fmt::Debug for SimTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimTransport")
            .field("now_ms", &self.now_ms)
            .field("node_count", &self.node_count)
            .field("queued", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<M> SimTransport<M> {
    /// Creates a network of `node_count` nodes with LAN latency, seeded
    /// deterministically.
    pub fn new(node_count: usize, seed: u64) -> SimTransport<M> {
        SimTransport {
            now_ms: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            latency: LatencyModel::lan(),
            rng: DetRng::from_seed(seed),
            stats: NetStats::default(),
            node_count,
            metrics: Metrics::noop(),
        }
    }

    /// Sets the latency model.
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    /// Installs a metrics handle; `transport.*` counters report there.
    /// The same keys the socket transport emits, so sim-vs-TCP byte
    /// accounting can be compared sink-to-sink.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    fn push(&mut self, at: u64, event: Event<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueueEntry { at, seq, event }));
    }
}

impl<M: Wire + Clone> Transport<M> for SimTransport<M> {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn now_ms(&self) -> u64 {
        self.now_ms
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    /// Meters `msg` and queues it after one latency sample, the only
    /// thing a send draws from the seeded RNG: every seeded run's event
    /// order depends on that.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let bytes = msg.wire_size();
        self.stats.sent += 1;
        self.stats.bytes += bytes as u64;
        self.metrics.counter("transport.sent", 1);
        self.metrics.counter("transport.bytes", bytes as u64);
        let delay = self.latency.sample(&mut self.rng, bytes);
        self.push(self.now_ms + delay, Event::Message { from, to, msg });
    }

    fn set_timer(&mut self, node: NodeId, at_ms: u64, token: u64) {
        let at = at_ms.max(self.now_ms);
        self.push(at, Event::Timer { node, token });
    }

    fn next(&mut self) -> Option<(u64, Event<M>)> {
        let Reverse(entry) = self.queue.pop()?;
        self.now_ms = self.now_ms.max(entry.at);
        if let Event::Message { .. } = entry.event {
            self.stats.delivered += 1;
            self.metrics.counter("transport.delivered", 1);
        }
        Some((entry.at, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u64, usize);
    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    #[test]
    fn delivery_is_time_ordered() {
        let mut net = SimTransport::<Msg>::new(2, 1);
        net.set_latency(LatencyModel { base_ms: 10, per_kib_ms: 1, jitter_ms: 0 });
        net.send(NodeId(0), NodeId(1), Msg(1, 100));
        net.set_timer(NodeId(1), 5, 77);
        let (at1, e1) = net.next().unwrap();
        assert_eq!(at1, 5);
        assert!(matches!(e1, Event::Timer { token: 77, .. }));
        let (at2, _) = net.next().unwrap();
        assert!(at2 >= 10);
        assert!(net.next().is_none());
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let mut net = SimTransport::<Msg>::new(5, 1);
        net.broadcast(NodeId(2), Msg(9, 64));
        let mut recipients = Vec::new();
        while let Some((_, Event::Message { to, .. })) = net.next() {
            recipients.push(to.0);
        }
        recipients.sort_unstable();
        assert_eq!(recipients, vec![0, 1, 3, 4]);
        assert_eq!(net.stats().sent, 4);
        assert_eq!(net.stats().delivered, 4);
    }

    #[test]
    fn bytes_are_metered() {
        let mut net = SimTransport::<Msg>::new(2, 1);
        net.send(NodeId(0), NodeId(1), Msg(0, 1500));
        net.send(NodeId(0), NodeId(1), Msg(0, 500));
        assert_eq!(net.stats().bytes, 2000);
    }

    #[test]
    fn larger_messages_take_longer() {
        let mut small = SimTransport::<Msg>::new(2, 3);
        small.set_latency(LatencyModel { base_ms: 1, per_kib_ms: 5, jitter_ms: 0 });
        small.send(NodeId(0), NodeId(1), Msg(0, 1024));
        let (t_small, _) = small.next().unwrap();

        let mut big = SimTransport::<Msg>::new(2, 3);
        big.set_latency(LatencyModel { base_ms: 1, per_kib_ms: 5, jitter_ms: 0 });
        big.send(NodeId(0), NodeId(1), Msg(0, 10 * 1024));
        let (t_big, _) = big.next().unwrap();
        assert!(t_big > t_small);
    }

    #[test]
    fn determinism_under_same_seed() {
        let run = |seed| {
            let mut net = SimTransport::<Msg>::new(4, seed);
            net.set_latency(LatencyModel { base_ms: 3, per_kib_ms: 2, jitter_ms: 7 });
            for i in 0..20u64 {
                net.broadcast(NodeId((i % 4) as usize), Msg(i, 256));
            }
            let mut order = Vec::new();
            while let Some((at, Event::Message { to, msg, .. })) = net.next() {
                order.push((at, to.0, msg.0));
            }
            order
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
