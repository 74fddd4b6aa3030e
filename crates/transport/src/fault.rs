//! Fault injection over any transport — the one fault model.
//!
//! [`FaultyTransport`] wraps an inner [`Transport`] and injects seeded
//! faults — an optional [`LatencyModel`], an independent per-message drop
//! rate, and node failures — so the paper's fault experiments run
//! unchanged whether the traffic rides the deterministic
//! [`SimTransport`](crate::SimTransport) or real sockets. Neither inner
//! transport models faults of its own; crash × partition × loss compose
//! here, in one layer. With nothing configured the wrapper draws no
//! random number and forwards every call, so it is transparent.

use crate::{Event, LatencyModel, NetStats, NodeId, Transport, Wire};
use medchain_runtime::DetRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Timer token reserved by [`FaultyTransport`] to wake the inner
/// transport when a delayed message becomes releasable. Filtered out of
/// the event stream; protocol code must not use it.
pub const FAULT_WAKE_TOKEN: u64 = u64::MAX - 0xFA117;

struct Delayed<M> {
    release: u64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.release == other.release && self.seq == other.seq
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.release, self.seq).cmp(&(other.release, other.seq))
    }
}

/// Injects seeded latency, loss, and node failures into any inner
/// transport.
///
/// Fault decisions are made at *send* time: a message is charged to the
/// stats, then dropped if the seeded coin or a failed node says so,
/// then — if a [`LatencyModel`] is configured — held back until its
/// release time and only then handed to the inner transport. Timers
/// owned by failed nodes are suppressed on delivery. When no latency
/// model is set, forwarded messages go straight to the inner transport
/// (which adds its own simulated or real delay).
pub struct FaultyTransport<M, T> {
    inner: T,
    rng: DetRng,
    latency: Option<LatencyModel>,
    drop_rate: f64,
    failed_nodes: HashSet<NodeId>,
    delayed: BinaryHeap<Reverse<Delayed<M>>>,
    seq: u64,
    sent: u64,
    bytes: u64,
    dropped: u64,
    metrics: medchain_runtime::metrics::Metrics,
}

impl<M: Wire + Clone, T: Transport<M>> FaultyTransport<M, T> {
    /// Wraps `inner` with a seeded fault layer (no latency, no loss, no
    /// failures until configured).
    pub fn new(inner: T, seed: u64) -> FaultyTransport<M, T> {
        FaultyTransport {
            inner,
            rng: DetRng::from_seed(seed),
            latency: None,
            drop_rate: 0.0,
            failed_nodes: HashSet::new(),
            delayed: BinaryHeap::new(),
            seq: 0,
            sent: 0,
            bytes: 0,
            dropped: 0,
            metrics: medchain_runtime::metrics::Metrics::noop(),
        }
    }

    /// Installs a metrics handle for the fault layer's own accounting
    /// (`transport.fault_drops`). The wrapped transport keeps its own
    /// handle, so surviving traffic is metered exactly once.
    pub fn set_metrics(&mut self, metrics: medchain_runtime::metrics::Metrics) {
        self.metrics = metrics;
    }

    /// Holds forwarded messages back by a seeded sample of `latency`
    /// before handing them to the inner transport.
    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.latency = Some(latency);
    }

    /// Sets the independent per-message drop probability.
    pub fn set_drop_rate(&mut self, rate: f64) {
        self.drop_rate = rate.clamp(0.0, 1.0);
    }

    /// Marks a node as crashed: traffic to and from it is dropped and
    /// its timers are suppressed.
    pub fn fail_node(&mut self, node: NodeId) {
        self.failed_nodes.insert(node);
    }

    /// Restores a crashed node.
    pub fn heal_node(&mut self, node: NodeId) {
        self.failed_nodes.remove(&node);
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Hands every delayed message whose release time has come to the
    /// inner transport.
    fn flush_due(&mut self) {
        let now = self.inner.now_ms();
        while let Some(Reverse(head)) = self.delayed.peek() {
            if head.release > now {
                break;
            }
            let Reverse(d) = self.delayed.pop().unwrap();
            self.inner.send(d.from, d.to, d.msg);
        }
    }
}

impl<M: Wire + Clone, T: Transport<M>> Transport<M> for FaultyTransport<M, T> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }

    fn stats(&self) -> NetStats {
        // Offered traffic is metered here (the inner transport only sees
        // what survives the fault layer); deliveries and inner-side
        // losses come from the wrapped transport.
        let inner = self.inner.stats();
        NetStats {
            sent: self.sent,
            delivered: inner.delivered,
            dropped: self.dropped + inner.dropped,
            bytes: self.bytes,
            backpressure: inner.backpressure,
        }
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let bytes = msg.wire_size();
        self.sent += 1;
        self.bytes += bytes as u64;
        // The drop coin is flipped only when a drop rate is set, and
        // latency is sampled only for messages actually forwarded.
        let lossy = self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate);
        if lossy
            || self.failed_nodes.contains(&from)
            || self.failed_nodes.contains(&to)
        {
            self.dropped += 1;
            self.metrics.counter("transport.fault_drops", 1);
            return;
        }
        match self.latency {
            Some(model) => {
                let delay = model.sample(&mut self.rng, bytes);
                let release = self.inner.now_ms() + delay;
                let seq = self.seq;
                self.seq += 1;
                self.delayed.push(Reverse(Delayed { release, seq, from, to, msg }));
                self.inner.set_timer(to, release, FAULT_WAKE_TOKEN);
            }
            None => self.inner.send(from, to, msg),
        }
    }

    fn set_timer(&mut self, node: NodeId, at_ms: u64, token: u64) {
        debug_assert_ne!(token, FAULT_WAKE_TOKEN, "FAULT_WAKE_TOKEN is reserved");
        self.inner.set_timer(node, at_ms, token);
    }

    fn next(&mut self) -> Option<(u64, Event<M>)> {
        loop {
            self.flush_due();
            match self.inner.next() {
                Some((_, Event::Timer { token: FAULT_WAKE_TOKEN, .. })) => {
                    // Internal wake-up: time has advanced to a release
                    // point; the next flush_due forwards the message.
                    continue;
                }
                Some((_, Event::Timer { node, .. })) if self.failed_nodes.contains(&node) => {
                    continue;
                }
                Some(event) => return Some(event),
                None => {
                    if self.delayed.is_empty() {
                        return None;
                    }
                    // The inner transport quiesced while deliveries are
                    // still held back (e.g. its wake timer was lost):
                    // release the earliest batch and keep pumping.
                    let release = self.delayed.peek().map(|Reverse(d)| d.release).unwrap();
                    while let Some(Reverse(head)) = self.delayed.peek() {
                        if head.release > release {
                            break;
                        }
                        let Reverse(d) = self.delayed.pop().unwrap();
                        self.inner.send(d.from, d.to, d.msg);
                    }
                }
            }
        }
    }

    fn is_failed(&self, node: NodeId) -> bool {
        self.failed_nodes.contains(&node) || self.inner.is_failed(node)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTransport;

    #[derive(Debug, Clone, PartialEq)]
    struct Msg(u64, usize);
    impl Wire for Msg {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    /// A zero-latency simulator, so delivery times are the fault
    /// layer's alone.
    fn quiet_inner(nodes: usize) -> SimTransport<Msg> {
        let mut inner = SimTransport::new(nodes, 999);
        inner.set_latency(LatencyModel::zero());
        inner
    }

    /// Drives `t` through broadcasts, timers, and replies sent from
    /// inside the event loop; returns the raw `(time, event)` stream.
    fn workload<T: Transport<Msg>>(t: &mut T) -> (Vec<(u64, Event<Msg>)>, NetStats) {
        for i in 0..25u64 {
            t.broadcast(NodeId((i % 4) as usize), Msg(i, 100 + (i as usize % 5) * 301));
            t.set_timer(NodeId((i % 3) as usize), i * 2, i);
        }
        let mut stream = Vec::new();
        while let Some((at, event)) = t.next() {
            if let Event::Message { from, to, msg: Msg(id, size) } = &event {
                if *id < 10 {
                    t.send(*to, *from, Msg(id + 100, *size));
                }
            }
            stream.push((at, event));
        }
        (stream, t.stats())
    }

    #[test]
    fn unconfigured_wrapper_is_transparent_over_sim() {
        let model = LatencyModel { base_ms: 3, per_kib_ms: 2, jitter_ms: 7 };
        let sim = || {
            let mut sim = SimTransport::<Msg>::new(4, 42);
            sim.set_latency(model);
            sim
        };
        let (bare, bare_stats) = workload(&mut sim());
        let (wrapped, wrapped_stats) = workload(&mut FaultyTransport::new(sim(), 42));

        assert_eq!(bare.len(), 25 + 105, "every timer and every message arrives");
        assert_eq!((bare_stats.sent, bare_stats.delivered, bare_stats.dropped), (105, 105, 0));
        assert_eq!(wrapped, bare, "no faults ⇒ the same events at the same times");
        assert_eq!(wrapped_stats, bare_stats);
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let mut t = FaultyTransport::new(quiet_inner(2), 1);
        t.set_drop_rate(1.0);
        for _ in 0..10 {
            t.send(NodeId(0), NodeId(1), Msg(0, 10));
        }
        assert!(t.next().is_none());
        let stats = t.stats();
        assert_eq!(stats.dropped, 10);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.sent, 10);
    }

    #[test]
    fn failed_node_loses_traffic_and_timers() {
        let mut t = FaultyTransport::new(quiet_inner(3), 1);
        t.fail_node(NodeId(1));
        assert!(t.is_failed(NodeId(1)));
        t.send(NodeId(0), NodeId(1), Msg(1, 10));
        t.send(NodeId(1), NodeId(2), Msg(2, 10));
        t.set_timer(NodeId(1), 5, 7);
        t.send(NodeId(0), NodeId(2), Msg(3, 10));
        let mut events = Vec::new();
        while let Some((_, e)) = t.next() {
            events.push(e);
        }
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], Event::Message { msg: Msg(3, _), .. }));
        assert_eq!(t.stats().dropped, 2);
        t.heal_node(NodeId(1));
        t.send(NodeId(0), NodeId(1), Msg(4, 10));
        assert!(matches!(t.next(), Some((_, Event::Message { to: NodeId(1), .. }))));
    }

    #[test]
    fn wake_tokens_never_surface() {
        let mut t = FaultyTransport::new(quiet_inner(2), 1);
        t.set_latency(LatencyModel { base_ms: 10, per_kib_ms: 0, jitter_ms: 0 });
        t.send(NodeId(0), NodeId(1), Msg(1, 10));
        t.set_timer(NodeId(0), 4, 11);
        let mut seen = Vec::new();
        while let Some((at, e)) = t.next() {
            seen.push((at, e));
        }
        assert_eq!(seen.len(), 2, "one user timer + one delayed message, no wake tokens");
        assert!(matches!(seen[0].1, Event::Timer { token: 11, .. }));
        assert!(matches!(seen[1], (10, Event::Message { msg: Msg(1, _), .. })));
    }

    #[test]
    fn latency_layer_delays_relative_to_inner_clock() {
        // Advance the inner clock first, then send: release time must be
        // measured from "now", not from zero.
        let mut t = FaultyTransport::new(quiet_inner(2), 1);
        t.set_latency(LatencyModel { base_ms: 20, per_kib_ms: 0, jitter_ms: 0 });
        t.set_timer(NodeId(0), 100, 1);
        let _ = t.next(); // inner clock now at 100
        t.send(NodeId(0), NodeId(1), Msg(1, 10));
        let (at, _) = t.next().unwrap();
        assert_eq!(at, 120);
    }

    #[test]
    fn no_latency_model_forwards_immediately() {
        let mut inner = SimTransport::<Msg>::new(2, 7);
        inner.set_latency(LatencyModel { base_ms: 5, per_kib_ms: 0, jitter_ms: 0 });
        let mut t = FaultyTransport::new(inner, 1);
        t.send(NodeId(0), NodeId(1), Msg(1, 10));
        // The inner transport's own latency applies: delivery at 5.
        assert!(matches!(t.next(), Some((5, Event::Message { .. }))));
    }
}
