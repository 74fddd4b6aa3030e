//! Structured metrics and event sink for the whole workspace.
//!
//! The paper's quantitative claims — energy wasted by duplicated
//! computing (§I), scalability of the transformed architecture (§III) —
//! are measured by the experiment harness. Before this module existed the
//! experiments scraped stdout tables; now every layer (consensus engines,
//! mempool, transport, off-chain executor and oracle, federated
//! learning) reports through a [`MetricsSink`], and tests assert on sink
//! values directly.
//!
//! Design points:
//!
//! * **Keys are hierarchical `scope.name` strings** — `consensus.rounds`,
//!   `mempool.evictions`, `transport.bytes` — so a TSV export sorts into
//!   subsystem blocks. The scope is the owning subsystem, the name the
//!   measured quantity.
//! * **The [`Metrics`] handle costs one branch when disabled.** Hot paths
//!   hold a `Metrics` (a cheap `Option<Arc<dyn MetricsSink>>` clone); the
//!   default handle is a no-op, so instrumented code pays a single
//!   `is_some` test per emission unless a sink is installed.
//! * **[`Registry`] is the lock-cheap default sink**: one mutex around a
//!   sorted map, taken only for the duration of a single counter bump.
//!   Experiments create a registry, hand out handles, and read counters
//!   or export TSV at the end.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Upper bound on retained structured events; the oldest are dropped first.
const MAX_EVENTS: usize = 4096;

/// A sink for counters, gauges, histogram observations, and structured
/// events, keyed by hierarchical `scope.name` strings.
pub trait MetricsSink: Send + Sync {
    /// Adds `delta` to the counter at `key`.
    fn counter(&self, key: &str, delta: u64);
    /// Sets the gauge at `key` to `value`.
    fn gauge(&self, key: &str, value: i64);
    /// Records one observation of `value` in the histogram at `key`.
    fn observe(&self, key: &str, value: f64);
    /// Records a structured event under `scope` with `name` and fields.
    fn event(&self, scope: &str, name: &str, fields: &[(&str, String)]);
}

/// A cheap, cloneable handle to an optional [`MetricsSink`].
///
/// The default handle is disabled (no sink): every emission is a single
/// branch. Subsystems store a `Metrics` and expose `set_metrics`; callers
/// that want numbers install a [`Registry`] handle.
#[derive(Clone, Default)]
pub struct Metrics {
    sink: Option<Arc<dyn MetricsSink>>,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.sink.is_some() { "Metrics(on)" } else { "Metrics(noop)" })
    }
}

impl Metrics {
    /// The disabled handle: every emission is one branch and no work.
    pub const fn noop() -> Metrics {
        Metrics { sink: None }
    }

    /// A handle forwarding to `sink`.
    pub fn new(sink: Arc<dyn MetricsSink>) -> Metrics {
        Metrics { sink: Some(sink) }
    }

    /// Whether a sink is installed.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Adds `delta` to the counter at `key`.
    pub fn counter(&self, key: &str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter(key, delta);
        }
    }

    /// Sets the gauge at `key` to `value`.
    pub fn gauge(&self, key: &str, value: i64) {
        if let Some(sink) = &self.sink {
            sink.gauge(key, value);
        }
    }

    /// Records one histogram observation of `value` at `key`.
    pub fn observe(&self, key: &str, value: f64) {
        if let Some(sink) = &self.sink {
            sink.observe(key, value);
        }
    }

    /// Records a structured event.
    pub fn event(&self, scope: &str, name: &str, fields: &[(&str, String)]) {
        if let Some(sink) = &self.sink {
            sink.event(scope, name, fields);
        }
    }

    /// A handle that prepends `prefix.` to every key (and event scope)
    /// before forwarding to this handle's sink. Instrumented code keeps
    /// emitting its canonical keys (`consensus.rounds`,
    /// `transport.bytes`); the caller decides the namespace — e.g. a
    /// sharded network hands each committee
    /// `metrics.scoped("shard-0")`, so its rounds land under
    /// `shard-0.consensus.rounds`. Scoping a disabled handle stays
    /// disabled (and free); nesting composes: scoping twice prepends
    /// both prefixes.
    pub fn scoped(&self, prefix: &str) -> Metrics {
        match &self.sink {
            None => Metrics::noop(),
            Some(sink) => Metrics::new(Arc::new(PrefixSink {
                prefix: prefix.to_string(),
                inner: Arc::clone(sink),
            })),
        }
    }
}

/// A [`MetricsSink`] adapter that namespaces every key under a prefix.
/// Built by [`Metrics::scoped`].
struct PrefixSink {
    prefix: String,
    inner: Arc<dyn MetricsSink>,
}

impl PrefixSink {
    fn key(&self, key: &str) -> String {
        format!("{}.{key}", self.prefix)
    }
}

impl MetricsSink for PrefixSink {
    fn counter(&self, key: &str, delta: u64) {
        self.inner.counter(&self.key(key), delta);
    }

    fn gauge(&self, key: &str, value: i64) {
        self.inner.gauge(&self.key(key), value);
    }

    fn observe(&self, key: &str, value: f64) {
        self.inner.observe(&self.key(key), value);
    }

    fn event(&self, scope: &str, name: &str, fields: &[(&str, String)]) {
        self.inner.event(&self.key(scope), name, fields);
    }
}

/// Summary of a histogram's observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl HistogramSummary {
    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One recorded structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Owning subsystem (the key scope).
    pub scope: String,
    /// Event name.
    pub name: String,
    /// Ordered `(field, value)` pairs.
    pub fields: Vec<(String, String)>,
}

#[derive(Default)]
struct RegistryState {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSummary>,
    events: Vec<EventRecord>,
}

/// The default in-memory sink: counters, gauges, histograms, and a
/// bounded event log behind one short-held mutex. Cloning shares the
/// underlying state, so `registry.clone()` hands the same numbers to
/// another reader.
#[derive(Clone, Default)]
pub struct Registry {
    state: Arc<Mutex<RegistryState>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock().expect("metrics registry poisoned");
        f.debug_struct("Registry")
            .field("counters", &state.counters.len())
            .field("gauges", &state.gauges.len())
            .field("histograms", &state.histograms.len())
            .field("events", &state.events.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A [`Metrics`] handle that writes into this registry.
    pub fn handle(&self) -> Metrics {
        Metrics::new(Arc::new(self.clone()))
    }

    /// Current value of the counter at `key` (0 if never bumped).
    pub fn counter_value(&self, key: &str) -> u64 {
        let state = self.state.lock().expect("metrics registry poisoned");
        state.counters.get(key).copied().unwrap_or(0)
    }

    /// Current value of the gauge at `key`.
    pub fn gauge_value(&self, key: &str) -> Option<i64> {
        let state = self.state.lock().expect("metrics registry poisoned");
        state.gauges.get(key).copied()
    }

    /// Summary of the histogram at `key`.
    pub fn histogram(&self, key: &str) -> Option<HistogramSummary> {
        let state = self.state.lock().expect("metrics registry poisoned");
        state.histograms.get(key).copied()
    }

    /// All gauges as sorted `(key, value)` pairs.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let state = self.state.lock().expect("metrics registry poisoned");
        state.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Retained structured events, oldest first.
    pub fn events(&self) -> Vec<EventRecord> {
        let state = self.state.lock().expect("metrics registry poisoned");
        state.events.clone()
    }

    /// Clears every metric and event.
    pub fn reset(&self) {
        let mut state = self.state.lock().expect("metrics registry poisoned");
        *state = RegistryState::default();
    }

    /// Plain-text TSV export, one metric per line, sorted by key:
    ///
    /// ```text
    /// counter<TAB>consensus.rounds<TAB>12
    /// gauge<TAB>transport.queue_cap<TAB>1024
    /// hist<TAB>mempool.batch_size<TAB>count=4<TAB>sum=40<TAB>min=4<TAB>max=16
    /// event<TAB>mempool.evicted<TAB>sender=…<TAB>nonce=3
    /// ```
    pub fn to_tsv(&self) -> String {
        let state = self.state.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (key, value) in &state.counters {
            out.push_str(&format!("counter\t{key}\t{value}\n"));
        }
        for (key, value) in &state.gauges {
            out.push_str(&format!("gauge\t{key}\t{value}\n"));
        }
        for (key, h) in &state.histograms {
            out.push_str(&format!(
                "hist\t{key}\tcount={}\tsum={}\tmin={}\tmax={}\n",
                h.count, h.sum, h.min, h.max
            ));
        }
        for event in &state.events {
            out.push_str(&format!("event\t{}.{}", event.scope, event.name));
            for (field, value) in &event.fields {
                out.push_str(&format!("\t{field}={value}"));
            }
            out.push('\n');
        }
        out
    }
}

impl MetricsSink for Registry {
    fn counter(&self, key: &str, delta: u64) {
        let mut state = self.state.lock().expect("metrics registry poisoned");
        match state.counters.get_mut(key) {
            Some(value) => *value += delta,
            None => {
                state.counters.insert(key.to_string(), delta);
            }
        }
    }

    fn gauge(&self, key: &str, value: i64) {
        let mut state = self.state.lock().expect("metrics registry poisoned");
        match state.gauges.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                state.gauges.insert(key.to_string(), value);
            }
        }
    }

    fn observe(&self, key: &str, value: f64) {
        let mut state = self.state.lock().expect("metrics registry poisoned");
        match state.histograms.get_mut(key) {
            Some(h) => h.record(value),
            None => {
                state.histograms.insert(
                    key.to_string(),
                    HistogramSummary { count: 1, sum: value, min: value, max: value },
                );
            }
        }
    }

    fn event(&self, scope: &str, name: &str, fields: &[(&str, String)]) {
        let mut state = self.state.lock().expect("metrics registry poisoned");
        if state.events.len() >= MAX_EVENTS {
            state.events.remove(0);
        }
        state.events.push(EventRecord {
            scope: scope.to_string(),
            name: name.to_string(),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
        });
    }
}

/// Samples every gauge on a [`Registry`] into its own event log at a
/// fixed tick cadence.
///
/// Gauges are last-write-wins: a TSV export at the end of a run shows
/// only the final value, hiding how a queue depth or mempool length
/// evolved. Drive `tick()` from any loop the harness already has (block
/// rounds, experiment iterations); every `every`-th tick appends one
/// `metrics.gauge_snapshot` event carrying the tick number and the
/// current value of each gauge, so the trajectory survives into
/// [`Registry::events`] and the TSV export.
#[derive(Debug)]
pub struct GaugeSnapshotter {
    registry: Registry,
    every: u64,
    ticks: u64,
    taken: u64,
}

impl GaugeSnapshotter {
    /// Snapshots `registry`'s gauges every `every` ticks (`every == 0`
    /// disables sampling).
    pub fn new(registry: Registry, every: u64) -> GaugeSnapshotter {
        GaugeSnapshotter { registry, every, ticks: 0, taken: 0 }
    }

    /// Advances one tick; on every `every`-th tick records a
    /// `metrics.gauge_snapshot` event. Returns `true` when a snapshot
    /// was taken this tick.
    pub fn tick(&mut self) -> bool {
        self.ticks += 1;
        if self.every == 0 || self.ticks % self.every != 0 {
            return false;
        }
        let gauges = self.registry.gauges();
        if gauges.is_empty() {
            return false;
        }
        let mut fields: Vec<(&str, String)> = vec![("tick", self.ticks.to_string())];
        for (key, value) in &gauges {
            fields.push((key.as_str(), value.to_string()));
        }
        self.registry.handle().event("metrics", "gauge_snapshot", &fields);
        self.taken += 1;
        true
    }

    /// Ticks elapsed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Snapshots recorded so far.
    pub fn taken(&self) -> u64 {
        self.taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_disabled_and_free() {
        let m = Metrics::noop();
        assert!(!m.enabled());
        // All emissions are silent no-ops.
        m.counter("a.b", 1);
        m.gauge("a.g", -2);
        m.observe("a.h", 0.5);
        m.event("a", "e", &[("k", "v".to_string())]);
        assert_eq!(Metrics::default().enabled(), false);
    }

    #[test]
    fn registry_counts_gauges_and_histograms() {
        let registry = Registry::new();
        let m = registry.handle();
        assert!(m.enabled());
        m.counter("consensus.rounds", 2);
        m.counter("consensus.rounds", 3);
        m.gauge("transport.queue_cap", 1024);
        m.gauge("transport.queue_cap", 512);
        m.observe("mempool.batch_size", 4.0);
        m.observe("mempool.batch_size", 16.0);
        assert_eq!(registry.counter_value("consensus.rounds"), 5);
        assert_eq!(registry.counter_value("never.bumped"), 0);
        assert_eq!(registry.gauge_value("transport.queue_cap"), Some(512));
        let h = registry.histogram("mempool.batch_size").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 20.0);
        assert_eq!(h.min, 4.0);
        assert_eq!(h.max, 16.0);
        assert_eq!(h.mean(), 10.0);
    }

    #[test]
    fn clones_share_state() {
        let registry = Registry::new();
        let other = registry.clone();
        registry.handle().counter("x.y", 7);
        assert_eq!(other.counter_value("x.y"), 7);
        other.reset();
        assert_eq!(registry.counter_value("x.y"), 0);
    }

    #[test]
    fn events_are_bounded() {
        let registry = Registry::new();
        let m = registry.handle();
        for i in 0..(MAX_EVENTS + 10) {
            m.event("scope", "tick", &[("i", i.to_string())]);
        }
        assert_eq!(registry.events().len(), MAX_EVENTS);
        // Oldest dropped first: the first retained event is i=10.
        assert_eq!(registry.events()[0].fields[0].1, "10");
    }

    #[test]
    fn tsv_export_is_sorted_and_grep_able() {
        let registry = Registry::new();
        let m = registry.handle();
        m.counter("transport.bytes", 100);
        m.counter("consensus.rounds", 4);
        m.gauge("mempool.len", 3);
        m.observe("oracle.rpc_ms", 1.5);
        m.event("mempool", "evicted", &[("nonce", "3".to_string())]);
        let tsv = registry.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "counter\tconsensus.rounds\t4");
        assert_eq!(lines[1], "counter\ttransport.bytes\t100");
        assert!(lines.contains(&"gauge\tmempool.len\t3"));
        assert!(tsv.contains("hist\toracle.rpc_ms\tcount=1"));
        assert!(tsv.contains("event\tmempool.evicted\tnonce=3"));
    }

    #[test]
    fn gauge_snapshotter_samples_on_cadence() {
        let registry = Registry::new();
        let m = registry.handle();
        let mut snap = GaugeSnapshotter::new(registry.clone(), 3);
        for i in 0..9i64 {
            m.gauge("mempool.len", i);
            m.gauge("transport.inflight", i * 2);
            snap.tick();
        }
        assert_eq!(snap.ticks(), 9);
        assert_eq!(snap.taken(), 3);
        let events: Vec<EventRecord> = registry
            .events()
            .into_iter()
            .filter(|e| e.scope == "metrics" && e.name == "gauge_snapshot")
            .collect();
        assert_eq!(events.len(), 3);
        // Snapshot at tick 6 captured the gauge values set on tick 6
        // (i = 5), not the final ones.
        let at6 = &events[1];
        assert!(at6.fields.contains(&("tick".to_string(), "6".to_string())));
        assert!(at6.fields.contains(&("mempool.len".to_string(), "5".to_string())));
        assert!(at6.fields.contains(&("transport.inflight".to_string(), "10".to_string())));
    }

    #[test]
    fn gauge_snapshotter_skips_when_disabled_or_empty() {
        let registry = Registry::new();
        // No gauges yet: nothing to record even on the cadence tick.
        let mut snap = GaugeSnapshotter::new(registry.clone(), 1);
        assert!(!snap.tick());
        // every == 0 disables sampling entirely.
        registry.handle().gauge("g", 1);
        let mut off = GaugeSnapshotter::new(registry.clone(), 0);
        for _ in 0..5 {
            assert!(!off.tick());
        }
        assert_eq!(registry.events().len(), 0);
    }

    #[test]
    fn scoped_handles_namespace_every_key() {
        let registry = Registry::new();
        let m = registry.handle();
        let shard0 = m.scoped("shard-0");
        let coord = m.scoped("coordinator");
        shard0.counter("consensus.rounds", 3);
        coord.counter("consensus.rounds", 1);
        shard0.gauge("mempool.len", 5);
        shard0.observe("transport.delay_ms", 2.0);
        shard0.event("mempool", "evicted", &[("nonce", "1".to_string())]);
        assert_eq!(registry.counter_value("shard-0.consensus.rounds"), 3);
        assert_eq!(registry.counter_value("coordinator.consensus.rounds"), 1);
        assert_eq!(registry.counter_value("consensus.rounds"), 0);
        assert_eq!(registry.gauge_value("shard-0.mempool.len"), Some(5));
        assert_eq!(registry.histogram("shard-0.transport.delay_ms").unwrap().count, 1);
        assert_eq!(registry.events()[0].scope, "shard-0.mempool");
        // Nesting composes; scoping a noop handle stays disabled.
        m.scoped("a").scoped("b").counter("c", 1);
        assert_eq!(registry.counter_value("a.b.c"), 1);
        assert!(!Metrics::noop().scoped("x").enabled());
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Metrics>();
        assert_send_sync::<Registry>();
        // Counters survive concurrent bumps from scoped threads.
        let registry = Registry::new();
        let m = registry.handle();
        crate::sync::scoped_map(vec![0u32; 8], |_| m.counter("t.c", 1));
        assert_eq!(registry.counter_value("t.c"), 8);
    }
}
