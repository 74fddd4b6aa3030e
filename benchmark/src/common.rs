//! Types every workload shares: the run environment, the result of one
//! measured run, and the shipped-default network builder.

use crate::stats::Samples;
use medchain::{GatewayBackend, GatewayConfig, MedicalNetwork, NetworkBuilder};
use medchain_chain::{Address, AuthorityKey, Lane, Transaction};
use medchain_runtime::metrics::{Metrics, Registry};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

pub type Res<T> = Result<T, String>;

/// Per-layer readings by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Sites in every consortium the benchmark builds.
pub const SITES: usize = 4;
/// Accounts prefilled on the resident workloads.
pub const PREFILL_ACCOUNTS: usize = 20_000;

/// What one invocation was asked to do.
pub struct Env {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// A directory of this run's own; removed on success.
    pub data_dir: PathBuf,
    /// The metrics sink: installed only in the traced run, so the
    /// untraced run measures the program with its shipped no-op handle.
    pub registry: Option<Registry>,
}

impl Env {
    pub fn metrics(&self) -> Metrics {
        self.registry
            .as_ref()
            .map(Registry::handle)
            .unwrap_or_else(Metrics::noop)
    }

    /// A fresh sub-directory of the run's data directory.
    pub fn fresh_dir(&self, name: &str) -> Res<PathBuf> {
        let dir = self.data_dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Zeroes the traced run's sink, so that what is read afterwards
    /// counts from this moment.
    pub fn reset_counters(&self) {
        if let Some(registry) = &self.registry {
            registry.reset();
        }
    }

    /// Counter value from the traced run's sink (0 when untraced).
    pub fn counter(&self, key: &str) -> f64 {
        self.registry
            .as_ref()
            .map(|r| r.counter_value(key))
            .unwrap_or(0) as f64
    }

    /// Histogram mean from the traced run's sink (0 when untraced or
    /// never observed).
    pub fn histogram_mean(&self, key: &str) -> f64 {
        self.registry
            .as_ref()
            .and_then(|r| r.histogram(key))
            .map(|h| h.mean())
            .unwrap_or(0.0)
    }
}

/// One measured window: one block, or a few dozen requests and the
/// in-process work that goes with them. Every window of a workload has
/// the same mix of operations.
pub struct Window {
    /// Latency of each primary operation completed in the window: a
    /// transaction from submission to verified receipt, or a job on
    /// `analytics_job`.
    pub ops: Vec<Duration>,
    /// Operations of every kind completed in the window (proven reads
    /// and cross-shard transfers too).
    pub done: u64,
    pub wall: Duration,
}

/// What one measured run produced. `main` turns this into the
/// end-to-end metrics, the same way for every workload.
#[derive(Default)]
pub struct Report {
    pub windows: Vec<Window>,
    /// Process CPU milliseconds consumed while the windows were measured
    /// (on the TCP workloads, the calibration requests before them too).
    pub cpu_ms: f64,
    /// `VmHWM` when the last window closed, before the gate builds
    /// anything of its own (a resident twin, a restarted network).
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; empty means `correct: true`.
    pub failures: Vec<String>,
    pub layers: Layers,
    /// Names in `layers` that are counts repeating exactly per seed.
    pub exact: Vec<&'static str>,
    /// Extra lines for the human-readable output (sample counts,
    /// digests).
    pub notes: Vec<String>,
}

impl Report {
    /// Closes the measured phase that began when `cpu_before` was read
    /// from [`crate::proc::cpu_ms`].
    pub fn measured(&mut self, windows: Vec<Window>, cpu_before: f64) {
        self.windows = windows;
        self.cpu_ms = crate::proc::cpu_ms() - cpu_before;
        self.peak_rss_mb = crate::proc::peak_rss_mb();
    }

    /// Primary-operation latencies of every window.
    pub fn ops(&self) -> Samples {
        let mut all = Samples::new();
        for d in self.windows.iter().flat_map(|w| &w.ops) {
            all.push(*d);
        }
        all
    }

    /// Operations of every kind completed in the windows.
    pub fn done(&self) -> u64 {
        self.windows.iter().map(|w| w.done).sum()
    }

    /// Wall time of the windows.
    pub fn wall(&self) -> Duration {
        self.windows.iter().map(|w| w.wall).sum()
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
        self.exact.push(name);
    }
}

/// The shipped-default consortium every workload starts from: four
/// sites, 20 ms blocks, the default gateway (whose 64 enrolled client
/// keys are the senders). The benchmark adds no knobs to the product.
pub fn consortium(env: &Env) -> NetworkBuilder {
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .gateway(GatewayConfig::default())
        .metrics(env.metrics());
    for i in 0..SITES {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    builder
}

/// Funds the senders and the prefilled population.
pub fn fund_all(mut fund: impl FnMut(Address, u64), keys: &[AuthorityKey], accounts: &[Address]) {
    for key in keys {
        fund(key.address(), crate::gen::PREFILL_BALANCE);
    }
    for addr in accounts {
        fund(*addr, crate::gen::PREFILL_BALANCE);
    }
}

/// Verifies `tx` and hands it to admission — what the gateway does with
/// a submission — for the warm-up blocks set-up commits in process.
pub fn admit(backend: &mut dyn GatewayBackend, tx: &Transaction) -> Res<()> {
    if !tx.verify(backend.registry()) {
        return Err(format!("{:?} fails signature verification", tx.id()));
    }
    let (_, outcome) = backend.admit_verified(tx.clone(), Lane::Normal);
    if !outcome.is_admitted() {
        return Err(format!("{:?} not admitted: {outcome:?}", tx.id()));
    }
    Ok(())
}
