//! **E19** — million-user ingress: the client gateway under open-loop
//! load (DESIGN.md §10). A population of client sessions connects to
//! the TCP gateway with Poisson arrivals and hot-key skew; the gateway
//! batch-verifies signatures across a worker pool, routes admissions
//! into fee/priority mempool lanes, and answers every commit with a
//! proof-carrying `TxReceipt` that the **client verifies locally**.
//! The experiment checks the accounting (every submission accepted or
//! rejected, every commit proven) on a flat chain and on a sharded
//! topology, alongside the transport's backpressure counter; sustained
//! rate and latency are medbench's `gateway_mem` / `sharded_mixed`
//! end-to-end metrics.

use crate::report::Table;
use medchain::loadgen::{run_sessions, LoadConfig, LoadReport};
use medchain::{GatewayConfig, Network, NetworkBuilder};
use medchain_chain::sig::AuthorityKey;
use medchain_runtime::metrics::Metrics;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn load_config(quick: bool, shards: u16, seed: u64) -> LoadConfig {
    LoadConfig {
        sessions: if quick { 4 } else { 8 },
        txs_per_session: if quick { 12 } else { 40 },
        mean_interarrival_ms: 2.0,
        hot_fraction: 0.25,
        priority_fraction: 0.2,
        shards,
        seed,
        commit_timeout: Duration::from_secs(30),
    }
}

struct TopologyOutcome {
    name: &'static str,
    sessions: usize,
    load: LoadReport,
    backpressure: u64,
}

/// Runs the client population on a scoped thread while `serve` drives
/// the network on this one (a network is not `Send`: boxed transport),
/// raising the stop flag once every session has finished.
fn serve_load(
    addr: SocketAddr,
    keys: &[AuthorityKey],
    cfg: &LoadConfig,
    serve: impl FnOnce(&AtomicBool),
) -> LoadReport {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            let load = run_sessions(addr, keys, cfg);
            stop.store(true, Ordering::Relaxed);
            load
        });
        serve(&stop);
        loader.join().expect("loader thread")
    })
}

/// The 4-site consortium both topologies build from, its gateway sized
/// to the session count and its seed the load's.
fn builder(cfg: &LoadConfig, metrics: Metrics) -> NetworkBuilder {
    let gateway = GatewayConfig { clients: cfg.sessions };
    let mut builder = Network::builder()
        .seed(cfg.seed)
        .block_interval_ms(20)
        .metrics(metrics)
        .gateway(gateway);
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    builder
}

fn drive_flat(quick: bool, metrics: Metrics) -> TopologyOutcome {
    let cfg = load_config(quick, 1, 0xe19);
    let mut net = builder(&cfg, metrics).build().expect("flat gateway network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();
    let load = serve_load(addr, &keys, &cfg, |stop| {
        net.serve_until(stop).expect("serving succeeds");
    });
    let backpressure = net.net_stats().backpressure;
    net.shutdown();
    TopologyOutcome { name: "flat chain", sessions: cfg.sessions, load, backpressure }
}

fn drive_sharded(quick: bool, metrics: Metrics) -> TopologyOutcome {
    let cfg = load_config(quick, 2, 0x51e19);
    let mut net = builder(&cfg, metrics)
        .shards(cfg.shards)
        .build_sharded()
        .expect("sharded gateway network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();
    let load = serve_load(addr, &keys, &cfg, |stop| {
        net.serve_until(stop).expect("serving succeeds");
    });
    let backpressure = net.net_stats().backpressure;
    net.shutdown();
    TopologyOutcome { name: "2 sub-chains", sessions: cfg.sessions, load, backpressure }
}

/// Runs E19 with the gateway reporting `gateway.*` counters (requests,
/// sig_batches, accepted, dedup_hits, …) and every chain layer
/// reporting as usual into `metrics`.
pub fn run_e19(quick: bool, metrics: Metrics) -> Table {
    let flat = drive_flat(quick, metrics.clone());
    let sharded = drive_sharded(quick, metrics);
    let mut table = Table::new(
        "E19",
        "ingress gateway under open-loop Poisson load, receipts verified client-side",
        &[
            "topology",
            "sessions",
            "submitted",
            "accepted",
            "rejected",
            "committed",
            "timeouts",
            "backpressure",
        ],
    );
    for outcome in [&flat, &sharded] {
        let load = &outcome.load;
        // Invariants the receipts-as-API contract promises.
        assert_eq!(
            load.proof_failures, 0,
            "{}: a Merkle proof from an honest gateway failed client verification",
            outcome.name
        );
        assert!(load.committed > 0, "{}: nothing committed", outcome.name);
        assert_eq!(
            load.submitted,
            load.accepted + load.rejected,
            "{}: submissions unaccounted for",
            outcome.name
        );
        table.row(vec![
            outcome.name.to_string(),
            outcome.sessions.to_string(),
            load.submitted.to_string(),
            load.accepted.to_string(),
            load.rejected.to_string(),
            load.committed.to_string(),
            load.timeouts.to_string(),
            outcome.backpressure.to_string(),
        ]);
    }
    table.finding(format!(
        "every committed receipt carried a Merkle inclusion proof the client verified \
         locally ({} + {} receipts, 0 proof failures)",
        flat.load.committed, sharded.load.committed
    ));
    table.finding(format!(
        "{:.0}% of traffic hit one hot anchor label and {:.0}% rode the priority lane \
         ({} + {} priority admissions observed)",
        0.25 * 100.0,
        0.2 * 100.0,
        flat.load.priority_accepted,
        sharded.load.priority_accepted,
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e19_commits_load_and_verifies_receipts() {
        let registry = medchain_runtime::metrics::Registry::new();
        let table = run_e19(true, registry.handle());
        // Both topologies committed work.
        for row in &table.rows {
            let committed: usize = row[5].parse().unwrap();
            assert!(committed > 0, "{} committed nothing", row[0]);
        }
        // The gateway metered its pipeline.
        assert!(registry.counter_value("gateway.requests") > 0);
        assert!(registry.counter_value("gateway.sig_batches") > 0);
        assert!(registry.counter_value("gateway.accepted") > 0);
    }
}
