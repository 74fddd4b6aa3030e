//! Gateway load: a sharded consortium fronted by the TCP client
//! gateway (DESIGN.md §10), driven by the open-loop load generator —
//! Poisson arrivals, hot-key skew, a priority lane, and every commit
//! answered with a Merkle-proof-carrying receipt the client verifies
//! locally.
//!
//! ```text
//! cargo run --release --example gateway_load
//! ```

use medchain_repro::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 4-hospital consortium split into 2 sub-chains, with the
    //    ingress gateway listening on a loopback TCP port. Client keys
    //    are enrolled at build time so their signatures verify on every
    //    committee.
    let sessions = 6;
    println!("▸ building a 4-hospital, 2-shard consortium with a TCP ingress gateway…");
    let mut builder = Network::builder()
        .block_interval_ms(20)
        .shards(2)
        .gateway(GatewayConfig { clients: sessions });
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build_sharded()?;
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();
    println!("  gateway at {addr}, {} client keys enrolled", keys.len());

    // 2. Open-loop load: each session connects, submits anchors with
    //    exponential inter-arrival times, and polls its receipts. 25% of
    //    traffic hammers one hot label; 20% pays for the priority lane.
    let cfg = LoadConfig {
        sessions,
        txs_per_session: 30,
        mean_interarrival_ms: 2.0,
        hot_fraction: 0.25,
        priority_fraction: 0.2,
        shards: net.shard_count(),
        seed: 42,
        commit_timeout: Duration::from_secs(30),
    };
    println!(
        "▸ {} sessions × {} txs, Poisson arrivals (mean {:.1}ms)…",
        cfg.sessions, cfg.txs_per_session, cfg.mean_interarrival_ms
    );
    // The network serves on this thread (it is not Send); the client
    // population runs on scoped threads.
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            let report = run_sessions(addr, &keys, &cfg);
            stop.store(true, Ordering::Relaxed);
            report
        });
        net.serve_until(&stop).expect("serving succeeds");
        loader.join().expect("load generator")
    });

    // 3. Every receipt carried a Merkle inclusion proof the client
    //    checked against the root it names — zero trust in the gateway.
    println!(
        "▸ {} submitted, {} accepted, {} rejected, {} committed ({} timeouts)",
        report.submitted, report.accepted, report.rejected, report.committed, report.timeouts
    );
    println!(
        "  {:.0} tps sustained; commit latency p50 {:.1}ms  p99 {:.1}ms  max {:.1}ms",
        report.tps, report.p50_ms, report.p99_ms, report.max_ms
    );
    println!(
        "  {} priority admissions, {} proof failures",
        report.priority_accepted, report.proof_failures
    );
    assert_eq!(report.proof_failures, 0, "an honest gateway never fails a proof");
    assert!(report.committed > 0, "load must commit");
    println!(
        "▸ sub-chain heights {:?}, coordinator height {}",
        net.shard_heights(),
        net.coordinator_ledger().height()
    );
    println!("gateway round-trip OK: {} receipts verified client-side", report.committed);

    net.shutdown();
    Ok(())
}
