//! Metrics-spine integration tests: every layer of the stack reports
//! into one [`MetricsSink`], and tests assert on sink values instead of
//! parsing printed output.
//!
//! Covered here: (1) the simulator and the TCP transport report the
//! *identical* `transport.bytes` counter for the same seed and workload
//! (the sink-level restatement of the byte-parity invariant in
//! `tests/transport.rs`), and (2) an end-to-end [`Network`] run
//! populates consensus, chain, mempool, and transport counters and the
//! TSV export carries them. (Mempool-level sink tests live with the
//! mempool itself in `crates/chain/src/mempool.rs`.)

use medchain_chain::consensus::poa::{PoaEngine, PoaMsg};
use medchain_chain::consensus::Cluster;
use medchain_chain::node::ChainApp;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::tx::TxPayload;
use medchain_chain::Transaction;
use medchain_runtime::metrics::{Metrics, Registry};
use medchain_transport::{SimTransport, TcpTransport, Transport};

const INTERVAL_MS: u64 = 100;

/// PoA cluster over `net` with a pre-submitted transfer workload and
/// `metrics` installed on the cluster and replica 0's app (the same
/// replica-0 convention `Network` uses).
fn metered_poa_cluster<T: Transport<PoaMsg>>(
    net: T,
    txs_per_key: u64,
    metrics: Metrics,
) -> Cluster<PoaEngine, ChainApp, T> {
    let n = net.node_count();
    let (engines, registry, _) = PoaEngine::make_validators(n, INTERVAL_MS);
    let keys: Vec<AuthorityKey> = (0..n).map(|i| AuthorityKey::from_seed(i as u64)).collect();
    let mut apps: Vec<ChainApp> = (0..n)
        .map(|i| {
            let mut app = ChainApp::new("metrics-test", registry.clone());
            app.set_timestamp_quantum_ms(INTERVAL_MS);
            app.set_max_block_txs(3);
            if i == 0 {
                app.set_metrics(metrics.clone());
            }
            app
        })
        .collect();
    for key in &keys {
        for app in apps.iter_mut() {
            app.ledger_mut().state_mut().credit(key.address(), 1_000_000);
        }
    }
    for (i, key) in keys.iter().enumerate() {
        for nonce in 0..txs_per_key {
            let tx = Transaction::new(
                key.address(),
                nonce,
                TxPayload::Transfer { to: keys[(i + 1) % n].address(), amount: 1 },
                1_000,
            )
            .signed(key);
            for app in apps.iter_mut() {
                app.submit(tx.clone());
            }
        }
    }
    let mut cluster = Cluster::with_transport(engines, apps, net);
    cluster.set_metrics(metrics);
    cluster
}

#[test]
fn sim_and_tcp_transport_byte_counters_agree() {
    const HEIGHT: u64 = 4;

    let sim_registry = Registry::default();
    let mut sim_net = SimTransport::new(4, 7);
    sim_net.set_metrics(sim_registry.handle());
    let mut sim = metered_poa_cluster(sim_net, 6, sim_registry.handle());
    assert!(sim.run_until_height(HEIGHT, 3_600_000).reached, "sim cluster stalled");

    let tcp_registry = Registry::default();
    let mut tcp_net = TcpTransport::bind(4).expect("loopback bind");
    tcp_net.set_metrics(tcp_registry.handle());
    let mut tcp = metered_poa_cluster(tcp_net, 6, tcp_registry.handle());
    let budget = tcp.net.now_ms() + 60_000;
    assert!(tcp.run_until_height(HEIGHT, budget).reached, "tcp cluster stalled");

    // The sink-level byte counters must match each other and the
    // transports' own NetStats meters exactly.
    let sim_bytes = sim_registry.counter_value("transport.bytes");
    let tcp_bytes = tcp_registry.counter_value("transport.bytes");
    assert!(sim_bytes > 0, "sim reported no bytes");
    assert_eq!(sim_bytes, tcp_bytes, "sink byte counters diverged across transports");
    assert_eq!(sim_bytes, sim.net.stats().bytes, "sim sink disagrees with NetStats");
    assert_eq!(tcp_bytes, tcp.net.stats().bytes, "tcp sink disagrees with NetStats");
    assert_eq!(
        sim_registry.counter_value("transport.sent"),
        tcp_registry.counter_value("transport.sent"),
        "message multiset differs"
    );
    // Both clusters committed at least the target rounds (final tips
    // may run a block or two ahead depending on transport timing).
    assert!(sim_registry.counter_value("consensus.rounds") >= HEIGHT);
    assert!(tcp_registry.counter_value("consensus.rounds") >= HEIGHT);
    tcp.shutdown();
}

#[test]
fn medical_network_populates_the_sink_end_to_end() {
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    let registry = Registry::default();
    let mut builder = medchain::Network::builder().metrics(registry.handle());
    for i in 0..3 {
        let records = CohortGenerator::new(&format!("h{i}"), SiteProfile::default(), i as u64)
            .cohort((i * 100) as u64, 3, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let net = builder.build().expect("consortium builds");
    assert!(net.height() > 0, "contract deployment must commit blocks");

    // Every layer reported: consensus, chain app, mempool, transport.
    assert!(registry.counter_value("consensus.rounds") > 0);
    assert!(registry.counter_value("consensus.signatures") > 0);
    assert!(registry.counter_value("chain.blocks_committed") > 0);
    assert!(registry.counter_value("mempool.inserted") > 0);
    assert!(registry.counter_value("transport.sent") > 0);
    assert!(registry.counter_value("transport.bytes") > 0);
    // Replica-0 convention: blocks committed equals the chain height
    // seen by the network, not n× it.
    assert_eq!(registry.counter_value("chain.blocks_committed"), net.height());

    // The TSV export carries the same counters for scripts to grep.
    let tsv = registry.to_tsv();
    for key in ["consensus.rounds", "mempool.inserted", "transport.bytes"] {
        assert!(
            tsv.lines().any(|l| l.starts_with(&format!("counter\t{key}\t"))),
            "TSV missing {key}:\n{tsv}"
        );
    }
}
