//! Transport-layer integration tests: real consensus over real sockets.
//!
//! The same PoA consortium is driven over the deterministic simulator
//! and over loopback TCP, checking that (1) a socket-backed cluster
//! commits blocks, (2) both transports produce the *identical* committed
//! chain for the same seed and workload, (3) simulated bandwidth
//! accounting equals the bytes actually framed onto sockets, and (4) the
//! fault-injection wrapper gives the same partition outcome over the
//! simulator and over TCP.

use medchain_chain::consensus::poa::{PoaEngine, PoaMsg};
use medchain_chain::consensus::{seeded_consortium, Application, Cluster};
use medchain_chain::node::ChainApp;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::tx::TxPayload;
use medchain_chain::{Hash256, Transaction};
use medchain_runtime::codec::Encode;
use medchain_transport::{
    FaultyTransport, LatencyModel, NodeId, SimTransport, TcpTransport, Transport, Wire,
    FRAME_OVERHEAD,
};

const INTERVAL_MS: u64 = 100;

/// Builds a PoA cluster over `net` with timestamps quantized to the tick
/// grid and (optionally) a pre-submitted transfer workload, so the
/// committed chain is a pure function of the configuration — not of
/// which clock the transport runs on.
fn poa_cluster<T: Transport<PoaMsg>>(
    net: T,
    interval_ms: u64,
    txs_per_key: u64,
) -> Cluster<PoaEngine, ChainApp, T> {
    let n = net.node_count();
    let (engines, registry) = PoaEngine::make_validators(n, interval_ms);
    let (keys, _) = seeded_consortium(n);
    let mut apps: Vec<ChainApp> = (0..n)
        .map(|_| {
            let mut app = ChainApp::new("transport-test", registry.clone());
            app.set_timestamp_quantum_ms(interval_ms);
            app.set_max_block_txs(3);
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
    Cluster::with_transport(engines, apps, net)
}

fn tips_at<T: Transport<PoaMsg>>(
    cluster: &Cluster<PoaEngine, ChainApp, T>,
    height: u64,
) -> Vec<Hash256> {
    cluster.replicas.iter().map(|r| r.app.tip_at(height)).collect()
}

#[test]
fn tcp_poa_cluster_commits_five_blocks() {
    let net = TcpTransport::bind(4).expect("loopback bind");
    let mut cluster = poa_cluster(net, 50, 0);
    let budget = cluster.net.now_ms() + 60_000;
    let report = cluster.run_until_height(5, budget);
    assert!(report.reached, "socket cluster stalled: {report:?}");
    for replica in &cluster.replicas {
        assert!(replica.app.height() >= 5);
    }
    let tips = tips_at(&cluster, 5);
    assert!(tips.windows(2).all(|w| w[0] == w[1]), "tips diverged over TCP");
    let stats = cluster.net.stats();
    assert!(stats.delivered > 0 && stats.bytes > 0);
    cluster.shutdown();
}

#[test]
fn sim_and_tcp_reach_identical_tip_hash() {
    const HEIGHT: u64 = 4;

    let mut sim = poa_cluster(SimTransport::new(4, 7), INTERVAL_MS, 6);
    let report = sim.run_until_height(HEIGHT, 3_600_000);
    assert!(report.reached, "sim cluster stalled: {report:?}");

    let net = TcpTransport::bind(4).expect("loopback bind");
    let mut tcp = poa_cluster(net, INTERVAL_MS, 6);
    let budget = tcp.net.now_ms() + 60_000;
    let report = tcp.run_until_height(HEIGHT, budget);
    assert!(report.reached, "tcp cluster stalled: {report:?}");

    // Identical committed chain: every replica on both transports agrees
    // on the block id at the target height — same transactions, same
    // quantized timestamps, same proposers, byte-identical headers.
    let sim_tips = tips_at(&sim, HEIGHT);
    let tcp_tips = tips_at(&tcp, HEIGHT);
    assert!(sim_tips.windows(2).all(|w| w[0] == w[1]), "sim replicas diverged");
    assert!(tcp_tips.windows(2).all(|w| w[0] == w[1]), "tcp replicas diverged");
    assert_eq!(
        sim_tips[0], tcp_tips[0],
        "same seed + workload must commit the same chain on both transports"
    );
    // The workload actually committed (4 blocks × 3 txs cap).
    let committed: usize = sim.replicas[0]
        .app
        .ledger()
        .blocks_from(0)
        .map(|b| b.transactions.len())
        .sum();
    assert!(committed >= 9, "only {committed} txs committed");

    // Bandwidth accounting: both transports carried the same message
    // multiset, the simulator's byte meter equals the canonical payload
    // bytes TCP actually framed, and the framing overhead is exactly
    // FRAME_OVERHEAD per message.
    let sim_stats = sim.net.stats();
    let tcp_stats = tcp.net.stats();
    assert_eq!(sim_stats.sent, tcp_stats.sent, "message multiset differs");
    assert_eq!(sim_stats.bytes, tcp_stats.bytes, "payload byte accounting differs");
    assert_eq!(
        tcp.net.framed_bytes(),
        tcp_stats.bytes + tcp_stats.sent * FRAME_OVERHEAD as u64,
        "framed traffic must be payload plus fixed per-frame overhead"
    );
    tcp.shutdown();
}

#[test]
fn wire_size_is_canonical_encoded_length() {
    // Commit one block with transactions, then check every layer of the
    // Wire stack against the canonical codec.
    let mut cluster = poa_cluster(SimTransport::new(3, 3), 50, 2);
    assert!(cluster.run_until_height(1, 600_000).reached);
    let block = cluster.replicas[0].app.ledger().block(1).expect("height 1 committed").clone();
    assert!(!block.transactions.is_empty());
    assert_eq!(block.wire_size(), block.encoded().len());
    for tx in block.transactions.iter() {
        assert_eq!(tx.wire_size(), tx.encoded().len());
    }
    let proposal = PoaMsg::Proposal {
        sig: AuthorityKey::from_seed(0).sign(&block.id().0),
        block: block.clone(),
    };
    assert_eq!(proposal.wire_size(), proposal.encoded().len());
    let sync = PoaMsg::SyncResponse { blocks: vec![block] };
    assert_eq!(sync.wire_size(), sync.encoded().len());
    // Round trip through the codec, as the TCP transport does per frame.
    let decoded = medchain_runtime::codec::Decode::decoded(&proposal.encoded());
    assert!(matches!(decoded, Ok(PoaMsg::Proposal { .. })));
}

/// Runs the "node 3 partitioned away" scenario on any transport wrapped
/// in a [`FaultyTransport`] and reports (live tip, isolated height).
fn partition_scenario<T: Transport<PoaMsg>>(inner: T, budget_ms: u64) -> (Hash256, u64) {
    let mut faulty = FaultyTransport::new(inner, 5);
    faulty.fail_node(NodeId(3));
    let mut cluster = poa_cluster(faulty, 50, 0);
    let budget = cluster.net.now_ms() + budget_ms;
    // Heights 1 and 2 belong to proposers 1 and 2; the live trio (quorum
    // 3-of-4) must commit both while node 3 stays dark.
    let report = cluster.run_until_height(2, budget);
    assert!(report.reached, "live majority stalled: {report:?}");
    let live_tips: Vec<Hash256> = (0..3).map(|i| cluster.replicas[i].app.tip_at(2)).collect();
    assert!(live_tips.windows(2).all(|w| w[0] == w[1]), "live replicas diverged");
    assert!(cluster.net.stats().dropped > 0, "partition was not exercised");
    let isolated = cluster.replicas[3].app.height();
    cluster.shutdown();
    (live_tips[0], isolated)
}

#[test]
fn faulty_partition_matches_sim_semantics_over_tcp() {
    let mut sim_inner = SimTransport::new(4, 99);
    sim_inner.set_latency(LatencyModel::zero());
    let (sim_tip, sim_isolated) = partition_scenario(sim_inner, 3_600_000);

    let tcp_inner = TcpTransport::bind(4).expect("loopback bind");
    let (tcp_tip, tcp_isolated) = partition_scenario(tcp_inner, 60_000);

    assert_eq!(sim_isolated, 0, "partitioned node must see nothing");
    assert_eq!(tcp_isolated, 0, "partitioned node must see nothing over TCP");
    assert_eq!(sim_tip, tcp_tip, "partition outcome must agree across transports");
}

#[test]
fn faulty_full_loss_stalls_cluster() {
    let mut inner = SimTransport::new(4, 1);
    inner.set_latency(LatencyModel::zero());
    let mut faulty = FaultyTransport::new(inner, 1);
    faulty.set_drop_rate(1.0);
    let mut cluster = poa_cluster(faulty, 50, 0);
    // Every proposal and vote is dropped: no replica ever commits.
    let report = cluster.run_until_height(1, 5_000);
    assert!(!report.reached, "total loss must stall consensus");
    assert!(cluster.net.stats().dropped > 0);
    for replica in &cluster.replicas {
        assert_eq!(replica.app.height(), 0);
    }
}

#[test]
fn medical_network_runs_over_tcp() {
    use medchain::TransportKind;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    let mut builder = medchain::Network::builder().transport(TransportKind::Tcp);
    for i in 0..3 {
        let records = CohortGenerator::new(&format!("h{i}"), SiteProfile::default(), i as u64)
            .cohort((i * 100) as u64, 2, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = builder.build().expect("socket-backed consortium builds");
    assert_eq!(net.transport_kind(), TransportKind::Tcp);
    assert!(net.height() > 0, "contract deployment must have committed blocks");
    let tips: Vec<Hash256> = (0..3).map(|i| net.ledger_of(i).tip().id()).collect();
    assert!(tips.windows(2).all(|w| w[0] == w[1]), "replicas diverged over TCP");
    let stats = net.net_stats();
    assert!(stats.bytes > 0 && stats.delivered > 0);
    net.shutdown();
}
