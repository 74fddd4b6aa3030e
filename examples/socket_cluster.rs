//! Socket cluster: the same medical consortium, but with consensus
//! traffic carried over real loopback TCP sockets instead of the
//! deterministic simulator — one listener, reader, and writer thread
//! set per node, length-prefixed frames of canonically encoded
//! messages.
//!
//! ```text
//! cargo run --release --example socket_cluster
//! # or flip any other entry point onto sockets:
//! MEDCHAIN_TRANSPORT=tcp cargo run --release --example quickstart
//! ```

use medchain_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the consortium on the TCP transport. `TransportKind::
    //    from_env()` honours MEDCHAIN_TRANSPORT, so this example runs
    //    on sockets by default but can be forced back to the simulator
    //    with MEDCHAIN_TRANSPORT=sim.
    let kind = match std::env::var("MEDCHAIN_TRANSPORT").as_deref() {
        Ok("sim") => TransportKind::Sim,
        _ => TransportKind::Tcp,
    };
    println!("▸ building a 3-hospital consortium over {}…", kind.label());
    let mut builder = Network::builder().transport(kind);
    for i in 0..3 {
        let records =
            CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
                .cohort((i * 100_000) as u64, 200, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = builder.build()?;
    println!(
        "  transport = {}, chain height {} after contract deployment",
        net.transport_kind().label(),
        net.height()
    );

    // 2. Run a real workload: purpose-limited grants plus a gated query,
    //    with every consensus message framed onto a socket.
    let researcher = net.site(0).address();
    net.grant_all(researcher, Purpose::PublicHealth)?;
    let query = parse_request("mean blood pressure of smokers over 60 for public health")?;
    let (answer, report) = run_query(&mut net, 0, &query)?;
    println!(
        "▸ query permitted at {} site(s), denied at {}; answer: {answer}",
        report.permitted, report.denied
    );

    // 3. Every replica converged on the same tip even though delivery
    //    order came from the kernel scheduler, not a simulator heap.
    let tips: Vec<_> = (0..3).map(|i| net.ledger_of(i).tip().id()).collect();
    assert!(tips.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
    let stats = net.net_stats();
    println!(
        "▸ final height {}: {} messages sent, {} delivered, {} payload bytes on the wire, \
         all {} replicas on tip {}",
        net.height(),
        stats.sent,
        stats.delivered,
        stats.bytes,
        tips.len(),
        tips[0]
    );

    // 4. Tear down listener/reader/writer threads explicitly (Drop would
    //    also do it).
    net.shutdown();
    Ok(())
}
