//! Quickstart: stand up a three-hospital medical blockchain, grant a
//! researcher access, and answer a natural-language research query
//! through the full transformed pipeline (on-chain policy gate →
//! per-site execution → composed answer).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use medchain_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Three hospitals with private, locally-hosted synthetic cohorts.
    //    Building the network deploys the standard contracts and
    //    Merkle-anchors every dataset on-chain.
    println!("▸ building a 3-hospital consortium…");
    let mut builder = Network::builder();
    for i in 0..3 {
        let records = CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
            .cohort((i * 100_000) as u64, 400, &DiseaseModel::stroke());
        println!("  hospital-{i}: {} patients (never leave the premises)", records.len());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = builder.build()?;
    println!(
        "  chain height {}, contracts: data={:?} analytics={:?} trial={:?}",
        net.height(),
        net.contracts().data,
        net.contracts().analytics,
        net.contracts().trial,
    );

    // 2. Every hospital grants the researcher (hospital-0's identity
    //    here) public-health access — a fine-grained, purpose-limited,
    //    on-chain policy.
    let researcher = net.site(0).address();
    net.grant_all(researcher, Purpose::PublicHealth)?;
    println!("▸ purpose-limited grants recorded on-chain");

    // 3. A natural-language query becomes a query vector, is gated by
    //    each site's data contract, executes next to the data, and the
    //    partial results compose into the exact global answer.
    let request = "mean blood pressure of smokers over 60 for public health";
    let query = parse_request(request)?;
    println!("▸ query: {request:?}\n  → {}", query.describe());
    let (answer, report) = run_query(&mut net, 0, &query)?;
    println!(
        "  permitted at {} site(s), denied at {}; {} result bytes crossed the wire",
        report.permitted, report.denied, report.bytes_returned
    );
    println!("  answer: {answer}");

    // 4. Everything is auditable: the answer hash is anchored, and the
    //    chain agrees across every replica.
    println!(
        "▸ final height {} — {} anchors on-chain, every step auditable",
        net.height(),
        net.ledger().state().anchor_count()
    );
    Ok(())
}
