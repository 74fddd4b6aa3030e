//! Golden tips for the one shared committee life cycle
//! (`medchain::committee`, DESIGN.md §3).
//!
//! The flat network and every shard of a sharded one are built, fed and
//! advanced by the same code. What an outside observer can see of that
//! code is the chain it commits: chain ids, genesis, per-committee sim
//! seeds, nonce assignment, timestamp quantization and block cadence all
//! end up in the tip hash. The constants below were recorded on the
//! simulated transport at the commit *before* the two hand-written
//! copies were folded into one; any drift in a seed, an id or the order
//! of a fan-out changes them.

use medchain_repro::prelude::*;

const FLAT_TIP: &str = "3647d149ffb525975241cbbfbd10188b483f27911b5924551445f2af5a5fe6fd";
const SHARD_0_TIP: &str = "a9e08c76a4609ae28f8b6ca86c05e562068360496ccb1263cc65edab9d97d1e4";
const SHARD_1_TIP: &str = "a24256f41fc896b46c50b2e0370eef19fa9ce6d753cae562f1569bbf397c6a7c";
const COORDINATOR_TIP: &str = "4d2595ae1a00a06e1090fe26619ba931ec8a3e7f161857d7a1d9815dd10c9dec";

fn anchor(label: &str) -> TxPayload {
    TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label: label.to_string() }
}

fn builder(seed: u64) -> medchain::NetworkBuilder {
    let mut builder = MedicalNetwork::builder().block_interval_ms(20).seed(seed);
    for i in 0..4 {
        let records = CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
            .cohort((i * 10_000) as u64, 12, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    builder
}

/// An address homed on a different shard than `other`.
fn other_shard_address(other: Address, shards: u16) -> Address {
    let home = shard_for_key(&other.0, shards);
    (1000..)
        .map(Address::from_seed)
        .find(|a| shard_for_key(&a.0, shards) != home)
        .expect("some seed lands on the other shard")
}

/// 4-site flat chain: `build()` (three deploys, four dataset
/// registrations + anchors) and then three confirmed anchors.
#[test]
fn flat_network_reproduces_the_recorded_tip() {
    let mut net = builder(7).build().expect("flat network builds");
    for site in 0..3 {
        let pending =
            net.submit(site, anchor(&format!("golden/flat-{site}")), 1_000).expect("admitted");
        net.confirm(&pending).expect("anchor commits");
    }
    for site in 1..4 {
        assert_eq!(net.ledger_of(site).tip().id(), net.ledger().tip().id());
    }
    assert_eq!(net.ledger().tip().id().to_hex(), FLAT_TIP);
}

/// 4 sites in 2 shards: six routed anchors, one cross-link round, one
/// committed cross-shard transfer — every committee (both shards and
/// the coordinator) has advanced, signed under its own nonces.
#[test]
fn sharded_network_reproduces_the_recorded_tips() {
    let mut net = builder(11).shards(2).build_sharded().expect("sharded network builds");
    for k in 0..6 {
        net.submit(k % 4, anchor(&format!("golden/sharded-{k}")), 1_000).expect("admitted");
    }
    net.advance(2).expect("shards commit");
    assert_eq!(net.cross_link().expect("cross-link round").len(), 2);
    let from = AuthorityKey::from_seed(0).address();
    let to = other_shard_address(from, 2);
    net.fund(from, 100);
    let deadline = net.now_ms() + 1_000_000;
    let (_, committed) =
        net.run_cross_shard_transfer(0, to, 40, deadline).expect("transfer resolves");
    assert!(committed);
    assert_eq!(net.ledger_of_shard(ShardId(0)).tip().id().to_hex(), SHARD_0_TIP);
    assert_eq!(net.ledger_of_shard(ShardId(1)).tip().id().to_hex(), SHARD_1_TIP);
    assert_eq!(net.coordinator_ledger().tip().id().to_hex(), COORDINATOR_TIP);
}
