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
// The sharded tips were re-recorded when the 2PC resolver stopped
// committing an empty second block per decide and per finalize (heights
// 5/5/4 → 4/4/3); the state each committee ends in did not move, so its
// root is pinned beside the tip.
const SHARD_0: (u64, &str, &str) = (
    4,
    "95a1fb69dcd196b37f0f4610c0ea8ce66a6b544daeba8a6195190603a52e17ad",
    "c572458bcfcde8d81f3f418eef78f860e975a0c36d9d52c3f2fbd748cfd0d3bb",
);
const SHARD_1: (u64, &str, &str) = (
    4,
    "cdeff02e2fec6dfff9c524cf7b214a31a8a39fa3c4331cffb655f879d85a330f",
    "d168cb25361f4feca1adda3c571fd900b685123e6068e2e4e446ed915084d2e0",
);
const COORDINATOR: (u64, &str, &str) = (
    3,
    "d9d936e426abde85a6cbac0b0fc4a5f3695389d4a944ab07299d43f95f6b873a",
    "29633502eb44dea24bfe8d3fb692348dfdaa633988875a9301503b67ff037a82",
);

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
    let recorded = |ledger: &Ledger| {
        let tip = ledger.tip();
        (tip.header.height, tip.id().to_hex(), tip.header.state_root.to_hex())
    };
    for (ledger, (height, tip, root)) in [
        (net.ledger_of_shard(ShardId(0)), SHARD_0),
        (net.ledger_of_shard(ShardId(1)), SHARD_1),
        (net.coordinator_ledger(), COORDINATOR),
    ] {
        assert_eq!(recorded(ledger), (height, tip.to_string(), root.to_string()));
    }
}
