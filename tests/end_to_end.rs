//! Cross-crate integration tests: the full architecture exercised end
//! to end, spanning chain, contracts, off-chain control, data, query,
//! learning, and trial layers.

use medchain::pipeline::{run_query, train_federated};
use medchain::Network;
use medchain_chain::Hash256;
use medchain_contracts::policy::Purpose;
use medchain_contracts::value::Value;
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
use medchain_data::{Dataset, PatientRecord};
use medchain_learning::AggregateValue;
use medchain_offchain::{verify_against_chain, IntegrityVerdict};
use medchain_query::{parse_request, QueryAnswer};

fn site_records(i: usize, n: usize) -> Vec<PatientRecord> {
    CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), 1_000 + i as u64)
        .cohort((i * 1_000_000) as u64, n, &DiseaseModel::stroke())
}

fn build_network(sites: usize, per_site: usize) -> Network {
    let mut builder = Network::builder().seed(2026);
    for i in 0..sites {
        builder = builder.site(&format!("hospital-{i}"), site_records(i, per_site));
    }
    builder.build().expect("network builds")
}

#[test]
fn nl_query_through_full_stack_matches_ground_truth() {
    let mut net = build_network(4, 200);
    let researcher = net.site(3).address();
    net.grant_all(researcher, Purpose::Research).unwrap();

    let query = parse_request("count diabetic patients over 50").unwrap();
    let (answer, report) = run_query(&mut net, 3, &query).unwrap();
    assert_eq!(report.permitted, 4);

    // Ground truth over the union of all site data.
    let expected = (0..4)
        .flat_map(|i| site_records(i, 200))
        .filter(|r| query.cohort.matches(r))
        .count() as f64;
    match answer {
        QueryAnswer::Aggregates(values) => match &values[0] {
            AggregateValue::Scalar(count) => assert_eq!(*count, expected),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

#[test]
fn policy_revocation_takes_effect_on_chain() {
    let mut net = build_network(2, 50);
    let researcher = net.site(1).address();
    net.grant_all(researcher, Purpose::Research).unwrap();
    let data = net.contracts().data;

    // Permitted while granted.
    let id = net
        .invoke(
            1,
            data,
            "request",
            &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
            50_000,
        )
        .unwrap();
    let receipt = net.confirm(&id).unwrap();
    let permit = medchain_contracts::decode_args(&receipt.output).unwrap()[0]
        .as_int()
        .unwrap();
    assert_eq!(permit, 1);

    // Owner revokes; next request is denied and auditable.
    let id = net
        .invoke(
            0,
            data,
            "revoke",
            &[Value::str("hospital-0/emr"), Value::address(&researcher)],
            50_000,
        )
        .unwrap();
    net.confirm(&id).unwrap();
    let id = net
        .invoke(
            1,
            data,
            "request",
            &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
            50_000,
        )
        .unwrap();
    let receipt = net.confirm(&id).unwrap();
    let permit = medchain_contracts::decode_args(&receipt.output).unwrap()[0]
        .as_int()
        .unwrap();
    assert_eq!(permit, 0);
    assert_eq!(net.receipt(&id.tx_id).unwrap().events[0].topic, "DataDenied");
}

#[test]
fn dataset_anchors_detect_off_chain_tampering() {
    let net = build_network(2, 80);
    let records = site_records(0, 80);
    // Honest presentation verifies against the on-chain anchor.
    let verdict = verify_against_chain(
        net.ledger().state(),
        "hospital-0/emr",
        records.iter().map(PatientRecord::canonical_bytes),
    );
    assert_eq!(verdict, IntegrityVerdict::Intact);

    // One rewritten outcome is detected.
    let mut tampered: Vec<Vec<u8>> =
        records.iter().map(PatientRecord::canonical_bytes).collect();
    tampered[17] = b"rewritten-record".to_vec();
    let verdict = verify_against_chain(net.ledger().state(), "hospital-0/emr", tampered);
    assert!(matches!(verdict, IntegrityVerdict::Tampered { .. }));
}

#[test]
fn federated_training_improves_and_anchors_every_round() {
    let mut net = build_network(3, 300);
    // Every round runs only where the data contract permits research use.
    let researcher = net.site(0).address();
    net.grant_all(researcher, Purpose::Research).unwrap();
    let eval_records = CohortGenerator::new("eval", SiteProfile::default(), 4_242).cohort(
        50_000_000,
        1_200,
        &DiseaseModel::stroke(),
    );
    let eval = Dataset::from_records(&eval_records, STROKE_CODE);
    let report = train_federated(&mut net, 0, STROKE_CODE, 5, Some(&eval)).unwrap();
    let first = report.rounds.first().unwrap().eval_auc.unwrap();
    let last = report.rounds.last().unwrap().eval_auc.unwrap();
    assert!(last >= first - 0.02, "AUC fell: {first} → {last}");
    assert!(last > 0.6, "final AUC {last}");
    for round in &report.rounds {
        let label = format!("fedavg/{STROKE_CODE}/round-{}", round.round);
        assert_eq!(net.ledger().state().anchor(&label), Some(round.params_hash));
    }
}

#[test]
fn trial_lifecycle_on_chain() {
    let mut net = build_network(2, 50);
    let trial = net.contracts().trial;
    let id = net
        .invoke(
            0,
            trial,
            "register",
            &[
                Value::str("NCT-INT-1"),
                Value::Bytes(Hash256::digest(b"protocol").0.to_vec()),
                Value::str("mortality"),
            ],
            50_000,
        )
        .unwrap();
    net.confirm(&id).unwrap();

    for k in 0..4u8 {
        let id = net
            .invoke(
                0,
                trial,
                "enroll",
                &[Value::str("NCT-INT-1"), Value::Bytes(vec![k])],
                50_000,
            )
            .unwrap();
        net.confirm(&id).unwrap();
    }
    // Honest + switched outcome.
    for outcome in ["mortality", "surrogate-endpoint"] {
        let id = net
            .invoke(
                1,
                trial,
                "report_outcome",
                &[
                    Value::str("NCT-INT-1"),
                    Value::str(outcome),
                    Value::Bytes(Hash256::digest(outcome.as_bytes()).0.to_vec()),
                ],
                50_000,
            )
            .unwrap();
        net.confirm(&id).unwrap();
    }
    let id = net
        .invoke(0, trial, "audit", &[Value::str("NCT-INT-1")], 50_000)
        .unwrap();
    let receipt = net.confirm(&id).unwrap();
    let audit = medchain_contracts::decode_args(&receipt.output).unwrap();
    assert_eq!(audit[0], Value::Int(2));
    assert_eq!(audit[1], Value::Int(1));

    let id = net
        .invoke(0, trial, "enrollment", &[Value::str("NCT-INT-1")], 50_000)
        .unwrap();
    let receipt = net.confirm(&id).unwrap();
    assert_eq!(
        medchain_contracts::decode_args(&receipt.output).unwrap()[0],
        Value::Int(4)
    );
}

#[test]
fn replicas_converge_after_heavy_mixed_load() {
    let mut net = build_network(3, 60);
    let contracts = net.contracts();
    net.grant_all(net.site(2).address(), Purpose::Research).unwrap();
    for k in 0..12 {
        net.invoke(
            2,
            contracts.data,
            "request",
            &[
                Value::str(&format!("hospital-{}/emr", k % 3)),
                Value::Int(Purpose::Research.code()),
            ],
            50_000,
        )
        .unwrap().tx_id;
    }
    net.advance(4).unwrap();
    let tips: Vec<Hash256> = (0..3).map(|i| net.ledger_of(i).tip().id()).collect();
    assert!(tips.windows(2).all(|w| w[0] == w[1]), "replicas diverged: {tips:?}");
    let roots: Vec<Hash256> =
        (0..3).map(|i| net.ledger_of(i).state().state_root()).collect();
    assert!(roots.windows(2).all(|w| w[0] == w[1]), "states diverged");
}

#[test]
fn time_limited_grants_expire_on_chain() {
    let mut net = build_network(2, 40);
    let researcher = net.site(1).address();
    let data = net.contracts().data;
    // Grant research access that expires at logical time 10 000 ms.
    let id = net
        .invoke(
            0,
            data,
            "grant",
            &[
                Value::str("hospital-0/emr"),
                Value::address(&researcher),
                Value::Int(Purpose::Research.code()),
                Value::Int(10_000),
            ],
            50_000,
        )
        .unwrap();
    net.confirm(&id).unwrap();

    let request = |net: &mut Network| {
        let id = net
            .invoke(
                1,
                data,
                "request",
                &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
                50_000,
            )
            .unwrap();
        let receipt = net.confirm(&id).unwrap();
        medchain_contracts::decode_args(&receipt.output).unwrap()[0]
            .as_int()
            .unwrap()
    };

    // Within the validity window (block timestamps are early): permitted.
    assert_eq!(request(&mut net), 1, "grant should be valid early on");

    // Let logical time pass beyond the expiry, then request again: the
    // block timestamp now exceeds the grant's expiry, so the policy
    // evaluation inside the contract denies.
    while net.ledger().tip().header.timestamp_ms < 10_000 {
        net.advance(20).unwrap();
    }
    assert_eq!(request(&mut net), 0, "grant must expire with chain time");
}

#[test]
fn fda_special_node_audits_the_consortium() {
    use medchain::pipeline::fda_integrity_sweep;
    // On either shape the grants live on the home chain: the flat chain,
    // or the coordinator every site runs.
    for shards in [1, 2] {
        let mut builder = Network::builder().seed(99).shards(shards).with_fda();
        for i in 0..3 {
            builder = builder.site(&format!("hospital-{i}"), site_records(i, 60));
        }
        let mut net = builder.build().unwrap();

        // The FDA node exists, hosts nothing, and is a consortium validator.
        let fda = net.fda_index().expect("fda node present");
        assert_eq!(net.site(fda).name(), "fda");
        assert!(net.site(fda).records().is_empty());
        assert_eq!(net.site_count(), 4);

        // Its regulatory-audit grant is live on every hospital dataset.
        let data = net.contracts().data;
        for i in 0..3 {
            let id = net
                .invoke(
                    fda,
                    data,
                    "request",
                    &[
                        Value::str(&format!("hospital-{i}/emr")),
                        Value::Int(Purpose::RegulatoryAudit.code()),
                    ],
                    50_000,
                )
                .unwrap();
            let receipt = net.confirm(&id).unwrap();
            assert_eq!(receipt.shard, net.home_ledger().shard());
            let permit = medchain_contracts::decode_args(&receipt.output).unwrap()[0]
                .as_int()
                .unwrap();
            assert_eq!(permit, 1, "FDA audit access denied at hospital-{i} ({shards} shards)");
        }
        // But research purpose was never granted to the FDA.
        let id = net
            .invoke(
                fda,
                data,
                "request",
                &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
                50_000,
            )
            .unwrap();
        let receipt = net.confirm(&id).unwrap();
        assert_eq!(
            medchain_contracts::decode_args(&receipt.output).unwrap()[0].as_int().unwrap(),
            0,
            "purpose limitation must hold for the regulator too"
        );

        // The integrity sweep finds everything intact.
        let report = fda_integrity_sweep(&net);
        assert_eq!(report.datasets_intact, 4); // 3 hospitals + fda's empty set
        assert_eq!(report.datasets_tampered, 0);
        assert!(report.blocks_verified > 0);
    }
}

/// The Fig. 1 job path runs on the Fig. 2 consortium once it shards:
/// with the standard contracts on the coordinator, a query, a GWAS and
/// two federated rounds on `.shards(2)` compose the answers the flat
/// network composes from the same sites and records, and each round's
/// parameters are anchored on the shard its label routes to.
#[test]
fn a_sharded_consortium_composes_the_flat_answers() {
    use medchain::pipeline::run_gwas;
    use medchain_chain::shard::shard_for_key;
    let records = |i: usize| {
        let profile = SiteProfile { genomic_coverage: 1.0, ..SiteProfile::varied(i) };
        CohortGenerator::new(&format!("hospital-{i}"), profile, 3_000 + i as u64).cohort(
            (i * 1_000_000) as u64,
            150,
            &DiseaseModel::stroke(),
        )
    };
    let run = |shards: u16| {
        let mut builder = Network::builder().seed(2026).shards(shards);
        for i in 0..4 {
            builder = builder.site(&format!("hospital-{i}"), records(i));
        }
        let mut net = builder.build().expect("network builds");
        assert_eq!(net.shard_count(), shards);
        let researcher = net.site(0).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
        let query = parse_request("count diabetic patients over 50").unwrap();
        let (answer, report) = run_query(&mut net, 0, &query).unwrap();
        assert_eq!(report.permitted, 4);
        let (associations, _) = run_gwas(&mut net, 0, STROKE_CODE, Purpose::Research).unwrap();
        let federated = train_federated(&mut net, 0, STROKE_CODE, 2, None).unwrap();
        for round in &federated.rounds {
            let label = format!("fedavg/{STROKE_CODE}/round-{}", round.round);
            let chain = net.ledger_of_shard(shard_for_key(label.as_bytes(), shards));
            assert_eq!(chain.state().anchor(&label), Some(round.params_hash));
        }
        (answer, associations, federated.params)
    };
    let flat = run(1);
    assert!(!flat.1.is_empty(), "the GWAS found SNPs");
    assert_eq!(run(2), flat);
}

#[test]
fn distributed_gwas_through_policy_gate_matches_centralized() {
    use medchain::pipeline::run_gwas;
    use medchain_data::genomics;

    // Genomically rich cohorts at every site.
    let rich_records = |i: usize| {
        let profile = SiteProfile { genomic_coverage: 1.0, ..SiteProfile::varied(i) };
        CohortGenerator::new(&format!("hospital-{i}"), profile, 7_000 + i as u64).cohort(
            (i * 1_000_000) as u64,
            400,
            &DiseaseModel::stroke(),
        )
    };
    let mut builder = Network::builder().seed(4242);
    let mut all = Vec::new();
    for i in 0..3 {
        let records = rich_records(i);
        all.extend(records.clone());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = builder.build().unwrap();
    let researcher = net.site(0).address();
    net.grant_all(researcher, Purpose::Research).unwrap();

    let (associations, report) =
        run_gwas(&mut net, 0, STROKE_CODE, Purpose::Research).unwrap();
    assert_eq!(report.permitted, 3);
    assert!(report.cases > 0 && report.controls > 0);
    // Count tables are tiny compared with shipping genomes.
    assert!(report.bytes_returned < 3 * 1_000);

    // Exactness: composed equals centralized.
    let centralized = genomics::compose(&[genomics::map_site(&all, STROKE_CODE)]);
    assert_eq!(associations.len(), centralized.len());
    for (a, c) in associations.iter().zip(&centralized) {
        assert_eq!(a.snp, c.snp);
        assert!((a.chi_square - c.chi_square).abs() < 1e-9);
    }
    // The result anchor is on-chain.
    let anchored = net
        .ledger()
        .state()
        .anchor_count();
    assert!(anchored > 3, "gwas anchor recorded");
}
