//! Distributed learning across hospitals (paper §III-C): federated
//! training of a stroke-risk model over non-IID site cohorts with every
//! round anchored on-chain, compared with the centralized upper bound
//! and silo'd local models — then transfer learning onto a small cancer
//! cohort (the paper's jump-start, §III-A).
//!
//! ```text
//! cargo run --release --example federated_hospitals
//! ```

use medchain_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Six hospitals with systematically different populations
    //    (age, smoking, diabetes, device coverage) — non-IID shards.
    let mut builder = Network::builder();
    let mut shards = Vec::new();
    for i in 0..6 {
        let records = CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
            .cohort((i * 100_000) as u64, 500, &DiseaseModel::stroke());
        shards.push(Dataset::from_records(&records, STROKE_CODE));
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = builder.build()?;
    let eval_records = CohortGenerator::new("eval", SiteProfile::default(), 999).cohort(
        9_000_000,
        2_000,
        &DiseaseModel::stroke(),
    );
    let eval = Dataset::from_records(&eval_records, STROKE_CODE);

    // 2. Federated training through the architecture, every round's
    //    global parameters hash-anchored on-chain.
    println!("▸ federated stroke-risk training across 6 hospitals (10 rounds)…");
    let report = train_federated(&mut net, 0, STROKE_CODE, 10, Some(&eval))?;
    for round in &report.rounds {
        println!(
            "  round {:>2}: AUC {:.3}  anchor {}",
            round.round,
            round.eval_auc.unwrap_or(0.5),
            &round.params_hash.to_hex()[..12]
        );
    }
    println!(
        "  model traffic {} bytes vs {} bytes to centralize raw records ({}× saving) — and no \
         record ever left its hospital",
        report.model_bytes,
        report.raw_bytes_equivalent,
        report.raw_bytes_equivalent / report.model_bytes.max(1)
    );

    // 3. Baselines: centralized union (forbidden in practice) and
    //    silo'd local-only models.
    let central = centralized_baseline(FedLogistic::new(10, 30), &shards);
    let central_auc = auc(&central.predict(&eval), &eval.labels);
    let locals = local_only_baseline(FedLogistic::new(10, 30), &shards);
    let local_auc: f64 = locals
        .iter()
        .map(|m| auc(&m.predict(&eval), &eval.labels))
        .sum::<f64>()
        / locals.len() as f64;
    let mut fed_model = LogisticRegression::new(10);
    fed_model.set_params(&report.params);
    let fed_auc = auc(&fed_model.predict(&eval), &eval.labels);
    println!(
        "▸ held-out AUC — federated {fed_auc:.3} | centralized (upper bound) {central_auc:.3} | \
         mean local-only (silo) {local_auc:.3}"
    );

    // 4. Distributed transfer learning: federated pretraining on the
    //    stroke shards, then fine-tune the frozen features on a tiny
    //    cancer cohort at one hospital.
    println!("▸ distributed transfer learning: stroke features → small cancer cohort");
    let base = pretrain_federated(&shards, 4, 8);
    let config = MlpConfig { hidden: vec![16], epochs: 40, ..MlpConfig::default() };
    let target_train_records = CohortGenerator::new("onc", SiteProfile::default(), 77).cohort(
        5_000_000,
        120,
        &DiseaseModel::cancer(),
    );
    let target_train = Dataset::from_records(&target_train_records, CANCER_CODE);
    let target_test_records = CohortGenerator::new("onc-test", SiteProfile::default(), 78)
        .cohort(6_000_000, 1_500, &DiseaseModel::cancer());
    let target_test = Dataset::from_records(&target_test_records, CANCER_CODE);
    let tuned = fine_tune(&base, &target_train, &config);
    let transfer_auc = auc(&tuned.predict(&target_test), &target_test.labels);
    let mut scratch = medchain_learning::Mlp::new(10, &config);
    scratch.train(&target_train, &config);
    let scratch_auc = auc(&scratch.predict(&target_test), &target_test.labels);
    println!(
        "  n=120 cancer cohort: transfer AUC {transfer_auc:.3} vs from-scratch {scratch_auc:.3} \
         — the core-dataset jump-start the paper wants for the medical domain"
    );
    Ok(())
}
