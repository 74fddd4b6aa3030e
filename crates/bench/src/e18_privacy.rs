//! **E18** — the privacy/utility curve of differentially private
//! federated learning (paper §III-C: federated learning "all while
//! ensuring privacy"). Data locality bounds *where* records sit; the
//! Gaussian mechanism on clipped updates bounds *what the parameters
//! leak*. This experiment sweeps the noise multiplier and records the
//! utility cost.

use crate::report::{f, Table};
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
use medchain_data::Dataset;
use medchain_learning::{DpConfig, FedAvg, FedLogistic};
use medchain_runtime::metrics::Metrics;

/// Runs E18 reporting `dp.*` to `metrics`: noise levels swept, private
/// rounds run, and every private final AUC observed.
pub fn run_e18(quick: bool, metrics: Metrics) -> Table {
    let sites = if quick { 4 } else { 8 };
    let per_site = if quick { 500 } else { 1_000 };
    let rounds = if quick { 10 } else { 20 };
    let shards: Vec<Dataset> = (0..sites)
        .map(|i| {
            let records =
                CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 180 + i as u64)
                    .cohort((i * 100_000) as u64, per_site, &DiseaseModel::stroke());
            Dataset::from_records(&records, STROKE_CODE)
        })
        .collect();
    let eval_records = CohortGenerator::new("eval", SiteProfile::default(), 1_818).cohort(
        7_000_000,
        2_000,
        &DiseaseModel::stroke(),
    );
    let eval = Dataset::from_records(&eval_records, STROKE_CODE);

    let mut table = Table::new(
        "E18",
        &format!("DP federated learning: noise sweep, {sites} sites × {per_site}, {rounds} rounds"),
        &["noise multiplier", "final AUC", "ΔAUC vs non-private"],
    );
    let mut fed = FedAvg::new(FedLogistic::new(10, 3), rounds);
    let baseline = fed.run(&shards, Some(&eval)).final_auc();
    table.row(vec!["0 (non-private)".into(), f(baseline), "—".into()]);
    for noise in [0.05, 0.2, 0.5, 1.0, 3.0] {
        let dp = DpConfig { clip_norm: 1.0, noise_multiplier: noise, seed: 18 };
        let mut fed = FedAvg::new(FedLogistic::new(10, 3), rounds);
        let auc = fed.run_private(&shards, Some(&eval), &dp).final_auc();
        metrics.counter("dp.noise_levels", 1);
        metrics.counter("dp.private_rounds", rounds as u64);
        metrics.observe("dp.final_auc", auc);
        table.row(vec![f(noise), f(auc), format!("{:+.3}", auc - baseline)]);
    }
    table.finding(
        "small noise multipliers (≤0.2) cost almost no AUC while bounding per-site update \
         leakage; utility decays toward chance as noise grows — the standard DP-FedAvg \
         trade-off, available as a first-class knob in the architecture"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_metered_reports_dp_counters() {
        let registry = medchain_runtime::metrics::Registry::new();
        run_e18(true, registry.handle());
        assert_eq!(registry.counter_value("dp.noise_levels"), 5);
        assert_eq!(registry.counter_value("dp.private_rounds"), 5 * 10);
    }

    #[test]
    fn e18_utility_decays_with_noise() {
        let table = run_e18(true, Metrics::noop());
        let auc = |row: usize| table.rows[row][1].parse::<f64>().unwrap();
        let baseline = auc(0);
        let mild = auc(1);
        let heavy = auc(table.rows.len() - 1);
        assert!(baseline > 0.65);
        assert!(mild > baseline - 0.05, "mild noise {mild} vs {baseline}");
        assert!(heavy < baseline, "heavy noise should cost utility");
    }
}
