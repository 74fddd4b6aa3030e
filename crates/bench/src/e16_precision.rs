//! **E16** — drug-efficacy heterogeneity and precision targeting
//! (paper §II, citing Schork, *Nature* 2015): "the top ten highest
//! grossing drugs … only help between 4% and 25% of the people who take
//! them". Reproduces the blanket benefit rate inside that band, then
//! measures the precision-medicine payoff the paper's architecture
//! exists to deliver — a responder model learned from (federated) trial
//! data that prescribes selectively.

use crate::report::{f, Table};
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
use medchain_data::{Dataset, PatientRecord};
use medchain_runtime::metrics::Metrics;
use medchain_trial::{
    blanket_strategy, precision_strategy, DrugModel, PrecisionPolicy,
};

fn population(n: usize, seed: u64) -> Vec<PatientRecord> {
    let profile = SiteProfile { genomic_coverage: 0.9, ..SiteProfile::default() };
    CohortGenerator::new("rx", profile, seed).cohort(0, n, &DiseaseModel::stroke())
}

/// Runs E16 reporting `precision.*` to `metrics`: deployment
/// population, benefited counts per strategy, and the observed benefit
/// lift of the learned policy.
pub fn run_e16(quick: bool, metrics: Metrics) -> Table {
    let n = if quick { 5_000 } else { 20_000 };
    let drug = DrugModel::default();

    // Trial phase: multi-site trial populations pooled via the federated
    // pipeline shape (per-site trials, concatenated labelled features —
    // only features + outcome labels leave, not raw EMR).
    let site_trials: Vec<Dataset> = (0..4)
        .map(|i| drug.run_trial(&population(n / 4, 10 + i as u64), 20 + i as u64))
        .collect();
    let trial_data = Dataset::concat(&site_trials);
    let policy = PrecisionPolicy::learn(&trial_data, 0.3);

    // Deployment phase: a fresh population.
    let fresh = population(n, 99);
    let blanket = blanket_strategy(&drug, &fresh);
    let targeted = precision_strategy(&drug, &policy, &fresh);
    metrics.counter("precision.patients", n as u64);
    metrics.counter("precision.blanket_benefited", blanket.benefited as u64);
    metrics.counter("precision.targeted_benefited", targeted.benefited as u64);
    metrics.observe(
        "precision.benefit_lift",
        targeted.benefit_rate() / blanket.benefit_rate().max(1e-9),
    );

    let mut table = Table::new(
        "E16",
        &format!("precision targeting vs blanket prescribing, {n}-patient deployment"),
        &["strategy", "treated", "benefited", "benefit rate", "responder coverage"],
    );
    table.row(vec![
        "blanket (status quo)".into(),
        blanket.treated.to_string(),
        blanket.benefited.to_string(),
        f(blanket.benefit_rate()),
        f(blanket.coverage()),
    ]);
    table.row(vec![
        "precision (learned responder model)".into(),
        targeted.treated.to_string(),
        targeted.benefited.to_string(),
        f(targeted.benefit_rate()),
        f(targeted.coverage()),
    ]);
    table.finding(format!(
        "blanket benefit rate {:.1}% sits inside the paper's cited 4–25% band; the learned \
         policy raises it to {:.1}% ({:.1}×) while still reaching {:.0}% of true responders",
        blanket.benefit_rate() * 100.0,
        targeted.benefit_rate() * 100.0,
        targeted.benefit_rate() / blanket.benefit_rate().max(1e-9),
        targeted.coverage() * 100.0,
    ));
    table.finding(
        "this is the end-to-end payoff of the architecture: integrated multi-site data → \
         learned responder model → personalized treatment (the paper's 'better predict which \
         personalized treatments will be most effective')"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_metered_reports_precision_counters() {
        let registry = medchain_runtime::metrics::Registry::new();
        run_e16(true, registry.handle());
        assert_eq!(registry.counter_value("precision.patients"), 5_000);
        assert!(registry.counter_value("precision.blanket_benefited") > 0);
        assert!(registry.counter_value("precision.targeted_benefited") > 0);
    }

    #[test]
    fn e16_precision_beats_blanket_within_band() {
        let table = run_e16(true, Metrics::noop());
        let blanket_rate: f64 = table.rows[0][3].parse().unwrap();
        let targeted_rate: f64 = table.rows[1][3].parse().unwrap();
        assert!((0.04..=0.25).contains(&blanket_rate), "blanket {blanket_rate}");
        assert!(targeted_rate > blanket_rate * 2.0);
    }
}
