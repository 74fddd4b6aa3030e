//! COMPare-style outcome-reporting audit.
//!
//! "According to COMPare, a recent project to monitor clinical trials,
//! just nine in 67 trials it studied (13 percent) had reported results
//! correctly" (paper §III-B). This module audits published reports
//! against blockchain-anchored protocols, classifying each discrepancy,
//! and provides a population simulator calibrated to the COMPare rate so
//! experiment E10 can measure detection.

use crate::protocol::{PublishedReport, TrialProtocol};
use medchain_data::RecordQuery;
use medchain_runtime::DetRng;

/// COMPare's observed correct-reporting rate: 9 of 67 trials.
pub const COMPARE_CORRECT_RATE: f64 = 9.0 / 67.0;

/// One discrepancy found by the auditor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discrepancy {
    /// The published primary outcome was not the pre-specified one.
    PrimarySwitched {
        /// Pre-specified primary.
        registered: String,
        /// Published primary.
        reported: String,
    },
    /// A reported outcome was never pre-specified (silently added).
    OutcomeAdded(String),
    /// A pre-specified outcome is missing from the publication.
    OutcomeOmitted(String),
}

/// Audit result for one trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Audited trial.
    pub trial_id: String,
    /// Discrepancies (empty = correctly reported).
    pub discrepancies: Vec<Discrepancy>,
}

impl AuditFinding {
    /// Whether the report matched its registration.
    fn is_correct(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

/// Audits one report against its registered protocol.
pub fn audit_report(protocol: &TrialProtocol, report: &PublishedReport) -> AuditFinding {
    let mut discrepancies = Vec::new();
    if report.reported_primary != protocol.primary_outcome {
        discrepancies.push(Discrepancy::PrimarySwitched {
            registered: protocol.primary_outcome.clone(),
            reported: report.reported_primary.clone(),
        });
    }
    for outcome in &report.reported_secondary {
        if !protocol.prespecified(outcome) && *outcome != report.reported_primary {
            discrepancies.push(Discrepancy::OutcomeAdded(outcome.clone()));
        }
    }
    // Omissions: every pre-specified outcome must appear somewhere.
    let reported_somewhere = |outcome: &str| {
        report.reported_primary == outcome
            || report.reported_secondary.iter().any(|o| o == outcome)
    };
    if !reported_somewhere(&protocol.primary_outcome) {
        discrepancies.push(Discrepancy::OutcomeOmitted(protocol.primary_outcome.clone()));
    }
    for outcome in &protocol.secondary_outcomes {
        if !reported_somewhere(outcome) {
            discrepancies.push(Discrepancy::OutcomeOmitted(outcome.clone()));
        }
    }
    AuditFinding { trial_id: protocol.trial_id.clone(), discrepancies }
}

/// Summary over a trial population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationAudit {
    /// Trials audited.
    pub total: usize,
    /// Trials reported correctly.
    pub correct: usize,
    /// Trials with a switched primary outcome.
    pub switched_primary: usize,
    /// Trials that silently added outcomes.
    pub added: usize,
    /// Trials that omitted pre-specified outcomes.
    pub omitted: usize,
}

impl PopulationAudit {
    /// Correct-reporting rate.
    pub fn correct_rate(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.correct as f64 / self.total as f64
    }
}

/// Audits a whole population of (protocol, report) pairs.
pub fn audit_population(pairs: &[(TrialProtocol, PublishedReport)]) -> PopulationAudit {
    let mut summary =
        PopulationAudit { total: pairs.len(), correct: 0, switched_primary: 0, added: 0, omitted: 0 };
    for (protocol, report) in pairs {
        let finding = audit_report(protocol, report);
        if finding.is_correct() {
            summary.correct += 1;
        }
        if finding
            .discrepancies
            .iter()
            .any(|d| matches!(d, Discrepancy::PrimarySwitched { .. }))
        {
            summary.switched_primary += 1;
        }
        if finding.discrepancies.iter().any(|d| matches!(d, Discrepancy::OutcomeAdded(_))) {
            summary.added += 1;
        }
        if finding.discrepancies.iter().any(|d| matches!(d, Discrepancy::OutcomeOmitted(_))) {
            summary.omitted += 1;
        }
    }
    summary
}

/// Generates a synthetic trial population in which reports are correct
/// with probability `correct_rate` (default the COMPare figure) and
/// misreporting trials switch/add/omit outcomes — the ground truth for
/// experiment E10.
pub fn simulate_population(
    n: usize,
    correct_rate: f64,
    seed: u64,
) -> Vec<(TrialProtocol, PublishedReport)> {
    let mut rng = DetRng::from_seed(seed);
    (0..n)
        .map(|i| {
            let protocol = TrialProtocol {
                trial_id: format!("NCT{i:06}"),
                sponsor: format!("sponsor-{}", i % 7),
                primary_outcome: "mortality-30d".into(),
                secondary_outcomes: vec!["readmission-90d".into(), "adverse-events".into()],
                eligibility: RecordQuery::all(),
                target_enrollment: 100 + (i % 5) * 50,
            };
            let honest = rng.gen_bool(correct_rate.clamp(0.0, 1.0));
            let report = if honest {
                PublishedReport {
                    trial_id: protocol.trial_id.clone(),
                    reported_primary: protocol.primary_outcome.clone(),
                    reported_secondary: protocol.secondary_outcomes.clone(),
                    omitted: Vec::new(),
                }
            } else {
                // Dishonest reports: pick a favourable secondary as the
                // new "primary", maybe add a post-hoc outcome, maybe drop
                // the unfavourable pre-specified primary entirely.
                let switch = rng.gen_bool(0.75);
                let omit = rng.gen_bool(0.6);
                // Force at least one discrepancy so "dishonest" ground
                // truth is never audited as correct.
                let add = rng.gen_bool(0.5) || (!switch && !omit);
                let reported_primary = if switch {
                    "quality-of-life".to_string()
                } else {
                    protocol.primary_outcome.clone()
                };
                let mut reported_secondary = vec!["readmission-90d".to_string()];
                if add {
                    reported_secondary.push("post-hoc-subgroup-response".into());
                }
                if !omit {
                    reported_secondary.push(protocol.primary_outcome.clone());
                    reported_secondary.push("adverse-events".into());
                }
                // Guarantee at least one discrepancy even if all three
                // coins came up benign: omitting "adverse-events" above.
                PublishedReport {
                    trial_id: protocol.trial_id.clone(),
                    reported_primary,
                    reported_secondary,
                    omitted: Vec::new(),
                }
            };
            (protocol, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protocol() -> TrialProtocol {
        TrialProtocol {
            trial_id: "NCT123".into(),
            sponsor: "s".into(),
            primary_outcome: "mortality".into(),
            secondary_outcomes: vec!["readmission".into()],
            eligibility: RecordQuery::all(),
            target_enrollment: 100,
        }
    }

    #[test]
    fn honest_report_passes() {
        let report = PublishedReport {
            trial_id: "NCT123".into(),
            reported_primary: "mortality".into(),
            reported_secondary: vec!["readmission".into()],
            omitted: Vec::new(),
        };
        assert!(audit_report(&protocol(), &report).is_correct());
    }

    #[test]
    fn switched_primary_is_caught() {
        let report = PublishedReport {
            trial_id: "NCT123".into(),
            reported_primary: "quality-of-life".into(),
            reported_secondary: vec!["mortality".into(), "readmission".into()],
            omitted: Vec::new(),
        };
        let finding = audit_report(&protocol(), &report);
        assert!(finding
            .discrepancies
            .iter()
            .any(|d| matches!(d, Discrepancy::PrimarySwitched { .. })));
    }

    #[test]
    fn omitted_outcome_is_caught() {
        let report = PublishedReport {
            trial_id: "NCT123".into(),
            reported_primary: "mortality".into(),
            reported_secondary: Vec::new(), // readmission silently dropped
            omitted: Vec::new(),
        };
        let finding = audit_report(&protocol(), &report);
        assert_eq!(
            finding.discrepancies,
            vec![Discrepancy::OutcomeOmitted("readmission".into())]
        );
    }

    #[test]
    fn added_outcome_is_caught() {
        let report = PublishedReport {
            trial_id: "NCT123".into(),
            reported_primary: "mortality".into(),
            reported_secondary: vec!["readmission".into(), "post-hoc-finding".into()],
            omitted: Vec::new(),
        };
        let finding = audit_report(&protocol(), &report);
        assert!(finding
            .discrepancies
            .iter()
            .any(|d| matches!(d, Discrepancy::OutcomeAdded(_))));
    }

    #[test]
    fn simulated_population_matches_compare_rate() {
        let pairs = simulate_population(670, COMPARE_CORRECT_RATE, 3);
        let summary = audit_population(&pairs);
        assert_eq!(summary.total, 670);
        // The auditor must recover the injected rate (±5 points).
        assert!(
            (summary.correct_rate() - COMPARE_CORRECT_RATE).abs() < 0.05,
            "auditor found rate {} vs injected {}",
            summary.correct_rate(),
            COMPARE_CORRECT_RATE
        );
        assert!(summary.switched_primary > 0);
        assert!(summary.omitted > 0);
    }

    #[test]
    fn all_honest_population_is_all_correct() {
        let pairs = simulate_population(50, 1.0, 4);
        assert_eq!(audit_population(&pairs).correct, 50);
    }

    #[test]
    fn all_dishonest_population_is_never_correct() {
        let pairs = simulate_population(50, 0.0, 5);
        assert_eq!(audit_population(&pairs).correct, 0);
    }
}
