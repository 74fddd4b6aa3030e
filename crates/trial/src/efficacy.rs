//! Drug-efficacy heterogeneity and precision targeting (paper §II).
//!
//! "The top ten highest grossing drugs in the United States only help
//! between 4% and 25% of the people who take them" (Schork, *Nature*
//! 2015, as cited by the paper). The cause is responder heterogeneity:
//! a drug works only for a biologically identifiable subgroup, and
//! blanket prescribing treats everyone.
//!
//! This module models a drug whose response is determined by patient
//! features (genetics + comorbidity), measures the blanket benefit rate
//! (which lands in the paper's 4–25% band), then trains a responder
//! classifier on trial data — the precision-medicine step the paper's
//! whole architecture exists to enable — and measures how much targeting
//! raises the benefit rate among the treated.

use medchain_data::synth::features;
use medchain_data::{Dataset, PatientRecord};
use medchain_learning::{LogisticRegression, SgdConfig};
use medchain_runtime::DetRng;

/// A drug with feature-determined response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrugModel {
    /// Polygenic-risk threshold above which the drug's pathway is active.
    pub prs_threshold: f64,
    /// Whether diabetics respond regardless of genetics (a second
    /// responder pathway).
    pub diabetic_pathway: bool,
    /// Probability a true responder's benefit is observed in the trial
    /// (adjudication sensitivity < 1 adds label noise).
    pub observation_rate: f64,
}

impl Default for DrugModel {
    fn default() -> Self {
        // Calibrated so ~10–20% of a default cohort responds — inside
        // the Nature 4–25% band.
        DrugModel { prs_threshold: 0.72, diabetic_pathway: true, observation_rate: 0.9 }
    }
}

impl DrugModel {
    /// Ground truth: does this patient's biology respond to the drug?
    fn is_responder(&self, record: &PatientRecord) -> bool {
        let genetic = record
            .genomics
            .as_ref()
            .is_some_and(|g| g.polygenic_risk >= self.prs_threshold);
        genetic || (self.diabetic_pathway && record.diabetic)
    }

    /// Simulates an everyone-treated trial, producing a labelled dataset
    /// (canonical features → observed benefit) for responder modelling.
    pub fn run_trial(&self, records: &[PatientRecord], seed: u64) -> Dataset {
        let mut rng = DetRng::from_seed(seed);
        let mut data = Dataset {
            features: Vec::with_capacity(records.len()),
            labels: Vec::with_capacity(records.len()),
            feature_names: medchain_data::FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
        };
        for record in records {
            let benefited =
                self.is_responder(record) && rng.gen_bool(self.observation_rate.clamp(0.0, 1.0));
            data.features.push(features(record).to_vec());
            data.labels.push(f64::from(benefited));
        }
        data
    }
}

/// A learned prescribing policy: treat only predicted responders.
#[derive(Debug, Clone)]
pub struct PrecisionPolicy {
    model: LogisticRegression,
    threshold: f64,
}

impl PrecisionPolicy {
    /// Learns a responder classifier from trial data.
    pub fn learn(trial_data: &Dataset, threshold: f64) -> PrecisionPolicy {
        let mut model = LogisticRegression::new(trial_data.dim());
        model.train(
            trial_data,
            &SgdConfig { epochs: 60, learning_rate: 0.2, ..SgdConfig::default() },
        );
        PrecisionPolicy { model, threshold }
    }

    /// Whether the policy would prescribe to this patient.
    fn would_treat(&self, record: &PatientRecord) -> bool {
        self.model.predict_one(&features(record)) >= self.threshold
    }
}

/// Outcome of prescribing strategy evaluation on a fresh population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyOutcome {
    /// Patients treated.
    pub treated: usize,
    /// Treated patients whose biology actually responds (they benefit).
    pub benefited: usize,
    /// True responders in the whole population.
    pub responders: usize,
    /// Responders the strategy reached.
    pub responders_reached: usize,
}

impl StrategyOutcome {
    /// Fraction of treated patients who benefit — the *Nature* metric.
    pub fn benefit_rate(&self) -> f64 {
        if self.treated == 0 {
            return 0.0;
        }
        self.benefited as f64 / self.treated as f64
    }

    /// Fraction of true responders the strategy reaches.
    pub fn coverage(&self) -> f64 {
        if self.responders == 0 {
            return 1.0;
        }
        self.responders_reached as f64 / self.responders as f64
    }
}

/// Evaluates blanket prescribing on a population.
pub fn blanket_strategy(drug: &DrugModel, population: &[PatientRecord]) -> StrategyOutcome {
    let responders = population.iter().filter(|r| drug.is_responder(r)).count();
    StrategyOutcome {
        treated: population.len(),
        benefited: responders,
        responders,
        responders_reached: responders,
    }
}

/// Evaluates a precision policy on a population.
pub fn precision_strategy(
    drug: &DrugModel,
    policy: &PrecisionPolicy,
    population: &[PatientRecord],
) -> StrategyOutcome {
    let mut outcome = StrategyOutcome {
        treated: 0,
        benefited: 0,
        responders: 0,
        responders_reached: 0,
    };
    for record in population {
        let responds = drug.is_responder(record);
        if responds {
            outcome.responders += 1;
        }
        if policy.would_treat(record) {
            outcome.treated += 1;
            if responds {
                outcome.benefited += 1;
                outcome.responders_reached += 1;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    fn population(n: usize, seed: u64) -> Vec<PatientRecord> {
        // High genomic coverage so the genetic pathway is observable.
        let profile = SiteProfile { genomic_coverage: 0.9, ..SiteProfile::default() };
        CohortGenerator::new("rx", profile, seed).cohort(0, n, &DiseaseModel::stroke())
    }

    #[test]
    fn blanket_benefit_rate_matches_nature_band() {
        let drug = DrugModel::default();
        let pop = population(6_000, 1);
        let outcome = blanket_strategy(&drug, &pop);
        let rate = outcome.benefit_rate();
        assert!(
            (0.04..=0.25).contains(&rate),
            "blanket benefit rate {rate} outside the cited 4–25% band"
        );
        assert_eq!(outcome.coverage(), 1.0);
    }

    #[test]
    fn precision_policy_multiplies_benefit_rate() {
        let drug = DrugModel::default();
        let trial_pop = population(5_000, 2);
        let trial_data = drug.run_trial(&trial_pop, 3);
        let policy = PrecisionPolicy::learn(&trial_data, 0.3);

        let fresh = population(5_000, 4);
        let blanket = blanket_strategy(&drug, &fresh);
        let targeted = precision_strategy(&drug, &policy, &fresh);
        assert!(
            targeted.benefit_rate() > 2.0 * blanket.benefit_rate(),
            "targeted {} vs blanket {}",
            targeted.benefit_rate(),
            blanket.benefit_rate()
        );
        // And it still reaches a majority of true responders.
        assert!(targeted.coverage() > 0.5, "coverage {}", targeted.coverage());
        // While treating far fewer people.
        assert!(targeted.treated < fresh.len() / 2);
    }

    #[test]
    fn trial_labels_are_noisy_but_informative() {
        let drug = DrugModel::default();
        let pop = population(3_000, 5);
        let data = drug.run_trial(&pop, 6);
        let observed_rate = data.positive_rate();
        let true_rate =
            pop.iter().filter(|r| drug.is_responder(r)).count() as f64 / pop.len() as f64;
        assert!(observed_rate <= true_rate + 1e-9, "observation can only miss");
        assert!(observed_rate > true_rate * 0.7, "too much label noise");
    }

    #[test]
    fn responder_rule_uses_both_pathways() {
        let drug = DrugModel::default();
        let mut genetic = medchain_data::PatientRecord::basic(1, 60.0, medchain_data::Sex::Male);
        genetic.genomics = Some(medchain_data::emr::GenomicProfile {
            snp_genotypes: vec![2; 16],
            polygenic_risk: 0.9,
        });
        assert!(drug.is_responder(&genetic));
        let mut diabetic = medchain_data::PatientRecord::basic(2, 60.0, medchain_data::Sex::Male);
        diabetic.diabetic = true;
        assert!(drug.is_responder(&diabetic));
        let neither = medchain_data::PatientRecord::basic(3, 60.0, medchain_data::Sex::Male);
        assert!(!drug.is_responder(&neither));
    }
}
