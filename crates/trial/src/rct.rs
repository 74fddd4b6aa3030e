//! Randomized controlled trials versus observational estimates
//! (paper §II: the "classical clinical trial process" the FDA's
//! real-world-evidence vision extends, and why randomization matters).
//!
//! * [`randomize`] — deterministic 1:1 assignment of recruited
//!   participants to treatment/control arms.
//! * [`intention_to_treat`] — the ITT risk-difference estimate with a
//!   normal-approximation confidence interval.
//! * [`observational_estimate`] — the naive treated-vs-untreated
//!   comparison from routine care, where *confounding by indication*
//!   (sicker patients get treated) biases the estimate. The contrast is
//!   measurable: with a truly null drug, the RCT estimate covers zero
//!   while the observational estimate shows spurious harm.

use medchain_data::PatientRecord;
use medchain_runtime::DetRng;

/// Trial arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Receives the intervention.
    Treatment,
    /// Receives standard care / placebo.
    Control,
}

/// One enrolled participant with an adjudicated binary outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmOutcome {
    /// Assigned arm.
    pub arm: Arm,
    /// Whether the adverse outcome occurred.
    pub event: bool,
}

/// Deterministic 1:1 randomization keyed by patient id and a trial seed
/// — auditable re-derivation is exactly what on-chain trial registration
/// enables (anyone can recompute the assignment sequence).
pub fn randomize(patient_id: u64, trial_seed: u64) -> Arm {
    let digest = medchain_chain::Hash256::digest(
        &[patient_id.to_le_bytes(), trial_seed.to_le_bytes()].concat(),
    );
    if digest.0[0] & 1 == 0 {
        Arm::Treatment
    } else {
        Arm::Control
    }
}

/// An effect estimate with a 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectEstimate {
    /// Risk difference (treated − control event rate).
    pub risk_difference: f64,
    /// Lower 95% bound.
    pub ci_low: f64,
    /// Upper 95% bound.
    pub ci_high: f64,
    /// Treated-arm size.
    pub n_treated: usize,
    /// Control-arm size.
    pub n_control: usize,
}

impl EffectEstimate {
    /// Whether the interval covers a hypothesized true effect.
    pub fn covers(&self, effect: f64) -> bool {
        self.ci_low <= effect && effect <= self.ci_high
    }
}

fn risk_difference(outcomes: &[ArmOutcome]) -> Option<EffectEstimate> {
    let (mut t_n, mut t_events, mut c_n, mut c_events) = (0usize, 0usize, 0usize, 0usize);
    for o in outcomes {
        match o.arm {
            Arm::Treatment => {
                t_n += 1;
                t_events += usize::from(o.event);
            }
            Arm::Control => {
                c_n += 1;
                c_events += usize::from(o.event);
            }
        }
    }
    if t_n == 0 || c_n == 0 {
        return None;
    }
    let p_t = t_events as f64 / t_n as f64;
    let p_c = c_events as f64 / c_n as f64;
    let se = (p_t * (1.0 - p_t) / t_n as f64 + p_c * (1.0 - p_c) / c_n as f64).sqrt();
    let rd = p_t - p_c;
    Some(EffectEstimate {
        risk_difference: rd,
        ci_low: rd - 1.96 * se,
        ci_high: rd + 1.96 * se,
        n_treated: t_n,
        n_control: c_n,
    })
}

/// Intention-to-treat analysis of randomized outcomes.
///
/// Returns `None` if either arm is empty.
pub fn intention_to_treat(outcomes: &[ArmOutcome]) -> Option<EffectEstimate> {
    risk_difference(outcomes)
}

/// The naive observational estimate: compare events among those who
/// happened to receive the drug in routine care versus those who did
/// not. Same estimator, non-randomized exposure.
pub fn observational_estimate(outcomes: &[ArmOutcome]) -> Option<EffectEstimate> {
    risk_difference(outcomes)
}

/// Simulates trial + routine-care data for a drug with additive true
/// effect `true_effect` on the event probability (negative = protective,
/// 0 = null).
///
/// Baseline event risk rises with age and blood pressure. In the RCT,
/// exposure is randomized; in routine care, *sicker patients are more
/// likely to be treated* (confounding by indication with strength
/// `confounding`).
pub fn simulate_rct_and_observational(
    cohort: &[PatientRecord],
    true_effect: f64,
    confounding: f64,
    seed: u64,
) -> (Vec<ArmOutcome>, Vec<ArmOutcome>) {
    let mut rng = DetRng::from_seed(seed);
    let baseline_risk = |r: &PatientRecord| -> f64 {
        (0.05 + 0.004 * (r.age - 50.0).max(0.0) + 0.002 * (r.systolic_bp - 120.0).max(0.0))
            .clamp(0.01, 0.9)
    };
    let mut rct = Vec::with_capacity(cohort.len());
    let mut observational = Vec::with_capacity(cohort.len());
    for record in cohort {
        let base = baseline_risk(record);

        // RCT: randomized assignment.
        let arm = randomize(record.patient_id, seed);
        let p = match arm {
            Arm::Treatment => (base + true_effect).clamp(0.0, 1.0),
            Arm::Control => base,
        };
        rct.push(ArmOutcome { arm, event: rng.gen_bool(p) });

        // Routine care: treatment probability rises with baseline risk.
        let p_treated = (0.2 + confounding * (base - 0.1)).clamp(0.02, 0.98);
        let treated = rng.gen_bool(p_treated);
        let arm = if treated { Arm::Treatment } else { Arm::Control };
        let p = match arm {
            Arm::Treatment => (base + true_effect).clamp(0.0, 1.0),
            Arm::Control => base,
        };
        observational.push(ArmOutcome { arm, event: rng.gen_bool(p) });
    }
    (rct, observational)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    fn cohort(n: usize, seed: u64) -> Vec<PatientRecord> {
        CohortGenerator::new("rct", SiteProfile::default(), seed).cohort(
            0,
            n,
            &DiseaseModel::stroke(),
        )
    }

    #[test]
    fn randomization_is_deterministic_and_balanced() {
        let assignments: Vec<Arm> = (0..10_000).map(|id| randomize(id, 7)).collect();
        let treated = assignments.iter().filter(|a| **a == Arm::Treatment).count();
        assert!((4_600..5_400).contains(&treated), "imbalance: {treated}");
        assert_eq!(randomize(42, 7), randomize(42, 7));
        // Different trials randomize independently.
        let flips = (0..1_000)
            .filter(|id| randomize(*id, 7) != randomize(*id, 8))
            .count();
        assert!(flips > 300, "seeds should re-randomize: {flips}");
    }

    #[test]
    fn rct_recovers_a_protective_effect() {
        let (rct, _) = simulate_rct_and_observational(&cohort(20_000, 1), -0.05, 2.0, 12);
        let estimate = intention_to_treat(&rct).unwrap();
        assert!(estimate.covers(-0.05), "CI {estimate:?} misses the true effect");
        assert!(!estimate.covers(0.0), "20k participants should detect 5pp");
        assert!(estimate.risk_difference < 0.0);
    }

    #[test]
    fn null_drug_confounding_fools_observational_not_rct() {
        let (rct, obs) = simulate_rct_and_observational(&cohort(20_000, 3), 0.0, 3.0, 4);
        let rct_estimate = intention_to_treat(&rct).unwrap();
        let obs_estimate = observational_estimate(&obs).unwrap();
        assert!(rct_estimate.covers(0.0), "RCT must not find an effect: {rct_estimate:?}");
        // Confounding by indication: treated patients are sicker, so the
        // null drug looks *harmful* observationally.
        assert!(
            obs_estimate.risk_difference > 0.02,
            "expected spurious harm, got {obs_estimate:?}"
        );
        assert!(!obs_estimate.covers(0.0));
    }

    #[test]
    fn empty_arms_yield_none() {
        let all_treated: Vec<ArmOutcome> =
            (0..10).map(|_| ArmOutcome { arm: Arm::Treatment, event: false }).collect();
        assert!(intention_to_treat(&all_treated).is_none());
        assert!(intention_to_treat(&[]).is_none());
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let width = |n: usize| {
            let (rct, _) = simulate_rct_and_observational(&cohort(n, 5), -0.05, 2.0, 6);
            let e = intention_to_treat(&rct).unwrap();
            e.ci_high - e.ci_low
        };
        assert!(width(20_000) < width(1_000));
    }
}

mod codec_impls {
    use super::Arm;
    use medchain_runtime::impl_codec_unit_enum;

    impl_codec_unit_enum!(Arm { Treatment, Control });
}
