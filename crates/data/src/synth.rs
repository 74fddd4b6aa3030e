//! Synthetic cohort generation with parametric disease models.
//!
//! Substitutes for the real hospital EMR / TCGA data the paper assumes
//! (see DESIGN.md §2). Cohorts are generated per site from a
//! [`SiteProfile`], so different hospitals have *non-IID* populations —
//! the realistic condition for the federated-learning experiments. The
//! disease models are known logistic ground truths, so learning
//! experiments measure genuine signal recovery.

use crate::emr::{
    Diagnosis, GenomicProfile, LabResult, Medication, PatientRecord, Sex, Visit, WearableSummary,
};
use medchain_runtime::DetRng;

/// Number of SNPs on the synthetic genotyping panel.
pub const SNP_PANEL_SIZE: usize = 16;

/// ICD-10-like code used for the synthetic stroke outcome.
pub const STROKE_CODE: &str = "I63";
/// ICD-10-like code used for the synthetic cancer outcome.
pub const CANCER_CODE: &str = "C80";
/// Diabetes code attached when the diabetic flag is set.
const DIABETES_CODE: &str = "E11";

/// Demographic profile of one hospital's catchment population.
///
/// Shifting these parameters across sites produces the non-IID shards
/// the paper's distributed-learning discussion requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteProfile {
    /// Mean patient age.
    pub mean_age: f64,
    /// Standard deviation of age.
    pub sd_age: f64,
    /// Probability a patient smokes.
    pub smoking_rate: f64,
    /// Probability a patient is diabetic.
    pub diabetes_rate: f64,
    /// Mean systolic blood pressure.
    pub mean_sbp: f64,
    /// Fraction of patients with wearable data.
    pub wearable_coverage: f64,
    /// Fraction of patients with genomic data.
    pub genomic_coverage: f64,
}

impl Default for SiteProfile {
    fn default() -> Self {
        SiteProfile {
            mean_age: 55.0,
            sd_age: 15.0,
            smoking_rate: 0.22,
            diabetes_rate: 0.12,
            mean_sbp: 128.0,
            wearable_coverage: 0.4,
            genomic_coverage: 0.3,
        }
    }
}

impl SiteProfile {
    /// A systematically varied profile for site `index` — older and
    /// sicker populations at higher indices, so shards differ.
    pub fn varied(index: usize) -> SiteProfile {
        let i = index as f64;
        SiteProfile {
            mean_age: 45.0 + 4.0 * (i % 7.0),
            sd_age: 12.0 + (i % 3.0) * 2.0,
            smoking_rate: 0.10 + 0.05 * (i % 5.0),
            diabetes_rate: 0.06 + 0.04 * (i % 4.0),
            mean_sbp: 120.0 + 4.0 * (i % 5.0),
            wearable_coverage: 0.2 + 0.1 * (i % 6.0),
            genomic_coverage: 0.15 + 0.1 * (i % 5.0),
        }
    }
}

/// Ground-truth logistic risk model for a binary outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DiseaseModel {
    /// Outcome diagnosis code written into positive records.
    pub code: &'static str,
    /// Intercept.
    pub intercept: f64,
    /// Weights over the canonical feature vector (see
    /// [`features`]).
    pub weights: Vec<f64>,
}

impl DiseaseModel {
    /// The synthetic ischemic-stroke model: driven by age, blood
    /// pressure, smoking, diabetes, low activity, and a genetic term.
    pub fn stroke() -> DiseaseModel {
        DiseaseModel {
            code: STROKE_CODE,
            intercept: -4.2,
            weights: vec![
                0.85,  // age (standardized)
                0.70,  // systolic bp
                0.25,  // cholesterol
                0.15,  // bmi
                0.80,  // smoker
                0.65,  // diabetic
                -0.45, // activity (steps) — protective
                0.20,  // resting hr
                0.90,  // polygenic risk
                0.0,   // sex
            ],
        }
    }

    /// The synthetic cancer model: age- and genetics-dominated.
    pub fn cancer() -> DiseaseModel {
        DiseaseModel {
            code: CANCER_CODE,
            intercept: -4.6,
            weights: vec![
                1.1,   // age
                0.05,  // sbp
                0.10,  // cholesterol
                0.25,  // bmi
                0.95,  // smoker
                0.15,  // diabetic
                -0.20, // activity
                0.05,  // hr
                1.30,  // polygenic risk
                0.25,  // sex (male excess)
            ],
        }
    }

    /// True outcome probability for a record.
    pub fn probability(&self, record: &PatientRecord) -> f64 {
        let x = features(record);
        let logit: f64 =
            self.intercept + self.weights.iter().zip(&x).map(|(w, xi)| w * xi).sum::<f64>();
        1.0 / (1.0 + (-logit).exp())
    }
}

/// The canonical 10-dimensional standardized feature vector used by the
/// disease models and the learning crate.
pub fn features(record: &PatientRecord) -> [f64; 10] {
    let (steps, hr) = match &record.wearable {
        Some(w) => (w.avg_daily_steps, w.avg_resting_hr),
        // Population means when no device data was shared.
        None => (6_000.0, 68.0),
    };
    let prs = record.genomics.as_ref().map_or(0.5, |g| g.polygenic_risk);
    [
        (record.age - 55.0) / 15.0,
        (record.systolic_bp - 128.0) / 18.0,
        (record.cholesterol - 195.0) / 35.0,
        (record.bmi - 26.0) / 5.0,
        f64::from(record.smoker),
        f64::from(record.diabetic),
        (steps - 6_000.0) / 3_000.0,
        (hr - 68.0) / 10.0,
        (prs - 0.5) / 0.25,
        match record.sex {
            Sex::Male => 1.0,
            Sex::Female => 0.0,
        },
    ]
}

/// Names of the canonical features, aligned with [`features`].
pub const FEATURE_NAMES: [&str; 10] = [
    "age_z", "sbp_z", "chol_z", "bmi_z", "smoker", "diabetic", "steps_z", "hr_z", "prs_z", "male",
];

/// Generates one site's cohort with outcomes from `model`.
#[derive(Debug)]
pub struct CohortGenerator {
    profile: SiteProfile,
    site_name: String,
    rng: DetRng,
}

impl CohortGenerator {
    /// Creates a generator for `site_name` with the given profile and
    /// deterministic seed.
    pub fn new(site_name: &str, profile: SiteProfile, seed: u64) -> CohortGenerator {
        CohortGenerator { profile, site_name: site_name.to_string(), rng: DetRng::from_seed(seed) }
    }

    fn gaussian(&mut self, mean: f64, sd: f64) -> f64 {
        // Box–Muller.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen();
        mean + sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Generates one patient (without outcome labels).
    pub fn patient(&mut self, patient_id: u64) -> PatientRecord {
        let p = self.profile;
        let age = self.gaussian(p.mean_age, p.sd_age).clamp(18.0, 95.0);
        let sex = if self.rng.gen_bool(0.5) { Sex::Female } else { Sex::Male };
        let smoker = self.rng.gen_bool(p.smoking_rate);
        let diabetic = self.rng.gen_bool(p.diabetes_rate);
        let systolic_bp = self
            .gaussian(p.mean_sbp + if diabetic { 6.0 } else { 0.0 }, 16.0)
            .clamp(90.0, 220.0);
        let cholesterol = self.gaussian(195.0, 35.0).clamp(100.0, 400.0);
        let bmi = self.gaussian(26.0 + if diabetic { 2.5 } else { 0.0 }, 4.5).clamp(15.0, 60.0);

        let mut record = PatientRecord {
            patient_id,
            age,
            sex,
            systolic_bp,
            cholesterol,
            bmi,
            smoker,
            diabetic,
            diagnoses: Vec::new(),
            medications: Vec::new(),
            labs: Vec::new(),
            visits: Vec::new(),
            wearable: None,
            genomics: None,
        };
        if diabetic {
            record.diagnoses.push(Diagnosis { code: DIABETES_CODE.into(), onset_day: 0 });
            record.medications.push(Medication {
                name: "metformin".into(),
                dose_mg: 1_000.0,
                start_day: 0,
            });
        }
        if cholesterol > 240.0 {
            record.medications.push(Medication {
                name: "atorvastatin".into(),
                dose_mg: 20.0,
                start_day: 0,
            });
        }
        record.labs.push(LabResult {
            name: "ldl".into(),
            value: (cholesterol * 0.6).round(),
            unit: "mg/dL".into(),
            day: 10,
        });
        record.labs.push(LabResult {
            name: "hba1c".into(),
            value: if diabetic { self.gaussian(7.8, 0.9) } else { self.gaussian(5.4, 0.3) },
            unit: "%".into(),
            day: 10,
        });
        let visit_count = self.rng.gen_range(1u32..=4);
        for v in 0..visit_count {
            record.visits.push(Visit {
                day: v * 90 + self.rng.gen_range(0u32..30),
                site: self.site_name.clone(),
                reason: "follow-up".into(),
            });
        }
        if self.rng.gen_bool(p.wearable_coverage) {
            let activity = self.gaussian(6_000.0, 3_000.0).clamp(200.0, 25_000.0);
            record.wearable = Some(WearableSummary {
                avg_daily_steps: activity,
                avg_resting_hr: self.gaussian(68.0, 10.0).clamp(40.0, 110.0),
                avg_sleep_hours: self.gaussian(7.0, 1.0).clamp(3.0, 11.0),
            });
        }
        if self.rng.gen_bool(p.genomic_coverage) {
            let genotypes: Vec<u8> = (0..SNP_PANEL_SIZE)
                .map(|_| {
                    let r: f64 = self.rng.gen();
                    if r < 0.64 {
                        0
                    } else if r < 0.96 {
                        1
                    } else {
                        2
                    }
                })
                .collect();
            let burden: f64 =
                genotypes.iter().map(|g| f64::from(*g)).sum::<f64>() / (2.0 * SNP_PANEL_SIZE as f64);
            let noise = self.gaussian(0.0, 0.08);
            record.genomics = Some(GenomicProfile {
                snp_genotypes: genotypes,
                polygenic_risk: (0.5 + (burden - 0.18) * 1.5 + noise).clamp(0.0, 1.0),
            });
        }
        record
    }

    /// Generates a labelled cohort: patients plus outcome diagnoses
    /// assigned by the disease model's ground-truth probability.
    pub fn cohort(
        &mut self,
        start_id: u64,
        count: usize,
        model: &DiseaseModel,
    ) -> Vec<PatientRecord> {
        (0..count)
            .map(|i| {
                let mut record = self.patient(start_id + i as u64);
                let p = model.probability(&record);
                if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    record.diagnoses.push(Diagnosis {
                        code: model.code.into(),
                        onset_day: self.rng.gen_range(100..900),
                    });
                }
                record
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cohort(n: usize, seed: u64) -> Vec<PatientRecord> {
        CohortGenerator::new("site-test", SiteProfile::default(), seed)
            .cohort(0, n, &DiseaseModel::stroke())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = cohort(50, 7);
        let b = cohort(50, 7);
        assert_eq!(a, b);
        let c = cohort(50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn vitals_are_in_physiological_ranges() {
        for p in cohort(500, 1) {
            assert!((18.0..=95.0).contains(&p.age));
            assert!((90.0..=220.0).contains(&p.systolic_bp));
            assert!((100.0..=400.0).contains(&p.cholesterol));
            assert!((15.0..=60.0).contains(&p.bmi));
            if let Some(w) = &p.wearable {
                assert!(w.avg_daily_steps >= 200.0);
                assert!((40.0..=110.0).contains(&w.avg_resting_hr));
            }
            if let Some(g) = &p.genomics {
                assert_eq!(g.snp_genotypes.len(), SNP_PANEL_SIZE);
                assert!((0.0..=1.0).contains(&g.polygenic_risk));
            }
        }
    }

    #[test]
    fn outcome_prevalence_is_plausible() {
        let records = cohort(4_000, 2);
        let prevalence = records.iter().filter(|p| p.has_diagnosis(STROKE_CODE)).count() as f64
            / records.len() as f64;
        assert!(
            (0.01..0.40).contains(&prevalence),
            "stroke prevalence {prevalence} outside plausible band"
        );
    }

    #[test]
    fn risk_factors_raise_risk() {
        let model = DiseaseModel::stroke();
        let mut low = PatientRecord::basic(1, 40.0, Sex::Female);
        low.systolic_bp = 110.0;
        let mut high = PatientRecord::basic(2, 80.0, Sex::Female);
        high.systolic_bp = 180.0;
        high.smoker = true;
        high.diabetic = true;
        assert!(model.probability(&high) > 5.0 * model.probability(&low));
    }

    #[test]
    fn varied_profiles_shift_populations() {
        let old = CohortGenerator::new("a", SiteProfile::varied(6), 1)
            .cohort(0, 800, &DiseaseModel::stroke());
        let young = CohortGenerator::new("b", SiteProfile::varied(0), 1)
            .cohort(0, 800, &DiseaseModel::stroke());
        let mean = |c: &[PatientRecord]| c.iter().map(|p| p.age).sum::<f64>() / c.len() as f64;
        assert!(mean(&old) > mean(&young) + 5.0);
    }

    #[test]
    fn diabetics_get_code_and_metformin() {
        for p in cohort(300, 3) {
            if p.diabetic {
                assert!(p.has_diagnosis(DIABETES_CODE));
                assert!(p.medications.iter().any(|m| m.name == "metformin"));
            }
        }
    }

    #[test]
    fn features_are_roughly_standardized() {
        let records = cohort(2_000, 4);
        for dim in 0..4 {
            let values: Vec<f64> = records.iter().map(|p| features(p)[dim]).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            assert!(mean.abs() < 0.8, "feature {dim} mean {mean} far from 0");
        }
    }

    #[test]
    fn cancer_model_is_distinct() {
        let records = CohortGenerator::new("s", SiteProfile::default(), 5)
            .cohort(0, 2_000, &DiseaseModel::cancer());
        let prevalence = records.iter().filter(|p| p.has_diagnosis(CANCER_CODE)).count();
        assert!(prevalence > 10);
        assert!(records.iter().all(|p| !p.has_diagnosis(STROKE_CODE)));
    }
}
