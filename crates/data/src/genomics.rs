//! Distributed genome-wide association (paper §II: "NGS-related data
//! (bioinformatics) with analytic tools for people's genome").
//!
//! A GWAS is the canonical genomic analytic — and it decomposes exactly:
//! each site tabulates per-SNP allele×outcome counts over its own
//! patients, and the 2×2 tables compose by addition. Only tiny count
//! tables leave the hospital; the χ² statistics and odds ratios computed
//! from the composed tables are *identical* to a centralized analysis —
//! the same lossless move-compute-to-data property as the aggregate
//! engine in `medchain-learning`.

use crate::emr::PatientRecord;
use crate::synth::SNP_PANEL_SIZE;

/// Per-SNP allele×outcome contingency counts for one site (the map
/// output; composes by addition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnpCounts {
    /// Risk-allele count among cases.
    pub case_risk: u64,
    /// Reference-allele count among cases.
    pub case_ref: u64,
    /// Risk-allele count among controls.
    pub control_risk: u64,
    /// Reference-allele count among controls.
    pub control_ref: u64,
}

impl SnpCounts {
    /// Merges another site's counts (saturating: a count table arrives
    /// from another site and may claim anything).
    pub fn merge(&mut self, other: &SnpCounts) {
        self.case_risk = self.case_risk.saturating_add(other.case_risk);
        self.case_ref = self.case_ref.saturating_add(other.case_ref);
        self.control_risk = self.control_risk.saturating_add(other.control_risk);
        self.control_ref = self.control_ref.saturating_add(other.control_ref);
    }

    /// Allele-based χ² statistic (1 df) of the 2×2 table.
    pub fn chi_square(&self) -> f64 {
        let a = self.case_risk as f64;
        let b = self.case_ref as f64;
        let c = self.control_risk as f64;
        let d = self.control_ref as f64;
        let n = a + b + c + d;
        if n == 0.0 {
            return 0.0;
        }
        let denominator = (a + b) * (c + d) * (a + c) * (b + d);
        if denominator == 0.0 {
            return 0.0;
        }
        n * (a * d - b * c).powi(2) / denominator
    }

    /// Allelic odds ratio with Haldane–Anscombe 0.5 correction.
    pub fn odds_ratio(&self) -> f64 {
        let a = self.case_risk as f64 + 0.5;
        let b = self.case_ref as f64 + 0.5;
        let c = self.control_risk as f64 + 0.5;
        let d = self.control_ref as f64 + 0.5;
        (a * d) / (b * c)
    }
}

/// One site's GWAS partial: counts per panel SNP plus cohort sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GwasPartial {
    /// Per-SNP counts, indexed by panel position.
    pub snps: Vec<SnpCounts>,
    /// Genotyped cases at this site.
    pub cases: u64,
    /// Genotyped controls at this site.
    pub controls: u64,
}

impl GwasPartial {
    /// Merges another partial in place.
    ///
    /// # Panics
    ///
    /// Panics on mismatched panel sizes.
    pub fn merge(&mut self, other: &GwasPartial) {
        assert_eq!(self.snps.len(), other.snps.len(), "panel size mismatch");
        for (mine, theirs) in self.snps.iter_mut().zip(&other.snps) {
            mine.merge(theirs);
        }
        self.cases = self.cases.saturating_add(other.cases);
        self.controls = self.controls.saturating_add(other.controls);
    }
}

/// The map step: tabulates one site's genotyped patients against the
/// outcome `code`. Patients without genomic data are skipped.
pub fn map_site(records: &[PatientRecord], code: &str) -> GwasPartial {
    let mut partial = GwasPartial {
        snps: vec![SnpCounts::default(); SNP_PANEL_SIZE],
        cases: 0,
        controls: 0,
    };
    for record in records {
        let Some(genomics) = &record.genomics else { continue };
        let is_case = record.has_diagnosis(code);
        if is_case {
            partial.cases += 1;
        } else {
            partial.controls += 1;
        }
        for (snp, counts) in genomics.snp_genotypes.iter().zip(partial.snps.iter_mut()) {
            let risk = u64::from(*snp); // 0, 1 or 2 risk alleles
            let reference = 2 - risk;
            if is_case {
                counts.case_risk += risk;
                counts.case_ref += reference;
            } else {
                counts.control_risk += risk;
                counts.control_ref += reference;
            }
        }
    }
    partial
}

/// One SNP's association result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Association {
    /// Panel index.
    pub snp: usize,
    /// χ² statistic (1 df).
    pub chi_square: f64,
    /// Allelic odds ratio.
    pub odds_ratio: f64,
}

/// The compose step: merges site partials and computes per-SNP
/// association statistics, sorted by descending χ².
pub fn compose(partials: &[GwasPartial]) -> Vec<Association> {
    if partials.is_empty() {
        return Vec::new();
    }
    let mut merged = partials[0].clone();
    for partial in &partials[1..] {
        merged.merge(partial);
    }
    let mut results: Vec<Association> = merged
        .snps
        .iter()
        .enumerate()
        .map(|(snp, counts)| Association {
            snp,
            chi_square: counts.chi_square(),
            odds_ratio: counts.odds_ratio(),
        })
        .collect();
    results.sort_by(|a, b| b.chi_square.total_cmp(&a.chi_square));
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};

    fn genotyped_cohort(n: usize, seed: u64) -> Vec<PatientRecord> {
        // Full genomic coverage so every patient contributes.
        let profile = SiteProfile { genomic_coverage: 1.0, ..SiteProfile::default() };
        CohortGenerator::new("gwas", profile, seed).cohort(0, n, &DiseaseModel::stroke())
    }

    #[test]
    fn distributed_gwas_equals_centralized() {
        let all = genotyped_cohort(3_000, 1);
        let centralized = compose(&[map_site(&all, STROKE_CODE)]);
        let partials: Vec<GwasPartial> =
            all.chunks(700).map(|site| map_site(site, STROKE_CODE)).collect();
        let distributed = compose(&partials);
        assert_eq!(centralized.len(), distributed.len());
        for (c, d) in centralized.iter().zip(&distributed) {
            assert_eq!(c.snp, d.snp);
            assert!((c.chi_square - d.chi_square).abs() < 1e-9);
            assert!((c.odds_ratio - d.odds_ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn risk_alleles_associate_positively_on_average() {
        // Ground truth: disease risk rises with the polygenic burden over
        // the whole panel, so the mean odds ratio across SNPs exceeds 1.
        let all = genotyped_cohort(8_000, 2);
        let associations = compose(&[map_site(&all, STROKE_CODE)]);
        let mean_or: f64 =
            associations.iter().map(|a| a.odds_ratio).sum::<f64>() / associations.len() as f64;
        assert!(mean_or > 1.0, "mean OR {mean_or} should exceed 1");
    }

    #[test]
    fn null_outcome_shows_no_inflation() {
        // Associate against a code nobody has: χ² should be ~0 everywhere
        // (all patients are controls, so the tables are degenerate).
        let all = genotyped_cohort(2_000, 3);
        let associations = compose(&[map_site(&all, "Z99")]);
        for a in &associations {
            assert!(a.chi_square.abs() < 1e-9);
        }
    }

    #[test]
    fn ungenotyped_patients_are_skipped() {
        let profile = SiteProfile { genomic_coverage: 0.0, ..SiteProfile::default() };
        let all = CohortGenerator::new("nogeno", profile, 4).cohort(
            0,
            200,
            &DiseaseModel::stroke(),
        );
        let partial = map_site(&all, STROKE_CODE);
        assert_eq!(partial.cases + partial.controls, 0);
    }

    #[test]
    fn encoded_partial_is_tiny() {
        use medchain_runtime::codec::Encode;
        let all = genotyped_cohort(5_000, 5);
        let partial = map_site(&all, STROKE_CODE);
        // Raw genomes: 16 genotypes/patient; counts: 16 small tables.
        assert!(partial.encoded().len() < 1_000);
        assert!(partial.cases > 0 && partial.controls > 0);
    }

    #[test]
    fn chi_square_matches_hand_example() {
        // Classic 2×2: cases 30/70, controls 10/90.
        let counts = SnpCounts { case_risk: 30, case_ref: 70, control_risk: 10, control_ref: 90 };
        // χ² = n(ad-bc)² / [(a+b)(c+d)(a+c)(b+d)]
        let expected = 200.0 * (30.0 * 90.0 - 70.0 * 10.0_f64).powi(2)
            / (100.0 * 100.0 * 40.0 * 160.0);
        assert!((counts.chi_square() - expected).abs() < 1e-9);
        assert!(counts.odds_ratio() > 3.0);
    }

    #[test]
    fn empty_compose_is_empty() {
        assert!(compose(&[]).is_empty());
    }
}

mod codec_impls {
    use super::{GwasPartial, SnpCounts};
    use medchain_runtime::impl_codec_struct;

    impl_codec_struct!(SnpCounts { case_risk, case_ref, control_risk, control_ref });
    impl_codec_struct!(GwasPartial { snps, cases, controls });
}
