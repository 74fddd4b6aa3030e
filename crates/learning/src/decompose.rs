//! Analytics decomposition: splitting an aggregate computation into
//! per-site map tasks plus an exact compose step.
//!
//! "The researches and developments of new innovative decomposition
//! mechanisms are required to decompose a complicated analytics into
//! distributed and parallel tasks which can be run in the blockchain
//! distributed parallel smart contract environment" (paper §III). The
//! aggregates here carry sufficient statistics, so composing per-site
//! partials is *exactly* equal to the centralized computation — the
//! property that makes move-compute-to-data lossless.

use medchain_data::schema::Field;
use medchain_data::PatientRecord;
use std::fmt;

/// A decomposable aggregate over one field.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// Row count.
    Count,
    /// Sum of a field.
    Sum(Field),
    /// Mean of a field.
    Mean(Field),
    /// Population variance of a field.
    Variance(Field),
    /// Fixed-bin histogram of a field.
    Histogram {
        /// Aggregated field.
        field: Field,
        /// Number of bins.
        bins: usize,
        /// Inclusive lower edge.
        min: f64,
        /// Exclusive upper edge.
        max: f64,
    },
    /// Prevalence of a diagnosis code (fraction of records).
    Prevalence(String),
}

/// Mergeable sufficient statistics produced by one site.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Partial {
    /// Rows contributing (field present).
    pub n: u64,
    /// Σx.
    pub sum: f64,
    /// Σx².
    pub sum_sq: f64,
    /// Histogram bin counts (empty unless histogram).
    pub bins: Vec<u64>,
    /// Rows scanned (including rows missing the field).
    pub scanned: u64,
}

impl Partial {
    /// Merges another partial into this one.
    ///
    /// Counts saturate: a partial arrives from another site and may claim
    /// anything.
    ///
    /// # Panics
    ///
    /// Panics if both partials carry histogram bins of different counts.
    pub fn merge(&mut self, other: &Partial) {
        self.n = self.n.saturating_add(other.n);
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.scanned = self.scanned.saturating_add(other.scanned);
        if self.bins.is_empty() {
            self.bins = other.bins.clone();
        } else if !other.bins.is_empty() {
            assert_eq!(self.bins.len(), other.bins.len(), "histogram bin mismatch");
            for (a, b) in self.bins.iter_mut().zip(&other.bins) {
                *a = a.saturating_add(*b);
            }
        }
    }
}

/// Final composed value of an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateValue {
    /// A scalar result.
    Scalar(f64),
    /// Histogram bin counts.
    Histogram(Vec<u64>),
}

impl AggregateValue {
    /// Reads a scalar result.
    ///
    /// # Panics
    ///
    /// Panics on histogram values.
    pub fn scalar(&self) -> f64 {
        match self {
            AggregateValue::Scalar(v) => *v,
            AggregateValue::Histogram(_) => panic!("histogram result, not scalar"),
        }
    }
}

impl fmt::Display for AggregateValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateValue::Scalar(v) => write!(f, "{v:.6}"),
            AggregateValue::Histogram(bins) => write!(f, "{bins:?}"),
        }
    }
}

impl Aggregate {
    /// The map step: computes this aggregate's partial over one site's
    /// records.
    pub fn map_site(&self, records: &[PatientRecord]) -> Partial {
        let mut partial = Partial { scanned: records.len() as u64, ..Partial::default() };
        match self {
            Aggregate::Count => partial.n = records.len() as u64,
            Aggregate::Sum(field) | Aggregate::Mean(field) | Aggregate::Variance(field) => {
                for record in records {
                    if let Some(v) = field.extract(record) {
                        partial.n += 1;
                        partial.sum += v;
                        partial.sum_sq += v * v;
                    }
                }
            }
            Aggregate::Histogram { field, bins, min, max } => {
                partial.bins = vec![0; *bins];
                let width = (max - min) / *bins as f64;
                for record in records {
                    if let Some(v) = field.extract(record) {
                        if v >= *min && v < *max && width > 0.0 {
                            partial.n += 1;
                            let bin = ((v - min) / width) as usize;
                            partial.bins[bin.min(*bins - 1)] += 1;
                        }
                    }
                }
            }
            Aggregate::Prevalence(code) => {
                for record in records {
                    partial.n += u64::from(record.has_diagnosis(code));
                }
            }
        }
        partial
    }

    /// The compose step: merges per-site partials into the final value.
    pub fn compose(&self, partials: &[Partial]) -> AggregateValue {
        let mut merged = Partial::default();
        for p in partials {
            merged.merge(p);
        }
        match self {
            Aggregate::Count => AggregateValue::Scalar(merged.n as f64),
            Aggregate::Sum(_) => AggregateValue::Scalar(merged.sum),
            Aggregate::Mean(_) => AggregateValue::Scalar(if merged.n == 0 {
                0.0
            } else {
                merged.sum / merged.n as f64
            }),
            Aggregate::Variance(_) => AggregateValue::Scalar(if merged.n == 0 {
                0.0
            } else {
                let mean = merged.sum / merged.n as f64;
                merged.sum_sq / merged.n as f64 - mean * mean
            }),
            Aggregate::Histogram { .. } => AggregateValue::Histogram(merged.bins),
            Aggregate::Prevalence(_) => AggregateValue::Scalar(if merged.scanned == 0 {
                0.0
            } else {
                merged.n as f64 / merged.scanned as f64
            }),
        }
    }

    /// Convenience: centralized computation (map + compose over one
    /// shard), the reference the distributed path must match.
    pub fn compute(&self, records: &[PatientRecord]) -> AggregateValue {
        self.compose(&[self.map_site(records)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};

    fn records(n: usize, seed: u64) -> Vec<PatientRecord> {
        CohortGenerator::new("s", SiteProfile::default(), seed).cohort(
            0,
            n,
            &DiseaseModel::stroke(),
        )
    }

    fn assert_distributed_equals_centralized(aggregate: Aggregate) {
        let all = records(900, 77);
        let centralized = aggregate.compute(&all);
        let partials: Vec<Partial> =
            all.chunks(250).map(|site| aggregate.map_site(site)).collect();
        let distributed = aggregate.compose(&partials);
        match (&centralized, &distributed) {
            (AggregateValue::Scalar(a), AggregateValue::Scalar(b)) => {
                assert!((a - b).abs() < 1e-9, "{aggregate:?}: {a} vs {b}")
            }
            (AggregateValue::Histogram(a), AggregateValue::Histogram(b)) => assert_eq!(a, b),
            other => panic!("variant mismatch: {other:?}"),
        }
    }

    #[test]
    fn count_decomposes_exactly() {
        assert_distributed_equals_centralized(Aggregate::Count);
    }

    #[test]
    fn sum_and_mean_decompose_exactly() {
        assert_distributed_equals_centralized(Aggregate::Sum(Field::Age));
        assert_distributed_equals_centralized(Aggregate::Mean(Field::SystolicBp));
    }

    #[test]
    fn variance_decomposes_exactly() {
        assert_distributed_equals_centralized(Aggregate::Variance(Field::Cholesterol));
    }

    #[test]
    fn histogram_decomposes_exactly() {
        assert_distributed_equals_centralized(Aggregate::Histogram {
            field: Field::Age,
            bins: 12,
            min: 15.0,
            max: 100.0,
        });
    }

    #[test]
    fn prevalence_decomposes_exactly() {
        assert_distributed_equals_centralized(Aggregate::Prevalence(STROKE_CODE.into()));
    }

    #[test]
    fn mean_value_is_plausible() {
        let all = records(2_000, 5);
        let mean_age = Aggregate::Mean(Field::Age).compute(&all).scalar();
        assert!((40.0..70.0).contains(&mean_age), "mean age {mean_age}");
    }

    #[test]
    fn missing_modality_rows_are_excluded_not_zeroed() {
        let all = records(1_000, 6);
        let n_with_wearable = all.iter().filter(|r| r.wearable.is_some()).count() as u64;
        let partial = Aggregate::Mean(Field::DailySteps).map_site(&all);
        assert_eq!(partial.n, n_with_wearable);
        assert_eq!(partial.scanned, 1_000);
    }

    #[test]
    fn encoded_partial_is_tiny_compared_to_raw_records() {
        use medchain_runtime::codec::Encode;
        let all = records(5_000, 8);
        let partial = Aggregate::Variance(Field::Age).map_site(&all);
        let raw_bytes: usize = all.iter().map(|r| r.canonical_bytes().len()).sum();
        assert!(partial.encoded().len() * 1_000 < raw_bytes);
    }

    #[test]
    fn empty_compose_is_zero() {
        assert_eq!(Aggregate::Mean(Field::Age).compose(&[]), AggregateValue::Scalar(0.0));
        assert_eq!(Aggregate::Count.compose(&[]), AggregateValue::Scalar(0.0));
    }
}

mod codec_impls {
    use super::{Aggregate, Partial};
    use medchain_runtime::{impl_codec_enum, impl_codec_struct};

    impl_codec_enum!(Aggregate {
        0 => Count,
        1 => Sum(field),
        2 => Mean(field),
        3 => Variance(field),
        4 => Histogram { field, bins, min, max },
        5 => Prevalence(code),
    });
    impl_codec_struct!(Partial { n, sum, sum_sq, bins, scanned });
}
