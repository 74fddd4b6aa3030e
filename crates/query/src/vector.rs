//! The query vector (paper §IV).
//!
//! "Users can also submit the requests in the form of query vector which
//! consists of various parameters expressing the users' query interest."
//! A [`QueryVector`] captures a researcher's request: the cohort
//! (predicates), what to compute over it (rows, aggregates, a trained
//! model or a GWAS count table), the access purpose, and the schema
//! projection. Its canonical encoding is the shard params of the
//! analytics request that runs it at every site, which is how "the
//! query vector [maps] into smart contracts".

use medchain_contracts::policy::Purpose;
use medchain_data::schema::Field;
use medchain_data::{Predicate, RecordQuery};
use medchain_learning::Aggregate;

/// What the researcher wants computed over the cohort.
#[derive(Debug, Clone, PartialEq)]
pub enum Computation {
    /// Return the (projected) matching rows.
    FetchRows,
    /// Compute decomposable aggregates.
    Aggregates(Vec<Aggregate>),
    /// Train a federated disease-risk model for an outcome code.
    TrainModel {
        /// Outcome diagnosis code, e.g. `"I63"`.
        outcome_code: String,
        /// Federated rounds.
        rounds: usize,
    },
    /// Tabulate per-SNP allele×outcome counts for a genome-wide
    /// association study.
    Gwas {
        /// Outcome diagnosis code, e.g. `"I63"`.
        outcome_code: String,
    },
}

/// A structured research query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryVector {
    /// Cohort definition, shipped to every site.
    pub cohort: RecordQuery,
    /// Requested computation.
    pub computation: Computation,
    /// Declared access purpose (checked by the data contracts).
    pub purpose: Purpose,
}

impl QueryVector {
    /// A fetch-rows query over everything, for research.
    pub fn fetch_all() -> QueryVector {
        QueryVector {
            cohort: RecordQuery::all(),
            computation: Computation::FetchRows,
            purpose: Purpose::Research,
        }
    }

    /// Builder: set the cohort.
    #[must_use]
    pub fn with_cohort(mut self, cohort: RecordQuery) -> QueryVector {
        self.cohort = cohort;
        self
    }

    /// Builder: set the computation.
    #[must_use]
    pub fn with_computation(mut self, computation: Computation) -> QueryVector {
        self.computation = computation;
        self
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        let what = match &self.computation {
            Computation::FetchRows => "fetch rows".to_string(),
            Computation::Aggregates(aggs) => format!("{} aggregate(s)", aggs.len()),
            Computation::TrainModel { outcome_code, rounds } => {
                format!("train {outcome_code} model ({rounds} rounds)")
            }
            Computation::Gwas { outcome_code } => format!("{outcome_code} GWAS"),
        };
        format!(
            "{what} over cohort with {} predicate(s) for {}",
            self.cohort.predicates.len(),
            self.purpose
        )
    }
}

/// Convenience constructors for common epidemiological cohorts.
pub mod cohorts {
    use super::*;

    /// Patients in `[min_age, max_age]`.
    pub fn age_band(min_age: f64, max_age: f64) -> RecordQuery {
        RecordQuery::all().filter(Predicate::Range {
            field: Field::Age,
            min: min_age,
            max: max_age,
        })
    }

    /// Smokers.
    pub fn smokers() -> RecordQuery {
        RecordQuery::all().filter(Predicate::Flag { field: Field::Smoker, value: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_data::schema::Field;

    #[test]
    fn builder_chain() {
        let q = QueryVector::fetch_all()
            .with_cohort(cohorts::smokers())
            .with_computation(Computation::Aggregates(vec![Aggregate::Mean(Field::Age)]));
        assert_eq!(q.cohort.predicates.len(), 1);
        assert!(matches!(q.computation, Computation::Aggregates(_)));
    }

    #[test]
    fn the_canonical_encoding_round_trips_every_computation() {
        use medchain_runtime::codec::{Decode, Encode};
        let histogram = Aggregate::Histogram { field: Field::Age, bins: 4, min: 0.0, max: 1.0 };
        for computation in [
            Computation::FetchRows,
            Computation::Aggregates(vec![Aggregate::Count, histogram]),
            Computation::TrainModel { outcome_code: "I63".into(), rounds: 5 },
            Computation::Gwas { outcome_code: "I63".into() },
        ] {
            let q = QueryVector::fetch_all()
                .with_cohort(cohorts::smokers().limit(9))
                .with_computation(computation);
            assert_eq!(QueryVector::decoded(&q.encoded()), Ok(q));
        }
    }

    #[test]
    fn describe_is_readable() {
        let cohort =
            cohorts::smokers().filter(Predicate::Flag { field: Field::Diabetic, value: true });
        let q = QueryVector::fetch_all().with_cohort(cohort);
        let text = q.describe();
        assert!(text.contains("2 predicate(s)"));
        assert!(text.contains("research"));
    }

    #[test]
    fn cohort_helpers_filter_correctly() {
        use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
        let records = CohortGenerator::new("s", SiteProfile::default(), 1).cohort(
            0,
            500,
            &DiseaseModel::stroke(),
        );
        let result = cohorts::age_band(60.0, 70.0).run(&records);
        for row in &result.rows {
            let age = row[0].unwrap();
            assert!((60.0..=70.0).contains(&age));
        }
    }
}

mod codec_impls {
    use super::{Computation, QueryVector};
    use medchain_runtime::{impl_codec_enum, impl_codec_struct};

    impl_codec_enum!(Computation {
        0 => FetchRows,
        1 => Aggregates(aggregates),
        2 => TrainModel { outcome_code, rounds },
        3 => Gwas { outcome_code },
    });
    impl_codec_struct!(QueryVector { cohort, computation, purpose });
}
