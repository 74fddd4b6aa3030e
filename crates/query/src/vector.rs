//! The query vector (paper §IV).
//!
//! "Users can also submit the requests in the form of query vector which
//! consists of various parameters expressing the users' query interest."
//! A [`QueryVector`] captures a researcher's request: the cohort
//! (predicates), what to compute over it (rows, aggregates, or a trained
//! model), the access purpose, and the schema projection. It converts to
//! contract call-data, which is how "the query vector [maps] into smart
//! contracts".

use medchain_contracts::policy::Purpose;
use medchain_contracts::value::Value;
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

    /// Encodes the vector as contract call-data values (a compact tagged
    /// rendering; the data contract sees purpose + cohort fingerprint).
    pub fn to_values(&self) -> Vec<Value> {
        let computation_tag = match &self.computation {
            Computation::FetchRows => Value::str("fetch"),
            Computation::Aggregates(aggs) => Value::str(&format!("aggregate:{}", aggs.len())),
            Computation::TrainModel { outcome_code, rounds } => {
                Value::str(&format!("train:{outcome_code}:{rounds}"))
            }
        };
        vec![
            Value::Int(self.purpose.code()),
            computation_tag,
            Value::str(&format!("{:?}", self.cohort)),
        ]
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        let what = match &self.computation {
            Computation::FetchRows => "fetch rows".to_string(),
            Computation::Aggregates(aggs) => format!("{} aggregate(s)", aggs.len()),
            Computation::TrainModel { outcome_code, rounds } => {
                format!("train {outcome_code} model ({rounds} rounds)")
            }
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
    fn to_values_encodes_purpose_and_tag() {
        let q = QueryVector::fetch_all().with_computation(Computation::TrainModel {
            outcome_code: "I63".into(),
            rounds: 5,
        });
        let values = q.to_values();
        assert_eq!(values[0], Value::Int(Purpose::Research.code()));
        assert_eq!(values[1], Value::str("train:I63:5"));
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
