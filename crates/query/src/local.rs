//! The per-site half of Fig. 6: one site executes a [`QueryVector`]
//! against its locally resident records.
//!
//! "The function of the query service component … is to … decompose the
//! requests into various local transformed blockchain system to access
//! data and execute the request." The decomposition is data-parallel:
//! every named site runs the same query vector, and the *data* differs
//! per site, which is the essence of the transformed architecture. What
//! a site returns is a [`SiteOutput`] — rows, sufficient statistics, a
//! model or a count table, never its records unless the query fetches
//! rows.

use crate::vector::{Computation, QueryVector};
use medchain_data::dataset::Dataset;
use medchain_data::genomics::{self, GwasPartial};
use medchain_data::schema::QueryResult;
use medchain_data::PatientRecord;
use medchain_learning::decompose::Partial;
use medchain_learning::Aggregate;

/// The most bins one histogram may ask a site for.
const MAX_HISTOGRAM_BINS: usize = 256;

/// What a site returns from executing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteOutput {
    /// Projected rows (FetchRows).
    Rows(QueryResult),
    /// One partial per requested aggregate, in request order.
    Partials(Vec<Partial>),
    /// A locally trained model's parameters plus the shard size
    /// (TrainModel; composed by weighted averaging).
    ModelParams {
        /// Flat parameter vector.
        params: Vec<f64>,
        /// Training rows at this site.
        n: usize,
    },
    /// Per-SNP allele×outcome counts (Gwas; composed by addition).
    Gwas(GwasPartial),
}

/// Executes `query` against one site's local records — the per-premise
/// half of Fig. 6. For `TrainModel` the site trains a logistic model on
/// its local cohort for one federated round starting from `warm_start`
/// (the global parameters), if provided.
///
/// # Errors
///
/// Refuses a histogram with no bins or more than 256, and a warm start
/// whose length is not the model's parameter count.
pub fn execute_local(
    query: &QueryVector,
    records: &[PatientRecord],
    warm_start: Option<&[f64]>,
) -> Result<SiteOutput, String> {
    let matching = || -> Vec<PatientRecord> {
        records.iter().filter(|r| query.cohort.matches(r)).cloned().collect()
    };
    Ok(match &query.computation {
        Computation::FetchRows => SiteOutput::Rows(query.cohort.run(records)),
        Computation::Aggregates(aggregates) => {
            for aggregate in aggregates {
                if let Aggregate::Histogram { bins, .. } = aggregate {
                    if !(1..=MAX_HISTOGRAM_BINS).contains(bins) {
                        return Err(format!(
                            "a histogram has 1 to {MAX_HISTOGRAM_BINS} bins, not {bins}"
                        ));
                    }
                }
            }
            let matching = matching();
            SiteOutput::Partials(aggregates.iter().map(|agg| agg.map_site(&matching)).collect())
        }
        Computation::TrainModel { outcome_code, .. } => {
            let data = Dataset::from_records(&matching(), outcome_code);
            let mut model = medchain_learning::LogisticRegression::new(data.dim().max(10));
            if let Some(params) = warm_start {
                if params.len() != model.dim() + 1 {
                    return Err(format!(
                        "a warm start has {} parameters, not {}",
                        model.dim() + 1,
                        params.len()
                    ));
                }
                model.set_params(params);
            }
            model.train(
                &data,
                &medchain_learning::SgdConfig { epochs: 3, ..Default::default() },
            );
            SiteOutput::ModelParams { params: model.params(), n: data.len() }
        }
        Computation::Gwas { outcome_code } => {
            SiteOutput::Gwas(genomics::map_site(&matching(), outcome_code))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::cohorts;
    use medchain_data::schema::Field;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
    use medchain_runtime::codec::Encode;

    fn records(seed: u64) -> Vec<PatientRecord> {
        CohortGenerator::new("s", SiteProfile::default(), seed).cohort(
            0,
            300,
            &DiseaseModel::stroke(),
        )
    }

    fn train() -> QueryVector {
        QueryVector::fetch_all().with_computation(Computation::TrainModel {
            outcome_code: STROKE_CODE.into(),
            rounds: 1,
        })
    }

    #[test]
    fn fetch_rows_executes_cohort_locally() {
        let query = QueryVector::fetch_all().with_cohort(cohorts::smokers());
        match execute_local(&query, &records(1), None).unwrap() {
            SiteOutput::Rows(result) => {
                assert!(!result.rows.is_empty());
                assert!(result.rows.len() < 300);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_respect_cohort_filter() {
        let all_count = QueryVector::fetch_all()
            .with_computation(Computation::Aggregates(vec![Aggregate::Count]));
        let smoker_count = all_count.clone().with_cohort(cohorts::smokers());
        let rs = records(2);
        let count = |q: &QueryVector| match execute_local(q, &rs, None).unwrap() {
            SiteOutput::Partials(p) => p[0].n,
            other => panic!("{other:?}"),
        };
        assert!(count(&smoker_count) < count(&all_count));
        assert_eq!(count(&all_count), 300);
    }

    #[test]
    fn train_model_returns_params_and_shard_size() {
        match execute_local(&train(), &records(3), None).unwrap() {
            SiteOutput::ModelParams { params, n } => {
                assert_eq!(params.len(), 11); // 10 features + bias
                assert_eq!(n, 300);
                assert!(params.iter().any(|p| *p != 0.0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn warm_start_continues_from_global_params() {
        let rs = records(4);
        let cold = execute_local(&train(), &rs, None).unwrap();
        let warm = execute_local(&train(), &rs, Some(&[0.5; 11])).unwrap();
        assert_ne!(cold, warm, "warm start must influence the result");
    }

    #[test]
    fn malformed_jobs_are_refused() {
        let rs = records(5);
        assert!(execute_local(&train(), &rs, Some(&[0.5; 3])).is_err());
        for bins in [0, MAX_HISTOGRAM_BINS + 1] {
            let histogram = Aggregate::Histogram { field: Field::Age, bins, min: 0.0, max: 1.0 };
            let query = QueryVector::fetch_all()
                .with_computation(Computation::Aggregates(vec![histogram]));
            assert!(execute_local(&query, &rs, None).is_err(), "{bins} bins");
        }
    }

    #[test]
    fn gwas_tabulates_the_panel_over_the_cohort() {
        let query = QueryVector::fetch_all()
            .with_computation(Computation::Gwas { outcome_code: STROKE_CODE.into() });
        let rs = records(6);
        match execute_local(&query, &rs, None).unwrap() {
            SiteOutput::Gwas(partial) => {
                assert_eq!(partial, genomics::map_site(&rs, STROKE_CODE));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn encoded_sizes_reflect_output_kind() {
        let rs = records(5);
        let rows = execute_local(&QueryVector::fetch_all(), &rs, None).unwrap();
        let mean = QueryVector::fetch_all()
            .with_computation(Computation::Aggregates(vec![Aggregate::Mean(Field::Age)]));
        let partials = execute_local(&mean, &rs, None).unwrap();
        assert!(rows.encoded().len() > 100 * partials.encoded().len());
    }
}

mod codec_impls {
    use super::SiteOutput;
    use medchain_runtime::impl_codec_enum;

    impl_codec_enum!(SiteOutput {
        0 => Rows(result),
        1 => Partials(partials),
        2 => ModelParams { params, n },
        3 => Gwas(partial),
    });
}
