//! Result composition (paper Figs. 5/6: "the models will be composed and
//! optimally updated by global data services component before returning
//! to users").

use crate::local::SiteOutput;
use crate::vector::{Computation, QueryVector};
use medchain_data::genomics::{self, Association};
use medchain_data::schema::QueryResult;
use medchain_learning::decompose::{Aggregate, AggregateValue, Partial};
use medchain_learning::linalg::weighted_average;
use std::fmt;

/// The composed, user-facing answer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAnswer {
    /// Merged rows from all sites.
    Rows(QueryResult),
    /// Composed aggregate values, in request order.
    Aggregates(Vec<AggregateValue>),
    /// The composed (weighted-averaged) global model.
    Model {
        /// Flat parameters.
        params: Vec<f64>,
        /// Total training rows across sites.
        total_rows: usize,
    },
    /// Per-SNP associations over the composed count tables, by
    /// descending χ².
    Associations(Vec<Association>),
}

impl fmt::Display for QueryAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryAnswer::Rows(result) => {
                write!(f, "{} rows ({} scanned)", result.rows.len(), result.scanned)
            }
            QueryAnswer::Aggregates(values) => {
                let rendered: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                write!(f, "aggregates [{}]", rendered.join(", "))
            }
            QueryAnswer::Model { params, total_rows } => {
                write!(f, "model with {} parameters over {total_rows} rows", params.len())
            }
            QueryAnswer::Associations(associations) => {
                write!(f, "{} SNP associations", associations.len())
            }
        }
    }
}

/// Errors composing site outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// A site returned an output kind that does not match the query.
    MixedOutputKinds,
    /// No site outputs were provided.
    NoOutputs,
    /// Outputs of the right kind disagree in shape: row schemas,
    /// histogram bins, model parameter counts or SNP panels differ.
    ShapeMismatch,
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::MixedOutputKinds => {
                f.write_str("site outputs do not match the query's computation kind")
            }
            ComposeError::NoOutputs => f.write_str("no site outputs to compose"),
            ComposeError::ShapeMismatch => f.write_str("site outputs disagree in shape"),
        }
    }
}

impl std::error::Error for ComposeError {}

/// Composes per-site outputs into the global answer. Outputs arrive from
/// other sites, so their shapes are checked before anything merges them.
///
/// # Errors
///
/// Returns [`ComposeError`] when outputs are missing, of the wrong kind
/// for the query, or disagree in shape.
pub fn compose(query: &QueryVector, outputs: Vec<SiteOutput>) -> Result<QueryAnswer, ComposeError> {
    if outputs.is_empty() {
        return Err(ComposeError::NoOutputs);
    }
    match &query.computation {
        Computation::FetchRows => {
            let mut results = Vec::with_capacity(outputs.len());
            for output in outputs {
                match output {
                    SiteOutput::Rows(result) => results.push(result),
                    _ => return Err(ComposeError::MixedOutputKinds),
                }
            }
            same_shape(results.iter().map(|r| r.schema.columns()))?;
            let mut merged = QueryResult::merge(results);
            if let Some(limit) = query.cohort.limit {
                merged.rows.truncate(limit);
            }
            Ok(QueryAnswer::Rows(merged))
        }
        Computation::Aggregates(aggregates) => {
            let mut per_site: Vec<Vec<Partial>> = Vec::with_capacity(outputs.len());
            for output in outputs {
                match output {
                    SiteOutput::Partials(p) if p.len() == aggregates.len() => per_site.push(p),
                    _ => return Err(ComposeError::MixedOutputKinds),
                }
            }
            let values = aggregates
                .iter()
                .enumerate()
                .map(|(i, aggregate)| {
                    let partials: Vec<Partial> =
                        per_site.iter().map(|site| site[i].clone()).collect();
                    let bins = match aggregate {
                        Aggregate::Histogram { bins, .. } => *bins,
                        _ => 0,
                    };
                    if partials.iter().any(|p| p.bins.len() != bins) {
                        return Err(ComposeError::ShapeMismatch);
                    }
                    Ok(aggregate.compose(&partials))
                })
                .collect::<Result<_, _>>()?;
            Ok(QueryAnswer::Aggregates(values))
        }
        Computation::TrainModel { .. } => {
            let mut params = Vec::with_capacity(outputs.len());
            let mut weights = Vec::with_capacity(outputs.len());
            let mut total_rows = 0usize;
            for output in outputs {
                match output {
                    SiteOutput::ModelParams { params: p, n } => {
                        total_rows = total_rows.saturating_add(n);
                        // Sites with no matching cohort contribute nothing.
                        if n > 0 {
                            params.push(p);
                            weights.push(n as f64);
                        }
                    }
                    _ => return Err(ComposeError::MixedOutputKinds),
                }
            }
            if params.is_empty() {
                return Err(ComposeError::NoOutputs);
            }
            same_shape(params.iter().map(Vec::len))?;
            Ok(QueryAnswer::Model { params: weighted_average(&params, &weights), total_rows })
        }
        Computation::Gwas { .. } => {
            let mut partials = Vec::with_capacity(outputs.len());
            for output in outputs {
                match output {
                    SiteOutput::Gwas(partial) => partials.push(partial),
                    _ => return Err(ComposeError::MixedOutputKinds),
                }
            }
            same_shape(partials.iter().map(|p| p.snps.len()))?;
            Ok(QueryAnswer::Associations(genomics::compose(&partials)))
        }
    }
}

/// Errors unless every site's output has the first one's shape.
fn same_shape<T: PartialEq>(mut shapes: impl Iterator<Item = T>) -> Result<(), ComposeError> {
    let first = shapes.next();
    if shapes.all(|shape| Some(shape) == first) {
        Ok(())
    } else {
        Err(ComposeError::ShapeMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::execute_local;
    use crate::vector::cohorts;
    use medchain_data::schema::Field;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
    use medchain_data::PatientRecord;

    fn site_records(i: usize) -> Vec<PatientRecord> {
        CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 500 + i as u64).cohort(
            (i * 1_000) as u64,
            200,
            &DiseaseModel::stroke(),
        )
    }

    fn run_distributed(query: &QueryVector, sites: usize) -> QueryAnswer {
        let outputs: Vec<SiteOutput> = (0..sites)
            .map(|i| execute_local(query, &site_records(i), None).unwrap())
            .collect();
        compose(query, outputs).unwrap()
    }

    #[test]
    fn distributed_aggregate_equals_centralized() {
        let query = QueryVector::fetch_all().with_computation(Computation::Aggregates(vec![
            Aggregate::Count,
            Aggregate::Mean(Field::Age),
            Aggregate::Prevalence(STROKE_CODE.into()),
        ]));
        let distributed = run_distributed(&query, 4);

        let mut all = Vec::new();
        for i in 0..4 {
            all.extend(site_records(i));
        }
        let centralized: Vec<AggregateValue> = match &query.computation {
            Computation::Aggregates(aggs) => aggs.iter().map(|a| a.compute(&all)).collect(),
            _ => unreachable!(),
        };
        match distributed {
            QueryAnswer::Aggregates(values) => {
                for (d, c) in values.iter().zip(&centralized) {
                    match (d, c) {
                        (AggregateValue::Scalar(a), AggregateValue::Scalar(b)) => {
                            assert!((a - b).abs() < 1e-9)
                        }
                        (AggregateValue::Histogram(a), AggregateValue::Histogram(b)) => {
                            assert_eq!(a, b)
                        }
                        other => panic!("{other:?}"),
                    }
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fetch_rows_merges_and_limits() {
        let query =
            QueryVector::fetch_all().with_cohort(cohorts::age_band(40.0, 90.0).limit(50));
        match run_distributed(&query, 3) {
            QueryAnswer::Rows(result) => {
                assert!(result.rows.len() <= 50);
                assert!(result.scanned > 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn model_composition_weighted_averages() {
        let query = QueryVector::fetch_all().with_computation(Computation::TrainModel {
            outcome_code: STROKE_CODE.into(),
            rounds: 1,
        });
        match run_distributed(&query, 3) {
            QueryAnswer::Model { params, total_rows } => {
                assert_eq!(params.len(), 11);
                assert_eq!(total_rows, 600);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mixed_outputs_rejected() {
        let query = QueryVector::fetch_all();
        let bad = vec![SiteOutput::Partials(vec![])];
        assert_eq!(compose(&query, bad), Err(ComposeError::MixedOutputKinds));
        assert_eq!(compose(&query, vec![]), Err(ComposeError::NoOutputs));
    }

    #[test]
    fn outputs_that_disagree_in_shape_are_rejected() {
        use medchain_data::schema::Schema;
        let rows =
            |schema: Schema| SiteOutput::Rows(QueryResult { schema, rows: vec![], scanned: 0 });
        let fetch = QueryVector::fetch_all();
        let narrow = rows(Schema::project(vec![Field::Age]));
        let mismatched = vec![rows(Schema::canonical()), narrow];
        assert_eq!(compose(&fetch, mismatched), Err(ComposeError::ShapeMismatch));

        let histogram = Aggregate::Histogram { field: Field::Age, bins: 4, min: 0.0, max: 100.0 };
        let query = fetch.clone().with_computation(Computation::Aggregates(vec![histogram]));
        let partial = |bins: usize| {
            SiteOutput::Partials(vec![Partial { bins: vec![1; bins], ..Partial::default() }])
        };
        for bad in [vec![partial(4), partial(5)], vec![partial(3)]] {
            assert_eq!(compose(&query, bad), Err(ComposeError::ShapeMismatch));
        }

        let train = fetch.clone().with_computation(Computation::TrainModel {
            outcome_code: STROKE_CODE.into(),
            rounds: 1,
        });
        let model = |len: usize| SiteOutput::ModelParams { params: vec![0.5; len], n: 10 };
        assert_eq!(compose(&train, vec![model(11), model(3)]), Err(ComposeError::ShapeMismatch));

        let gwas = fetch.with_computation(Computation::Gwas { outcome_code: STROKE_CODE.into() });
        let panel = |len: usize| {
            let snps = vec![medchain_data::genomics::SnpCounts::default(); len];
            SiteOutput::Gwas(medchain_data::genomics::GwasPartial { snps, cases: 1, controls: 1 })
        };
        assert_eq!(compose(&gwas, vec![panel(16), panel(15)]), Err(ComposeError::ShapeMismatch));
    }

    #[test]
    fn distributed_gwas_equals_centralized() {
        let query = QueryVector::fetch_all()
            .with_computation(Computation::Gwas { outcome_code: STROKE_CODE.into() });
        let all: Vec<PatientRecord> = (0..3).flat_map(site_records).collect();
        let centralized = genomics::compose(&[genomics::map_site(&all, STROKE_CODE)]);
        assert_eq!(run_distributed(&query, 3), QueryAnswer::Associations(centralized));
    }

    #[test]
    fn display_renders_each_kind() {
        let query = QueryVector::fetch_all().with_computation(Computation::Aggregates(vec![
            Aggregate::Count,
        ]));
        let answer = run_distributed(&query, 2);
        assert!(answer.to_string().contains("aggregates"));
    }
}
