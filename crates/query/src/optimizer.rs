//! Query-vector optimization (paper §V: "explore the optimized data
//! query vector for a given research target and query request").
//!
//! Conjunctive predicates short-circuit: evaluating the most selective
//! (and cheapest) predicate first minimizes per-record work during the
//! site scan. The optimizer orders predicates by an estimated
//! selectivity×cost score derived from population statistics of the
//! canonical cohort model, and pushes the row `limit` down to each site
//! (a site never needs to return more rows than the global cap).
//!
//! [`CountingQuery`] instruments predicate evaluations so the saving is
//! measurable (see the `optimizer_reduces_evaluations` test and the
//! E13 ablation).

use crate::vector::QueryVector;
use medchain_data::schema::{Field, Predicate};
use medchain_data::PatientRecord;

/// Estimated fraction of the population a predicate keeps (smaller =
/// more selective = evaluate earlier). Derived from the synthetic
/// cohort model's population statistics; a production system would use
/// per-site histograms.
fn estimated_selectivity(predicate: &Predicate) -> f64 {
    match predicate {
        Predicate::Range { field, min, max } => {
            // Approximate each field with a uniform band over its
            // physiological range.
            let (lo, hi) = match field {
                Field::Age => (18.0, 95.0),
                Field::SystolicBp => (90.0, 220.0),
                Field::Cholesterol => (100.0, 400.0),
                Field::Bmi => (15.0, 60.0),
                Field::DailySteps => (200.0, 25_000.0),
                Field::PolygenicRisk => (0.0, 1.0),
                Field::Smoker | Field::Diabetic | Field::Sex => (0.0, 1.0),
            };
            let overlap = (max.min(hi) - min.max(lo)).max(0.0);
            let width = (hi - lo).max(f64::EPSILON);
            let base = (overlap / width).clamp(0.0, 1.0);
            // Wearable/genomic ranges additionally require the modality.
            match field {
                Field::DailySteps => base * 0.4,
                Field::PolygenicRisk => base * 0.3,
                _ => base,
            }
        }
        Predicate::Flag { field, value } => match (field, value) {
            (Field::Smoker, true) => 0.2,
            (Field::Smoker, false) => 0.8,
            (Field::Diabetic, true) => 0.12,
            (Field::Diabetic, false) => 0.88,
            (Field::Sex, _) => 0.5,
            _ => 0.5,
        },
        // Diagnoses are rare events.
        Predicate::HasDiagnosis(_) => 0.1,
        Predicate::LacksDiagnosis(_) => 0.9,
        Predicate::HasWearable => 0.4,
        Predicate::HasGenomics => 0.3,
    }
}

/// Relative CPU cost of evaluating a predicate once. Scalar reads are
/// cheap; diagnosis predicates scan a list.
fn evaluation_cost(predicate: &Predicate) -> f64 {
    match predicate {
        Predicate::HasDiagnosis(_) | Predicate::LacksDiagnosis(_) => 3.0,
        _ => 1.0,
    }
}

/// Returns an optimized copy of `query`: predicates sorted by
/// `selectivity × cost` ascending (most-selective-cheapest first).
/// Conjunction order does not change results, only work.
pub fn optimize(query: &QueryVector) -> QueryVector {
    let mut optimized = query.clone();
    optimized
        .cohort
        .predicates
        .sort_by(|a, b| {
            let score_a = estimated_selectivity(a) * evaluation_cost(a);
            let score_b = estimated_selectivity(b) * evaluation_cost(b);
            score_a.partial_cmp(&score_b).expect("finite scores")
        });
    optimized
}

/// Instrumented conjunctive evaluation: counts individual predicate
/// evaluations while filtering `records` (short-circuit semantics, same
/// result as [`medchain_data::RecordQuery::matches`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Records scanned.
    pub records: u64,
    /// Individual predicate evaluations performed.
    pub predicate_evals: u64,
    /// Records that matched all predicates.
    pub matched: u64,
}

/// Runs the query's cohort filter over `records`, counting work.
pub fn run_counted(query: &QueryVector, records: &[PatientRecord]) -> EvalStats {
    let mut stats = EvalStats { records: records.len() as u64, ..EvalStats::default() };
    for record in records {
        let mut all = true;
        for predicate in &query.cohort.predicates {
            stats.predicate_evals += 1;
            if !predicate.matches(record) {
                all = false;
                break;
            }
        }
        if all {
            stats.matched += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::QueryVector;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
    use medchain_data::RecordQuery;

    fn records(n: usize) -> Vec<PatientRecord> {
        CohortGenerator::new("opt", SiteProfile::default(), 7).cohort(
            0,
            n,
            &DiseaseModel::stroke(),
        )
    }

    fn unoptimized_query() -> QueryVector {
        // Deliberately worst-first: broad cheap predicates before the
        // rare expensive one.
        QueryVector::fetch_all().with_cohort(
            RecordQuery::all()
                .filter(Predicate::Range { field: Field::Age, min: 18.0, max: 95.0 }) // keeps ~all
                .filter(Predicate::Flag { field: Field::Sex, value: true }) // keeps half
                .filter(Predicate::HasDiagnosis(STROKE_CODE.into())), // rare
        )
    }

    #[test]
    fn optimize_orders_most_selective_first() {
        let optimized = optimize(&unoptimized_query());
        assert!(matches!(
            optimized.cohort.predicates[0],
            Predicate::HasDiagnosis(_)
        ));
        // The near-universal age band goes last.
        assert!(matches!(
            optimized.cohort.predicates.last().unwrap(),
            Predicate::Range { field: Field::Age, .. }
        ));
    }

    #[test]
    fn optimization_preserves_results() {
        let rs = records(800);
        let original = unoptimized_query();
        let optimized = optimize(&original);
        assert_eq!(
            run_counted(&original, &rs).matched,
            run_counted(&optimized, &rs).matched
        );
        // And the full query result rows agree.
        assert_eq!(original.cohort.run(&rs).rows.len(), optimized.cohort.run(&rs).rows.len());
    }

    #[test]
    fn optimizer_reduces_evaluations() {
        let rs = records(2_000);
        let original = run_counted(&unoptimized_query(), &rs);
        let optimized = run_counted(&optimize(&unoptimized_query()), &rs);
        assert!(
            optimized.predicate_evals * 2 < original.predicate_evals,
            "optimized {} vs original {} predicate evaluations",
            optimized.predicate_evals,
            original.predicate_evals
        );
    }

    #[test]
    fn selectivity_estimates_are_probabilities() {
        for predicate in [
            Predicate::Range { field: Field::Age, min: 50.0, max: 60.0 },
            Predicate::Range { field: Field::Age, min: -100.0, max: 300.0 },
            Predicate::Flag { field: Field::Smoker, value: true },
            Predicate::HasDiagnosis("I63".into()),
            Predicate::HasWearable,
        ] {
            let s = estimated_selectivity(&predicate);
            assert!((0.0..=1.0).contains(&s), "{predicate:?} → {s}");
        }
    }

    #[test]
    fn disjoint_range_has_zero_selectivity() {
        let s = estimated_selectivity(&Predicate::Range {
            field: Field::Age,
            min: 300.0,
            max: 400.0,
        });
        assert_eq!(s, 0.0);
    }

    #[test]
    fn empty_predicate_list_is_noop() {
        let q = QueryVector::fetch_all();
        assert_eq!(optimize(&q), q);
    }
}
