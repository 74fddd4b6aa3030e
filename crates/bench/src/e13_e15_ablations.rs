//! Ablations of the architecture's design choices (DESIGN.md §4).
//!
//! * **E13** — where does the transformed speedup come from? Decompose
//!   the E2 gain into *move-compute-to-data* (no N× duplication) versus
//!   *parallel site execution*, by running the off-chain phase
//!   sequentially.
//! * **E14** — FedAvg communication/accuracy trade-off: local epochs per
//!   round versus rounds at fixed total compute.
//! * **E15** — the §V query-vector optimizer: predicate ordering on/off.

use crate::report::{f, ms, Table};
use medchain::modes::{burn_tool, run_duplicated, run_transformed};
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
use medchain_data::{Dataset, Field, Predicate, RecordQuery};
use medchain_learning::{FedAvg, FedLogistic};
use medchain_offchain::TaskExecutor;
use medchain_query::optimizer::{optimize, run_counted};
use medchain_query::QueryVector;
use medchain_runtime::metrics::Metrics;
use std::time::Instant;

/// E13: duplicated vs transformed-sequential vs transformed-parallel,
/// reporting `ablation.*` to `metrics`: one `variants_run` tick per
/// variant timed, the work-unit budget, and the observed
/// parallel-over-duplicated speedup.
pub fn run_e13(quick: bool, metrics: Metrics) -> Table {
    let work: u64 = if quick { 300_000 } else { 1_500_000 };
    let nodes = if quick { 4 } else { 8 };
    let mut table = Table::new(
        "E13",
        &format!("ablation: where the speedup comes from ({nodes} nodes, {work} work units)"),
        &["variant", "wall", "total work", "vs duplicated"],
    );
    let duplicated = run_duplicated(nodes, work, 31).expect("duplicated");
    metrics.counter("ablation.work_units", work);

    // Transformed but *sequential*: shards executed one after another on
    // a single executor — isolates the no-duplication saving.
    let sequential_wall = {
        let mut executor = TaskExecutor::new();
        executor.install(burn_tool());
        let shard = work / nodes as u64;
        let start = Instant::now();
        for _ in 0..nodes {
            executor
                .run(
                    "burn-kernel",
                    &[medchain_contracts::value::Value::Int(shard as i64)],
                    None,
                )
                .expect("burn");
        }
        start.elapsed()
    };
    let parallel = run_transformed(nodes, work, 31).expect("transformed");
    metrics.counter("ablation.variants_run", 3);

    let dup_wall = duplicated.wall.as_secs_f64();
    metrics.observe("ablation.parallel_speedup", dup_wall / parallel.wall.as_secs_f64());
    table.row(vec![
        "duplicated (on-chain, every replica)".into(),
        ms(dup_wall * 1000.0),
        duplicated.total_gas.to_string(),
        "1.0×".into(),
    ]);
    table.row(vec![
        "transformed, sequential off-chain".into(),
        ms(sequential_wall.as_secs_f64() * 1000.0),
        work.to_string(),
        format!("{:.1}×", dup_wall / sequential_wall.as_secs_f64()),
    ]);
    table.row(vec![
        "transformed, parallel off-chain".into(),
        ms(parallel.wall.as_secs_f64() * 1000.0),
        parallel.total_gas.to_string(),
        format!("{:.1}×", dup_wall / parallel.wall.as_secs_f64()),
    ]);
    table.finding(format!(
        "eliminating duplication alone wins ~{nodes}× in total work; parallel site execution \
         adds up to another {nodes}× in wall time once shard compute outweighs the fixed \
         consensus overhead (visible in the full profile's larger jobs)"
    ));
    table
}

/// E14: FedAvg local epochs vs rounds at fixed total compute, reporting
/// `fedavg.*` to `metrics`: configurations tried, rounds run, model
/// bytes moved, and every final AUC observed.
pub fn run_e14(quick: bool, metrics: Metrics) -> Table {
    let per_site = if quick { 400 } else { 800 };
    let sites = if quick { 4 } else { 8 };
    let total_epochs = 24usize;
    let shards: Vec<Dataset> = (0..sites)
        .map(|i| {
            let records =
                CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 300 + i as u64)
                    .cohort((i * 100_000) as u64, per_site, &DiseaseModel::stroke());
            Dataset::from_records(&records, STROKE_CODE)
        })
        .collect();
    let eval_records = CohortGenerator::new("eval", SiteProfile::default(), 7_777).cohort(
        9_000_000,
        1_500,
        &DiseaseModel::stroke(),
    );
    let eval = Dataset::from_records(&eval_records, STROKE_CODE);

    let mut table = Table::new(
        "E14",
        &format!("ablation: FedAvg local epochs × rounds = {total_epochs} total epochs"),
        &["local epochs", "rounds", "final AUC", "model bytes moved"],
    );
    for local_epochs in [1usize, 3, 6, 12] {
        let rounds = total_epochs / local_epochs;
        let mut fed = FedAvg::new(FedLogistic::new(10, local_epochs), rounds);
        let report = fed.run(&shards, Some(&eval));
        metrics.counter("fedavg.configs", 1);
        metrics.counter("fedavg.rounds", rounds as u64);
        metrics.counter("fedavg.bytes_moved", report.bytes_uplink + report.bytes_downlink);
        metrics.observe("fedavg.final_auc", report.final_auc());
        table.row(vec![
            local_epochs.to_string(),
            rounds.to_string(),
            f(report.final_auc()),
            (report.bytes_uplink + report.bytes_downlink).to_string(),
        ]);
    }
    table.finding(
        "more local epochs per round cut communication proportionally with little accuracy \
         loss at this scale — the knob Google's federated-learning work tunes, available here \
         for hospital consortia"
            .to_string(),
    );
    table
}

/// E15: query-vector optimizer on/off, reporting `query_opt.*` to
/// `metrics`: records scanned, predicate evaluations per variant, and
/// the evaluations the optimizer saved.
pub fn run_e15(quick: bool, metrics: Metrics) -> Table {
    let n = if quick { 4_000 } else { 20_000 };
    let records = CohortGenerator::new("opt", SiteProfile::default(), 15).cohort(
        0,
        n,
        &DiseaseModel::stroke(),
    );
    // A worst-ordered query: broad predicates first, rare last.
    let query = QueryVector::fetch_all().with_cohort(
        RecordQuery::all()
            .filter(Predicate::Range { field: Field::Age, min: 18.0, max: 95.0 })
            .filter(Predicate::Range { field: Field::SystolicBp, min: 90.0, max: 220.0 })
            .filter(Predicate::Flag { field: Field::Sex, value: true })
            .filter(Predicate::HasDiagnosis(STROKE_CODE.into())),
    );
    let optimized = optimize(&query);

    let mut table = Table::new(
        "E15",
        &format!("ablation: §V query-vector optimization over {n} records"),
        &["variant", "predicate evals", "matched", "wall"],
    );
    metrics.counter("query_opt.records", n as u64);
    let mut evals = Vec::new();
    for (name, q) in [("as written", &query), ("optimized order", &optimized)] {
        let start = Instant::now();
        let stats = run_counted(q, &records);
        let wall = start.elapsed();
        metrics.counter("query_opt.predicate_evals", stats.predicate_evals);
        evals.push(stats.predicate_evals);
        table.row(vec![
            name.to_string(),
            stats.predicate_evals.to_string(),
            stats.matched.to_string(),
            ms(wall.as_secs_f64() * 1000.0),
        ]);
    }
    table.finding(
        "selectivity-ordered predicates cut per-record work several-fold with identical \
         results — the 'optimized query vector' of the paper's research agenda"
            .to_string(),
    );
    metrics.counter("query_opt.evals_saved", evals[0].saturating_sub(evals[1]));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e13_metered_reports_ablation_counters() {
        let registry = Registry::new();
        run_e13(true, registry.handle());
        assert_eq!(registry.counter_value("ablation.variants_run"), 3);
        assert!(registry.counter_value("ablation.work_units") >= 300_000);
    }

    #[test]
    fn e14_metered_reports_fedavg_counters() {
        let registry = Registry::new();
        run_e14(true, registry.handle());
        assert_eq!(registry.counter_value("fedavg.configs"), 4);
        assert!(registry.counter_value("fedavg.rounds") > 0);
        assert!(registry.counter_value("fedavg.bytes_moved") > 0);
    }

    #[test]
    fn e15_metered_reports_saved_evals() {
        let registry = Registry::new();
        let table = run_e15(true, registry.handle());
        let evals = |row: usize| table.rows[row][1].parse::<u64>().unwrap();
        assert!(registry.counter_value("query_opt.records") > 0);
        assert_eq!(registry.counter_value("query_opt.predicate_evals"), evals(0) + evals(1));
        assert_eq!(registry.counter_value("query_opt.evals_saved"), evals(0) - evals(1));
    }

    #[test]
    fn e13_parallel_beats_sequential_beats_duplicated() {
        // E13 always times real threads, so sibling tests on the same
        // machine can skew one run — retry before declaring the
        // ordering broken.
        let mut walls = (0.0, 0.0, 0.0);
        for _ in 0..3 {
            let table = run_e13(true, Metrics::noop());
            let wall = |row: usize| {
                table.rows[row][1].trim_end_matches("ms").parse::<f64>().unwrap()
            };
            walls = (wall(0), wall(1), wall(2));
            if walls.1 < walls.0 && walls.2 <= walls.1 * 1.1 {
                return;
            }
        }
        panic!(
            "duplicated {} / sequential {} / parallel {} ordering did not hold in 3 runs",
            walls.0, walls.1, walls.2
        );
    }

    #[test]
    fn e14_communication_falls_with_local_epochs() {
        let table = run_e14(true, Metrics::noop());
        let bytes = |row: usize| table.rows[row][3].parse::<u64>().unwrap();
        assert!(bytes(3) < bytes(0), "12-epoch bytes {} vs 1-epoch {}", bytes(3), bytes(0));
        // Accuracy stays usable in every configuration.
        for row in &table.rows {
            let auc: f64 = row[2].parse().unwrap();
            assert!(auc > 0.6, "AUC {auc} too low");
        }
    }

    #[test]
    fn e15_optimizer_cuts_work_same_answer() {
        let table = run_e15(true, Metrics::noop());
        let evals = |row: usize| table.rows[row][1].parse::<u64>().unwrap();
        let matched = |row: usize| table.rows[row][2].parse::<u64>().unwrap();
        assert_eq!(matched(0), matched(1), "results must not change");
        assert!(evals(1) * 2 < evals(0), "optimized {} vs {}", evals(1), evals(0));
    }
}
