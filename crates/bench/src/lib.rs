//! # medchain-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md §4 / EXPERIMENTS.md. Each
//! `run_eN(quick, metrics)` returns a printable [`report::Table`] whose
//! findings restate the paper claim being checked, every layer
//! reporting to `metrics` (pass [`Metrics::noop`] for none). The
//! `experiments` binary runs them; the `runtime::timing::Bench`
//! programs in `benches/` time the hot kernels. Tables hold counts,
//! deterministic models and equivalence checks — wall-clock performance
//! is measured by medbench (`benchmark/`, `BENCHMARK.json`) only.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod e10_trial;
pub mod e11_paradigms;
pub mod e12_rwe;
pub mod e13_e15_ablations;
pub mod e16_precision;
pub mod e17_rct;
pub mod e18_privacy;
pub mod e19_gateway;
pub mod e1_e2_scaling;
pub mod e20_parallel_exec;
pub mod e21_cross_shard;
pub mod e22_light_client;
pub mod e23_paged_state;
pub mod e3_energy;
pub mod e4_hie;
pub mod e5_integration;
pub mod e6_contracts;
pub mod e7_query;
pub mod e8_federated;
pub mod e9_transfer;
pub mod report;

pub use report::Table;

use medchain_runtime::metrics::Metrics;

/// Every experiment, in order: its id and the function that runs it.
pub const EXPERIMENTS: [(&str, fn(bool, Metrics) -> Table); 23] = [
    ("e1", e1_e2_scaling::run_e1),
    ("e2", e1_e2_scaling::run_e2),
    ("e3", e3_energy::run_e3),
    ("e4", e4_hie::run_e4),
    ("e5", e5_integration::run_e5),
    ("e6", e6_contracts::run_e6),
    ("e7", e7_query::run_e7),
    ("e8", e8_federated::run_e8),
    ("e9", e9_transfer::run_e9),
    ("e10", e10_trial::run_e10),
    ("e11", e11_paradigms::run_e11),
    ("e12", e12_rwe::run_e12),
    ("e13", e13_e15_ablations::run_e13),
    ("e14", e13_e15_ablations::run_e14),
    ("e15", e13_e15_ablations::run_e15),
    ("e16", e16_precision::run_e16),
    ("e17", e17_rct::run_e17),
    ("e18", e18_privacy::run_e18),
    ("e19", e19_gateway::run_e19),
    ("e20", e20_parallel_exec::run_e20),
    ("e21", e21_cross_shard::run_e21),
    ("e22", e22_light_client::run_e22),
    ("e23", e23_paged_state::run_e23),
];

/// Runs one experiment by id with `metrics` installed on every layer
/// that supports it (all of E1–E23; each `run_eN` documents the keys it
/// reports).
///
/// # Panics
///
/// Panics on unknown ids (callers validate against [`EXPERIMENTS`]).
pub fn run_experiment(id: &str, quick: bool, metrics: Metrics) -> Table {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .unwrap_or_else(|| panic!("unknown experiment {id:?}"));
    run(quick, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `golden`: one line per row, cells joined by `|`.
    fn assert_rows(id: &str, golden: &str) {
        let table = run_experiment(id, true, Metrics::noop());
        let rows: Vec<String> = table.rows.iter().map(|row| row.join("|")).collect();
        assert_eq!(rows, golden.lines().collect::<Vec<_>>(), "{id} drifted from its recorded rows");
    }

    /// E1, E2 and E20 print models that are pure functions of code and
    /// seed. The rows below were recorded at the commit before the
    /// measured/modeled switch and the modeled sharded mode were
    /// removed (default environment; E2 without its two modeled-shard
    /// columns): the surviving columns must not have moved.
    #[test]
    fn deterministic_tables_reproduce_their_recorded_rows() {
        assert_rows(
            "e1",
            "1|160.0ms|200004|1.000|6.250|20ms|0\n\
             2|300.0ms|400008|2.000|3.333|20ms|505\n\
             4|580.0ms|800016|4.000|1.724|20ms|2073",
        );
        assert_rows(
            "e2",
            "1|160.0ms|180.0ms|180.1ms|0.888|200004|200044|200200|0\n\
             2|300.0ms|320.1ms|110.3ms|2.720|400008|400088|200400|505\n\
             4|580.0ms|180.2ms|75.6ms|7.676|800016|400336|200800|2073",
        );
        assert_rows(
            "e20",
            "flat transfers (conflict-light)|2000|1|0.000|2000 slots|1000 slots|500 slots|250 slots|4.000\n\
             flat transfers (hot-key 1/4)|2000|500|0.249|2000 slots|1250 slots|875 slots|687 slots|2.286\n\
             sharded transfers (shard 0 of 2)|2000|1|0.000|2000 slots|1000 slots|500 slots|250 slots|4.000",
        );
    }
}
