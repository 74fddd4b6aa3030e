//! # medchain-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md §4 / EXPERIMENTS.md. Each
//! `run_eN(quick, metrics)` returns a printable [`report::Table`] whose
//! findings restate the paper claim being checked, every layer
//! reporting to `metrics` (pass [`Metrics::noop`] for none). The
//! `experiments` binary runs them. Tables hold counts, deterministic
//! models and equivalence checks, and read no clock — wall-clock
//! performance is measured by medbench (`benchmark/`, `BENCHMARK.json`)
//! only.

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
/// E20 (wave-parallel block execution) was retired as a measured
/// negative result; the other ids keep their numbers.
pub const EXPERIMENTS: [(&str, fn(bool, Metrics) -> Table); 22] = [
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
    ("e21", e21_cross_shard::run_e21),
    ("e22", e22_light_client::run_e22),
    ("e23", e23_paged_state::run_e23),
];

/// Runs one experiment by id with `metrics` installed on every layer
/// that supports it (all of E1–E23 but the retired E20; each `run_eN`
/// documents the keys it reports).
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

    /// E1 and E2 print models that are pure functions of code and
    /// seed. The rows below were recorded at the commit before the
    /// measured/modeled switch and the modeled sharded mode were
    /// removed (default environment; E2 without its two modeled-shard
    /// columns): the surviving columns must not have moved. E7, E11,
    /// E13 and E21 print counts, the simulated clock and the same wall
    /// model; their count cells were recorded before their measured
    /// wall cells were dropped, the model cells after. E2's transformed
    /// wall, speed-up and work cells at 2 and 4 nodes, and E13's two
    /// transformed rows, were re-recorded when every named site began
    /// posting its own result: each extra post adds 90 gas on every
    /// replica. E23 prints the page traffic of a seeded paged workload;
    /// its rows were recorded while cold account records still paged
    /// through storage's own account pager, so a move of the packing
    /// code must leave them standing. E3's rows were recorded before
    /// PoA and PBFT shared one quorum; its pbft row was re-recorded when
    /// PBFT's threshold became `n − f`: at E3's `n = 5` a commit waits
    /// for 4 of 5 replicas, not 3, so each replica verifies more votes
    /// before a height closes (consensus J 3.680e-5 → 4.080e-5). E7's
    /// latency and bytes cells were re-recorded when its query began
    /// running on the Fig. 1 path: the latency now includes the request
    /// and the posts (150 → 250 ms), and the bytes are the outcomes the
    /// sites posted (32 → 50 B a site, from a modeled size); its
    /// permitted, count and exact cells held. E2's chain-shard wall and
    /// work cells and E21's simulated span were re-recorded when one
    /// builder began making both shapes and the coordinator became the
    /// home of the standard contracts. E2's 1- and 2-node rows run one
    /// shard, which is now the flat chain with no coordinator and no
    /// cross-link round, so their chain-shard cells equal the duplicated
    /// ones (180.0 → 160.0 ms and 200,044 → 200,004 units at 1 node,
    /// 320.1 → 300.0 ms and 400,088 → 400,008 at 2). At 4 nodes, and in
    /// E21, the coordinator commits the one-time setup before the
    /// measured window, which moves where its simulated clock stands
    /// when the window starts: E2's 4-node chain-shard wall is one 20 ms
    /// block interval longer (180.2 → 200.2 ms, work unmoved) and E21's
    /// span 247 → 259 ms (counts unmoved).
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
            "1|160.0ms|160.0ms|180.1ms|0.888|200004|200004|200200|0\n\
             2|300.0ms|300.0ms|110.4ms|2.717|400008|400008|200580|505\n\
             4|580.0ms|200.2ms|76.3ms|7.600|800016|400336|201880|2073",
        );
        assert_rows(
            "e3",
            "pow|412430|0|4.124e-2|5.250e-4|0.003\n\
             poa|4|24|2.120e-5|5.250e-4|0.192\n\
             pbft|0|44|4.080e-5|5.250e-4|0.186\n\
             pos (virtual mining)|77|8|1.570e-5|5.250e-4|0.194",
        );
        assert_rows("e7", "2|2|250ms|100B|14.0|true\n4|4|250ms|200B|56.0|true");
        assert_rows(
            "e11",
            "hadoop-centralized|17ms|496ms|513ms|108.1KiB|2000\n\
             grid|35ms|496ms|531ms|108.1KiB|2000\n\
             cloud-elastic|8ms|496ms|504ms|108.1KiB|2000\n\
             blockchain-parallel|17ms|64ms|81ms|128B|0",
        );
        assert_rows(
            "e13",
            "duplicated (on-chain, every replica)|860.0ms|1200016|1.0×\n\
             transformed, sequential off-chain|251.3ms|300000|3.4×\n\
             transformed, parallel off-chain|93.8ms|301880|9.2×",
        );
        assert_rows(
            "e21",
            "transfers begun|12\ncommitted|9\ntimeout-aborted|3\nabort rate|0.250\n\
             simulated span|259ms",
        );
        assert_rows(
            "e23",
            "funded accounts|512\n\
             committed blocks (sweep)|6\n\
             4-page page writes/misses/evictions|85/7/71\n\
             1-page page writes/misses/evictions|43/16/41\n\
             paged tips == resident tip|true\n\
             chain blocks (bootstrap)|12\n\
             streamed tail blocks|0\n\
             bootstrap tips == source tip|true",
        );
    }
}
