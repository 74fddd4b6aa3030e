//! The metric names `BENCHMARK.json` lists, and the result line the
//! driver reads. A unit test keeps the two in step.

use crate::common::{Layers, Report};
use crate::stats::median;
use std::fmt::Write;

/// `(name, unit)` of every end-to-end metric; every workload reports
/// every one of them. "op" is the workload's primary operation: one
/// transaction from submission to its verified receipt on the five
/// chain workloads, one job on `analytics_job`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, grouped by module. A
/// traced run prints all of them; a layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // client (crates/core/src/client.rs) and the end-to-end figures
    // too sparse or too workload-specific to bound.
    ("client.submit_rtt_us", "us"),
    ("client.status_rtt_us", "us"),
    ("client.polls_per_tx", "count"),
    ("client.receipt_verify_us", "us"),
    ("client.poll_after_us", "us"),
    ("op.mean_ms", "ms"),
    ("op.p90_ms", "ms"),
    ("commit.p99_ms", "ms"),
    ("query.p50_ms", "ms"),
    ("xs.transfer_p50_ms", "ms"),
    // gateway / serve loop (gateway.rs, network.rs)
    ("gateway.pump_us_per_tx", "us"),
    ("network.advance_us_per_block", "us"),
    ("serve.idle_frac", "frac"),
    ("serve.turns_per_tx", "count"),
    ("gateway.sig_checks_per_tx", "count"),
    ("codec.submit_decode_us", "us"),
    ("sig.verify_us", "us"),
    // consensus + transport
    ("consensus.messages_per_block", "count"),
    ("consensus.rounds_per_block", "count"),
    ("transport.bytes_per_tx", "B"),
    // mempool / node
    ("mempool.admit_us_per_tx", "us"),
    ("mempool.batch_size_mean", "count"),
    // ledger / exec, isolated on a standalone Ledger
    ("ledger.propose_us_per_tx_1", "us"),
    ("ledger.propose_us_per_tx_256", "us"),
    ("ledger.apply_us_per_tx_1", "us"),
    ("ledger.apply_us_per_tx_256", "us"),
    ("exec.waves_per_block", "count"),
    ("exec.fallback_blocks", "count"),
    ("exec.parallel_speedup_2", "ratio"),
    // auth (sparse Merkle tree)
    ("auth.root_update_us", "us"),
    ("auth.prove_us", "us"),
    ("auth.proof_verify_us", "us"),
    ("auth.proof_bytes", "B"),
    // receipt / merkle
    ("receipt.build_us_1", "us"),
    ("receipt.build_us_256", "us"),
    ("receipt.verify_us", "us"),
    // storage: WAL and snapshots (wal.rs, disk.rs, snapshot.rs)
    ("wal.append_us", "us"),
    ("wal.fsync_us", "us"),
    ("storage.fsyncs_per_tx", "count"),
    ("storage.wal_bytes_per_tx_byte", "ratio"),
    ("storage.snapshot_stall_ms", "ms"),
    ("storage.restart_ms", "ms"),
    ("storage.replayed_blocks", "count"),
    // storage: state pages (pages.rs, pager.rs)
    ("storage.page_misses_per_tx", "count"),
    ("storage.page_writes_per_tx", "count"),
    ("storage.page_evictions_per_tx", "count"),
    ("state.accounts_demoted_per_block", "count"),
    ("pages.fault_us", "us"),
    ("pages.write_us", "us"),
    ("paged.resident_replay_txs_per_s", "1/s"),
    ("bootstrap.rejoin_ms", "ms"),
    ("bootstrap.stream_bytes", "B"),
    // sharded
    ("sharded.route_share_shard0", "frac"),
    ("coordinator.blocks_per_transfer", "count"),
    ("xs.committed", "count"),
    ("xs.aborted", "count"),
    ("sharded.resolve_us", "us"),
    ("sharded.crosslinks", "count"),
    // offchain / modes
    ("offchain.task_ms_mean", "ms"),
    ("modes.onchain_ms_per_job", "ms"),
    ("modes.duplicated_job_ms", "ms"),
    ("modes.duplication_factor", "ratio"),
    // process
    ("proc.cpu_ms_per_tx", "ms"),
    ("proc.peak_rss_mb", "MiB"),
    ("proc.steal_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(report: &Report, setup_s: &[f64]) -> Vec<(&'static str, f64)> {
    let values = [
        median(setup_s),
        report.ops().percentile_ms(0.50),
        report.done() as f64 / report.wall().as_secs_f64().max(1e-9),
        report.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .map(|(name, _)| *name)
        .zip(values)
        .collect()
}

/// Every per-layer metric, 0 where the run did not produce it.
pub fn per_layer(layers: &Layers) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|(name, _)| (*name, layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("metric is listed")
}

/// The one-line JSON object the driver parses: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    )
    .expect("write to string");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity.
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        )
        .expect("write to string");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the objects of a `BENCHMARK.json` array, in order.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let open = start + json[start..].find('[').expect("array opens");
        let close = open + json[open..].find(']').expect("array closes");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, "end_to_end"), listed);
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, "per_layer"), listed);
        assert_eq!(names_in(&json, "workloads"), crate::WORKLOADS);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("setup_s", 1.25), ("op_p50_ms", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"op_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn metric_names_fit_the_contract() {
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && ok(name, "_.-"), "{name}");
            assert!(unit.len() <= 16 && ok(unit, "_/%.-"), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
