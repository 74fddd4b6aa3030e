//! **E11** — computing-paradigm comparison (paper §III): Hadoop,
//! grid, and cloud versus the blockchain distributed-parallel
//! architecture on the same analytics job.

use crate::report::{bytes, ms, Table};
use medchain::paradigms::{compare_all, Paradigm};
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
use medchain_data::PatientRecord;
use medchain_runtime::metrics::Metrics;

/// Runs E11 reporting `paradigms.*` to `metrics`: one
/// `paradigms.compared` tick, per-paradigm `bytes_moved` /
/// `raw_records_exposed` counters, and the modeled total wall as a
/// `paradigms.total_ms` histogram.
pub fn run_e11(quick: bool, metrics: Metrics) -> Table {
    let sites = if quick { 4 } else { 8 };
    let per_site = if quick { 500 } else { 3_000 };
    let passes = if quick { 50 } else { 200 };
    let site_records: Vec<Vec<PatientRecord>> = (0..sites)
        .map(|i| {
            CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 110 + i as u64)
                .cohort((i * 100_000) as u64, per_site, &DiseaseModel::stroke())
        })
        .collect();
    let reports = compare_all(&site_records, passes);
    for report in &reports {
        metrics.counter("paradigms.compared", 1);
        metrics.counter(&format!("paradigms.bytes_moved.{}", report.paradigm), report.bytes_moved);
        metrics.counter(
            &format!("paradigms.raw_records_exposed.{}", report.paradigm),
            report.raw_records_moved as u64,
        );
        metrics.observe("paradigms.total_ms", report.total_ms() as f64);
    }
    let mut table = Table::new(
        "E11",
        &format!("paradigm comparison: {sites} sites × {per_site} records, {passes} passes/record"),
        &[
            "paradigm",
            "compute wall",
            "transfer (modeled)",
            "total (modeled)",
            "bytes moved",
            "raw records exposed",
        ],
    );
    for report in &reports {
        table.row(vec![
            report.paradigm.to_string(),
            ms(report.compute_wall.as_secs_f64() * 1000.0),
            format!("{}ms", report.modeled_transfer_ms),
            format!("{}ms", report.total_ms()),
            bytes(report.bytes_moved),
            report.raw_records_moved.to_string(),
        ]);
    }
    let bc = reports.iter().find(|r| r.paradigm == Paradigm::BlockchainParallel).unwrap();
    let hadoop = reports.iter().find(|r| r.paradigm == Paradigm::HadoopCentralized).unwrap();
    table.finding(format!(
        "blockchain-parallel moves {} vs hadoop's {} and exposes 0 raw records (hadoop exposes \
         all {}) — compute-to-data inverts the classical paradigms' data-to-compute assumption",
        bytes(bc.bytes_moved),
        bytes(hadoop.bytes_moved),
        hadoop.raw_records_moved,
    ));
    table.finding(
        "all four paradigms produce bit-identical results; the architecture changes cost and \
         privacy, not answers"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e11_metered_reports_paradigm_counters() {
        let registry = Registry::new();
        let table = run_e11(true, registry.handle());
        assert_eq!(registry.counter_value("paradigms.compared"), table.rows.len() as u64);
        // Compute-to-data: the blockchain paradigm exposes no raw
        // records while hadoop ships them all to the central cluster.
        assert_eq!(
            registry.counter_value("paradigms.raw_records_exposed.blockchain-parallel"),
            0
        );
        assert!(registry.counter_value("paradigms.raw_records_exposed.hadoop-centralized") > 0);
        assert!(
            registry.counter_value("paradigms.bytes_moved.blockchain-parallel")
                < registry.counter_value("paradigms.bytes_moved.hadoop-centralized")
        );
        let walls = registry.histogram("paradigms.total_ms").expect("histogram recorded");
        assert_eq!(walls.count, table.rows.len() as u64);
    }

    #[test]
    fn e11_blockchain_parallel_is_private_and_cheap_to_move() {
        let table = run_e11(true, Metrics::noop());
        let bc_row = table
            .rows
            .iter()
            .find(|r| r[0] == "blockchain-parallel")
            .expect("row present");
        assert_eq!(bc_row[5], "0");
        let hadoop_row =
            table.rows.iter().find(|r| r[0] == "hadoop-centralized").unwrap();
        assert_ne!(hadoop_row[5], "0");
    }
}
