//! **E7** — the Figs. 5/6 query pipeline: NL request → query vector →
//! per-site smart-contract gating → decomposed local execution →
//! composition. Reports the simulated chain latency and result bytes
//! against site count and verifies completeness (distributed answer =
//! centralized answer).

use crate::report::{bytes, f, Table};
use medchain::pipeline::run_query;
use medchain::Network;
use medchain_contracts::policy::Purpose;
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
use medchain_data::PatientRecord;
use medchain_learning::AggregateValue;
use medchain_query::{parse_request, Computation, QueryAnswer};
use medchain_runtime::metrics::Metrics;

fn site_records(i: usize, n: usize) -> Vec<PatientRecord> {
    CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 70 + i as u64).cohort(
        (i * 100_000) as u64,
        n,
        &DiseaseModel::stroke(),
    )
}

/// Runs E7 with `metrics` installed on the network and the query
/// pipeline (`query.*` counters: pipeline_runs, site_tasks,
/// bytes_returned).
pub fn run_e7(quick: bool, metrics: Metrics) -> Table {
    let per_site = if quick { 150 } else { 600 };
    let site_counts: Vec<usize> = if quick { vec![2, 4] } else { vec![2, 4, 8, 12] };
    let request = "count smokers over 55 for public health";
    let mut table = Table::new(
        "E7",
        &format!("query pipeline: {request:?}, {per_site} records/site"),
        &["sites", "permitted", "chain latency", "result bytes", "count", "exact?"],
    );
    for sites in site_counts {
        let mut builder = Network::builder().seed(77).metrics(metrics.clone());
        let mut all_records = Vec::new();
        for i in 0..sites {
            let records = site_records(i, per_site);
            all_records.extend(records.clone());
            builder = builder.site(&format!("hospital-{i}"), records);
        }
        let mut net = builder.build().expect("network");
        let researcher = net.site(0).address();
        net.grant_all(researcher, Purpose::PublicHealth).expect("grants");

        let query = parse_request(request).expect("request maps");
        let (answer, report) = run_query(&mut net, 0, &query).expect("pipeline");

        // Ground truth computed centrally.
        let expected = match &query.computation {
            Computation::Aggregates(aggs) => {
                let matching: Vec<PatientRecord> = all_records
                    .iter()
                    .filter(|r| query.cohort.matches(r))
                    .cloned()
                    .collect();
                aggs[0].compute(&matching).scalar()
            }
            _ => unreachable!("count query"),
        };
        let got = match &answer {
            QueryAnswer::Aggregates(values) => match &values[0] {
                AggregateValue::Scalar(v) => *v,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        table.row(vec![
            sites.to_string(),
            report.permitted.to_string(),
            format!("{}ms", report.chain_latency_ms),
            bytes(report.bytes_returned),
            f(got),
            (got == expected).to_string(),
        ]);
    }
    table.finding(
        "distributed answers are exactly equal to the centralized ground truth at every size \
         (lossless decompose/compose)"
            .to_string(),
    );
    table.finding(
        "result bytes stay tiny and flat in site count — raw records never move, matching \
         Fig. 5's 'users do not need to know where the data physically resides'"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_metered_reports_query_counters() {
        let sink = medchain_runtime::metrics::Registry::new();
        let table = run_e7(true, sink.handle());
        // One pipeline run per site-count row.
        assert_eq!(
            sink.counter_value("query.pipeline_runs"),
            table.rows.len() as u64
        );
        let permitted: u64 =
            table.rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        assert_eq!(sink.counter_value("query.site_tasks"), permitted);
        assert!(sink.counter_value("query.bytes_returned") > 0);
    }

    #[test]
    fn e7_exactness_at_every_size() {
        let table = run_e7(true, Metrics::noop());
        for row in &table.rows {
            assert_eq!(row[5], "true", "inexact at {} sites", row[0]);
        }
    }
}
