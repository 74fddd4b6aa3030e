//! **E5** — heterogeneous data integration (paper Fig. 3, §III-A):
//! building a large core dataset from legacy silos. Counts conversions
//! and failures per format, field losses, and the size of
//! the integrated cohort versus the TCGA-alone baseline the paper calls
//! "far from sufficient".

use crate::report::Table;
use medchain_data::formats::common::SourceDocument;
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
use medchain_data::tcga::TCGA_PATIENT_COUNT;
use medchain_data::FormatRegistry;
use medchain_runtime::metrics::Metrics;

/// Runs E5 with the integration batch reporting `integration.*`
/// counters (converted, failed, unknown_format) into `metrics`.
pub fn run_e5(quick: bool, metrics: Metrics) -> Table {
    let sites = if quick { 4 } else { 12 };
    let per_site = if quick { 400 } else { 2_000 };
    let registry = FormatRegistry::standard();

    // Each site exports its cohort in its own legacy format.
    let formats = ["fhir", "hl7v2", "csv"];
    let mut documents = Vec::new();
    for i in 0..sites {
        let format = formats[i % formats.len()];
        let records = CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 55 + i as u64)
            .cohort((i * 100_000) as u64, per_site, &DiseaseModel::stroke());
        for record in &records {
            documents.push(SourceDocument::new(
                format,
                registry.encode(format, record).expect("known format"),
            ));
        }
    }
    // A few corrupted feeds, as real interfaces produce.
    let total = documents.len();
    let corrupted = total / 100;
    for k in 0..corrupted {
        documents[k * 97 % total].text.truncate(20);
    }

    let (integrated, report) = registry.integrate_metered(&documents, &metrics);

    let mut table = Table::new(
        "E5",
        &format!("heterogeneous integration: {sites} sites × {per_site} records"),
        &["format", "converted", "failed", "fields lost"],
    );
    for (format, tally) in &report.by_format {
        table.row(vec![
            format.clone(),
            tally.converted.to_string(),
            tally.failed.to_string(),
            tally.fields_lost.to_string(),
        ]);
    }
    table.finding(format!(
        "integrated {} records; {} malformed feeds isolated without aborting the batch",
        integrated.len(),
        report.failed(),
    ));
    table.finding(format!(
        "the integrated cohort ({} records here, unbounded by adding sites) is the paper's route \
         past TCGA's fixed {} patients toward a deep-learning-scale core training set",
        integrated.len(),
        TCGA_PATIENT_COUNT
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_metered_reports_integration_counters() {
        let sink = medchain_runtime::metrics::Registry::new();
        let table = run_e5(true, sink.handle());
        let converted: u64 =
            table.rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        assert_eq!(sink.counter_value("integration.converted"), converted);
        assert!(sink.counter_value("integration.failed") > 0);
    }

    #[test]
    fn e5_converts_most_records() {
        let table = run_e5(true, Metrics::noop());
        let converted: u64 =
            table.rows.iter().map(|r| r[1].parse::<u64>().unwrap()).sum();
        let failed: u64 = table.rows.iter().map(|r| r[2].parse::<u64>().unwrap()).sum();
        assert!(converted > 1_500);
        assert!(failed > 0, "corrupted feeds should register as failures");
        assert!(failed < converted / 10);
    }
}
