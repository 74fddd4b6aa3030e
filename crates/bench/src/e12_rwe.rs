//! **E12** — real-world-evidence continuous monitoring (paper §II/§IV,
//! the FDA vision): time-to-detection of a post-approval adverse-event
//! signal under streaming multi-site monitoring versus classical
//! periodic batch review.

use crate::report::{f, Table};
use medchain_runtime::metrics::Metrics;
use medchain_trial::{batched_detection_day, simulate_stream, RweMonitor};

/// Runs E12 reporting `rwe.*` to `metrics`: events streamed into the
/// monitor, signals raised, total review days saved versus the batch
/// baseline, and the stream detection day as an `rwe.detect_day`
/// histogram.
pub fn run_e12(quick: bool, metrics: Metrics) -> Table {
    let sites = if quick { 4 } else { 10 };
    let events_per_day = if quick { 20 } else { 60 };
    let days = if quick { 400 } else { 720 };
    let background = 0.02;
    let onset_day = 90;
    let elevated_rates = if quick { vec![0.06, 0.10] } else { vec![0.04, 0.06, 0.08, 0.12] };
    let batch_days = 180; // semi-annual safety review

    let mut table = Table::new(
        "E12",
        &format!(
            "RWE monitoring: {sites} sites, {events_per_day} exposures/day, signal onset day {onset_day}"
        ),
        &["true rate", "stream detect day", "batch detect day", "days saved", "exposures at detect"],
    );
    for elevated in elevated_rates {
        let events = simulate_stream(
            sites,
            events_per_day,
            days,
            background,
            elevated,
            onset_day,
            120,
        );
        let mut monitor = RweMonitor::new(background, 4.0, 400);
        let mut stream_day = None;
        let mut exposures = 0;
        for event in &events {
            metrics.counter("rwe.events_streamed", 1);
            if let Some(signal) = monitor.observe(*event) {
                stream_day = Some(signal.day);
                exposures = signal.exposures;
                break;
            }
        }
        let batch_day = batched_detection_day(&events, background, 4.0, 400, batch_days);
        let (s, b) = (stream_day, batch_day);
        if let Some(day) = s {
            metrics.counter("rwe.signals_detected", 1);
            metrics.observe("rwe.detect_day", day as f64);
        }
        if let (Some(s), Some(b)) = (s, b) {
            metrics.counter("rwe.days_saved", b.saturating_sub(s) as u64);
        }
        table.row(vec![
            f(elevated),
            s.map_or("—".into(), |d| d.to_string()),
            b.map_or("—".into(), |d| d.to_string()),
            match (s, b) {
                (Some(s), Some(b)) => (b.saturating_sub(s)).to_string(),
                _ => "—".into(),
            },
            exposures.to_string(),
        ]);
    }
    table.finding(format!(
        "streaming multi-site monitoring detects elevated adverse rates months before the \
         {batch_days}-day batch review — the latency the FDA's real-world-evidence vision removes"
    ));
    table.finding(
        "weaker signals take longer for both, but the streaming advantage persists across \
         effect sizes"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e12_metered_reports_rwe_counters() {
        let registry = Registry::new();
        let table = run_e12(true, registry.handle());
        // Quick mode sweeps two effect sizes; both must signal.
        assert_eq!(registry.counter_value("rwe.signals_detected"), table.rows.len() as u64);
        assert!(registry.counter_value("rwe.events_streamed") > 0);
        assert!(registry.counter_value("rwe.days_saved") > 0);
        let days = registry.histogram("rwe.detect_day").expect("histogram recorded");
        assert_eq!(days.count, table.rows.len() as u64);
    }

    #[test]
    fn e12_stream_beats_batch() {
        let table = run_e12(true, Metrics::noop());
        for row in &table.rows {
            let saved: i64 = row[3].parse().unwrap_or(0);
            assert!(saved > 0, "no days saved for rate {}", row[0]);
        }
    }
}
