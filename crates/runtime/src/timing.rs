//! `Instant`-based micro-benchmark harness.
//!
//! A deliberately small replacement for `criterion` that keeps the
//! `benches/bench_*.rs` targets runnable offline: auto-calibrated
//! iteration counts, median-of-batches timing, optional byte
//! throughput, and one aligned report line per benchmark.
//!
//! Budget per benchmark is tunable with `MEDCHAIN_BENCH_MS` (default
//! 100 ms measure time) so CI smoke runs can set it to 1.

use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] — keeps benchmark inputs and
/// results opaque to the optimizer.
pub use std::hint::black_box;

/// One benchmark's measured result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id (`suite/name`).
    pub id: String,
    /// Median time per iteration (whole nanoseconds: reads zero for a
    /// closure faster than 1 ns — throughput comes from `batch`).
    pub per_iter: Duration,
    /// The median batch's wall time.
    pub batch: Duration,
    /// Iterations per measured batch.
    pub iters: u64,
    /// Optional processed-bytes-per-iteration for throughput.
    pub bytes: Option<u64>,
}

impl Measurement {
    /// Throughput in MiB/s, if byte accounting was requested and the
    /// median batch took measurable time.
    pub fn mib_per_s(&self) -> Option<f64> {
        let bytes = self.bytes? as f64 * self.iters as f64;
        let secs = self.batch.as_secs_f64();
        if secs == 0.0 {
            return None;
        }
        Some(bytes / secs / (1024.0 * 1024.0))
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// A named group of benchmarks that prints one report line each.
///
/// ```no_run
/// use medchain_runtime::timing::{black_box, Bench};
/// let mut b = Bench::new("hashing");
/// let data = vec![0u8; 1024];
/// b.throughput_bytes(1024).bench("sha256/1KiB", || black_box(&data).len());
/// b.finish();
/// ```
pub struct Bench {
    suite: String,
    measure_budget: Duration,
    pending_bytes: Option<u64>,
    results: Vec<Measurement>,
}

impl Bench {
    /// Creates a suite; prints a header line.
    pub fn new(suite: &str) -> Bench {
        let ms = std::env::var("MEDCHAIN_BENCH_MS")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(100)
            .max(1);
        println!("bench suite '{suite}' ({ms} ms/benchmark budget)");
        Bench {
            suite: suite.to_string(),
            measure_budget: Duration::from_millis(ms),
            pending_bytes: None,
            results: Vec::new(),
        }
    }

    /// Declares that the *next* benchmark processes `bytes` per
    /// iteration, enabling a MiB/s column (mirrors criterion's
    /// `Throughput::Bytes`).
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Bench {
        self.pending_bytes = Some(bytes);
        self
    }

    /// Measures closure `f`, printing a `suite/name  time: …` line.
    ///
    /// The closure's return value is black-boxed so computing it cannot
    /// be optimized away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &mut Bench {
        let bytes = self.pending_bytes.take();
        // Warm up and calibrate: grow the batch until it costs ≥ 1/10 of
        // the budget, so short ops get enough iterations to time.
        let calibration_floor = self.measure_budget / 10;
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= calibration_floor || iters >= 1 << 30 {
                break;
            }
            iters = if elapsed.is_zero() {
                iters.saturating_mul(16)
            } else {
                // Aim straight for the floor with 2x headroom.
                let scale = calibration_floor.as_secs_f64() / elapsed.as_secs_f64();
                (iters as f64 * scale.clamp(1.5, 16.0)) as u64 + 1
            };
        }
        // Measure: batches of `iters` until the budget is spent, then
        // take the median batch.
        let mut batches: Vec<Duration> = Vec::new();
        let deadline = Instant::now() + self.measure_budget;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            batches.push(start.elapsed());
            if Instant::now() >= deadline && batches.len() >= 3 {
                break;
            }
            if batches.len() >= 64 {
                break;
            }
        }
        batches.sort_unstable();
        let batch = batches[batches.len() / 2];
        let per_iter_ns = batch.as_nanos() / u128::from(iters.max(1));
        let m = Measurement {
            id: format!("{}/{}", self.suite, name),
            per_iter: Duration::from_nanos(u64::try_from(per_iter_ns).unwrap_or(u64::MAX)),
            batch,
            iters,
            bytes,
        };
        match m.mib_per_s() {
            Some(mibs) => println!(
                "  {:<44} time: {:>12}/iter   thrpt: {:>10.1} MiB/s",
                m.id,
                fmt_duration(m.per_iter),
                mibs
            ),
            None => println!("  {:<44} time: {:>12}/iter", m.id, fmt_duration(m.per_iter)),
        }
        self.results.push(m);
        self
    }

    /// Finishes the suite, returning all measurements.
    pub fn finish(self) -> Vec<Measurement> {
        println!("bench suite '{}' done: {} benchmarks", self.suite, self.results.len());
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        std::env::set_var("MEDCHAIN_BENCH_MS", "1");
        let mut b = Bench::new("selftest");
        b.bench("noop", || 1u64 + 1);
        b.throughput_bytes(1024).bench("bytes", || [0u8; 64].iter().sum::<u8>());
        let results = b.finish();
        assert_eq!(results.len(), 2);
        assert!(results[0].per_iter <= Duration::from_millis(10));
        assert_eq!(results[1].bytes, Some(1024));
        assert!(results[1].mib_per_s().unwrap() > 0.0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
    }
}
