//! Latency samples: nearest-rank percentiles and means, with the
//! sample count kept beside every number so no percentile is printed
//! without saying how many samples stand behind it.

use std::time::Duration;

/// Fewest samples a p99 may be computed from: the guide asks for at
/// least ten samples beyond the reported percentile.
pub const MIN_P99_SAMPLES: usize = 1_000;

/// A bag of durations in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile in nanoseconds (`q` in 0..=1); 0 when
    /// empty.
    pub fn percentile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.sort();
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64
    }

    pub fn percentile_ms(&mut self, q: f64) -> f64 {
        self.percentile_ns(q) / 1e6
    }

    /// The 99th percentile in milliseconds, or `None` when fewer than
    /// [`MIN_P99_SAMPLES`] samples were taken.
    pub fn p99_ms(&mut self) -> Option<f64> {
        (self.len() >= MIN_P99_SAMPLES).then(|| self.percentile_ms(0.99))
    }

    pub fn sum_ns(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum()
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.sum_ns() / self.ns.len() as f64
        }
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_ns() / 1e6
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1e3
    }
}

/// Median of a small set of values (set-up times); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for ms in 1..=100u64 {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.percentile_ms(0.5), 50.0);
        assert_eq!(s.percentile_ms(0.9), 90.0);
        assert_eq!(s.percentile_ms(1.0), 100.0);
        assert_eq!(s.mean_ms(), 50.5);
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let mut s = Samples::new();
        for _ in 0..999 {
            s.push(Duration::from_millis(1));
        }
        assert!(s.p99_ms().is_none());
        s.push(Duration::from_millis(1));
        assert_eq!(s.p99_ms(), Some(1.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
