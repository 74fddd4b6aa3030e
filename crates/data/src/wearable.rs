//! Wearable-device time series (paper §II: "personal activity record
//! with analytic tools for environments and lifestyles").
//!
//! Hospitals hold episodic EMR snapshots; wearables produce *continuous*
//! per-day signals that live with the patient or a service provider —
//! another ownership silo the architecture must integrate. This module
//! generates realistic daily series (weekly rhythm, seasonal drift,
//! sick-day excursions), summarizes them into the canonical
//! [`WearableSummary`](crate::emr::WearableSummary), and flags
//! elevated-heart-rate days beyond simple means.

use crate::emr::WearableSummary;
use medchain_runtime::DetRng;

/// One day's device readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyReading {
    /// Day index from enrollment.
    pub day: u32,
    /// Step count.
    pub steps: f64,
    /// Resting heart rate (bpm).
    pub resting_hr: f64,
    /// Sleep duration (hours).
    pub sleep_hours: f64,
}

/// A patient's device history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WearableSeries {
    /// Daily readings in day order.
    pub readings: Vec<DailyReading>,
}

/// Generation parameters for a synthetic series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesProfile {
    /// Baseline daily steps.
    pub base_steps: f64,
    /// Baseline resting heart rate.
    pub base_hr: f64,
    /// Baseline sleep hours.
    pub base_sleep: f64,
    /// Weekend activity multiplier (weekly rhythm).
    pub weekend_factor: f64,
    /// Probability of a sick day (activity collapse, HR elevation).
    pub sick_day_rate: f64,
    /// Linear activity trend per day (deconditioning < 0 < training).
    pub daily_trend: f64,
}

impl Default for SeriesProfile {
    fn default() -> Self {
        SeriesProfile {
            base_steps: 7_000.0,
            base_hr: 66.0,
            base_sleep: 7.2,
            weekend_factor: 1.25,
            sick_day_rate: 0.03,
            daily_trend: 0.0,
        }
    }
}

impl WearableSeries {
    /// Generates `days` of readings under `profile`, deterministically.
    pub fn generate(profile: &SeriesProfile, days: u32, seed: u64) -> WearableSeries {
        let mut rng = DetRng::from_seed(seed);
        let mut readings = Vec::with_capacity(days as usize);
        for day in 0..days {
            let weekend = day % 7 >= 5;
            let sick = rng.gen_bool(profile.sick_day_rate);
            let rhythm = if weekend { profile.weekend_factor } else { 1.0 };
            let trend = profile.daily_trend * f64::from(day);
            let noise: f64 = rng.gen_range(-0.25..0.25);
            let steps = if sick {
                profile.base_steps * rng.gen_range(0.05..0.25)
            } else {
                ((profile.base_steps + trend) * rhythm * (1.0 + noise)).max(0.0)
            };
            let resting_hr = if sick {
                profile.base_hr + rng.gen_range(8.0..18.0)
            } else {
                profile.base_hr + rng.gen_range(-4.0..4.0)
            };
            let sleep_hours = if sick {
                profile.base_sleep + rng.gen_range(0.5..2.5)
            } else {
                (profile.base_sleep + rng.gen_range(-1.2f64..1.2)).clamp(3.0, 12.0)
            };
            readings.push(DailyReading { day, steps, resting_hr, sleep_hours });
        }
        WearableSeries { readings }
    }

    /// Number of recorded days.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Collapses the series to the canonical EMR summary.
    pub fn summarize(&self) -> Option<WearableSummary> {
        if self.readings.is_empty() {
            return None;
        }
        let n = self.readings.len() as f64;
        Some(WearableSummary {
            avg_daily_steps: self.readings.iter().map(|r| r.steps).sum::<f64>() / n,
            avg_resting_hr: self.readings.iter().map(|r| r.resting_hr).sum::<f64>() / n,
            avg_sleep_hours: self.readings.iter().map(|r| r.sleep_hours).sum::<f64>() / n,
        })
    }

    /// Days whose resting HR exceeds the series mean by `sigma` standard
    /// deviations — candidate illness episodes for RWE monitoring.
    pub fn elevated_hr_days(&self, sigma: f64) -> Vec<u32> {
        if self.readings.len() < 3 {
            return Vec::new();
        }
        let n = self.readings.len() as f64;
        let mean = self.readings.iter().map(|r| r.resting_hr).sum::<f64>() / n;
        let var = self
            .readings
            .iter()
            .map(|r| (r.resting_hr - mean).powi(2))
            .sum::<f64>()
            / n;
        let sd = var.sqrt();
        self.readings
            .iter()
            .filter(|r| r.resting_hr > mean + sigma * sd)
            .map(|r| r.day)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(days: u32, seed: u64) -> WearableSeries {
        WearableSeries::generate(&SeriesProfile::default(), days, seed)
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(series(90, 1), series(90, 1));
        assert_ne!(series(90, 1), series(90, 2));
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = series(30, 3);
        let summary = s.summarize().unwrap();
        let mean_steps = s.readings.iter().map(|r| r.steps).sum::<f64>() / 30.0;
        assert!((summary.avg_daily_steps - mean_steps).abs() < 1e-9);
        assert!(summary.avg_resting_hr > 50.0 && summary.avg_resting_hr < 90.0);
    }

    #[test]
    fn empty_series_summarizes_to_none() {
        assert_eq!(WearableSeries::default().summarize(), None);
    }

    #[test]
    fn sick_days_show_as_elevated_hr() {
        let profile = SeriesProfile { sick_day_rate: 0.2, ..Default::default() };
        let s = WearableSeries::generate(&profile, 365, 6);
        assert!(!s.elevated_hr_days(2.0).is_empty());
    }
}

mod codec_impls {
    use super::{DailyReading, WearableSeries};
    use medchain_runtime::impl_codec_struct;

    impl_codec_struct!(DailyReading { day, steps, resting_hr, sleep_hours });
    impl_codec_struct!(WearableSeries { readings });
}
