//! Trial-data falsification and blockchain detection (paper §III-B).
//!
//! "China government reported about 80% of clinical trial data performed
//! in China is falsified." This module models sites that rewrite trial
//! records after the fact and measures detection: with per-record
//! Merkle anchoring on-chain, any rewrite is detectable by any peer
//! (Irving–Holden); with a registry-only baseline (just the protocol
//! registered, raw data mutable), rewrites are invisible.

use medchain_chain::{Hash256, MerkleTree};
use medchain_runtime::DetRng;

/// Reported Chinese falsification rate cited by the paper.
pub const REPORTED_FALSIFICATION_RATE: f64 = 0.80;

/// One site's trial records with its at-collection anchor.
#[derive(Debug, Clone)]
pub struct SiteTrialData {
    /// Site name.
    pub site: String,
    /// The records as originally collected.
    pub original: Vec<Vec<u8>>,
    /// The records as later presented to the auditor (possibly rewritten).
    pub presented: Vec<Vec<u8>>,
    /// Ground truth: indices that were falsified.
    pub falsified_indices: Vec<usize>,
    /// Merkle root anchored on-chain at collection time.
    pub anchor: Hash256,
}

impl SiteTrialData {
    /// Whether the site tampered with anything.
    fn is_falsified(&self) -> bool {
        !self.falsified_indices.is_empty()
    }
}

/// Generates `sites` sites of trial data, falsifying each site's records
/// with probability `site_falsification_rate`; a falsifying site
/// rewrites 10–40% of its records ("improving" outcomes after anchoring).
pub fn simulate_sites(
    sites: usize,
    records_per_site: usize,
    site_falsification_rate: f64,
    seed: u64,
) -> Vec<SiteTrialData> {
    let mut rng = DetRng::from_seed(seed);
    (0..sites)
        .map(|s| {
            let original: Vec<Vec<u8>> = (0..records_per_site)
                .map(|i| {
                    format!("site-{s}/patient-{i}/outcome={}", rng.gen_range(0..2)).into_bytes()
                })
                .collect();
            let anchor = MerkleTree::from_items(&original).root();
            let mut presented = original.clone();
            let mut falsified_indices = Vec::new();
            if rng.gen_bool(site_falsification_rate.clamp(0.0, 1.0)) {
                let fraction = rng.gen_range(0.1..0.4);
                for (i, record) in presented.iter_mut().enumerate() {
                    if rng.gen_bool(fraction) {
                        *record = format!("site-{s}/patient-{i}/outcome=1-improved").into_bytes();
                        falsified_indices.push(i);
                    }
                }
            }
            SiteTrialData {
                site: format!("site-{s}"),
                original,
                presented,
                falsified_indices,
                anchor,
            }
        })
        .collect()
}

/// Detection summary over a population of sites.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectionReport {
    /// Sites audited.
    pub sites: usize,
    /// Sites that actually falsified (ground truth).
    pub falsified: usize,
    /// Falsifying sites the auditor flagged.
    pub detected: usize,
    /// Honest sites wrongly flagged.
    pub false_positives: usize,
}

impl DetectionReport {
    /// Recall over falsifying sites.
    pub fn recall(&self) -> f64 {
        if self.falsified == 0 {
            return 1.0;
        }
        self.detected as f64 / self.falsified as f64
    }

    /// False-positive rate over honest sites.
    pub fn false_positive_rate(&self) -> f64 {
        let honest = self.sites - self.falsified;
        if honest == 0 {
            return 0.0;
        }
        self.false_positives as f64 / honest as f64
    }
}

/// Blockchain audit: recompute each site's Merkle root over the
/// *presented* records and compare with the at-collection anchor.
pub fn audit_with_anchors(sites: &[SiteTrialData]) -> DetectionReport {
    let mut report = DetectionReport { sites: sites.len(), ..DetectionReport::default() };
    for site in sites {
        let tampered = MerkleTree::from_items(&site.presented).root() != site.anchor;
        if site.is_falsified() {
            report.falsified += 1;
            if tampered {
                report.detected += 1;
            }
        } else if tampered {
            report.false_positives += 1;
        }
    }
    report
}

/// Registry-only baseline: the auditor holds the registered protocol but
/// has no commitment to the raw records, so presented data is accepted
/// at face value — nothing is ever detected.
pub fn audit_registry_only(sites: &[SiteTrialData]) -> DetectionReport {
    let mut report = DetectionReport { sites: sites.len(), ..DetectionReport::default() };
    for site in sites {
        if site.is_falsified() {
            report.falsified += 1;
            // No commitment → no way to detect the rewrite.
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchored_audit_detects_all_falsifying_sites() {
        let sites = simulate_sites(40, 50, REPORTED_FALSIFICATION_RATE, 7);
        let report = audit_with_anchors(&sites);
        assert!(report.falsified > 20, "expect ~80% falsifying, got {}", report.falsified);
        assert_eq!(report.recall(), 1.0);
        assert_eq!(report.false_positive_rate(), 0.0);
    }

    #[test]
    fn registry_baseline_detects_nothing() {
        let sites = simulate_sites(40, 50, REPORTED_FALSIFICATION_RATE, 8);
        let report = audit_registry_only(&sites);
        assert!(report.falsified > 0);
        assert_eq!(report.detected, 0);
        assert_eq!(report.recall(), 0.0);
    }

    #[test]
    fn honest_population_raises_no_flags() {
        let sites = simulate_sites(20, 30, 0.0, 9);
        let report = audit_with_anchors(&sites);
        assert_eq!(report.falsified, 0);
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.recall(), 1.0); // vacuous
    }

    #[test]
    fn falsified_fraction_tracks_injected_rate() {
        let sites = simulate_sites(300, 20, REPORTED_FALSIFICATION_RATE, 10);
        let rate = sites.iter().filter(|s| s.is_falsified()).count() as f64 / 300.0;
        assert!((rate - REPORTED_FALSIFICATION_RATE).abs() < 0.08, "rate {rate}");
    }

    #[test]
    fn single_record_rewrite_is_caught() {
        let mut sites = simulate_sites(1, 100, 0.0, 11);
        sites[0].presented[42] = b"site-0/patient-42/outcome=1-improved".to_vec();
        sites[0].falsified_indices.push(42);
        let report = audit_with_anchors(&sites);
        assert_eq!(report.detected, 1);
    }
}
