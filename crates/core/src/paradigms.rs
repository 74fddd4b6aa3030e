//! Baseline computing paradigms (paper §III): Hadoop-style centralized,
//! grid, and cloud computing versus the blockchain distributed parallel
//! architecture — experiment E11.
//!
//! All four paradigms execute the *same* analytics job (a real SHA-256
//! kernel over every record) and count the hashes on its critical path,
//! priced by the same model as E1/E2; what differs is **where the data
//! goes**: the three classical paradigms "architecturally treat the
//! computing engines and data sets separately … assume that they own all
//! the data sets" — raw records must move to the compute. The blockchain-parallel paradigm moves compute to data;
//! only sufficient statistics travel.

use crate::modes::MODEL_NS_PER_WORK_UNIT;
use medchain_chain::Hash256;
use medchain_data::PatientRecord;
use medchain_transport::LatencyModel;

/// The compared paradigms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// HDFS-style: ship all records to a central cluster, compute there
    /// with full parallelism.
    HadoopCentralized,
    /// Volunteer grid: independent tasks, records shipped to whichever
    /// node takes the task; heterogeneous (slower) nodes.
    GridComputing,
    /// Elastic VMs: upload once to the cloud, fan out across `k` rented
    /// VMs.
    CloudElastic,
    /// The paper's architecture: compute moves to the data; raw records
    /// never leave their owner.
    BlockchainParallel,
}

impl std::fmt::Display for Paradigm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Paradigm::HadoopCentralized => "hadoop-centralized",
            Paradigm::GridComputing => "grid",
            Paradigm::CloudElastic => "cloud-elastic",
            Paradigm::BlockchainParallel => "blockchain-parallel",
        };
        f.write_str(name)
    }
}

/// Result of one paradigm run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParadigmReport {
    /// Paradigm measured.
    pub paradigm: Paradigm,
    /// Hashes on the compute critical path: the largest shard's
    /// `records × passes × slowdown` (shards run in parallel).
    pub critical_path_hashes: u64,
    /// Modeled data-transfer time (WAN latency model over bytes moved).
    pub modeled_transfer_ms: u64,
    /// Bytes of data moved off their owner's premises.
    pub bytes_moved: u64,
    /// Raw patient records that left their owner (the privacy metric —
    /// each is a HIPAA-relevant disclosure).
    pub raw_records_moved: u64,
    /// The job's result digest (all paradigms must agree).
    pub result: Hash256,
}

impl ParadigmReport {
    /// Modeled compute time: the critical path's hashes at
    /// [`MODEL_NS_PER_WORK_UNIT`] each.
    pub fn modeled_compute_ms(&self) -> u64 {
        self.critical_path_hashes * MODEL_NS_PER_WORK_UNIT / 1_000_000
    }

    /// Total modeled completion time: transfer + compute.
    pub fn total_ms(&self) -> u64 {
        self.modeled_transfer_ms + self.modeled_compute_ms()
    }
}

/// Work kernel: hashes each record's canonical bytes `passes` times and
/// folds the digests; the fold is order-independent (XOR) so sharding
/// does not change the result. `slowdown` models slower hardware by
/// burning extra unfolded hashes — the result stays identical.
fn compute_shard(records: &[PatientRecord], passes: u32, slowdown: u32) -> [u8; 32] {
    let mut fold = [0u8; 32];
    for record in records {
        let mut digest = Hash256::digest(&record.canonical_bytes());
        for _ in 1..passes {
            digest = Hash256::digest(&digest.0);
        }
        // Heterogeneous-hardware penalty: extra cycles, same answer.
        let mut burn = digest;
        for _ in 0..passes.saturating_mul(slowdown.saturating_sub(1)) {
            burn = Hash256::digest(&burn.0);
        }
        std::hint::black_box(burn);
        for (f, d) in fold.iter_mut().zip(&digest.0) {
            *f ^= d;
        }
    }
    fold
}

fn fold_results(parts: Vec<[u8; 32]>) -> Hash256 {
    let mut fold = [0u8; 32];
    for part in parts {
        for (f, p) in fold.iter_mut().zip(&part) {
            *f ^= p;
        }
    }
    Hash256(fold)
}

/// Runs every shard on its own thread; returns the folded result and
/// the critical-path hash count.
fn parallel_compute(shards: &[&[PatientRecord]], passes: u32, slowdown: u32) -> (Hash256, u64) {
    let parts = medchain_runtime::sync::scoped_map(shards.to_vec(), |shard| {
        compute_shard(shard, passes, slowdown)
    });
    let largest = shards.iter().map(|shard| shard.len() as u64).max().unwrap_or(0);
    (fold_results(parts), largest * u64::from(passes) * u64::from(slowdown))
}

fn transfer_ms(bytes: u64, model: &LatencyModel) -> u64 {
    model.base_ms + model.per_kib_ms * bytes.div_ceil(1024)
}

/// Runs the analytics job under `paradigm` over per-site record shards.
///
/// `passes` scales per-record CPU work; the WAN latency model prices the
/// data movement each paradigm requires.
pub fn run_paradigm(
    paradigm: Paradigm,
    site_records: &[Vec<PatientRecord>],
    passes: u32,
) -> ParadigmReport {
    let wan = LatencyModel::wan();
    let record_bytes = |records: &[PatientRecord]| {
        records.iter().map(|r| r.canonical_bytes().len() as u64).sum::<u64>()
    };
    let all_bytes: u64 = site_records.iter().map(|s| record_bytes(s)).sum();
    let all_count: u64 = site_records.iter().map(|s| s.len() as u64).sum();

    match paradigm {
        Paradigm::HadoopCentralized => {
            // All records converge on the central HDFS cluster, which
            // computes with full parallelism (one worker per shard).
            let shards: Vec<&[PatientRecord]> =
                site_records.iter().map(Vec::as_slice).collect();
            let (result, critical_path_hashes) = parallel_compute(&shards, passes, 1);
            ParadigmReport {
                paradigm,
                critical_path_hashes,
                modeled_transfer_ms: transfer_ms(all_bytes, &wan),
                bytes_moved: all_bytes,
                raw_records_moved: all_count,
                result,
            }
        }
        Paradigm::GridComputing => {
            // Independent tasks on volunteer nodes: data shipped per
            // task; volunteer hardware is heterogeneous (2× slower).
            let shards: Vec<&[PatientRecord]> =
                site_records.iter().map(Vec::as_slice).collect();
            let (result, critical_path_hashes) = parallel_compute(&shards, passes, 2);
            ParadigmReport {
                paradigm,
                critical_path_hashes,
                modeled_transfer_ms: transfer_ms(all_bytes, &wan),
                bytes_moved: all_bytes,
                raw_records_moved: all_count,
                result,
            }
        }
        Paradigm::CloudElastic => {
            // One upload to the provider, then elastic fan-out (2× the
            // shard count of VMs — elasticity is the cloud's advantage).
            let mut shards: Vec<&[PatientRecord]> = Vec::new();
            for site in site_records {
                let mid = site.len() / 2;
                shards.push(&site[..mid]);
                shards.push(&site[mid..]);
            }
            let (result, critical_path_hashes) = parallel_compute(&shards, passes, 1);
            ParadigmReport {
                paradigm,
                critical_path_hashes,
                modeled_transfer_ms: transfer_ms(all_bytes, &wan),
                bytes_moved: all_bytes,
                raw_records_moved: all_count,
                result,
            }
        }
        Paradigm::BlockchainParallel => {
            // Compute moves to the data: each site hashes its own shard;
            // only the 32-byte partials travel.
            let shards: Vec<&[PatientRecord]> =
                site_records.iter().map(Vec::as_slice).collect();
            let (result, critical_path_hashes) = parallel_compute(&shards, passes, 1);
            let partial_bytes = (site_records.len() * 32) as u64;
            ParadigmReport {
                paradigm,
                critical_path_hashes,
                modeled_transfer_ms: transfer_ms(partial_bytes, &wan),
                bytes_moved: partial_bytes,
                raw_records_moved: 0,
                result,
            }
        }
    }
}

/// Runs all four paradigms over the same data.
pub fn compare_all(site_records: &[Vec<PatientRecord>], passes: u32) -> Vec<ParadigmReport> {
    [
        Paradigm::HadoopCentralized,
        Paradigm::GridComputing,
        Paradigm::CloudElastic,
        Paradigm::BlockchainParallel,
    ]
    .into_iter()
    .map(|p| run_paradigm(p, site_records, passes))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    fn sites(n: usize, per_site: usize) -> Vec<Vec<PatientRecord>> {
        (0..n)
            .map(|i| {
                CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), i as u64).cohort(
                    (i * 10_000) as u64,
                    per_site,
                    &DiseaseModel::stroke(),
                )
            })
            .collect()
    }

    #[test]
    fn all_paradigms_compute_the_same_result() {
        let data = sites(3, 80);
        let reports = compare_all(&data, 2);
        let first = reports[0].result;
        assert!(reports.iter().all(|r| r.result == first), "results diverge");
    }

    #[test]
    fn only_blockchain_parallel_keeps_raw_records_home() {
        let data = sites(4, 50);
        for report in compare_all(&data, 1) {
            match report.paradigm {
                Paradigm::BlockchainParallel => {
                    assert_eq!(report.raw_records_moved, 0);
                    assert!(report.bytes_moved <= 4 * 32);
                }
                _ => {
                    assert_eq!(report.raw_records_moved, 200);
                    assert!(report.bytes_moved > 1_000);
                }
            }
        }
    }

    #[test]
    fn blockchain_parallel_has_least_transfer_time() {
        let data = sites(4, 100);
        let reports = compare_all(&data, 1);
        let bc = reports
            .iter()
            .find(|r| r.paradigm == Paradigm::BlockchainParallel)
            .unwrap();
        for other in &reports {
            if other.paradigm != Paradigm::BlockchainParallel {
                assert!(bc.modeled_transfer_ms < other.modeled_transfer_ms);
            }
        }
    }

    #[test]
    fn grid_is_slower_than_hadoop_compute() {
        let data = sites(3, 200);
        let hadoop = run_paradigm(Paradigm::HadoopCentralized, &data, 20);
        let grid = run_paradigm(Paradigm::GridComputing, &data, 20);
        assert_eq!(grid.critical_path_hashes, 2 * hadoop.critical_path_hashes);
    }
}
