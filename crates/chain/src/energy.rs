//! Energy accounting for consensus work.
//!
//! The paper's §I motivates the whole architecture with the energy wasted
//! by duplicated computing, citing Digiconomist's estimate that Bitcoin
//! verification consumed **30.14 TWh/year** — more than Ireland. This
//! module converts the work counters collected by the consensus engines
//! ([`WorkCounters`]) and the ledger ([`LedgerStats`]) into joules, and
//! splits them into *consensus overhead* versus *useful computation* so
//! experiment E3 can report the useful-work fraction of each mechanism.

use crate::consensus::WorkCounters;
use crate::ledger::LedgerStats;

/// Digiconomist annual Bitcoin energy estimate cited by the paper (TWh).
pub const DIGICONOMIST_BITCOIN_TWH_2017: f64 = 30.14;
/// Approximate Bitcoin network hash rate at the time of the estimate
/// (hashes per second, ~13 EH/s in late 2017).
pub const BITCOIN_HASHRATE_2017: f64 = 13.0e18;
/// Seconds per year.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Joules attributed to each primitive operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Joules per hash evaluation.
    pub joules_per_hash: f64,
    /// Joules per signature creation.
    pub joules_per_signature: f64,
    /// Joules per signature verification.
    pub joules_per_verification: f64,
    /// Joules per unit of contract gas (useful computation).
    pub joules_per_gas: f64,
}

impl EnergyModel {
    /// ASIC miner efficiency, calibrated so that the 2017 Bitcoin network
    /// dissipates the Digiconomist figure:
    /// `J/hash = 30.14 TWh / (hashrate × seconds-per-year)` ≈ 2.6e-10 J
    /// (30.14e12 Wh × 3600 s/h ÷ (13e18 H/s × 31 557 600 s) ≈ 2.645e-10).
    pub fn asic_calibrated() -> EnergyModel {
        let joules_per_hash =
            DIGICONOMIST_BITCOIN_TWH_2017 * 1e12 * 3600.0 / (BITCOIN_HASHRATE_2017 * SECONDS_PER_YEAR);
        EnergyModel {
            joules_per_hash,
            joules_per_signature: joules_per_hash * 2.0,
            joules_per_verification: joules_per_hash * 2.0,
            joules_per_gas: 1e-7,
        }
    }

    /// General-purpose CPU costs (hospital servers running a permissioned
    /// chain): ~100 nJ per SHA-256 block.
    pub fn cpu() -> EnergyModel {
        EnergyModel {
            joules_per_hash: 1e-7,
            joules_per_signature: 2e-7,
            joules_per_verification: 2e-7,
            joules_per_gas: 1e-7,
        }
    }

    /// Energy attributable to consensus work (overhead).
    pub fn consensus_joules(&self, work: &WorkCounters) -> f64 {
        work.hashes as f64 * self.joules_per_hash
            + work.signatures as f64 * self.joules_per_signature
            + work.verifications as f64 * self.joules_per_verification
    }

    /// Energy attributable to transaction execution. Under duplicated
    /// computing this is burned once *per replica*.
    pub fn execution_joules(&self, stats: &LedgerStats) -> f64 {
        stats.gas_used as f64 * self.joules_per_gas
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::cpu()
    }
}

/// An energy breakdown for one consensus run, produced by experiment E3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Joules spent on consensus overhead (hashing, votes).
    pub consensus_joules: f64,
    /// Joules spent executing transactions, summed over all replicas.
    pub execution_joules: f64,
    /// Joules of execution that were *useful* (one copy of the work).
    pub useful_joules: f64,
}

impl EnergyReport {
    /// Builds a report for a cluster of `replica_count` nodes that each
    /// executed the same transactions (duplicated computing): useful work
    /// is one replica's share.
    pub fn duplicated(
        model: &EnergyModel,
        work: &WorkCounters,
        per_replica: &LedgerStats,
        replica_count: usize,
    ) -> EnergyReport {
        let one = model.execution_joules(per_replica);
        EnergyReport {
            consensus_joules: model.consensus_joules(work),
            execution_joules: one * replica_count as f64,
            useful_joules: one,
        }
    }

    /// Total joules.
    fn total_joules(&self) -> f64 {
        self.consensus_joules + self.execution_joules
    }

    /// Fraction of all energy that did useful (non-duplicated,
    /// non-consensus) work. The paper's argument is that this fraction is
    /// tiny for PoW and grows toward 1 under the transformed architecture.
    pub fn useful_fraction(&self) -> f64 {
        if self.total_joules() == 0.0 {
            return 0.0;
        }
        self.useful_joules / self.total_joules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asic_calibration_matches_digiconomist() {
        let model = EnergyModel::asic_calibrated();
        // Network-wide annual energy at calibration hashrate.
        let annual_joules =
            model.joules_per_hash * BITCOIN_HASHRATE_2017 * SECONDS_PER_YEAR;
        let annual_twh = annual_joules / 3600.0 / 1e12;
        assert!((annual_twh - DIGICONOMIST_BITCOIN_TWH_2017).abs() < 1e-6);
    }

    #[test]
    fn asic_joules_per_hash_is_about_2_6e_minus_10() {
        // Pins the calibrated value the doc comment quotes; the old
        // comment claimed ≈1e-10, off by ~2.6×.
        let model = EnergyModel::asic_calibrated();
        assert!(
            (model.joules_per_hash - 2.645e-10).abs() < 0.005e-10,
            "joules_per_hash = {}",
            model.joules_per_hash
        );
    }

    #[test]
    fn useful_fraction_shrinks_with_replica_count() {
        let model = EnergyModel::cpu();
        let work = WorkCounters { hashes: 1_000, signatures: 100, verifications: 400 };
        let stats = LedgerStats { blocks: 10, transactions: 100, gas_used: 1_000_000, failed: 0 };
        let few = EnergyReport::duplicated(&model, &work, &stats, 2);
        let many = EnergyReport::duplicated(&model, &work, &stats, 32);
        assert!(many.useful_fraction() < few.useful_fraction());
        assert!(many.execution_joules > few.execution_joules);
        assert_eq!(many.useful_joules, few.useful_joules);
    }

    #[test]
    fn pow_grinding_dwarfs_execution() {
        let model = EnergyModel::cpu();
        // A million grinding hashes vs a small contract call.
        let work = WorkCounters { hashes: 10_000_000, signatures: 10, verifications: 10 };
        let stats = LedgerStats { blocks: 10, transactions: 10, gas_used: 10_000, failed: 0 };
        let report = EnergyReport::duplicated(&model, &work, &stats, 4);
        assert!(report.consensus_joules > report.execution_joules * 100.0);
        assert!(report.useful_fraction() < 0.01);
    }

    #[test]
    fn zero_work_reports_zero_fraction() {
        let report = EnergyReport::duplicated(
            &EnergyModel::cpu(),
            &WorkCounters::default(),
            &LedgerStats::default(),
            4,
        );
        assert_eq!(report.useful_fraction(), 0.0);
    }
}
