//! **E3** — consensus energy accounting (paper §I: Digiconomist's
//! 30.14 TWh/yr for Bitcoin, "exceeds … Ireland"; proof-of-stake
//! "resolves the wasting energy issue, but it is still a duplicated
//! computing mechanism").
//!
//! Each consensus engine drives an identical 5-site consortium to the
//! same height with the same transfer workload; hashes/signatures are
//! counted by the engines and priced by the calibrated energy model.

use crate::report::{f, Table};
use medchain_chain::consensus::pbft::PbftEngine;
use medchain_chain::consensus::poa::PoaEngine;
use medchain_chain::consensus::pos::PosEngine;
use medchain_chain::consensus::pow::PowEngine;
use medchain_chain::consensus::{seeded_consortium, Cluster, Engine, RunReport, WorkCounters};
use medchain_chain::energy::{EnergyModel, EnergyReport};
use medchain_chain::ledger::LedgerStats;
use medchain_chain::node::ChainApp;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::tx::TxPayload;
use medchain_chain::Transaction;
use medchain_runtime::metrics::Metrics;

const SITES: usize = 5;

fn submit_workload(apps: &mut [ChainApp], keys: &[AuthorityKey], txs_per_sender: u64) {
    for (i, key) in keys.iter().enumerate() {
        for app in apps.iter_mut() {
            app.ledger_mut().state_mut().credit(key.address(), 1_000_000);
        }
        for n in 0..txs_per_sender {
            let tx = Transaction::new(
                key.address(),
                n,
                TxPayload::Transfer {
                    to: keys[(i + 1) % keys.len()].address(),
                    amount: 1,
                },
                1_000,
            )
            .signed(key);
            for app in apps.iter_mut() {
                app.submit(tx.clone());
            }
        }
    }
}

struct EngineRun {
    name: &'static str,
    report: RunReport,
    per_replica_stats: LedgerStats,
    model: EnergyModel,
}

fn run_engine<E: Engine>(
    name: &'static str,
    quick: bool,
    model: EnergyModel,
    engines: Vec<E>,
    metrics: Metrics,
) -> EngineRun {
    let height = if quick { 4 } else { 10 };
    let (keys, registry) = seeded_consortium(SITES);
    let mut apps: Vec<ChainApp> =
        (0..SITES).map(|_| ChainApp::new("energy-bench", registry.clone())).collect();
    // Replica 0 reports app-level counters; the cluster reports
    // consensus-level ones (hash/signature work sums all replicas).
    apps[0].set_metrics(metrics.clone());
    submit_workload(&mut apps, &keys, if quick { 10 } else { 40 });
    let mut cluster = Cluster::new(engines, apps, 33);
    cluster.set_metrics(metrics);
    let report = cluster.run_until_height(height, 3_600_000_000);
    let per_replica_stats = cluster.replicas[0].app.stats();
    EngineRun { name, report, per_replica_stats, model }
}

/// Runs E3 over all four engines, every engine's cluster reporting to
/// `metrics` (`consensus.*` work counters plus replica-0
/// `mempool.*`/`chain.*`).
pub fn run_e3(quick: bool, metrics: Metrics) -> Table {
    // Same hardware model (hospital CPUs) for all engines so the
    // comparison isolates the consensus mechanism; the ASIC/Digiconomist
    // extrapolation is reported separately below.
    let runs = vec![
        run_engine(
            "pow",
            quick,
            EnergyModel::cpu(),
            PowEngine::make_miners(SITES, if quick { 14 } else { 16 }, 2_000_000, 100),
            metrics.clone(),
        ),
        run_engine(
            "poa",
            quick,
            EnergyModel::cpu(),
            PoaEngine::make_validators(SITES, 50).0,
            metrics.clone(),
        ),
        run_engine(
            "pbft",
            quick,
            EnergyModel::cpu(),
            PbftEngine::make_replicas(SITES, 50, 5_000).0,
            metrics.clone(),
        ),
        run_engine(
            "pos (virtual mining)",
            quick,
            EnergyModel::cpu(),
            PosEngine::make_stakers(SITES, None, 100).0,
            metrics,
        ),
    ];
    let mut table = Table::new(
        "E3",
        "energy per consensus mechanism, identical 5-site consortium and workload",
        &["engine", "hashes", "sigs", "consensus J", "exec J (all replicas)", "useful fraction"],
    );
    let mut pow_consensus = 0.0;
    let mut poa_consensus = 0.0;
    let mut pow_hashes = 0u64;
    for run in &runs {
        let energy =
            EnergyReport::duplicated(&run.model, &run.report.work, &run.per_replica_stats, SITES);
        if run.name.starts_with("pow") {
            pow_consensus = energy.consensus_joules;
            pow_hashes = run.report.work.hashes;
        }
        if run.name == "poa" {
            poa_consensus = energy.consensus_joules;
        }
        table.row(vec![
            run.name.to_string(),
            run.report.work.hashes.to_string(),
            run.report.work.signatures.to_string(),
            format!("{:.3e}", energy.consensus_joules),
            format!("{:.3e}", energy.execution_joules),
            f(energy.useful_fraction()),
        ]);
    }
    if poa_consensus > 0.0 {
        table.finding(format!(
            "PoW consensus burns {:.0}× PoA's energy for the same committed history, and the gap \
             doubles with every difficulty bit",
            pow_consensus / poa_consensus
        ));
    }
    // Digiconomist extrapolation: at Bitcoin's 2017 network scale the
    // calibrated ASIC model reproduces the paper's headline figure.
    {
        use medchain_chain::energy::{
            BITCOIN_HASHRATE_2017, DIGICONOMIST_BITCOIN_TWH_2017, SECONDS_PER_YEAR,
        };
        let asic = EnergyModel::asic_calibrated();
        let annual_twh =
            asic.joules_per_hash * BITCOIN_HASHRATE_2017 * SECONDS_PER_YEAR / 3.6e15;
        table.finding(format!(
            "ASIC-calibrated model at 2017 Bitcoin hashrate: {annual_twh:.2} TWh/yr (paper cites \
             Digiconomist {DIGICONOMIST_BITCOIN_TWH_2017} TWh/yr ≈ Ireland); our 5-node sim \
             ground {pow_hashes} real hashes for its chain"
        ));
    }
    table.finding(
        "PoS removes grinding energy but execution joules are still duplicated per replica — \
         the paper's point that virtual mining 'is still a duplicated computing mechanism'"
            .to_string(),
    );
    table
}

/// Exposes per-engine work counters for the criterion benches.
pub fn pow_work(quick: bool) -> WorkCounters {
    run_engine(
        "pow",
        quick,
        EnergyModel::asic_calibrated(),
        PowEngine::make_miners(SITES, 12, 500_000, 100),
        Metrics::noop(),
    )
    .report
    .work
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e3_pow_dominates_energy() {
        // Assert on per-engine sink counters, not printed table cells:
        // PoW hashes dwarf PoA's and PoS's for the same history.
        let pow = Registry::default();
        run_engine(
            "pow",
            true,
            EnergyModel::cpu(),
            PowEngine::make_miners(SITES, 14, 2_000_000, 100),
            pow.handle(),
        );
        let poa = Registry::default();
        run_engine(
            "poa",
            true,
            EnergyModel::cpu(),
            PoaEngine::make_validators(SITES, 50).0,
            poa.handle(),
        );
        let pos = Registry::default();
        run_engine(
            "pos",
            true,
            EnergyModel::cpu(),
            PosEngine::make_stakers(SITES, None, 100).0,
            pos.handle(),
        );
        let hashes = |r: &Registry| r.counter_value("consensus.hashes");
        assert!(
            hashes(&pow) > 50 * hashes(&poa).max(1),
            "pow {} vs poa {}",
            hashes(&pow),
            hashes(&poa)
        );
        assert!(
            hashes(&pow) > 50 * hashes(&pos).max(1),
            "pow {} vs pos {}",
            hashes(&pow),
            hashes(&pos)
        );
    }

    #[test]
    fn e3_asserts_on_sink_counters() {
        let registry = Registry::default();
        let table = run_e3(true, registry.handle());
        assert_eq!(table.rows.len(), 4);
        assert!(registry.counter_value("consensus.hashes") > 0);
        assert!(registry.counter_value("consensus.signatures") > 0);
        assert!(registry.counter_value("consensus.rounds") > 0);
        assert!(registry.counter_value("mempool.inserted") > 0);
    }
}
