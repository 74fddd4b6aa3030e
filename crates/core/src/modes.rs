//! The paper's headline transformation: duplicated smart-contract
//! computing versus the distributed parallel architecture (§I, §III,
//! Fig. 1) — experiments E1/E2.
//!
//! Both modes run the *same* analytics job: `total_work_units` of real
//! SHA-256 kernel work over the consortium's data.
//!
//! * **Duplicated** — the job is compiled into contract bytecode
//!   (`Burn`) and invoked on-chain. Every one of the N replicas executes
//!   the full job at commit, exactly as Ethereum-style chains do. Total
//!   CPU work is N × job; adding nodes makes the system *slower*.
//! * **Transformed parallel** — the on-chain contract is only the
//!   access-policy control point: a cheap `request_run` that names each
//!   site's shard of the job. Every named site picks its shard up from
//!   its own replica and runs it *off-chain, in parallel, next to the
//!   data*; only the per-site result hashes return on-chain. Total CPU
//!   work is ~1 × job and wall time falls with N.

use crate::network::{Network, NetworkError};
use medchain_chain::{Hash256, TxPayload};
use medchain_contracts::asm::assemble;
use medchain_contracts::opcode::encode_program;
use medchain_contracts::value::Value;
use medchain_offchain::Tool;
use medchain_runtime::metrics::Metrics;
use std::time::{Duration, Instant};

/// Which execution strategy to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Identical contract code executed by every replica.
    Duplicated,
    /// Sharded validation (paper §I; DESIGN.md §9): `k` real sub-chains
    /// with their own committees plus a coordinator chain committing
    /// cross-links. Each group executes only its shard of the workload
    /// — but every member of a group still re-executes that whole
    /// shard, so the duplication factor falls to ~`nodes/k`, enforced
    /// by the chain layer (per-shard genesis, routing, cross-link
    /// audit).
    ShardedConsensus,
    /// Thin on-chain policy gate + off-chain parallel execution.
    TransformedParallel,
}

/// Measurements from one analytics job under one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeReport {
    /// The mode measured.
    pub mode: ExecutionMode,
    /// Consortium size.
    pub nodes: usize,
    /// Work units in the job.
    pub work_units: u64,
    /// Real wall-clock time for the whole flow (submission → committed
    /// result).
    pub wall: Duration,
    /// Total gas executed across **all** replicas (the duplicated cost).
    pub total_gas: u64,
    /// Consensus messages sent.
    pub messages: u64,
    /// Consensus bytes sent.
    pub bytes: u64,
    /// Logical (simulated network) latency of the flow in ms.
    pub sim_latency_ms: u64,
    /// Work units on the serial critical path — the longest chain of
    /// gas that cannot overlap with anything else. Duplicated mode
    /// re-executes every replica in turn, so this is the full
    /// `total_gas`; sharded mode runs committees concurrently, so it is
    /// the slowest committee's gas; transformed mode runs sites in parallel, so
    /// it is the largest per-site shard plus the on-chain gate gas.
    /// Unlike `wall`, this is a pure function of the configuration.
    pub critical_path_gas: u64,
}

/// Calibration constant for the deterministic wall-time model:
/// nanoseconds one work unit (one iterated SHA-256 evaluation of the
/// `Burn` kernel) takes on the reference machine. Used by
/// [`ModeReport::modeled_wall`] so experiment tables are bit-identical
/// across runs; measured times are medbench's (`modes.*` keys).
pub const MODEL_NS_PER_WORK_UNIT: u64 = 700;

impl ModeReport {
    /// Deterministic wall-time model: critical-path compute at
    /// [`MODEL_NS_PER_WORK_UNIT`] plus the simulated network latency.
    /// A pure function of (mode, nodes, work, seed) — two runs with the
    /// same inputs produce the same duration, unlike the measured
    /// [`wall`](Self::wall).
    pub fn modeled_wall(&self) -> Duration {
        Duration::from_nanos(self.critical_path_gas * MODEL_NS_PER_WORK_UNIT)
            + Duration::from_millis(self.sim_latency_ms)
    }

    /// Total CPU work relative to one copy of the job (1.0 = no waste).
    pub fn duplication_factor(&self) -> f64 {
        self.total_gas as f64 / self.work_units.max(1) as f64
    }
}

fn tiny_network(nodes: usize, seed: u64, metrics: Metrics) -> Result<Network, NetworkError> {
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
    let mut builder = Network::builder()
        .seed(seed)
        .block_interval_ms(20)
        .metrics(metrics)
        .transport(crate::network::TransportKind::from_env());
    for i in 0..nodes {
        // Two records per site: enough to exist, cheap to anchor.
        let records = CohortGenerator::new(&format!("h{i}"), SiteProfile::default(), seed + i as u64)
            .cohort((i * 100) as u64, 2, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    builder.build()
}

/// Runs the job in **duplicated** mode on a fresh `nodes`-site network.
///
/// # Errors
///
/// Returns [`NetworkError`] on consensus or contract failure.
pub fn run_duplicated(
    nodes: usize,
    work_units: u64,
    seed: u64,
) -> Result<ModeReport, NetworkError> {
    run_duplicated_metered(nodes, work_units, seed, Metrics::noop())
}

/// [`run_duplicated`] with every layer reporting to `metrics`
/// (consensus, mempool, chain, transport counters).
///
/// # Errors
///
/// Returns [`NetworkError`] on consensus or contract failure.
pub fn run_duplicated_metered(
    nodes: usize,
    work_units: u64,
    seed: u64,
    metrics: Metrics,
) -> Result<ModeReport, NetworkError> {
    let mut net = tiny_network(nodes, seed, metrics)?;
    // The analytics job as on-chain bytecode: burn `arg0` work units.
    let program = assemble("arg 0\nburn\npush 1\nhalt").expect("static program assembles");
    let deploy = net.submit(
        0,
        TxPayload::Deploy { code: encode_program(&program), init: Vec::new() },
        100_000,
    )?;
    // `confirm` also checks the receipt's Merkle inclusion proof
    // against the committed block's tx root.
    let receipt = net.confirm(&deploy)?;
    // The deploy receipt returns the contract address as its output.
    let mut addr = [0u8; 20];
    addr.copy_from_slice(&receipt.output);
    let contract = medchain_chain::Address(addr);

    let gas_before = net.total_ledger_stats().gas_used;
    let net_before = net.net_stats();
    let sim_before = net.ledger().tip().header.timestamp_ms;

    let start = Instant::now();
    let invoke = net.submit(
        0,
        TxPayload::Invoke {
            contract,
            input: medchain_contracts::encode_args(&[Value::Int(work_units as i64)]),
        },
        work_units + 10_000,
    )?;
    net.confirm(&invoke)?;
    let wall = start.elapsed();

    let stats_after = net.net_stats();
    let total_gas = net.total_ledger_stats().gas_used - gas_before;
    Ok(ModeReport {
        mode: ExecutionMode::Duplicated,
        nodes,
        work_units,
        wall,
        total_gas,
        messages: stats_after.sent - net_before.sent,
        bytes: stats_after.bytes - net_before.bytes,
        sim_latency_ms: net.ledger().tip().header.timestamp_ms.saturating_sub(sim_before),
        // Replicas re-execute the job one after another at commit.
        critical_path_gas: total_gas,
    })
}

/// Runs the job in **transformed parallel** mode: thin on-chain request,
/// each site's shard executed off-chain on its own thread, each site's
/// result hash back on-chain.
///
/// # Errors
///
/// Returns [`NetworkError`] on consensus or contract failure.
pub fn run_transformed(
    nodes: usize,
    work_units: u64,
    seed: u64,
) -> Result<ModeReport, NetworkError> {
    run_transformed_metered(nodes, work_units, seed, Metrics::noop())
}

/// [`run_transformed`] with every layer reporting to `metrics`,
/// including the sites' off-chain executors (`offchain.*`).
///
/// A driver of the Fig. 1 path, [`Network::run_job`]: every site
/// installs the burn kernel, site 0 registers its hash and requests a
/// run naming each site's shard of units, and each site picks its shard
/// up from its own replica, runs it and posts its own outcome. The task
/// record then holds the composed hash.
///
/// # Errors
///
/// Returns [`NetworkError`] on consensus or contract failure, and
/// [`NetworkError::TxFailed`] for the request when a named site did not
/// post.
pub fn run_transformed_metered(
    nodes: usize,
    work_units: u64,
    seed: u64,
    metrics: Metrics,
) -> Result<ModeReport, NetworkError> {
    let mut net = tiny_network(nodes, seed, metrics)?;
    install_burn_tool(&mut net)?;

    let gas_before = net.total_ledger_stats().gas_used;
    let net_before = net.net_stats();
    let sim_before = net.ledger().tip().header.timestamp_ms;

    let start = Instant::now();
    // A thin on-chain request (the access-policy control point) naming
    // each site's shard of the job; each site burns its shard in
    // parallel with the others and posts its own outcome.
    net.run_job(0, "burn-kernel", "consortium/union", &burn_shards(nodes, work_units))?;
    let wall = start.elapsed();

    let stats_after = net.net_stats();
    let chain_gas = net.total_ledger_stats().gas_used - gas_before;
    let shard = work_units / nodes as u64;
    Ok(ModeReport {
        mode: ExecutionMode::TransformedParallel,
        nodes,
        work_units,
        wall,
        // Off-chain work counts once: the whole job, plus on-chain gas.
        total_gas: work_units + chain_gas,
        messages: stats_after.sent - net_before.sent,
        bytes: stats_after.bytes - net_before.bytes,
        sim_latency_ms: net.ledger().tip().header.timestamp_ms.saturating_sub(sim_before),
        // Sites run in parallel: the largest shard bounds the compute,
        // plus the serial on-chain request/result gate.
        critical_path_gas: shard + u64::from(!work_units.is_multiple_of(nodes as u64)) + chain_gas,
    })
}

/// Every site installs the burn kernel and site 0 registers its hash
/// on-chain (the integrity anchor), outside any measured window.
fn install_burn_tool(net: &mut Network) -> Result<(), NetworkError> {
    for site in 0..net.site_count() {
        net.site_mut(site).install_tool(burn_tool());
    }
    let tool_hash = burn_tool().code_hash();
    let register = net.invoke(
        0,
        net.contracts().analytics,
        "register_tool",
        &[Value::str("burn-kernel"), Value::Bytes(tool_hash.0.to_vec())],
        50_000,
    )?;
    net.confirm(&register)?;
    Ok(())
}

/// Site `i`'s shard of `work_units`: an even split, the remainder going
/// one unit each to the first sites, as 8 little-endian bytes.
fn burn_shards(nodes: usize, work_units: u64) -> Vec<(usize, Vec<u8>)> {
    let (shard, remainder) = (work_units / nodes as u64, work_units % nodes as u64);
    (0..nodes)
        .map(|site| {
            let units = shard + u64::from((site as u64) < remainder);
            (site, units.to_le_bytes().to_vec())
        })
        .collect()
}

/// Runs the job under **sharding** (paper §I's partial fix, DESIGN.md
/// §9): a real sharded [`crate::network::Network`] with `shard_count`
/// sub-chains (site *i* on committee `i % k`), the burn kernel deployed
/// to every sub-chain with a shard-ground address, `work/k` invoked on
/// each, and a cross-link round committing every shard tip on the
/// coordinator chain. Each committee member re-executes only its own
/// sub-chain's slice, so total on-chain work is `nodes/k × job` plus
/// the (tiny) coordinator cross-link gas — better than full
/// duplication, still far from 1×, and (as the paper notes) it only
/// parallelizes *validation*. Every committee reports to `metrics`
/// under scoped keys (`shard-0.consensus.*`, `coordinator.chain.*`, …).
/// One shard is the flat network: one committee of every site, with no
/// coordinator and so no cross-link round.
///
/// # Errors
///
/// Returns [`NetworkError`] on consensus, contract, or cross-link
/// failure.
///
/// # Panics
///
/// Panics if `shard_count` is zero or exceeds `nodes`.
pub fn run_sharded_consensus(
    nodes: usize,
    shard_count: usize,
    work_units: u64,
    seed: u64,
    metrics: Metrics,
) -> Result<ModeReport, NetworkError> {
    use medchain_chain::shard::ShardId;
    assert!(shard_count > 0 && shard_count <= nodes, "1 ≤ shards ≤ nodes");
    let k = shard_count as u16;
    let mut builder = Network::builder()
        .seed(seed)
        .block_interval_ms(20)
        .shards(k)
        .metrics(metrics)
        .transport(crate::network::TransportKind::from_env());
    for i in 0..nodes {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build()?;
    let coordinated = net.shard_count() > 1;

    // The burn kernel on every sub-chain, each at a shard-ground address.
    let program = assemble("arg 0\nburn\npush 1\nhalt").expect("static program assembles");
    let code = encode_program(&program);
    let mut deploys = Vec::with_capacity(shard_count);
    for s in 0..k {
        deploys.push((ShardId(s), net.deploy_to(ShardId(s), 0, code.clone(), Vec::new(), 100_000)?));
    }
    net.advance(2)?;
    let mut contracts = Vec::with_capacity(shard_count);
    for (shard, id) in &deploys {
        let receipt =
            net.ledger_of_shard(*shard).receipt(id).ok_or(NetworkError::MissingReceipt(*id))?;
        if !receipt.ok {
            return Err(NetworkError::TxFailed {
                tx_id: *id,
                error: receipt.error.unwrap_or_default(),
            });
        }
        let mut raw = [0u8; 20];
        raw.copy_from_slice(&receipt.output);
        contracts.push(medchain_chain::Address(raw));
    }

    let gas_before = net.total_ledger_stats().gas_used;
    let shard_gas_before = net.shard_gas();
    let net_before = net.net_stats();
    let shard_sim_before: Vec<u64> = (0..k)
        .map(|s| net.ledger_of_shard(ShardId(s)).tip().header.timestamp_ms)
        .collect();
    let home_gas_and_clock = |net: &Network| {
        let home = net.home_ledger();
        (home.stats().gas_used, home.tip().header.timestamp_ms)
    };
    let home_before = home_gas_and_clock(&net);

    let start = Instant::now();
    // Each sub-chain executes its slice of the job; an invoke routes to
    // the shard holding the code because the address was ground there.
    let shard_work = work_units / u64::from(k);
    let mut invokes = Vec::with_capacity(shard_count);
    for (s, contract) in contracts.iter().enumerate() {
        let pending = net.submit(
            0,
            TxPayload::Invoke {
                contract: *contract,
                input: medchain_contracts::encode_args(&[Value::Int(shard_work as i64)]),
            },
            shard_work + 10_000,
        )?;
        debug_assert_eq!(pending.shard, ShardId(s as u16));
        invokes.push(pending);
    }
    // `confirm` commits each sub-chain and verifies the receipt's
    // inclusion proof against that chain's block root.
    for pending in &invokes {
        net.confirm(pending)?;
    }
    // Cross-link round: every advanced shard tip committed on the
    // coordinator chain.
    if coordinated {
        let links = net.cross_link()?;
        debug_assert_eq!(links.len(), shard_count);
    }
    let wall = start.elapsed();

    let stats_after = net.net_stats();
    let total_gas = net.total_ledger_stats().gas_used - gas_before;
    // Committees run concurrently: the slowest group's duplicated slice
    // bounds the path, then the coordinator's cross-link round runs.
    let slowest_group_gas = net
        .shard_gas()
        .iter()
        .zip(&shard_gas_before)
        .enumerate()
        .map(|(s, (after, before))| {
            (after - before) * net.committee_sites(ShardId(s as u16)).len() as u64
        })
        .max()
        .unwrap_or(0);
    let shard_latency = (0..k)
        .map(|s| {
            net.ledger_of_shard(ShardId(s))
                .tip()
                .header
                .timestamp_ms
                .saturating_sub(shard_sim_before[s as usize])
        })
        .max()
        .unwrap_or(0);
    // The coordinator's cross-link round, on every site. A flat network
    // has none: its home chain is the one data chain, counted above.
    let (coordinator_gas, coordinator_latency) = if coordinated {
        let (gas, ms) = home_gas_and_clock(&net);
        ((gas - home_before.0) * nodes as u64, ms.saturating_sub(home_before.1))
    } else {
        (0, 0)
    };
    net.shutdown();
    Ok(ModeReport {
        mode: ExecutionMode::ShardedConsensus,
        nodes,
        work_units,
        wall,
        total_gas,
        messages: stats_after.sent - net_before.sent,
        bytes: stats_after.bytes - net_before.bytes,
        sim_latency_ms: shard_latency + coordinator_latency,
        critical_path_gas: slowest_group_gas + coordinator_gas,
    })
}

/// The most units one site burns for one shard. A request naming more
/// fails at that site instead of stalling every site's control cycle.
const MAX_BURN_UNITS: u64 = 10_000_000;

/// The real-work kernel both modes execute: `units` iterated SHA-256
/// evaluations, identical to the VM's `Burn` instruction. A site's
/// control code calls it with `[dataset, shard params, local data…]`;
/// the shard params are `units` (at most [`MAX_BURN_UNITS`]) as 8
/// little-endian bytes.
fn burn_tool() -> Tool {
    Tool::new("burn-kernel", "v1", |params| {
        let units = params
            .get(1)
            .and_then(|v| v.as_bytes().ok()?.try_into().ok())
            .map(u64::from_le_bytes)
            .filter(|units| *units <= MAX_BURN_UNITS)
            .ok_or("burn-kernel shard params must be ≤ MAX_BURN_UNITS as 8 little-endian bytes")?;
        let mut acc = Hash256::digest(b"burn");
        for _ in 0..units {
            acc = Hash256::digest(&acc.0);
        }
        Ok(vec![Value::Bytes(acc.0.to_vec())])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORK: u64 = 40_000;

    #[test]
    fn duplicated_total_work_scales_with_nodes() {
        let two = run_duplicated(2, WORK, 1).unwrap();
        let four = run_duplicated(4, WORK, 1).unwrap();
        // Total gas ≈ nodes × work.
        assert!(two.duplication_factor() > 1.8, "factor {}", two.duplication_factor());
        assert!(four.duplication_factor() > 3.6, "factor {}", four.duplication_factor());
        assert!(four.total_gas > two.total_gas);
    }

    #[test]
    fn transformed_total_work_is_flat_in_nodes() {
        let two = run_transformed(2, WORK, 2).unwrap();
        let four = run_transformed(4, WORK, 2).unwrap();
        assert!(two.duplication_factor() < 1.2, "factor {}", two.duplication_factor());
        assert!(four.duplication_factor() < 1.2, "factor {}", four.duplication_factor());
    }

    #[test]
    fn transformed_beats_duplicated_at_scale() {
        let duplicated = run_duplicated(4, 400_000, 3).unwrap();
        let transformed = run_transformed(4, 400_000, 3).unwrap();
        assert!(
            transformed.modeled_wall() < duplicated.modeled_wall(),
            "transformed {:?} should beat duplicated {:?}",
            transformed.modeled_wall(),
            duplicated.modeled_wall()
        );
        assert!(transformed.total_gas < duplicated.total_gas / 2);
    }

    #[test]
    fn both_modes_commit_results_on_chain() {
        let report = run_transformed(3, 10_000, 4).unwrap();
        assert!(report.messages > 0);
        assert!(report.bytes > 0);
        assert!(report.sim_latency_ms > 0);
    }

    #[test]
    fn transformed_counts_repeat_for_a_seed() {
        let counts = |r: ModeReport| {
            (r.total_gas, r.messages, r.bytes, r.sim_latency_ms, r.critical_path_gas)
        };
        let first = counts(run_transformed(3, WORK, 6).unwrap());
        assert_eq!(first, counts(run_transformed(3, WORK, 6).unwrap()));
        // One request (110 gas) and three posts (90 each) on 3 replicas.
        assert_eq!(first.0, WORK + 3 * (110 + 3 * 90));
    }

    #[test]
    fn transformed_task_composes_to_the_recorded_hash() {
        // `run_transformed(3, WORK, 6)`'s job, its task record read back.
        use medchain_contracts::standard::AnalyticsContract;
        let mut net = tiny_network(3, 6, Metrics::noop()).unwrap();
        install_burn_tool(&mut net).unwrap();
        let outcomes = net.run_job(0, "burn-kernel", "consortium/union", &burn_shards(3, WORK));
        assert_eq!(outcomes.unwrap().len(), 3);
        let analytics = net.contracts().analytics;
        let record = AnalyticsContract::task(net.ledger().state(), &analytics, 0).unwrap();
        // Recorded when sites posted SHA-256 hashes of their outcomes
        // instead of the outcomes: the composed hash did not move.
        let composed = "8b28d614af5990ff26e19ff5bf7008fcf625b329e0034e54323de1b7a9c6abc8";
        assert_eq!(Hash256(record[4].as_bytes().unwrap().try_into().unwrap()).to_hex(), composed);
    }

    #[test]
    fn metered_transformed_reports_every_layer() {
        let registry = medchain_runtime::metrics::Registry::default();
        run_transformed_metered(3, 10_000, 5, registry.handle()).unwrap();
        assert!(registry.counter_value("consensus.rounds") > 0);
        assert!(registry.counter_value("chain.blocks_committed") > 0);
        assert!(registry.counter_value("mempool.inserted") > 0);
        assert!(registry.counter_value("transport.bytes") > 0);
        // One off-chain shard per site ran in parallel.
        assert_eq!(registry.counter_value("offchain.tasks"), 3);
    }

    #[test]
    fn a_shard_past_the_burn_bound_fails_at_its_site() {
        let mut net = tiny_network(2, 7, Metrics::noop()).unwrap();
        install_burn_tool(&mut net).unwrap();
        let units = |n: u64| n.to_le_bytes().to_vec();
        let shards = [(0, units(1)), (1, units(MAX_BURN_UNITS + 1))];
        // Site 1 refuses its shard at once and posts nothing, so the
        // task is not done.
        let run = net.run_job(0, "burn-kernel", "consortium/union", &shards);
        assert!(matches!(run, Err(NetworkError::TxFailed { .. })), "{run:?}");
        assert_eq!(net.site(0).control().stats().tasks_run, 1);
        assert_eq!(net.site(1).control().stats().failures, 1);
    }
}

#[cfg(test)]
mod sharding_tests {
    use super::*;

    #[test]
    fn sharding_sits_between_duplicated_and_transformed() {
        const WORK: u64 = 120_000;
        let duplicated = run_duplicated(8, WORK, 9).unwrap();
        let sharded = run_sharded_consensus(8, 4, WORK, 9, Metrics::noop()).unwrap();
        let transformed = run_transformed(8, WORK, 9).unwrap();
        // Work: duplicated ≈ 8×, sharded ≈ 2×, transformed ≈ 1×.
        assert!(sharded.total_gas < duplicated.total_gas / 2);
        assert!(sharded.total_gas > transformed.total_gas + WORK / 2);
        assert!(
            (1.5..=3.5).contains(&sharded.duplication_factor()),
            "sharded factor {}",
            sharded.duplication_factor()
        );
    }

    #[test]
    fn sharded_consensus_duplication_falls_to_nodes_over_k() {
        const WORK: u64 = 80_000;
        let report = run_sharded_consensus(8, 2, WORK, 11, Metrics::noop()).unwrap();
        assert_eq!(report.mode, ExecutionMode::ShardedConsensus);
        // 8 sites in 2 committees of 4: each slice of WORK/2 is executed
        // by 4 replicas → total ≈ 4 × WORK (plus coordinator gas).
        assert!(
            (3.5..=4.8).contains(&report.duplication_factor()),
            "factor {}",
            report.duplication_factor()
        );
        // The critical path is one committee's slice, about half the
        // duplicated total.
        assert!(report.critical_path_gas < report.total_gas * 3 / 4);
        assert!(report.messages > 0 && report.bytes > 0);
    }

    #[test]
    fn sharded_consensus_tracks_the_analytic_sharding_asymptote() {
        const WORK: u64 = 60_000;
        // 6 sites in 3 committees of 2 → factor 2, 6 in 2 of 3 → 3, and
        // one committee of everyone is full duplication; the real chain
        // adds only deploy + cross-link overhead on top.
        for k in [3, 2, 1] {
            let real = run_sharded_consensus(6, k, WORK, 12, Metrics::noop()).unwrap();
            // `nodes / k`: each slice re-executed by its whole committee.
            let analytic = 6.0 / k as f64;
            let overhead = real.duplication_factor() - analytic;
            assert!(
                (0.0..0.5).contains(&overhead),
                "k={k}: analytic {analytic} vs real {}",
                real.duplication_factor()
            );
        }
    }
}
