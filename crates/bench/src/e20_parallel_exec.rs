//! **E20** — parallel block execution (DESIGN.md §11): block-apply
//! throughput versus worker threads at 10k-transaction blocks.
//!
//! Every replica re-executes every committed block — E1's duplicated
//! computing — but *within* one replica the block is still a serial
//! bottleneck. The wave scheduler partitions a block by inferred
//! read/write sets and executes conflict-free waves across worker
//! lanes, with the hard invariant (property-tested, and re-checked here
//! by `Ledger::apply`'s state-root equality) that the parallel schedule
//! commits byte-identical state.
//!
//! The table prints the deterministic critical-path model — wave
//! widths are fixed by the schedule, so `Σ ceil(width/threads)` tx-slots
//! reproduce bit-for-bit across runs and are honest on single-core CI
//! containers. The measured speedup is medbench's
//! `exec.parallel_speedup_2` (machine-dependent; needs real cores).

use crate::report::{f, Table};
use medchain_chain::exec::{infer_rw_set, schedule, Schedule};
use medchain_chain::ledger::NullRuntime;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::{
    shard_for_key, Address, KeyRegistry, Ledger, RwSet, ShardId, Transaction, TxPayload,
};
use medchain_runtime::metrics::Metrics;

/// Worker-lane counts swept per workload.
pub const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One E20 workload: a funded consortium and a single large block.
struct Workload {
    label: String,
    registry: KeyRegistry,
    keys: Vec<AuthorityKey>,
    shard: ShardId,
    shard_count: u16,
    txs: Vec<Transaction>,
}

impl Workload {
    /// A fresh ledger at the workload's genesis (same funding every
    /// time, so every apply starts from an identical state root).
    fn ledger(&self) -> Ledger {
        let mut ledger = Ledger::new_sharded(
            "e20",
            self.shard,
            self.shard_count,
            self.registry.clone(),
            Box::new(NullRuntime),
        );
        for key in &self.keys {
            ledger.state_mut().credit(key.address(), 1_000);
        }
        ledger
    }

    fn rw_sets(&self) -> Vec<RwSet> {
        let ledger = self.ledger();
        self.txs
            .iter()
            .map(|tx| {
                infer_rw_set(tx, self.shard, self.shard_count, ledger.state(), &NullRuntime)
            })
            .collect()
    }
}

/// Builds a one-tx-per-sender transfer block. `hot_every = Some(k)`
/// routes every k-th transfer to one shared hot account, creating a
/// write-write conflict chain.
fn transfers(
    label: &str,
    n: usize,
    shard: ShardId,
    shard_count: u16,
    hot_every: Option<usize>,
) -> Workload {
    let mut registry = KeyRegistry::new();
    let mut keys = Vec::with_capacity(n);
    let mut seed = 1u64;
    while keys.len() < n {
        let key = AuthorityKey::from_seed(seed);
        seed += 1;
        // On a sharded chain, transfers route by sender address — keep
        // only senders that land on this sub-chain.
        if shard_count > 1 && shard_for_key(&key.address().0, shard_count) != shard {
            continue;
        }
        registry.enroll(&key);
        keys.push(key);
    }
    let hot = Address::from_seed(0xE20_507);
    let txs = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let to = match hot_every {
                Some(k) if i % k == 0 => hot,
                _ => Address::from_seed(1_000_000 + i as u64),
            };
            Transaction::new(key.address(), 0, TxPayload::Transfer { to, amount: 1 }, 1_000)
                .signed(key)
        })
        .collect();
    Workload { label: label.to_string(), registry, keys, shard, shard_count, txs }
}

/// Deterministic critical-path model: a wave of width `w` on `t` lanes
/// takes `ceil(w/t)` transaction slots; sequential apply takes `n`.
fn modeled_slots(sched: &Schedule, threads: usize) -> u64 {
    sched.waves.iter().map(|wave| wave.len().div_ceil(threads.max(1)) as u64).sum()
}

/// Runs E20 with the applying ledgers reporting the `exec.*` family
/// (waves/block, conflict rate, wave-width histogram, per-wave wall) to
/// `metrics`.
pub fn run_e20(quick: bool, metrics: Metrics) -> Table {
    let n = if quick { 2_000 } else { 10_000 };
    let workloads = [
        transfers("flat transfers (conflict-light)", n, ShardId::default(), 1, None),
        transfers("flat transfers (hot-key 1/4)", n, ShardId::default(), 1, Some(4)),
        transfers("sharded transfers (shard 0 of 2)", n, ShardId(0), 2, None),
    ];
    let mut table = Table::new(
        "E20",
        &format!(
            "parallel block execution: one {n}-tx block per workload, \
             lanes ∈ {THREAD_SWEEP:?}, walls = model"
        ),
        &[
            "workload",
            "txs",
            "waves",
            "conflict rate",
            "wall t=1",
            "wall t=2",
            "wall t=4",
            "wall t=8",
            "speedup@4 (model)",
        ],
    );
    for workload in &workloads {
        let proposer = workload.keys[0].address();
        let block = workload.ledger().propose(proposer, 10, workload.txs.clone());
        let sched = schedule(&workload.rw_sets());

        for &threads in &THREAD_SWEEP {
            let mut ledger = workload.ledger();
            ledger.set_parallel_exec(threads);
            ledger.set_metrics(metrics.clone());
            // `apply` enforces state-root equality against the header
            // the sequential `propose` computed — a failed equivalence
            // would surface here as StateRootMismatch.
            let receipts = ledger.apply(&block).expect("parallel apply diverged");
            assert_eq!(receipts.len(), workload.txs.len());
            assert_eq!(ledger.state().state_root(), block.header.state_root);
        }

        let walls = THREAD_SWEEP.iter().map(|&t| format!("{} slots", modeled_slots(&sched, t)));
        let speedup4 = workload.txs.len() as f64 / modeled_slots(&sched, 4) as f64;
        let mut row = vec![
            workload.label.clone(),
            workload.txs.len().to_string(),
            sched.waves.len().to_string(),
            f(sched.conflict_rate()),
        ];
        row.extend(walls);
        row.push(f(speedup4));
        table.row(row);
    }
    table.finding(
        "conflict-light blocks flatten into a handful of wide waves: the modeled critical \
         path at 4 lanes beats sequential apply by ~4× (>1.8× required), identically on the \
         flat and sharded chains"
            .to_string(),
    );
    table.finding(
        "hot-key conflicts serialize into one wave per writer: the conflict rate column is \
         the price, and exec.conflict_rate / exec.wave_width report it live"
            .to_string(),
    );
    table.finding(
        "every apply above re-checked the invariant: the parallel schedule commits the exact \
         state root the sequential proposer computed"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e20_modeled_speedup_exceeds_claim_at_four_lanes() {
        let table = run_e20(true, Metrics::noop());
        // Flat and sharded rows must clear the 1.8× bar at 4 lanes; the
        // hot-key row documents the conflict tax but still parallelizes
        // its conflict-free remainder.
        let flat: f64 = table.rows[0][8].parse().unwrap();
        let sharded: f64 = table.rows[2][8].parse().unwrap();
        assert!(flat > 1.8, "flat speedup {flat}");
        assert!(sharded > 1.8, "sharded speedup {sharded}");
        let hot: f64 = table.rows[1][8].parse().unwrap();
        assert!(hot > 1.0, "hot-key speedup {hot}");
        // Conflict-light transfers all land in wave 0.
        assert_eq!(table.rows[0][2], "1");
        assert!(table.rows[1][2].parse::<usize>().unwrap() > 1);
    }

    #[test]
    fn e20_metered_reports_exec_counters() {
        let registry = Registry::new();
        let table = run_e20(true, registry.handle());
        assert_eq!(table.rows.len(), 3);
        // 3 workloads × 4 lane counts, of which t>1 runs are parallel.
        assert_eq!(registry.counter_value("exec.blocks"), 12);
        assert_eq!(registry.counter_value("exec.parallel_blocks"), 9);
        // The audit never fired: inferred sets covered every touched key.
        assert_eq!(registry.counter_value("exec.fallback_blocks"), 0);
        let widths = registry.histogram("exec.wave_width").expect("wave widths recorded");
        assert!(widths.max >= 1_000.0, "widest wave {}", widths.max);
        assert!(registry.histogram("exec.conflict_rate").is_some());
        assert!(registry.histogram("exec.waves_per_block").is_some());
    }
}
