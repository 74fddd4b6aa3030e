//! **E21** — cross-shard atomic transfers under participant crashes
//! (DESIGN.md §12): drive two-phase-commit transfers across a 2-shard
//! consortium, inject a crashed participant on every k-th transfer (its
//! credit leg never locks), and measure committed throughput plus the
//! abort rate the timeout path produces. The invariant on display is the
//! acceptance criterion: every transfer is both-or-neither — committed
//! ones debit shard A and credit shard B, aborted ones leave every
//! balance untouched.

use crate::report::{f, ms, Table};
use medchain::{MedicalNetwork, ShardedNetwork};
use medchain_chain::shard::shard_for_key;
use medchain_chain::{Address, AuthorityKey, Hash256};
use medchain_runtime::metrics::Metrics;
use std::time::Instant;

const SHARDS: u16 = 2;
const AMOUNT: u64 = 10;

fn build(metrics: Metrics) -> ShardedNetwork {
    let mut builder = MedicalNetwork::builder()
        .shards(SHARDS)
        .block_interval_ms(20)
        .metrics(metrics);
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    builder.build_sharded().expect("sharded network builds")
}

/// A fresh receiver homed on the other shard than `from`.
fn receiver_for(from: Address, i: usize) -> Address {
    let home = shard_for_key(&from.0, SHARDS);
    (0u64..)
        .map(|j| Address::from_seed(5_000_000 + (i as u64) * 1_000 + j))
        .find(|a| shard_for_key(&a.0, SHARDS) != home)
        .unwrap()
}

/// Runs E21 with `metrics` installed on the consortium, so the
/// resolver's `xs.transfers` / `xs.committed` / `xs.aborted` /
/// `xs.finalized` counters land on the caller's sink.
pub fn run_e21(quick: bool, metrics: Metrics) -> Table {
    let transfers = if quick { 12 } else { 48 };
    let crash_every = 4; // every 4th participant "crashes" mid-prepare
    let mut net = build(metrics);
    let senders: Vec<Address> = (0..4).map(|i| AuthorityKey::from_seed(i).address()).collect();
    for sender in &senders {
        net.fund(*sender, 1_000_000);
    }
    let start_balance: u64 = senders.iter().map(|s| net.balance_of(s)).sum();

    let mut crashed_xids = Vec::new();
    let mut committed = 0usize;
    let started = Instant::now();
    for i in 0..transfers {
        let site = i % 4;
        let to = receiver_for(senders[site], i);
        if (i + 1) % crash_every == 0 {
            // Crashed participant: only the debit leg ever locks, with a
            // deadline already in the past once the clock moves.
            let xid = Hash256::digest(&(i as u64).to_le_bytes());
            let deadline = net.now_ms();
            let debit = net
                .submit_prepare(site, xid, senders[site], AMOUNT, true, deadline)
                .expect("debit leg admitted");
            net.confirm(&debit).expect("debit leg commits");
            crashed_xids.push(xid);
        } else {
            let deadline = net.now_ms() + 1_000_000;
            let (_, ok) = net
                .run_cross_shard_transfer(site, to, AMOUNT, deadline)
                .expect("transfer resolves");
            assert!(ok, "a fully-locked transfer must commit");
            committed += 1;
        }
        // Each pass also sweeps up any expired crashed-participant locks.
        net.resolve_cross_shard().expect("resolver runs");
    }
    // Drain: advance the coordinator clock until every withheld-leg
    // transfer has timeout-aborted.
    let mut sweeps = 0;
    while crashed_xids
        .iter()
        .any(|x| net.coordinator_ledger().state().xs_decision(x).is_none())
    {
        net.advance_coordinator(1).expect("coordinator advances");
        net.resolve_cross_shard().expect("resolver runs");
        sweeps += 1;
        assert!(sweeps < 20, "timeout-aborts must converge");
    }
    let wall = started.elapsed();

    let aborted = crashed_xids
        .iter()
        .filter(|x| !net.coordinator_ledger().state().xs_decision(x).unwrap().commit)
        .count();
    // Atomicity audit: aborted escrows refunded, committed debits gone.
    let end_balance: u64 = senders.iter().map(|s| net.balance_of(s)).sum();
    assert_eq!(
        end_balance,
        start_balance - committed as u64 * AMOUNT,
        "only committed transfers may move sender balances"
    );
    assert!(senders.iter().all(|s| net.lock_of(s).is_none()), "all locks released");

    let mut table = Table::new(
        "E21",
        &format!(
            "cross-shard 2PC: {transfers} transfers over {SHARDS} shards, \
             1-in-{crash_every} participant crashes"
        ),
        &["metric", "value"],
    );
    table.row(vec!["transfers begun".into(), transfers.to_string()]);
    table.row(vec!["committed".into(), committed.to_string()]);
    table.row(vec!["timeout-aborted".into(), aborted.to_string()]);
    table.row(vec![
        "abort rate".into(),
        f(aborted as f64 / transfers as f64),
    ]);
    table.row(vec!["wall".into(), ms(wall.as_secs_f64() * 1000.0)]);
    table.row(vec![
        "committed transfers/s".into(),
        f(committed as f64 / wall.as_secs_f64()),
    ]);
    table.finding(format!(
        "{committed} transfers debited one shard and credited another atomically; all \
         {aborted} crashed-participant transfers timeout-aborted with every lock released \
         and every escrow refunded — a dead shard cannot wedge the consortium"
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e21_commits_and_aborts_the_expected_split() {
        let registry = Registry::new();
        let table = run_e21(true, registry.handle());
        let value = |row: usize| table.rows[row][1].parse::<u64>().unwrap();
        assert_eq!(value(0), 12, "transfers begun");
        assert_eq!(value(1), 9, "healthy transfers commit");
        assert_eq!(value(2), 3, "crashed participants abort");
        // The consortium metered the protocol on the sink.
        assert_eq!(registry.counter_value("xs.transfers"), 9);
        assert_eq!(registry.counter_value("xs.committed"), 9);
        assert_eq!(registry.counter_value("xs.aborted"), 3);
        assert!(registry.counter_value("xs.finalized") >= 12 + 9);
    }
}
