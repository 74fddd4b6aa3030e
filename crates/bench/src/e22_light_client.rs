//! **E22** — authenticated world state and the light-client query path
//! (DESIGN.md §13). Three measurements:
//!
//! 1. **Root maintenance**: with a large account population, compare a
//!    full sparse-Merkle rebuild (`StateTree::from_state`, what every
//!    block used to pay) against incremental maintenance of a
//!    100-write block's worth of touched keys — the `O(keys changed ×
//!    depth)` path `Ledger::apply` now runs — and assert both land on
//!    the same root.
//! 2. **Flat topology**: fund the population, commit a block, then
//!    drive verified `Query` round trips through the TCP gateway —
//!    inclusion proofs for funded accounts and absence proofs for
//!    never-written keys, every proof checked client-side and re-checked
//!    against an independently read committed header root.
//! 3. **2-shard topology**: anchor a record on each sub-chain, then
//!    prove the record on its home shard and its *absence* on the other
//!    shard — the cross-shard negative proof a consortium auditor needs.
//!
//! The metered variant lands `auth.root_update_us` (ledger-side root
//! maintenance) and `gateway.state_queries` on the caller's sink.

use crate::report::{f, ms, Table};
use medchain::{Client, GatewayConfig, MedicalNetwork};
use medchain_chain::shard::{shard_for_key, ShardId};
use medchain_chain::{
    Address, LeafKey, StateProof, StateTree, Transaction, TxPayload, WorldState,
};
use medchain_runtime::codec::Encode;
use medchain_runtime::metrics::Metrics;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const COMMIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Touched keys per incremental round — a 100-tx block's worth of
/// account writes, the cadence the acceptance criterion pins.
const BLOCK_WRITES: u64 = 100;

fn anchor(label: &str) -> TxPayload {
    TxPayload::Anchor {
        root: medchain_chain::Hash256::digest(label.as_bytes()),
        label: label.to_string(),
    }
}

struct RootBench {
    accounts: u64,
    full_wall: Duration,
    incremental_wall: Duration,
    roots_agree: bool,
}

/// Full rebuild vs incremental maintenance over the same 100 writes.
fn bench_root_maintenance(accounts: u64) -> RootBench {
    let mut state = WorldState::new();
    for i in 0..accounts {
        state.credit(Address::from_seed(i), 1 + i);
    }

    let started = Instant::now();
    let tree = StateTree::from_state(&state);
    let full_wall = started.elapsed();

    // One block's worth of writes, strided across the population.
    let stride = (accounts / BLOCK_WRITES).max(1);
    let touched: Vec<Address> =
        (0..BLOCK_WRITES).map(|i| Address::from_seed((i * stride) % accounts)).collect();
    let mut mutated = state.clone();
    for addr in &touched {
        mutated.credit(*addr, 7);
    }

    let started = Instant::now();
    let mut incremental = tree.clone();
    for addr in &touched {
        let key = LeafKey::Account(*addr);
        let value = mutated.leaf_value(&key);
        incremental.update(&key, value.as_deref());
    }
    let incremental_root = incremental.versioned_root();
    let incremental_wall = started.elapsed();

    RootBench {
        accounts,
        full_wall,
        incremental_wall,
        roots_agree: incremental_root == StateTree::from_state(&mutated).versioned_root(),
    }
}

struct QueryStats {
    queries: usize,
    failures: usize,
    latency_sum: Duration,
    latency_max: Duration,
    proof_bytes_sum: usize,
    siblings_max: usize,
}

impl QueryStats {
    fn new() -> QueryStats {
        QueryStats {
            queries: 0,
            failures: 0,
            latency_sum: Duration::ZERO,
            latency_max: Duration::ZERO,
            proof_bytes_sum: 0,
            siblings_max: 0,
        }
    }

    /// One verified query; `expect_value` is the claimed presence and
    /// `root` the independently read committed header root.
    fn record(&mut self, proof: &StateProof, wall: Duration, expect_value: bool, ok: bool) {
        self.queries += 1;
        if !ok || proof.value.is_some() != expect_value {
            self.failures += 1;
        }
        self.latency_sum += wall;
        self.latency_max = self.latency_max.max(wall);
        self.proof_bytes_sum += proof.encoded().len();
        self.siblings_max = self.siblings_max.max(proof.proof.siblings.len());
    }

    fn mean_latency_ms(&self) -> f64 {
        self.latency_sum.as_secs_f64() * 1000.0 / self.queries.max(1) as f64
    }

    fn mean_proof_bytes(&self) -> f64 {
        self.proof_bytes_sum as f64 / self.queries.max(1) as f64
    }
}

/// Flat topology: fund `accounts`, commit one block, then run verified
/// inclusion + absence queries through the gateway.
fn drive_flat(accounts: u64, queries: u64, metrics: Metrics) -> QueryStats {
    let mut builder = MedicalNetwork::builder()
        .seed(0xe22)
        .block_interval_ms(20)
        .metrics(metrics)
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
    for i in 0..3 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("flat gateway network builds");
    for i in 0..accounts {
        net.fund(Address::from_seed(i), 1 + i);
    }
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    let stop = AtomicBool::new(false);
    let (mut stats, proofs) = std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            // Genesis headers carry no state commitment: the funded
            // population becomes provable once the first block commits.
            let tx = Transaction::new(key.address(), 0, anchor("e22/registry"), 1_000).signed(key);
            let pending = client.submit(&tx, false).expect("accepted");
            client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");

            let mut stats = QueryStats::new();
            let mut proofs = Vec::new();
            let stride = (accounts / queries).max(1);
            for i in 0..queries {
                let leaf = LeafKey::Account(Address::from_seed((i * stride) % accounts));
                let started = Instant::now();
                let proof = client.query_proven(&leaf).expect("inclusion proof served");
                let wall = started.elapsed();
                stats.record(&proof, wall, true, proof.verify());
                proofs.push(proof);
            }
            // Absence: an account far outside the population, and an
            // anchor label never written.
            for leaf in [
                LeafKey::Account(Address::from_seed(accounts + 0xdead)),
                LeafKey::Anchor("e22/never-written".into()),
            ] {
                let started = Instant::now();
                let proof = client.query_proven(&leaf).expect("absence proof served");
                let wall = started.elapsed();
                stats.record(&proof, wall, false, proof.verify());
                proofs.push(proof);
            }
            stop.store(true, Ordering::Relaxed);
            (stats, proofs)
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread")
    });

    // Trustless re-check: every proof must also fold to the header root
    // read straight off a validator ledger, not just the root it names.
    for proof in &proofs {
        let root = net
            .ledger()
            .block(proof.height)
            .expect("block retained")
            .header
            .state_root;
        if !proof.verify_against(&root) {
            stats.failures += 1;
        }
    }
    net.shutdown();
    stats
}

/// 2-shard topology: prove a record on its home sub-chain and its
/// absence on the other one.
fn drive_sharded(metrics: Metrics) -> QueryStats {
    let shards = 2u16;
    let mut builder = MedicalNetwork::builder()
        .seed(0xe22)
        .block_interval_ms(20)
        .shards(shards)
        .metrics(metrics)
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build_sharded().expect("sharded gateway network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    // Labels spanning both sub-chains, so every shard commits at least
    // one block and carries a provable (non-genesis) tip root — a
    // genesis header has no state commitment, and an absence proof
    // against it could never verify.
    let mut labels: Vec<String> = Vec::new();
    let mut per_shard = [0usize; 2];
    for i in 0u32.. {
        let label = format!("e22/ward-{i}");
        let shard = shard_for_key(label.as_bytes(), shards);
        if per_shard[shard.0 as usize] < 2 {
            per_shard[shard.0 as usize] += 1;
            labels.push(label);
        }
        if per_shard.iter().all(|&n| n >= 2) {
            break;
        }
    }

    let stop = AtomicBool::new(false);
    let (mut stats, proofs) = std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            let mut nonces = std::collections::HashMap::new();
            for label in &labels {
                let shard = shard_for_key(label.as_bytes(), shards);
                let slot: &mut u64 = nonces.entry(shard.0).or_insert(0);
                let nonce = *slot;
                *slot += 1;
                let tx = Transaction::new(key.address(), nonce, anchor(label), 1_000).signed(key);
                let pending = client.submit(&tx, false).expect("accepted");
                client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
            }

            let mut stats = QueryStats::new();
            let mut proofs = Vec::new();
            for label in &labels {
                let leaf = LeafKey::Anchor(label.clone());
                let home = leaf.home_shard(shards);
                let away = ShardId(1 - home.0);
                // Home shard: inclusion, routed automatically.
                let started = Instant::now();
                let proof = client.query_proven(&leaf).expect("home-shard proof served");
                let wall = started.elapsed();
                stats.record(&proof, wall, true, proof.verify() && proof.shard == home);
                proofs.push(proof);
                // Other shard: a verifiable absence proof.
                let started = Instant::now();
                let proof = client
                    .query_proven_on(&leaf, Some(away))
                    .expect("cross-shard absence proof served");
                let wall = started.elapsed();
                stats.record(&proof, wall, false, proof.verify() && proof.shard == away);
                proofs.push(proof);
            }
            stop.store(true, Ordering::Relaxed);
            (stats, proofs)
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread")
    });

    for proof in &proofs {
        let root = net
            .ledger_of_shard(proof.shard)
            .block(proof.height)
            .expect("block retained")
            .header
            .state_root;
        if !proof.verify_against(&root) {
            stats.failures += 1;
        }
    }
    net.shutdown();
    stats
}

/// Runs E22 with `metrics` installed, so `auth.root_update_us` and
/// `gateway.state_queries` land on the caller's sink.
pub fn run_e22(quick: bool, metrics: Metrics) -> Table {
    let accounts: u64 = if quick { 2_000 } else { 100_000 };
    let queries: u64 = if quick { 8 } else { 32 };

    let root = bench_root_maintenance(accounts);
    let flat = drive_flat(accounts, queries, metrics.clone());
    let sharded = drive_sharded(metrics);

    let ratio = root.incremental_wall.as_secs_f64() / root.full_wall.as_secs_f64().max(1e-9);
    let failures = flat.failures + sharded.failures;

    let mut table = Table::new(
        "E22",
        &format!(
            "authenticated state: {accounts} accounts, {BLOCK_WRITES}-write blocks, \
             light-client queries on flat and 2-shard topologies"
        ),
        &["metric", "value"],
    );
    table.row(vec!["accounts".into(), root.accounts.to_string()]);
    table.row(vec!["full rehash wall".into(), ms(root.full_wall.as_secs_f64() * 1000.0)]);
    table.row(vec![
        format!("incremental wall ({BLOCK_WRITES} writes)"),
        ms(root.incremental_wall.as_secs_f64() * 1000.0),
    ]);
    table.row(vec!["incremental / full ratio".into(), f(ratio)]);
    table.row(vec![
        "incremental root == full rebuild".into(),
        root.roots_agree.to_string(),
    ]);
    table.row(vec!["flat verified queries".into(), flat.queries.to_string()]);
    table.row(vec![
        "flat mean query latency".into(),
        ms(flat.mean_latency_ms()),
    ]);
    table.row(vec![
        "flat max query latency".into(),
        ms(flat.latency_max.as_secs_f64() * 1000.0),
    ]);
    table.row(vec!["flat mean proof size (bytes)".into(), f(flat.mean_proof_bytes())]);
    table.row(vec!["flat max proof path (siblings)".into(), flat.siblings_max.to_string()]);
    table.row(vec!["2-shard verified queries".into(), sharded.queries.to_string()]);
    table.row(vec![
        "2-shard mean proof size (bytes)".into(),
        f(sharded.mean_proof_bytes()),
    ]);
    table.row(vec!["proof failures".into(), failures.to_string()]);
    table.finding(format!(
        "incremental root maintenance ran at {:.3}x the full-rehash wall over {} accounts and \
         reproduced the rebuilt root exactly; {} flat and {} sharded light-client queries \
         (inclusion, absence, and cross-shard absence) verified client-side against \
         independently read committed header roots with {} proof failures",
        ratio, root.accounts, flat.queries, sharded.queries, failures
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    #[test]
    fn e22_proves_and_verifies_with_zero_failures() {
        let registry = Registry::new();
        let table = run_e22(true, registry.handle());
        let cell = |label: &str| {
            table
                .rows
                .iter()
                .find(|r| r[0] == label)
                .unwrap_or_else(|| panic!("row {label:?} missing"))[1]
                .clone()
        };
        assert_eq!(cell("incremental root == full rebuild"), "true");
        assert_eq!(cell("proof failures"), "0");
        // Incremental maintenance must beat the full rebuild even at the
        // quick population (the 0.1x pin lives in tests/auth_state.rs).
        assert!(cell("incremental / full ratio").parse::<f64>().unwrap() < 1.0);
        // Both gateways metered the query path on the sink.
        assert!(registry.counter_value("gateway.state_queries") >= 10 + 8);
    }
}
