//! Isolated layer probes: each drives one layer's public functions
//! alone, at fixed input, on a standalone `Ledger` / `DiskStore` /
//! `PageStore` — pchain's `f(WS, BD, TX) -> (WS', R)` seam
//! (SNIPPETS.md §1): execution timed without consensus or I/O. A traced
//! run of a workload runs the probes of the layers that workload is
//! mapped to (README.md has the table).

use crate::common::{Env, Layers, Res, PREFILL_ACCOUNTS};
use crate::gen::{self, TxGen, PREFILL_BALANCE};
use crate::stats::Samples;
use medchain::GatewayRequest;
use medchain_chain::ledger::NullRuntime;
use medchain_chain::{
    Address, AuthorityKey, BlockStore, KeyRegistry, LeafKey, Ledger, Transaction,
};
use medchain_runtime::metrics::{Metrics, Registry};
use medchain_runtime::{Decode, Encode};
use medchain_storage::{DiskStore, FsyncPolicy, PageStore, StorageConfig};
use std::hint::black_box;
use std::time::Instant;

const SENDERS: usize = 64;
/// Fat blocks and single-transaction blocks timed per probe.
const FAT_BLOCKS: usize = 8;
const THIN_BLOCKS: usize = 200;
const FAT: usize = 256;

/// A standalone ledger over the resident workloads' population.
struct Fixture {
    keys: Vec<AuthorityKey>,
    accounts: Vec<Address>,
    registry: KeyRegistry,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let keys: Vec<AuthorityKey> = (0..SENDERS)
            .map(|i| AuthorityKey::from_seed(0x1000_0000 + i as u64))
            .collect();
        let mut registry = KeyRegistry::new();
        for key in &keys {
            registry.enroll(key);
        }
        Fixture {
            keys,
            accounts: gen::accounts(seed, PREFILL_ACCOUNTS),
            registry,
        }
    }

    /// A funded ledger with its tree built (one committed block).
    fn ledger(&self, metrics: Metrics) -> Ledger {
        let mut ledger = Ledger::new("medbench", self.registry.clone(), Box::new(NullRuntime));
        ledger.set_metrics(metrics);
        for key in &self.keys {
            ledger.state_mut().credit(key.address(), PREFILL_BALANCE);
        }
        for addr in &self.accounts {
            ledger.state_mut().credit(*addr, PREFILL_BALANCE);
        }
        ledger
    }

    fn proposer(&self) -> Address {
        self.keys[0].address()
    }
}

fn commit(ledger: &mut Ledger, proposer: Address, txs: Vec<Transaction>) -> Res<(f64, f64)> {
    let timestamp = (ledger.height() + 1) * 20;
    let started = Instant::now();
    let block = ledger.propose(proposer, timestamp, txs);
    let propose_us = started.elapsed().as_secs_f64() * 1e6;
    let started = Instant::now();
    ledger.apply(&block).map_err(|e| format!("apply: {e}"))?;
    Ok((propose_us, started.elapsed().as_secs_f64() * 1e6))
}

/// `ledger.*` at one block size: microseconds per transaction to
/// propose (execute once for the root) and to apply (execute again).
fn ledger_probe(seed: u64, size: usize, layers: &mut Layers) -> Res<()> {
    let fx = Fixture::new(seed);
    let mut ledger = fx.ledger(Metrics::noop());
    let mut gen = TxGen::new(seed, &fx.keys, &fx.accounts, 1);
    // The first block rebuilds the whole tree; it is warm-up.
    commit(&mut ledger, fx.proposer(), gen.writes(1))?;
    let blocks = if size == 1 { THIN_BLOCKS } else { FAT_BLOCKS };
    let (mut propose, mut apply) = (0.0, 0.0);
    for _ in 0..blocks {
        let txs = if size == 1 {
            gen.writes(1)
        } else {
            gen.round(0, SENDERS, size / SENDERS)
        };
        let (p, a) = commit(&mut ledger, fx.proposer(), txs)?;
        propose += p;
        apply += a;
    }
    let per_tx = (blocks * size) as f64;
    let (propose_key, apply_key) = if size == 1 {
        ("ledger.propose_us_per_tx_1", "ledger.apply_us_per_tx_1")
    } else {
        ("ledger.propose_us_per_tx_256", "ledger.apply_us_per_tx_256")
    };
    layers.insert(propose_key, propose / per_tx);
    layers.insert(apply_key, apply / per_tx);
    Ok(())
}

/// `exec.*`: the same fat blocks applied sequentially and on two lanes.
fn exec_probe(seed: u64, layers: &mut Layers) -> Res<()> {
    let fx = Fixture::new(seed);
    let sink = Registry::new();
    let mut sequential = fx.ledger(Metrics::noop());
    let mut parallel = fx.ledger(sink.handle());
    parallel.set_parallel_exec(2);
    let mut gen = TxGen::new(seed, &fx.keys, &fx.accounts, 1);
    let (mut one, mut two) = (0.0, 0.0);
    for i in 0..=FAT_BLOCKS {
        let txs = gen.round(0, SENDERS, FAT / SENDERS);
        let block = sequential.propose(fx.proposer(), (i as u64 + 1) * 20, txs);
        let started = Instant::now();
        sequential
            .apply(&block)
            .map_err(|e| format!("sequential apply: {e}"))?;
        let t1 = started.elapsed().as_secs_f64();
        let started = Instant::now();
        parallel
            .apply(&block)
            .map_err(|e| format!("parallel apply: {e}"))?;
        let t2 = started.elapsed().as_secs_f64();
        if i > 0 {
            one += t1;
            two += t2;
        }
    }
    if sequential.tip().id() != parallel.tip().id() {
        return Err("parallel apply committed a different tip".into());
    }
    layers.insert("exec.parallel_speedup_2", one / two.max(1e-12));
    layers.insert(
        "exec.waves_per_block",
        sink.histogram("exec.waves_per_block")
            .map(|h| h.mean())
            .unwrap_or(0.0),
    );
    layers.insert(
        "exec.fallback_blocks",
        sink.counter_value("exec.fallback_blocks") as f64,
    );
    Ok(())
}

/// `auth.*`: prove and verify account leaves of the 20,000-account tree.
fn auth_probe(seed: u64, layers: &mut Layers) -> Res<()> {
    let fx = Fixture::new(seed);
    let mut ledger = fx.ledger(Metrics::noop());
    let mut gen = TxGen::new(seed, &fx.keys, &fx.accounts, 1);
    commit(&mut ledger, fx.proposer(), gen.writes(1))?;
    let root = ledger.tip().header.state_root;
    let (mut prove, mut verify) = (Samples::new(), Samples::new());
    let mut bytes = 0usize;
    let probes = 500;
    for addr in fx.accounts.iter().take(probes) {
        let key = LeafKey::Account(*addr);
        let started = Instant::now();
        let proof = black_box(ledger.prove_state(black_box(&key)));
        prove.push(started.elapsed());
        let started = Instant::now();
        let ok = black_box(proof.verify_against(black_box(&root)));
        verify.push(started.elapsed());
        if !ok || proof.value.is_none() {
            return Err(format!("proof of {addr} does not verify"));
        }
        bytes += proof.proof.size_bytes();
    }
    layers.insert("auth.prove_us", prove.mean_us());
    layers.insert("auth.proof_verify_us", verify.mean_us());
    layers.insert("auth.proof_bytes", bytes as f64 / probes as f64);
    Ok(())
}

/// `receipt.*`: build a proof-carrying receipt out of a thin and a fat
/// block, and verify it.
fn receipt_probe(seed: u64, layers: &mut Layers) -> Res<()> {
    let fx = Fixture::new(seed);
    let mut ledger = fx.ledger(Metrics::noop());
    let mut gen = TxGen::new(seed, &fx.keys, &fx.accounts, 1);
    let (mut thin, mut fat, mut verify) = (Samples::new(), Samples::new(), Samples::new());
    for size in [1usize, FAT] {
        let txs = if size == 1 {
            gen.writes(1)
        } else {
            gen.round(0, SENDERS, FAT / SENDERS)
        };
        let ids: Vec<_> = txs.iter().map(Transaction::id).collect();
        commit(&mut ledger, fx.proposer(), txs)?;
        let root = ledger.tip().header.tx_root;
        let repeats = if size == 1 { 256 } else { 1 };
        for id in ids.iter().cycle().take(ids.len() * repeats) {
            let started = Instant::now();
            let receipt = black_box(ledger.tx_receipt(black_box(id)));
            if size == 1 { &mut thin } else { &mut fat }.push(started.elapsed());
            let receipt = receipt.ok_or("committed transaction has no receipt")?;
            let started = Instant::now();
            let ok = black_box(receipt.verify_against(black_box(&root)));
            verify.push(started.elapsed());
            if !ok {
                return Err(format!("receipt of {id:?} does not verify"));
            }
        }
    }
    layers.insert("receipt.build_us_1", thin.mean_us());
    layers.insert("receipt.build_us_256", fat.mean_us());
    layers.insert("receipt.verify_us", verify.mean_us());
    Ok(())
}

/// `codec.*` and `sig.*`: decode a `Submit` frame payload, verify its
/// signature.
fn ingress_probe(seed: u64, layers: &mut Layers) -> Res<()> {
    let fx = Fixture::new(seed);
    let txs = TxGen::new(seed, &fx.keys, &fx.accounts, 1).writes(2_000);
    let (mut decode, mut verify) = (Samples::new(), Samples::new());
    for tx in txs {
        let payload = GatewayRequest::Submit {
            tx,
            priority: false,
        }
        .encoded();
        let started = Instant::now();
        let request = black_box(GatewayRequest::decoded(black_box(&payload)));
        decode.push(started.elapsed());
        let Ok(GatewayRequest::Submit { tx, .. }) = request else {
            return Err("Submit frame does not decode".into());
        };
        let started = Instant::now();
        let ok = black_box(tx.verify(black_box(&fx.registry)));
        verify.push(started.elapsed());
        if !ok {
            return Err("pre-signed transaction fails verification".into());
        }
    }
    layers.insert("codec.submit_decode_us", decode.mean_us());
    layers.insert("sig.verify_us", verify.mean_us());
    Ok(())
}

/// `wal.*`: append single-transaction blocks to a `DiskStore` alone,
/// without and with an fsync per append; the difference is the fsync.
fn wal_probe(env: &Env, layers: &mut Layers) -> Res<()> {
    let fx = Fixture::new(env.seed);
    let mut ledger = fx.ledger(Metrics::noop());
    let mut gen = TxGen::new(env.seed, &fx.keys, &fx.accounts, 1);
    let mut blocks = Vec::with_capacity(THIN_BLOCKS);
    for _ in 0..THIN_BLOCKS {
        commit(&mut ledger, fx.proposer(), gen.writes(1))?;
        blocks.push(ledger.tip().clone());
    }
    let mean_us = |name: &str, fsync: FsyncPolicy| -> Res<f64> {
        let dir = env.fresh_dir(name)?;
        let config = StorageConfig {
            fsync,
            snapshot_every: 0,
            ..StorageConfig::default()
        };
        let mut store = DiskStore::open(&dir, config).map_err(|e| e.to_string())?;
        let mut appends = Samples::new();
        for block in &blocks {
            let started = Instant::now();
            store
                .append(block, ledger.state())
                .map_err(|e| e.to_string())?;
            appends.push(started.elapsed());
        }
        Ok(appends.mean_us())
    };
    let buffered = mean_us("probe-wal-never", FsyncPolicy::Never)?;
    let synced = mean_us("probe-wal-always", FsyncPolicy::Always)?;
    layers.insert("wal.append_us", buffered);
    layers.insert("wal.fsync_us", (synced - buffered).max(0.0));
    Ok(())
}

/// `pages.*`: write extents to a `PageStore` alone, then read them back
/// through a cache a hundredth of their number, so nearly every read
/// faults.
fn pages_probe(env: &Env, layers: &mut Layers) -> Res<()> {
    let dir = env.fresh_dir("probe-pages")?;
    let store = PageStore::open(&dir.join("pages.bin"), 4, Metrics::noop())
        .map_err(|e| format!("page store: {e}"))?;
    let payload = vec![0xA5u8; 3_000];
    let (mut writes, mut faults) = (Samples::new(), Samples::new());
    let mut ids = Vec::new();
    for _ in 0..400 {
        let started = Instant::now();
        ids.push(
            store
                .write(&payload)
                .map_err(|e| format!("page write: {e}"))?,
        );
        writes.push(started.elapsed());
    }
    store.flush().map_err(|e| format!("page flush: {e}"))?;
    for id in &ids {
        let started = Instant::now();
        let read = black_box(store.read(*id)).map_err(|e| format!("page read: {e}"))?;
        faults.push(started.elapsed());
        if read != payload {
            return Err("page read back different bytes".into());
        }
    }
    layers.insert("pages.write_us", writes.mean_us());
    layers.insert("pages.fault_us", faults.mean_us());
    Ok(())
}

/// The probes of the layers `workload` is mapped to.
pub fn probes(workload: &str, env: &Env) -> Res<Layers> {
    let mut layers = Layers::new();
    match workload {
        "gateway_mem" => {
            ingress_probe(env.seed, &mut layers)?;
            ledger_probe(env.seed, 1, &mut layers)?;
        }
        "gateway_wal" => wal_probe(env, &mut layers)?,
        "sharded_mixed" => auth_probe(env.seed, &mut layers)?,
        "bulk_blocks" => {
            ledger_probe(env.seed, FAT, &mut layers)?;
            exec_probe(env.seed, &mut layers)?;
            auth_probe(env.seed, &mut layers)?;
            receipt_probe(env.seed, &mut layers)?;
        }
        "paged_blocks" => pages_probe(env, &mut layers)?,
        _ => {}
    }
    Ok(layers)
}
