//! End-to-end ingress tests (DESIGN.md §10): a real TCP [`Client`]
//! against a [`MedicalNetwork`] / [`ShardedNetwork`] gateway.
//!
//! Covered: (1) submit → `PendingTx` → `TxReceipt` over TCP with the
//! proof checked against an **independently read** committed block
//! root, (2) dedup before signature work — re-submitting a signed
//! transaction the chain knows never re-runs signature verification,
//! even across a restart, (3) fee-gated priority-lane admission, (4)
//! the sharded topology routing gateway traffic onto the right
//! sub-chains, and (5) the snapshot stream a wiped site rejoins
//! through.

use medchain::bootstrap::stream_into;
use medchain::gateway::{GatewayBackend, GatewayRequest, GatewayResponse, GatewayServer};
use medchain::{Client, GatewayConfig, MedicalNetwork, NetworkError, TransportKind};
use medchain_chain::node::SubmitOutcome;
use medchain_chain::receipt::TxReceipt;
use medchain_chain::shard::{shard_for_key, ShardId};
use medchain_chain::{
    AuthorityKey, Hash256, KeyRegistry, Lane, Ledger, SealedTx, Transaction, TxPayload,
};
use medchain_contracts::runtime::Runtime;
use medchain_runtime::metrics::Registry;
use medchain_storage::{DiskStore, StorageConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const COMMIT_TIMEOUT: Duration = Duration::from_secs(30);

fn anchor(label: &str) -> TxPayload {
    TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label: label.to_string() }
}

#[test]
fn tcp_round_trip_receipt_verifies_against_committed_root() {
    let registry = Registry::new();
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .transport(TransportKind::Tcp)
        .metrics(registry.handle())
        .gateway(GatewayConfig { clients: 1 });
    for i in 0..3 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("TCP gateway network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    let stop = AtomicBool::new(false);
    let receipt = std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            let tx = Transaction::new(key.address(), 0, anchor("e2e/emr"), 1_000).signed(key);
            let pending = client.submit(&tx, false).expect("accepted");
            assert_eq!(pending.tx_id, tx.id());
            // wait_receipt verifies the proof locally before returning.
            let receipt = client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
            stop.store(true, Ordering::Relaxed);
            receipt
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread")
    });

    // Trustless check against a root the gateway never touched: read the
    // committed block straight from a validator's ledger.
    let root = net
        .ledger()
        .block(receipt.height)
        .expect("block retained")
        .header
        .tx_root;
    assert!(receipt.verify_against(&root), "receipt proof fails against the real block root");
    assert!(receipt.ok);
    // The ingress pipeline metered itself.
    assert!(registry.counter_value("gateway.requests") >= 1);
    assert!(registry.counter_value("gateway.accepted") >= 1);
    net.shutdown();
}

#[test]
fn resubmission_never_reverifies_a_signature() {
    let registry = Registry::new();
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .metrics(registry.handle())
        .gateway(GatewayConfig { clients: 1 });
    for i in 0..3 {
        builder = builder.site(&format!("h{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            let tx = Transaction::new(key.address(), 0, anchor("dup/doc"), 1_000).signed(key);
            let pending = client.submit(&tx, false).expect("accepted");
            // Retry while still pending: answered from the pool's id set.
            let again = client.submit(&tx, false).expect("idempotent");
            assert_eq!(again.tx_id, pending.tx_id);
            client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
            // Retry after commit: answered straight from the receipt.
            let after = client.submit(&tx, false).expect("still idempotent");
            assert_eq!(after.tx_id, pending.tx_id);
            stop.store(true, Ordering::Relaxed);
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread");
    });

    // One transaction, three submissions: exactly one signature check.
    // Checking an HMAC twice would be safe, only wasted: dedup exists
    // to save that cost.
    assert_eq!(registry.counter_value("gateway.sig_checks"), 1);
    assert!(registry.counter_value("gateway.dedup_hits") >= 2);
    net.shutdown();
}

/// Drain regression: a transaction admitted above its sender's next
/// nonce stays pooled (blocks take gap-free runs only) while PoA keeps
/// committing empty blocks, so an unbounded "drain until the pool is
/// empty" tail never returns once `stop` is raised. The serve loop must
/// give up after a few fruitless blocks and say why.
#[test]
fn tail_drain_ends_on_a_nonce_gap() {
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .gateway(GatewayConfig { clients: 1 });
    for i in 0..3 {
        builder = builder.site(&format!("h{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let key = net.client_keys()[0].clone();
    // Nonce 1; nonce 0 is never sent.
    let tx = Transaction::new(key.address(), 1, anchor("gap/doc"), 1_000).signed(&key);

    let stop = AtomicBool::new(false);
    let served = std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connects");
            client.submit(&tx, false).expect("a future nonce is admissible");
            stop.store(true, Ordering::Relaxed);
        });
        let served = net.serve_until(&stop);
        client_side.join().expect("client thread");
        served
    });

    assert_eq!(served, Err(NetworkError::DrainStalled { pending: 1 }));
    // Given up on, not lost: the transaction is still pooled.
    assert!(net.is_pending(&tx.id()));
    assert!(net.find_receipt(&tx.id()).is_none());
    net.shutdown();
}

/// Backend stub that answers `Full` for the first `full_answers`
/// admissions, then admits — the "mempool briefly saturated" scenario.
struct FlakyPool {
    registry: KeyRegistry,
    full_answers: usize,
    attempts: usize,
    admitted: Vec<Hash256>,
}

impl GatewayBackend for FlakyPool {
    fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    fn admit(&mut self, tx: SealedTx, lane: Lane) -> (ShardId, SubmitOutcome) {
        self.attempts += 1;
        if self.attempts <= self.full_answers {
            (ShardId::default(), SubmitOutcome::Full)
        } else {
            self.admitted.push(tx.id());
            (ShardId::default(), SubmitOutcome::Admitted { lane, replaced: false })
        }
    }

    fn find_receipt(&self, _tx_id: &Hash256) -> Option<TxReceipt> {
        None
    }

    fn is_pending(&self, tx_id: &Hash256) -> bool {
        self.admitted.contains(tx_id)
    }
}

/// The full-mempool path: a transaction bounced with `mempool full` was
/// verified but never admitted, so nothing remembers it and its retry
/// is checked again — one HMAC check per attempt (safe to repeat, only
/// one check's cost) — and then admitted.
#[test]
fn full_mempool_retry_is_admitted() {
    let registry = Registry::new();
    let key = AuthorityKey::from_seed(0x5151);
    let mut enrolled = KeyRegistry::new();
    enrolled.enroll(&key);
    let mut backend =
        FlakyPool { registry: enrolled, full_answers: 1, attempts: 0, admitted: Vec::new() };
    let mut gateway = GatewayServer::start(registry.handle()).expect("gateway starts");
    let addr = gateway.addr();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connects");
            let tx = Transaction::new(key.address(), 0, anchor("full/retry"), 1_000).signed(&key);
            // First attempt: verified, then bounced by the full mempool.
            let err = client.submit(&tx, false).expect_err("mempool full");
            assert!(err.to_string().contains("mempool full"), "got: {err}");
            // Retry: checked again, then admitted.
            let pending = client.submit(&tx, false).expect("admitted on retry");
            assert_eq!(pending.tx_id, tx.id());
            done.store(true, Ordering::Relaxed);
        });
        while !done.load(Ordering::Relaxed) {
            gateway.pump(&mut backend);
            std::thread::sleep(Duration::from_millis(1));
        }
        client_side.join().expect("client thread");
    });

    assert_eq!(backend.attempts, 2, "one bounced admission, one successful");
    assert_eq!(
        registry.counter_value("gateway.sig_checks"),
        2,
        "a bounced tx was never admitted, so its retry is checked again"
    );
    gateway.shutdown();
}

/// Durability regression: a committed transaction keeps answering
/// `Committed` while later transactions commit after it — the receipt
/// lookup is the source of truth.
#[test]
fn committed_status_survives_seen_window_eviction() {
    let mut builder =
        MedicalNetwork::builder().block_interval_ms(20).gateway(GatewayConfig { clients: 1 });
    for i in 0..3 {
        builder = builder.site(&format!("h{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            let first = Transaction::new(key.address(), 0, anchor("evict/first"), 1_000).signed(key);
            let pending = client.submit(&first, false).expect("accepted");
            client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
            // Commit two more after `first`.
            for (nonce, label) in [(1, "evict/second"), (2, "evict/third")] {
                let tx = Transaction::new(key.address(), nonce, anchor(label), 1_000).signed(key);
                let later = client.submit(&tx, false).expect("accepted");
                client.wait_receipt(&later, COMMIT_TIMEOUT).expect("commits");
            }
            // Later commits must not hide `first`'s receipt.
            let receipt =
                client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("still committed");
            assert_eq!(receipt.tx_id, first.id());
            assert!(receipt.verify());
            stop.store(true, Ordering::Relaxed);
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread");
    });
    net.shutdown();
}

/// The chain is the gateway's only memory of transactions: after a
/// restart the new gateway remembers nothing, yet a resubmitted
/// committed transaction is answered with its receipt from the
/// recovered ledger and costs no signature check.
#[test]
fn dedup_survives_a_gateway_restart() {
    let dir = std::env::temp_dir()
        .join(format!("medchain-itest-{}-gateway-restart", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    let life = |registry: &Registry| {
        let mut builder = MedicalNetwork::builder()
            .block_interval_ms(20)
            .storage(&dir)
            .metrics(registry.handle())
            .gateway(GatewayConfig { clients: 1 });
        for i in 0..3 {
            builder = builder.site(&format!("h{i}"), Vec::new());
        }
        builder.build().expect("network builds")
    };
    // Serves `net` while `client` runs against its gateway; the serve
    // loop stops when the client is done, panicking or not.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let serve = |net: &mut MedicalNetwork, client: &(dyn Fn(&mut Client) + Sync)| {
        let addr = net.gateway_addr().expect("gateway listening");
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let client_side = scope.spawn(|| {
                let _stop = Stop(&stop);
                client(&mut Client::connect(addr).expect("connects"));
            });
            net.serve_until(&stop).expect("serving succeeds");
            client_side.join().expect("client thread");
        });
    };

    let first = Registry::new();
    let mut net = life(&first);
    let key = net.client_keys()[0].clone();
    let tx = Transaction::new(key.address(), 0, anchor("restart/doc"), 1_000).signed(&key);
    serve(&mut net, &|client| {
        let pending = client.submit(&tx, false).expect("accepted");
        client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
    });
    assert_eq!(first.counter_value("gateway.sig_checks"), 1);
    net.shutdown();
    drop(net);

    let second = Registry::new();
    let mut net = life(&second);
    assert!(net.resumed());
    serve(&mut net, &|client| {
        let reply = client
            .call(&GatewayRequest::Submit { tx: tx.clone(), priority: false })
            .expect("answered");
        let GatewayResponse::Committed { receipt } = reply else {
            panic!("expected the recovered receipt, got {reply:?}")
        };
        assert_eq!(receipt.tx_id, tx.id());
        assert!(receipt.verify());
    });
    assert_eq!(second.counter_value("gateway.sig_checks"), 0, "the chain answered, not a check");
    net.shutdown();
    drop(net);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn priority_is_fee_gated() {
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .gateway(GatewayConfig { clients: 1 });
    for i in 0..3 {
        builder = builder.site(&format!("h{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            // Gas above the floor: priority honored.
            let rich = Transaction::new(key.address(), 0, anchor("lane/rich"), 20_000).signed(key);
            let pending = client.submit(&rich, true).expect("accepted");
            assert_eq!(pending.lane, Lane::Priority);
            client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
            // Gas below the floor: the request is coerced to normal.
            let poor = Transaction::new(key.address(), 1, anchor("lane/poor"), 1_000).signed(key);
            let pending = client.submit(&poor, true).expect("accepted");
            assert_eq!(pending.lane, Lane::Normal);
            client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
            stop.store(true, Ordering::Relaxed);
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread");
    });
    net.shutdown();
}

/// The public gateway is the one snapshot server, and this is the one
/// stream that crosses a socket: on a second thread, a genesis ledger
/// fetches the manifest and chunks from a serving network's gateway
/// through `Client::call` and asks it for the block tail above them,
/// lands on the network's tip, and the joiner's directory then recovers
/// natively with no peer at all.
#[test]
fn wiped_ledger_streams_from_the_public_gateway() {
    let dir = std::env::temp_dir()
        .join(format!("medchain-itest-{}-gateway-stream", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .gateway(GatewayConfig { clients: 1 });
    for i in 0..3 {
        builder = builder.site(&format!("h{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    // A wiped site: the cohort's chain id, registry and runtime, at genesis.
    let registry = net.registry().clone();
    let joiner = || Ledger::new("medchain", registry.clone(), Box::new(Runtime::standard()));
    let mut ledger = joiner();
    let mut store = DiskStore::open(&dir, StorageConfig::default()).expect("store opens");

    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        let joiner_side = scope.spawn(|| {
            let report = Client::connect(addr).map_err(Into::into).and_then(|mut client| {
                stream_into(|request| client.call(request), &mut ledger, &mut store)
            });
            stop.store(true, Ordering::Relaxed);
            report
        });
        net.serve_until(&stop).expect("serving succeeds");
        joiner_side.join().expect("joiner thread")
    })
    .expect("streams from the public gateway");

    let tip = net.ledger().tip().id();
    assert_eq!(report.height, net.height());
    assert!(report.chunks_fetched > 0);
    assert_eq!(ledger.tip().id(), tip, "streamed tip differs from the network's");
    drop(store);

    let mut store = DiskStore::open(&dir, StorageConfig::default()).expect("store reopens");
    let mut recovered = joiner();
    let recovery = store.recover_into(&mut recovered).expect("joiner recovers natively");
    assert_eq!(recovery.tip_id, tip);
    assert_eq!(recovered.tip().id(), tip);
    net.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sharded_gateway_routes_and_proves_on_the_right_sub_chain() {
    let shards = 2u16;
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .shards(shards)
        .gateway(GatewayConfig { clients: 1 });
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build_sharded().expect("sharded gateway network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    let stop = AtomicBool::new(false);
    let receipts = std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            // Nonces are per sub-chain: route each label first, then
            // pick the next nonce on that chain.
            let mut nonces: HashMap<u16, u64> = HashMap::new();
            let mut receipts = Vec::new();
            for label in ["ward/alpha", "ward/beta", "ward/gamma", "ward/delta"] {
                let shard = shard_for_key(label.as_bytes(), shards);
                let slot = nonces.entry(shard.0).or_insert(0);
                let nonce = *slot;
                *slot += 1;
                let tx =
                    Transaction::new(key.address(), nonce, anchor(label), 1_000).signed(key);
                let pending = client.submit(&tx, false).expect("accepted");
                assert_eq!(pending.shard, shard, "gateway must route by the anchor label");
                receipts.push((shard, client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits")));
            }
            stop.store(true, Ordering::Relaxed);
            receipts
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread")
    });

    let mut shards_hit = [false; 2];
    for (shard, receipt) in &receipts {
        assert_eq!(receipt.shard, *shard);
        // Independent root from the sub-chain the tx was routed to.
        let root = net
            .ledger_of_shard(*shard)
            .block(receipt.height)
            .expect("block retained")
            .header
            .tx_root;
        assert!(receipt.verify_against(&root), "proof fails on {shard}");
        shards_hit[shard.0 as usize] = true;
    }
    assert!(shards_hit.iter().all(|&h| h), "labels should spread over both sub-chains");
    net.shutdown();
}

/// The gateway's one-slot snapshot cache remembers which chain it holds:
/// after serving shard 1's manifest, a chunk request for shard 0 at the
/// same height is refused instead of being answered from shard 1's
/// payload, and shard 0's own manifest replaces the slot.
#[test]
fn snapshot_stream_cache_is_keyed_by_chain() {
    let mut builder = MedicalNetwork::builder().block_interval_ms(20).shards(2);
    for i in 0..2 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build_sharded().expect("sharded network builds");
    net.advance(1).expect("both shards commit");
    let manifest = net.snapshot_manifest(ShardId(1)).expect("shard 1 offers a snapshot");
    assert_eq!(net.ledger_of_shard(ShardId(0)).height(), manifest.height);
    assert!(net.snapshot_chunk(ShardId(1), manifest.height, 0).is_some());
    assert!(net.snapshot_chunk(ShardId(0), manifest.height, 0).is_none());

    let other = net.snapshot_manifest(ShardId(0)).expect("shard 0 offers a snapshot");
    assert_eq!(other.height, manifest.height);
    assert_ne!(other.tip_id, manifest.tip_id, "each shard snapshots its own chain");
    assert_eq!(other.tip_id, net.ledger_of_shard(ShardId(0)).tip().id());
    assert!(net.snapshot_chunk(ShardId(0), other.height, 0).is_some());
    assert!(net.snapshot_chunk(ShardId(1), manifest.height, 0).is_none());
    net.shutdown();
}
