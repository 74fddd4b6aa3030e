//! End-to-end ingress tests (DESIGN.md §10): a real TCP [`Client`]
//! against a [`MedicalNetwork`] / [`ShardedNetwork`] gateway.
//!
//! Covered: (1) submit → `PendingTx` → `TxReceipt` over TCP with the
//! proof checked against an **independently read** committed block
//! root, (2) the Lamport-safety regression — re-submitting a signed
//! transaction never re-runs signature verification, (3) fee-gated
//! priority-lane admission, and (4) the sharded topology routing
//! gateway traffic onto the right sub-chains.

use medchain::gateway::{GatewayBackend, GatewayServer};
use medchain::{Client, GatewayConfig, MedicalNetwork, NetworkError, TransportKind};
use medchain_chain::node::SubmitOutcome;
use medchain_chain::receipt::TxReceipt;
use medchain_chain::shard::{shard_for_key, ShardId};
use medchain_chain::{AuthorityKey, Hash256, KeyRegistry, Lane, SealedTx, Transaction, TxPayload};
use medchain_runtime::metrics::Registry;
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
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
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
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
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
            // Retry while still pending: answered from the dedup window.
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

    // One transaction, three submissions: exactly one signature check —
    // a one-time-signature scheme must never see a second verification
    // of the same submission (Lamport safety).
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
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
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

/// Lamport-safety regression for the full-mempool path: a transaction
/// bounced with `mempool full` was verified but never admitted, so its
/// resubmission must be served from the verified-tx holding pen — one
/// signature check total, not one per attempt.
#[test]
fn full_mempool_retry_never_reverifies_a_signature() {
    let registry = Registry::new();
    let key = AuthorityKey::from_seed(0x5151);
    let mut enrolled = KeyRegistry::new();
    enrolled.enroll(&key);
    let mut backend =
        FlakyPool { registry: enrolled, full_answers: 1, attempts: 0, admitted: Vec::new() };
    let mut gateway = GatewayServer::start(
        GatewayConfig { clients: 0, ..GatewayConfig::default() },
        registry.handle(),
    )
    .expect("gateway starts");
    let addr = gateway.addr();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("connects");
            let tx = Transaction::new(key.address(), 0, anchor("full/retry"), 1_000).signed(&key);
            // First attempt: verified, then bounced by the full mempool.
            let err = client.submit(&tx, false).expect_err("mempool full");
            assert!(err.to_string().contains("mempool full"), "got: {err}");
            // Retry: admission succeeds without new signature work.
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
        1,
        "the bounced tx must be retried from the verified cache"
    );
    assert_eq!(registry.counter_value("gateway.cached_retries"), 1);
    gateway.shutdown();
}

/// Durability regression: a committed transaction must answer
/// `Committed` even after its id ages out of the bounded dedup window —
/// the receipt lookup, not the window, is the source of truth.
#[test]
fn committed_status_survives_seen_window_eviction() {
    let mut builder = MedicalNetwork::builder().block_interval_ms(20).gateway(GatewayConfig {
        clients: 1,
        dedup_capacity: 2,
        ..GatewayConfig::default()
    });
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
            // Churn the 2-slot seen window until `first` is evicted.
            for (nonce, label) in [(1, "evict/second"), (2, "evict/third")] {
                let tx = Transaction::new(key.address(), nonce, anchor(label), 1_000).signed(key);
                let later = client.submit(&tx, false).expect("accepted");
                client.wait_receipt(&later, COMMIT_TIMEOUT).expect("commits");
            }
            // The window forgot `first`; its receipt must not have.
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

#[test]
fn priority_is_fee_gated() {
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
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

#[test]
fn sharded_gateway_routes_and_proves_on_the_right_sub_chain() {
    let shards = 2u16;
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .shards(shards)
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
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
