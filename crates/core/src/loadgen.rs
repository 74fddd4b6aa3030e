//! Open-loop load generator for the ingress gateway (DESIGN.md §10).
//!
//! [`run_sessions`] models a population of independent client devices:
//! `sessions` concurrent TCP connections, each submitting anchors with
//! **Poisson arrivals** (exponential inter-arrival times drawn from a
//! per-session [`DetRng`]) — open-loop, so arrival pressure does not
//! slacken when the chain falls behind, which is what exposes
//! backpressure. A configurable fraction of traffic hits one **hot
//! anchor label** (skewed routing onto a single shard) and a fraction
//! requests the **priority lane**. Every committed transaction's
//! [`medchain_chain::receipt::TxReceipt`] proof is verified client-side;
//! commit latency is measured from submission to observed commit and
//! reported as p50/p99/max.

use crate::client::{Client, ClientError, PendingTx};
use medchain_chain::shard::shard_for_key;
use medchain_chain::{AuthorityKey, Hash256, Transaction, TxPayload};
use medchain_runtime::rng::DetRng;
use medchain_runtime::sync::scoped_map_indexed;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client sessions (each one TCP connection + key).
    pub sessions: usize,
    /// Transactions submitted per session.
    pub txs_per_session: usize,
    /// Mean of the exponential inter-arrival distribution, per session.
    pub mean_interarrival_ms: f64,
    /// Fraction of submissions targeting the single hot anchor label
    /// (0.0–1.0): hot-key skew concentrates load on one shard.
    pub hot_fraction: f64,
    /// Fraction of submissions requesting the priority lane (0.0–1.0).
    pub priority_fraction: f64,
    /// Shard count of the serving network (1 for a flat chain) — used
    /// for client-side nonce tracking, which is per sub-chain.
    pub shards: u16,
    /// Base seed; session `i` derives its own stream from it.
    pub seed: u64,
    /// How long the final drain waits per outstanding transaction.
    pub commit_timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            sessions: 8,
            txs_per_session: 25,
            mean_interarrival_ms: 2.0,
            hot_fraction: 0.2,
            priority_fraction: 0.1,
            shards: 1,
            seed: 7,
            commit_timeout: Duration::from_secs(20),
        }
    }
}

/// Aggregate outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Transactions submitted across all sessions.
    pub submitted: usize,
    /// Submissions the gateway accepted into a mempool.
    pub accepted: usize,
    /// Submissions the gateway rejected (typically backpressure).
    pub rejected: usize,
    /// Accepted transactions whose commit was observed in time.
    pub committed: usize,
    /// Accepted transactions that did not commit before the deadline.
    pub timeouts: usize,
    /// Receipts whose Merkle proof failed client-side verification
    /// (must stay zero against an honest gateway).
    pub proof_failures: usize,
    /// Priority-lane admissions observed by clients.
    pub priority_accepted: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Committed transactions per second of wall clock.
    pub tps: f64,
    /// Median submit→commit latency.
    pub p50_ms: f64,
    /// 99th-percentile submit→commit latency.
    pub p99_ms: f64,
    /// Worst observed submit→commit latency.
    pub max_ms: f64,
}

/// One session's share of the run, merged by [`run_sessions`].
struct SessionOutcome {
    submitted: usize,
    accepted: usize,
    rejected: usize,
    committed: usize,
    timeouts: usize,
    proof_failures: usize,
    priority_accepted: usize,
    latencies: Vec<Duration>,
}

fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1_000.0
}

/// The label every hot submission anchors under.
const HOT_LABEL: &str = "hot/registry";

fn run_one_session(
    addr: SocketAddr,
    key: &AuthorityKey,
    session: usize,
    cfg: &LoadConfig,
) -> Result<SessionOutcome, ClientError> {
    let mut rng = DetRng::from_seed(cfg.seed ^ (0x5e55_0000 + session as u64));
    let mut client = Client::connect(addr)?;
    let sender = key.address();
    // Nonces are per sub-chain: route the label first, then reserve the
    // next nonce on that chain.
    let mut nonces: HashMap<u16, u64> = HashMap::new();
    let mut outstanding: VecDeque<(PendingTx, Instant)> = VecDeque::new();
    let mut out = SessionOutcome {
        submitted: 0,
        accepted: 0,
        rejected: 0,
        committed: 0,
        timeouts: 0,
        proof_failures: 0,
        priority_accepted: 0,
        latencies: Vec::new(),
    };

    for t in 0..cfg.txs_per_session {
        // Exponential inter-arrival: -mean * ln(1 - U).
        let wait = -cfg.mean_interarrival_ms * (1.0 - rng.gen_f64()).ln();
        std::thread::sleep(Duration::from_secs_f64(wait.max(0.0) / 1_000.0));

        let hot = rng.gen_bool(cfg.hot_fraction);
        let label = if hot {
            HOT_LABEL.to_string()
        } else {
            format!("session-{session}/doc-{t}")
        };
        let root = Hash256::digest(format!("{session}:{t}:{label}").as_bytes());
        let shard = shard_for_key(label.as_bytes(), cfg.shards);
        let nonce_slot = nonces.entry(shard.0).or_insert(0);
        let nonce = *nonce_slot;
        *nonce_slot += 1;
        let priority = rng.gen_bool(cfg.priority_fraction);
        // Priority is fee-gated: back the request with gas above the
        // gateway's floor, or it is coerced onto the normal lane.
        let gas_limit = if priority { 20_000 } else { 1_000 };
        let tx = Transaction::new(sender, nonce, TxPayload::Anchor { root, label }, gas_limit)
            .signed(key);
        out.submitted += 1;
        match client.submit(&tx, priority) {
            Ok(pending) => {
                out.accepted += 1;
                if pending.lane == medchain_chain::Lane::Priority {
                    out.priority_accepted += 1;
                }
                outstanding.push_back((pending, Instant::now()));
            }
            Err(ClientError::Rejected { .. }) => {
                out.rejected += 1;
                // The nonce never reached the chain; reuse it, or every
                // later submission on this sub-chain is a gap.
                *nonces.get_mut(&shard.0).expect("slot exists") -= 1;
            }
            Err(e) => return Err(e),
        }
        // Opportunistic poll: settle the oldest in-flight transaction
        // without blocking the arrival process.
        if let Some((pending, at)) = outstanding.front().copied() {
            match client_poll(&mut client, &pending)? {
                Poll::Committed => {
                    out.committed += 1;
                    out.latencies.push(at.elapsed());
                    outstanding.pop_front();
                }
                Poll::BadProof => {
                    out.proof_failures += 1;
                    outstanding.pop_front();
                }
                Poll::Pending => {}
            }
        }
    }

    // Final drain: the chain keeps committing while we wait.
    while let Some((pending, at)) = outstanding.pop_front() {
        match client.wait_receipt(&pending, cfg.commit_timeout) {
            Ok(_) => {
                out.committed += 1;
                out.latencies.push(at.elapsed());
            }
            Err(ClientError::Timeout(_)) => out.timeouts += 1,
            Err(ClientError::BadProof(_)) => out.proof_failures += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

enum Poll {
    Committed,
    Pending,
    BadProof,
}

fn client_poll(client: &mut Client, pending: &PendingTx) -> Result<Poll, ClientError> {
    use crate::gateway::GatewayResponse;
    match client.status(pending.tx_id)? {
        GatewayResponse::Committed { receipt } => {
            if receipt.tx_id == pending.tx_id && receipt.verify() {
                Ok(Poll::Committed)
            } else {
                Ok(Poll::BadProof)
            }
        }
        _ => Ok(Poll::Pending),
    }
}

/// Runs `cfg.sessions` concurrent client sessions against the gateway
/// at `addr`, one OS thread and one key per session. `keys` must hold
/// at least `cfg.sessions` enrolled keys (use
/// [`crate::network::Network::client_keys`]).
///
/// Sessions that fail on I/O are dropped from the aggregate (their
/// error is counted as every remaining transaction rejected); the
/// serving network going away mid-run therefore degrades the report
/// instead of panicking the generator.
///
/// # Panics
///
/// Panics if `keys` holds fewer than `cfg.sessions` keys.
pub fn run_sessions(addr: SocketAddr, keys: &[AuthorityKey], cfg: &LoadConfig) -> LoadReport {
    assert!(
        keys.len() >= cfg.sessions,
        "{} sessions need {} enrolled client keys, got {}",
        cfg.sessions,
        cfg.sessions,
        keys.len()
    );
    let started = Instant::now();
    let outcomes = scoped_map_indexed(cfg.sessions, |session| {
        run_one_session(addr, &keys[session], session, cfg)
    });
    let elapsed = started.elapsed();

    let mut report = LoadReport { elapsed, ..LoadReport::default() };
    let mut latencies: Vec<Duration> = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(out) => {
                report.submitted += out.submitted;
                report.accepted += out.accepted;
                report.rejected += out.rejected;
                report.committed += out.committed;
                report.timeouts += out.timeouts;
                report.proof_failures += out.proof_failures;
                report.priority_accepted += out.priority_accepted;
                latencies.extend(out.latencies);
            }
            Err(_) => report.rejected += 1,
        }
    }
    latencies.sort();
    report.tps = if elapsed.as_secs_f64() > 0.0 {
        report.committed as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    };
    report.p50_ms = percentile_ms(&latencies, 0.50);
    report.p99_ms = percentile_ms(&latencies, 0.99);
    report.max_ms = percentile_ms(&latencies, 1.0);
    report
}
