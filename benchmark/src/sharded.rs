//! `sharded_mixed`: the two-shard consortium, storage off.
//!
//! Every window has the same mix. Over TCP, one closed-loop client
//! issues 64 requests: 70% writes (routed across both sub-chains)
//! beside 30% proven reads (half home-presence, half away-absence) on
//! the same serve thread, so a gain for one that costs the other shows.
//! Then, in process while the client waits, 32 cross-shard transfers by
//! two-phase commit through the coordinator chain. All three kinds of
//! operation count in the throughput; the median latency is the
//! writes'. Routing, the coordinator chain, cross-links,
//! `resolve_cross_shard` sweeps and `prove_state` run only in this
//! workload.

use crate::common::{admit, consortium, fund_all, Env, Report, Res, PREFILL_ACCOUNTS, SITES};
use crate::gen::{self, Op, TxGen, PREFILL_BALANCE};
use crate::stats::Samples;
use crate::tcp::{self, Turn};
use crate::trace::Tracer;
use medchain::{GatewayBackend, ShardedNetwork};
use medchain_chain::{Address, AuthorityKey, ShardId};
use std::time::{Duration, Instant};

const SHARDS: u16 = 2;
/// Warm-up blocks: the first block after out-of-band funding rebuilds
/// each sub-chain's whole state tree, which is warm-up, not steady
/// state; the rest settle the proofs' header roots.
const WARMUP_BLOCKS: usize = 16;
/// Share of the TCP requests that are proven reads.
const READ_SHARE: f64 = 0.30;
/// Pre-generated TCP requests per second of run (reads are several
/// times quicker than writes, hence more than the gateway workloads).
const STREAM_PER_SECOND: f64 = 4_000.0;
/// Cross-shard transfers after every window of TCP requests: at about
/// 1 ms each beside 64 requests of 1–2.5 ms, a fifth of the window's
/// time, so that a slower two-phase commit shows in the throughput.
const XS_PER_WINDOW: usize = 32;
/// Pre-generated transfers per second of run, about twice what the
/// windows of a second use.
const TRANSFERS_PER_SECOND: f64 = 400.0;
const TRANSFER_AMOUNT: u64 = 1_000;
/// Accounts set aside to receive the cross-shard transfers.
const XS_RECIPIENTS: usize = 256;

pub struct Sharded {
    net: ShardedNetwork,
    ops: Vec<Op>,
    /// `(sending site, receiving account on the other shard)`.
    transfers: Vec<(usize, Address)>,
}

pub fn setup(env: &Env) -> Res<Sharded> {
    let mut net = consortium(env)
        .shards(SHARDS)
        .build_sharded()
        .map_err(|e| format!("build: {e}"))?;
    let keys = net.client_keys().to_vec();
    // The transfers' recipients are accounts the TCP writes never touch,
    // so that the supply over senders and recipients is moved by the
    // transfers alone.
    let mut accounts = gen::accounts(env.seed, PREFILL_ACCOUNTS + XS_RECIPIENTS);
    let recipients = accounts.split_off(PREFILL_ACCOUNTS);
    fund_all(|a, v| net.fund(a, v), &keys, &accounts);
    let site_addrs: Vec<Address> = (0..SITES)
        .map(|i| AuthorityKey::from_seed(i as u64).address())
        .collect();
    for addr in site_addrs.iter().chain(&recipients) {
        net.fund(*addr, PREFILL_BALANCE);
    }
    let mut gen = TxGen::new(env.seed, &keys, &accounts, SHARDS);
    for tx in gen.writes(WARMUP_BLOCKS) {
        admit(&mut net, &tx)?;
        net.advance(1).map_err(|e| e.to_string())?;
    }
    let requests = (env.seconds * STREAM_PER_SECOND).ceil() as usize;
    let ops = (0..requests).map(|_| gen.mixed_op(READ_SHARE)).collect();
    let count = (env.seconds * TRANSFERS_PER_SECOND).round().max(1.0) as usize;
    let mut to = TxGen::new(env.seed, &keys, &recipients, SHARDS);
    let transfers = (0..count)
        .map(|i| {
            let site = i % SITES;
            (site, to.account_away_from(&site_addrs[site]))
        })
        .collect();
    Ok(Sharded {
        net,
        ops,
        transfers,
    })
}

impl Sharded {
    pub fn run(self, env: &Env, tracer: &mut Tracer) -> Res<Report> {
        let Sharded {
            mut net,
            ops,
            transfers,
        } = self;
        let addr = net.gateway_addr().ok_or("gateway not listening")?;
        env.reset_counters();

        let mut watched: Vec<Address> = (0..SITES)
            .map(|i| AuthorityKey::from_seed(i as u64).address())
            .chain(transfers.iter().map(|(_, to)| *to))
            .collect();
        watched.sort();
        watched.dedup();
        let supply = |net: &ShardedNetwork| -> u128 {
            watched.iter().map(|a| u128::from(net.balance_of(a))).sum()
        };
        let supply_before = supply(&net);
        let coordinator_before = net.coordinator_ledger().height();

        let mut report = Report::default();
        let mut xs = Samples::new();
        let mut xs_failures = Vec::new();
        let mut xs_attempted = 0u64;
        let mut next_transfer = transfers.iter().enumerate();
        // The stock serve loop serves traced and untraced runs alike:
        // `ShardedNetwork` has no public per-committee advance to
        // replicate it with, so the TCP part is traced from the client's
        // side and the sink's counters.
        let run = tcp::drive_beside(
            addr,
            &ops,
            env.seconds,
            tracer.sibling(),
            &mut report,
            |turn| match turn {
                Turn::Serve(stop) => {
                    net.serve_until(stop).map_err(|e| e.to_string())?;
                    Ok((0, Duration::ZERO))
                }
                Turn::InProcess => {
                    let began = Instant::now();
                    let mut committed = 0;
                    for (i, (site, to)) in next_transfer.by_ref().take(XS_PER_WINDOW) {
                        xs_attempted += 1;
                        let began = Instant::now();
                        match transfer(&mut net, *site, *to, i as u64, tracer)? {
                            true => {
                                committed += 1;
                                xs.push(began.elapsed());
                            }
                            false => xs_failures.push(format!("transfer {i} aborted")),
                        }
                    }
                    Ok((committed, began.elapsed()))
                }
            },
        )?;
        run.check(&mut report);
        report.attempted += xs_attempted;
        report.failed += xs_failures.len() as u64;
        report.failures.append(&mut xs_failures);
        report.check(next_transfer.len() > 0, || {
            "the pre-generated cross-shard transfers ran out".into()
        });

        for r in &run.receipts {
            let root = block_of(&net, r.shard, r.height).map(|b| b.header.tx_root);
            report.check(root.is_some_and(|root| r.verify_against(&root)), || {
                format!(
                    "receipt of {:?} fails against header {} of {}",
                    r.tx_id, r.height, r.shard
                )
            });
            report.check(r.ok, || {
                format!("tx {:?} failed execution: {:?}", r.tx_id, r.error)
            });
        }
        // Every proof against the state root of the header it names,
        // read from the ledger; presence at home, absence away.
        let reads = ops.iter().filter_map(|op| match op {
            Op::Read(_, shard) => Some(shard.is_none()),
            Op::Write(_) => None,
        });
        for (present, proof) in reads.zip(&run.proofs) {
            let root = block_of(&net, proof.shard, proof.height).map(|b| b.header.state_root);
            report.check(root.is_some_and(|root| proof.verify_against(&root)), || {
                format!(
                    "proof of {:?} fails against header {}",
                    proof.key, proof.height
                )
            });
            report.check(proof.value.is_some() == present, || {
                format!("proof of {:?}: expected presence = {present}", proof.key)
            });
        }
        report.check(supply(&net) == supply_before, || {
            "total supply changed across the cross-shard transfers".into()
        });
        for addr in &watched {
            report.check(net.lock_of(addr).is_none(), || {
                format!("{addr} is still locked")
            });
        }
        let links = net.cross_link().map_err(|e| format!("cross-link: {e}"))?;
        for link in &links {
            report.check(net.verify_link(link).is_ok(), || {
                format!("{link} does not verify")
            });
        }
        let writes = report.ops().len();
        report.notes.push(format!(
            "commit samples {writes}  query samples {}  xs transfer samples {}  first poll {} us after Accepted",
            run.reads.len(),
            xs.len(),
            run.poll_after.as_micros()
        ));

        let mut layers = run.layers(writes);
        let mut reads = run.reads;
        layers.insert("query.p50_ms", reads.percentile_ms(0.5));
        let on_shard0 = run
            .receipts
            .iter()
            .filter(|r| r.shard == ShardId(0))
            .count();
        layers.insert(
            "sharded.route_share_shard0",
            on_shard0 as f64 / run.receipts.len().max(1) as f64,
        );
        layers.insert("xs.transfer_p50_ms", xs.percentile_ms(0.5));
        layers.insert(
            "coordinator.blocks_per_transfer",
            (net.coordinator_ledger().height() - coordinator_before) as f64
                / xs.len().max(1) as f64,
        );
        layers.insert("sharded.crosslinks", links.len() as f64);
        layers.insert(
            "sharded.resolve_us",
            tracer.durations("sharded.resolve").mean_us(),
        );
        layers.insert("xs.committed", xs.len() as f64);
        layers.insert("xs.aborted", env.counter("xs.aborted"));
        if tracer.enabled() {
            // Counted since before the calibration requests.
            let txs = run.receipts.len().max(1) as f64;
            layers.insert(
                "gateway.sig_checks_per_tx",
                env.counter("gateway.sig_checks") / txs,
            );
        }
        net.shutdown();
        report.layers.append(&mut layers);
        tracer.merge(run.tracer);
        Ok(report)
    }
}

fn block_of(net: &ShardedNetwork, shard: ShardId, height: u64) -> Option<&medchain_chain::Block> {
    ((shard.0 as usize) < net.shard_count() as usize)
        .then(|| net.ledger_of_shard(shard).block(height))
        .flatten()
}

/// One atomic cross-shard transfer, the calls of
/// `ShardedNetwork::run_cross_shard_transfer` with a span around the
/// resolver sweep. Returns the coordinator's verdict.
fn transfer(
    net: &mut ShardedNetwork,
    site: usize,
    to: Address,
    request: u64,
    tracer: &mut Tracer,
) -> Res<bool> {
    let root = tracer.enter("xs.transfer", request);
    // Far enough ahead that no transfer can time out.
    let deadline_ms = net.now_ms() + Duration::from_secs(3_600).as_millis() as u64;
    let result = (|| {
        let legs = net
            .begin_cross_shard_transfer(site, to, TRANSFER_AMOUNT, deadline_ms)
            .map_err(|e| e.to_string())?;
        let span = tracer.enter("xs.confirm_legs", request);
        let confirmed = net
            .confirm(&legs.debit)
            .and_then(|_| net.confirm(&legs.credit));
        tracer.exit(span);
        confirmed.map_err(|e| e.to_string())?;
        let span = tracer.enter("sharded.resolve", request);
        let resolved = net.resolve_cross_shard();
        tracer.exit(span);
        resolved.map_err(|e| e.to_string())?;
        match net.xs_status(&legs.xid) {
            Some((commit, receipt)) => {
                if let Some(receipt) = receipt {
                    let root = net
                        .coordinator_ledger()
                        .block(receipt.height)
                        .map(|b| b.header.tx_root);
                    if !root.is_some_and(|root| receipt.verify_against(&root)) {
                        return Err(format!(
                            "decision receipt of {:?} does not verify",
                            legs.xid
                        ));
                    }
                }
                Ok(commit)
            }
            None => Err(format!("coordinator never decided {:?}", legs.xid)),
        }
    })();
    tracer.exit(root);
    result
}
