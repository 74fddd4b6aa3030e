//! `gateway_mem` and `gateway_wal`: one closed-loop client over TCP
//! against the flat four-site chain, storage off and on.
//!
//! One-transaction blocks, so the serial critical path of a single
//! commit (frame decode → dedup → signature → mempool → consensus round
//! → execute ×2 → root → receipt proof → client verify) does all the
//! work. The two workloads submit the byte-identical stream for a seed;
//! the only difference is `.storage(dir)` with shipped defaults (WAL
//! append, four serial fsyncs per block, a snapshot every 64 blocks),
//! so `gateway_wal − gateway_mem` is storage and nothing else.

use crate::common::{admit, consortium, fund_all, Env, Layers, Report, Res, PREFILL_ACCOUNTS};
use crate::gen::{self, Op, TxGen};
use crate::stats::Samples;
use crate::tcp::{self, Turn};
use crate::trace::Tracer;
use medchain::{GatewayBackend, MedicalNetwork};
use medchain_chain::{Hash256, Transaction, TxReceipt};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `StorageConfig::default().snapshot_every`. Set-up ends and the run
/// measures in whole multiples of it: a snapshot rehashes the whole
/// state (about a second with 20,000 accounts on four replicas), so a
/// time box that cut a cycle short would let the number of snapshots in
/// the window, not the program, set the mean.
const SNAPSHOT_EVERY: usize = 64;
// A window of the generator is one snapshot cycle.
const _: () = assert!(tcp::WINDOW_OPS == SNAPSHOT_EVERY);
/// Transactions committed after the measured cycles of a durable run,
/// so that the restart has a WAL tail to replay and receipts to serve.
const TAIL_TXS: usize = 16;

/// Pre-signed transactions per second of run: several times what one
/// closed-loop client commits, so the stream never runs dry.
const STREAM_PER_SECOND: f64 = 2_500.0;

pub struct Gateway {
    net: MedicalNetwork,
    ops: Vec<Op>,
    /// The storage directory when durable.
    dir: Option<PathBuf>,
    /// Digest of the first 1,000 measured transaction ids: equal on
    /// `gateway_mem` and `gateway_wal` for a seed.
    stream_digest: Hash256,
}

fn build(env: &Env, dir: Option<&PathBuf>) -> Res<MedicalNetwork> {
    let mut builder = consortium(env);
    if let Some(dir) = dir {
        builder = builder.storage(dir);
    }
    builder.build().map_err(|e| format!("build: {e}"))
}

/// Commits `tx` alone in a block through the public admission seam.
pub fn commit_in_process(net: &mut MedicalNetwork, tx: &Transaction) -> Res<()> {
    admit(net, tx)?;
    net.advance(1).map(|_| ()).map_err(|e| e.to_string())
}

pub fn setup(env: &Env, durable: bool) -> Res<Gateway> {
    let dir = if durable {
        Some(env.fresh_dir("wal")?)
    } else {
        None
    };
    let mut net = build(env, dir.as_ref())?;
    let keys = net.client_keys().to_vec();
    let accounts = gen::accounts(env.seed, PREFILL_ACCOUNTS);
    fund_all(|a, v| net.fund(a, v), &keys, &accounts);
    // Warm up to the next snapshot boundary: the snapshot taken there
    // covers the out-of-band funding (see `ShardedNetwork::fund`), the
    // first block's whole-tree rebuild is not measured, and the
    // measured cycles start aligned with the cadence. The height after
    // `build` is the same with storage on and off, so both gateway
    // workloads warm up with, and then submit, the same transactions.
    let every = SNAPSHOT_EVERY as u64;
    let warm_blocks = (every - net.height() % every) as usize;
    let measured = (env.seconds * STREAM_PER_SECOND).ceil() as usize;
    // One generator for both: the stream's nonces continue from the
    // warm-up transactions, every one of which is committed.
    let mut gen = TxGen::new(env.seed, &keys, &accounts, 1);
    for tx in gen.writes(warm_blocks) {
        commit_in_process(&mut net, &tx)?;
    }
    let stream = gen.writes(measured);
    let stream_digest = gen::stream_digest(stream.iter().take(1_000));
    let ops = stream.into_iter().map(Op::Write).collect();
    Ok(Gateway {
        net,
        ops,
        dir,
        stream_digest,
    })
}

impl Gateway {
    pub fn run(self, env: &Env, tracer: &mut Tracer) -> Res<Report> {
        let Gateway {
            mut net,
            ops,
            dir,
            stream_digest,
        } = self;
        let addr = net.gateway_addr().ok_or("gateway not listening")?;
        // Layer counters cover the calibration and measured requests only.
        env.reset_counters();
        let mut report = Report::default();
        let mut turns = 0;
        let run = tcp::drive_beside(
            addr,
            &ops,
            env.seconds,
            tracer.sibling(),
            &mut report,
            |turn| {
                if let Turn::Serve(stop) = turn {
                    match &env.registry {
                        Some(registry) => {
                            tcp::serve_traced(&mut net, stop, registry, tracer, &mut turns)?
                        }
                        None => net.serve_until(stop).map_err(|e| e.to_string())?,
                    }
                }
                Ok((0, Duration::ZERO))
            },
        )?;
        run.check(&mut report);
        check_receipts(&net, &run.receipts, 0, &mut report);
        let tip = net.ledger().tip().id();
        for site in 1..net.site_count() {
            report.check(net.ledger_of(site).tip().id() == tip, || {
                format!("site {site} disagrees with site 0 on the tip")
            });
        }
        report
            .notes
            .push(format!("stream_digest {}", stream_digest.to_hex()));
        report.notes.push(format!(
            "commit samples {}  first poll {} us after Accepted",
            report.done(),
            run.poll_after.as_micros()
        ));

        // The sink has counted since before the calibration requests.
        let txs = run.completed.max(1) as f64;
        let blocks = env.counter("chain.blocks_committed").max(1.0);
        let mut layers = run.layers(report.done() as usize);
        if tracer.enabled() {
            serve_layers(tracer, txs, dir.is_some(), &mut layers);
            layers.insert(
                "gateway.sig_checks_per_tx",
                env.counter("gateway.sig_checks") / txs,
            );
            layers.insert(
                "consensus.messages_per_block",
                env.counter("consensus.messages") / blocks,
            );
            layers.insert(
                "consensus.rounds_per_block",
                env.counter("consensus.rounds") / blocks,
            );
            layers.insert(
                "transport.bytes_per_tx",
                env.counter("transport.bytes") / txs,
            );
            layers.insert(
                "mempool.batch_size_mean",
                env.histogram_mean("mempool.batch_size"),
            );
            layers.insert(
                "auth.root_update_us",
                env.histogram_mean("auth.root_update_us"),
            );
            layers.insert("storage.fsyncs_per_tx", env.counter("storage.fsyncs") / txs);
            let user_bytes: usize = ops
                .iter()
                .take(run.completed as usize)
                .map(|op| match op {
                    Op::Write(tx) => tx.wire_size(),
                    _ => 0,
                })
                .sum();
            layers.insert(
                "storage.wal_bytes_per_tx_byte",
                env.counter("storage.bytes") / (user_bytes.max(1) as f64),
            );
        }

        match dir {
            Some(dir) => {
                let mut acknowledged = Vec::with_capacity(TAIL_TXS);
                let unused = ops.iter().skip(run.attempted as usize).take(TAIL_TXS);
                for op in unused {
                    let Op::Write(tx) = op else { continue };
                    commit_in_process(&mut net, tx)?;
                    acknowledged.extend(net.find_receipt(&tx.id()));
                }
                report.check(acknowledged.len() == TAIL_TXS, || {
                    format!(
                        "only {} of {TAIL_TXS} tail transactions committed",
                        acknowledged.len()
                    )
                });
                check_receipts(&net, &acknowledged, 0, &mut report);
                acknowledged.extend(run.receipts.iter().cloned());
                restart(env, net, &dir, &acknowledged, &mut report, &mut layers)?
            }
            None => net.shutdown(),
        }
        report.layers = layers;
        tracer.merge(run.tracer);
        Ok(report)
    }
}

/// Shuts the durable network down and rebuilds it from its directory:
/// it must resume at the same height and tip and still serve the
/// receipt of every acknowledged transaction the recovered chain
/// retains (those above the snapshot it restored from; older ones are
/// covered by that snapshot's verified root).
fn restart(
    env: &Env,
    mut net: MedicalNetwork,
    dir: &PathBuf,
    receipts: &[TxReceipt],
    report: &mut Report,
    layers: &mut Layers,
) -> Res<()> {
    let height = net.height();
    let tip = net.ledger().tip().id();
    net.shutdown();
    drop(net);
    let started = Instant::now();
    let mut net = build(env, Some(dir))?;
    let restart_ms = started.elapsed().as_secs_f64() * 1e3;
    report.check(net.resumed(), || "rebuilt network did not resume".into());
    report.check(net.height() == height, || {
        format!("resumed at height {} not {height}", net.height())
    });
    report.check(net.ledger().tip().id() == tip, || {
        "resumed on another tip".into()
    });
    let base = net.ledger().base_height();
    let retained: Vec<TxReceipt> = receipts
        .iter()
        .filter(|r| r.height > base)
        .filter_map(|r| {
            let served = net.find_receipt(&r.tx_id);
            report.check(served.is_some(), || {
                format!("receipt of {:?} not served after restart", r.tx_id)
            });
            served
        })
        .collect();
    check_receipts(&net, &retained, base, report);
    report.notes.push(format!(
        "restart: height {height}, snapshot base {base}, {} acknowledged receipts re-served",
        retained.len()
    ));
    layers.insert("storage.restart_ms", restart_ms);
    layers.insert(
        "storage.replayed_blocks",
        env.counter("storage.replayed_blocks"),
    );
    net.shutdown();
    Ok(())
}

/// Every receipt must prove its transaction under the `tx_root` of the
/// committed header read from the ledger — not the root it carries —
/// and report successful execution.
pub fn check_receipts(
    net: &MedicalNetwork,
    receipts: &[TxReceipt],
    above: u64,
    report: &mut Report,
) {
    for r in receipts.iter().filter(|r| r.height > above) {
        let root = net.ledger().block(r.height).map(|b| b.header.tx_root);
        report.check(root.is_some_and(|root| r.verify_against(&root)), || {
            format!("receipt of {:?} fails against header {}", r.tx_id, r.height)
        });
        report.check(r.ok, || {
            format!("tx {:?} failed execution: {:?}", r.tx_id, r.error)
        });
    }
}

/// Serve-loop readings from the traced replica's spans.
fn serve_layers(tracer: &Tracer, txs: f64, durable: bool, layers: &mut Layers) {
    let totals = tracer.totals();
    let total_us = |name: &str| {
        totals
            .get(name)
            .map(|t| t.total_ns as f64 / 1e3)
            .unwrap_or(0.0)
    };
    let count = |name: &str| totals.get(name).map(|t| t.count as f64).unwrap_or(0.0);
    layers.insert("gateway.pump_us_per_tx", total_us("gateway.pump") / txs);
    layers.insert(
        "network.advance_us_per_block",
        tracer.durations("network.advance").mean_us(),
    );
    layers.insert(
        "serve.idle_frac",
        total_us("serve.idle") / total_us("serve.turn").max(1e-9),
    );
    layers.insert("serve.turns_per_tx", count("serve.turn") / txs);
    if !durable {
        return;
    }
    // The slowest block of each 64-block window is the one that wrote
    // the snapshot.
    let advances: Vec<u64> = tracer
        .spans_named("network.advance")
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    let mut stalls = Samples::new();
    for window in advances.chunks_exact(64) {
        stalls.push(std::time::Duration::from_nanos(
            *window.iter().max().expect("64 spans"),
        ));
    }
    layers.insert("storage.snapshot_stall_ms", stalls.mean_ms());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(seed: u64, durable: bool) -> Hash256 {
        let data_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/medbench-test")
            .join(format!("gateway-{seed}-{durable}-{}", std::process::id()));
        let env = Env {
            seed,
            seconds: 1.0,
            data_dir: data_dir.clone(),
            registry: None,
        };
        let prepared = setup(&env, durable).unwrap();
        let digest = prepared.stream_digest;
        drop(prepared);
        let _ = std::fs::remove_dir_all(&data_dir);
        digest
    }

    /// What lets `gateway_wal − gateway_mem` be read as storage alone.
    #[test]
    fn both_gateway_workloads_submit_the_same_stream_for_a_seed() {
        assert_eq!(digest(5, false), digest(5, true));
        assert_ne!(digest(5, false), digest(6, false));
    }
}
