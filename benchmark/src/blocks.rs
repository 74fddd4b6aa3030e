//! `bulk_blocks` and `paged_blocks`: fat blocks, in process, through the
//! public admission seam — `Transaction::verify` →
//! `GatewayBackend::admit_verified` → `advance(1)` → `find_receipt` +
//! `verify_against(header tx_root)`. No sockets, no idle sleeps.
//!
//! `bulk_blocks` (20,000 resident accounts, 256-transaction blocks,
//! storage off) is the one workload where mempool batching, per-block
//! root update and receipt-proof construction dominate. `paged_blocks`
//! (1,024 accounts over a 256-hot-account cache — a working set four
//! times the program's cache — 32-transaction blocks, fsync off so the
//! number is paging and not the device) is the one where the page
//! store, pagers, demotion and subtree spill do most of the work.
//!
//! Both run a number of rounds fixed by `--seconds`, not a time box:
//! time-boxed paged runs slow down as `pages.bin` grows, so only fixed
//! work repeats. A transaction's latency runs from the moment its
//! round's batch is handed to admission until its own receipt has been
//! verified.

use crate::common::{consortium, fund_all, Env, Layers, Report, Res, Window, PREFILL_ACCOUNTS};
use crate::gateway::commit_in_process;
use crate::gen::{self, TxGen};
use crate::proc;
use crate::trace::Tracer;
use medchain::{GatewayBackend, MedicalNetwork};
use medchain_chain::{Hash256, Lane, Transaction};
use medchain_storage::{FsyncPolicy, StorageConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Senders per bulk round and consecutive transactions of each.
const BULK_SENDERS: usize = 64;
const BULK_PER_SENDER: usize = 4;
/// Rounds per second of `--seconds` (sized so the rounds take about
/// that long on the sandbox the design was probed on).
const BULK_ROUNDS_PER_SECOND: f64 = 6.0;

const PAGED_ACCOUNTS: usize = 1_024;
/// 4 page slots × 64 accounts per page = 256 hot accounts.
const PAGED_CACHE_PAGES: usize = 4;
const PAGED_TXS_PER_ROUND: usize = 32;
const PAGED_ROUNDS_PER_SECOND: f64 = 4.8;
/// No paged run is longer than this. Somewhere between its 85th and
/// 105th block (the 16 warm-up blocks included) a paged network's
/// blocks jump from 75 ms to over 200 ms and keep growing; where, moves
/// from run to run, so a run that reaches it measures where it fell.
/// The rounds end twenty blocks short of the earliest seen.
const PAGED_ROUNDS_MAX: usize = 48;
/// Snapshot cadence of the paged network, and the block boundary both
/// workloads warm up to. The shipped 64 would need 60 warm-up blocks
/// before the first snapshot can cover the out-of-band funding — at
/// about 80 ms a paged block, most of the run — so this one workload,
/// which already turns fsync off, snapshots every 16 blocks; snapshot
/// boundaries are also where dirty pages are written back.
const SNAPSHOT_EVERY: u64 = 16;
/// The site whose data directory is wiped for the rejoin check.
const WIPED_SITE: usize = 3;

pub struct Blocks {
    net: MedicalNetwork,
    warm: Vec<Transaction>,
    rounds: Vec<Vec<Transaction>>,
    /// The storage directory when paged.
    dir: Option<PathBuf>,
}

fn build(env: &Env, dir: Option<&Path>) -> Res<MedicalNetwork> {
    let mut builder = consortium(env);
    if let Some(dir) = dir {
        let config = StorageConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: SNAPSHOT_EVERY,
            ..StorageConfig::default()
        };
        builder = builder
            .storage_with(dir, config)
            .state_cache(PAGED_CACHE_PAGES);
    }
    builder.build().map_err(|e| format!("build: {e}"))
}

/// Funds the population and commits the warm-up blocks.
fn prefill(
    net: &mut MedicalNetwork,
    accounts: &[medchain_chain::Address],
    warm: &[Transaction],
) -> Res<()> {
    let keys = net.client_keys().to_vec();
    fund_all(|a, v| net.fund(a, v), &keys, accounts);
    warm.iter().try_for_each(|tx| commit_in_process(net, tx))
}

pub fn setup(env: &Env, paged: bool) -> Res<Blocks> {
    let dir = if paged {
        Some(env.fresh_dir("paged")?)
    } else {
        None
    };
    let mut net = build(env, dir.as_deref())?;
    let keys = net.client_keys().to_vec();
    let accounts = gen::accounts(
        env.seed,
        if paged {
            PAGED_ACCOUNTS
        } else {
            PREFILL_ACCOUNTS
        },
    );
    let mut gen = TxGen::new(env.seed, &keys, &accounts, 1);
    // Every generated warm-up transaction is committed: the rounds'
    // nonces continue from them.
    let warm = gen.writes((SNAPSHOT_EVERY - net.height() % SNAPSHOT_EVERY) as usize);
    let rounds = if paged {
        let count = (env.seconds * PAGED_ROUNDS_PER_SECOND).round().max(1.0) as usize;
        let count = count.min(PAGED_ROUNDS_MAX);
        // Alternate halves of the sender population, one transfer each.
        (0..count)
            .map(|r| gen.round_over_ring(r * PAGED_TXS_PER_ROUND, PAGED_TXS_PER_ROUND))
            .collect()
    } else {
        let count = (env.seconds * BULK_ROUNDS_PER_SECOND).round().max(1.0) as usize;
        (0..count)
            .map(|_| gen.round(0, BULK_SENDERS, BULK_PER_SENDER))
            .collect()
    };
    prefill(&mut net, &accounts, &warm)?;
    Ok(Blocks {
        net,
        warm,
        rounds,
        dir,
    })
}

/// Drives `rounds` through the admission seam, one block and one
/// window per round, checking every receipt against the committed
/// header's `tx_root`.
fn drive(
    net: &mut MedicalNetwork,
    rounds: &[Vec<Transaction>],
    tracer: &mut Tracer,
) -> Res<Report> {
    let mut report = Report::default();
    let mut windows = Vec::with_capacity(rounds.len());
    let cpu_before = proc::cpu_ms();
    for (r, round) in rounds.iter().enumerate() {
        let request = r as u64;
        let began = Instant::now();
        let root = tracer.enter("round", request);
        report.attempted += round.len() as u64;
        let span = tracer.enter("sig.verify", request);
        let verified = round.iter().all(|tx| tx.verify(net.registry()));
        tracer.exit(span);
        if !verified {
            return Err(format!(
                "round {r}: a pre-signed transaction fails verification"
            ));
        }
        let span = tracer.enter("mempool.admit", request);
        for tx in round {
            // A refused transaction has no receipt below, and is counted
            // as failed there, once.
            if !net.admit_verified(tx.clone(), Lane::Normal).1.is_admitted() {
                report
                    .failures
                    .push(format!("round {r}: {:?} not admitted", tx.id()));
            }
        }
        tracer.exit(span);
        let span = tracer.enter("network.advance", request);
        let advanced = net.advance(1);
        tracer.exit(span);
        advanced.map_err(|e| e.to_string())?;
        let height = net.height();
        let tx_root = net.ledger().tip().header.tx_root;
        let span = tracer.enter("receipt.build_and_verify", request);
        let mut ops = Vec::with_capacity(round.len());
        for tx in round {
            let ok = net.find_receipt(&tx.id()).is_some_and(|receipt| {
                receipt.height == height && receipt.ok && receipt.verify_against(&tx_root)
            });
            if ok {
                ops.push(began.elapsed());
            } else {
                report.failed += 1;
                report
                    .failures
                    .push(format!("round {r}: no verified receipt for {:?}", tx.id()));
            }
        }
        tracer.exit(span);
        tracer.exit(root);
        windows.push(Window {
            done: ops.len() as u64,
            ops,
            wall: began.elapsed(),
        });
    }
    report.measured(windows, cpu_before);
    let (attempted, done, failed) = (report.attempted, report.done(), report.failed);
    report.check(attempted == done + failed, || {
        format!("attempted {attempted} != committed {done} + failed {failed}")
    });
    report.failures.truncate(8);
    Ok(report)
}

fn all_sites_on(net: &MedicalNetwork, tip: Hash256, what: &str, report: &mut Report) {
    for site in 0..net.site_count() {
        report.check(net.ledger_of(site).tip().id() == tip, || {
            format!("{what}: site {site} is not on the expected tip")
        });
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Blocks {
    pub fn run(self, env: &Env, tracer: &mut Tracer) -> Res<Report> {
        let Blocks {
            mut net,
            warm,
            rounds,
            dir,
        } = self;
        env.reset_counters();
        let mut report = drive(&mut net, &rounds, tracer)?;
        let tip = net.ledger().tip().id();
        all_sites_on(&net, tip, "after the rounds", &mut report);
        let txs = report.done().max(1) as f64;
        let blocks = rounds.len().max(1) as f64;
        report.notes.push(format!(
            "commit samples {}  rounds {}  tx digest {}",
            report.done(),
            rounds.len(),
            gen::stream_digest(rounds.iter().flatten()).to_hex()
        ));

        let mut layers = Layers::new();
        if tracer.enabled() {
            layers.insert(
                "mempool.admit_us_per_tx",
                tracer.durations("mempool.admit").sum_ns() / 1e3 / report.attempted.max(1) as f64,
            );
            layers.insert(
                "network.advance_us_per_block",
                tracer.durations("network.advance").mean_us(),
            );
            layers.insert(
                "mempool.batch_size_mean",
                env.histogram_mean("mempool.batch_size"),
            );
            layers.insert(
                "auth.root_update_us",
                env.histogram_mean("auth.root_update_us"),
            );
            layers.insert(
                "transport.bytes_per_tx",
                env.counter("transport.bytes") / txs,
            );
            // One thread, simulated transport, no timers: these counts
            // repeat exactly for a seed.
            report.exact(
                "consensus.messages_per_block",
                env.counter("consensus.messages") / blocks,
            );
            report.exact(
                "consensus.rounds_per_block",
                env.counter("consensus.rounds") / blocks,
            );
            report.exact("storage.fsyncs_per_tx", env.counter("storage.fsyncs") / txs);
            report.exact(
                "storage.page_misses_per_tx",
                env.counter("storage.page_misses") / txs,
            );
            report.exact(
                "storage.page_writes_per_tx",
                env.counter("storage.page_writes") / txs,
            );
            report.exact(
                "storage.page_evictions_per_tx",
                env.counter("storage.page_evictions") / txs,
            );
            report.exact(
                "state.accounts_demoted_per_block",
                env.counter("state.accounts_demoted") / blocks,
            );
        }

        match dir {
            Some(dir) => paged_checks(env, net, &dir, &warm, &rounds, &mut report, &mut layers)?,
            None => net.shutdown(),
        }
        report.layers.append(&mut layers);
        Ok(report)
    }
}

/// The paged network must have committed what a fully resident network
/// commits from the same blocks, must resume from its directory, and a
/// site whose directory is wiped must rejoin on the cohort's tip.
fn paged_checks(
    env: &Env,
    mut net: MedicalNetwork,
    dir: &Path,
    warm: &[Transaction],
    rounds: &[Vec<Transaction>],
    report: &mut Report,
    layers: &mut Layers,
) -> Res<()> {
    let height = net.height();
    let tip = net.ledger().tip().id();
    net.shutdown();
    drop(net);

    // The same blocks on a resident twin (no storage, no page cache).
    let plain = Env {
        seed: env.seed,
        seconds: env.seconds,
        data_dir: env.data_dir.clone(),
        registry: None,
    };
    let mut resident = build(&plain, None)?;
    prefill(
        &mut resident,
        &gen::accounts(env.seed, PAGED_ACCOUNTS),
        warm,
    )?;
    let replay = drive(&mut resident, rounds, &mut Tracer::off())?;
    let committed = report.done();
    report.check(
        replay.failures.is_empty() && replay.done() == committed,
        || "the resident replay did not commit the same transactions".into(),
    );
    report.check(
        resident.ledger().tip().id() == tip && resident.height() == height,
        || "paged tip differs from the resident replay's tip".into(),
    );
    layers.insert(
        "paged.resident_replay_txs_per_s",
        replay.done() as f64 / replay.wall().as_secs_f64().max(1e-9),
    );
    resident.shutdown();
    drop(resident);

    // Restart from the directory.
    let mut resumed = build(env, Some(dir))?;
    report.check(resumed.resumed() && resumed.height() == height, || {
        format!(
            "restart resumed at height {} not {height}",
            resumed.height()
        )
    });
    all_sites_on(&resumed, tip, "after restart", report);
    resumed.shutdown();
    drop(resumed);

    // Wipe one site; it must stream a peer's snapshot and WAL tail.
    let wiped = dir.join(format!("site-{WIPED_SITE}"));
    std::fs::remove_dir_all(&wiped).map_err(|e| format!("wipe {}: {e}", wiped.display()))?;
    let started = Instant::now();
    let mut rejoined = build(env, Some(dir))?;
    layers.insert("bootstrap.rejoin_ms", started.elapsed().as_secs_f64() * 1e3);
    layers.insert("bootstrap.stream_bytes", dir_bytes(&wiped) as f64);
    report.check(rejoined.resumed() && rejoined.height() == height, || {
        format!(
            "rejoin resumed at height {} not {height}",
            rejoined.height()
        )
    });
    all_sites_on(&rejoined, tip, "after the wiped site rejoined", report);
    rejoined.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::Registry;

    /// A tiny traced run: the transaction digest note and every count
    /// flagged `exact`, plus the exec probe's counts.
    fn tiny_run(paged: bool, seed: u64, tag: &str) -> (Vec<String>, Vec<(&'static str, f64)>) {
        let data_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/medbench-test")
            .join(format!("{tag}-{seed}-{}", std::process::id()));
        let env = Env {
            seed,
            seconds: 0.5,
            data_dir: data_dir.clone(),
            registry: Some(Registry::new()),
        };
        let mut tracer = Tracer::on(Instant::now());
        let report = setup(&env, paged).unwrap().run(&env, &mut tracer).unwrap();
        assert_eq!(report.failures, Vec::<String>::new());
        assert!(report.done() > 0 && report.failed == 0);
        let mut counts: Vec<(&'static str, f64)> = report
            .exact
            .iter()
            .map(|name| (*name, report.layers[name]))
            .collect();
        counts.push(("blocks", env.counter("chain.blocks_committed")));
        counts.push(("fsyncs", env.counter("storage.fsyncs")));
        counts.push(("page_writes", env.counter("storage.page_writes")));
        if !paged {
            let probes = crate::layers::probes("bulk_blocks", &env).unwrap();
            counts.push(("waves", probes["exec.waves_per_block"]));
            counts.push(("fallback_blocks", probes["exec.fallback_blocks"]));
        }
        let _ = std::fs::remove_dir_all(&data_dir);
        (report.notes, counts)
    }

    fn repeats_exactly(paged: bool, tag: &str) {
        let (ids_a, counts_a) = tiny_run(paged, 11, tag);
        let (ids_b, counts_b) = tiny_run(paged, 11, tag);
        assert_eq!(ids_a, ids_b, "same seed, same transaction ids");
        assert_eq!(counts_a, counts_b, "same seed, same exact counts");
        assert!(counts_a
            .iter()
            .any(|(name, v)| *name == "blocks" && *v > 0.0));
        let (ids_c, _) = tiny_run(paged, 12, tag);
        assert_ne!(ids_a, ids_c, "another seed, other transaction ids");
    }

    #[test]
    fn bulk_blocks_repeats_exactly_for_a_seed() {
        repeats_exactly(false, "bulk");
    }

    #[test]
    fn paged_blocks_repeats_exactly_for_a_seed() {
        repeats_exactly(true, "paged");
    }
}
