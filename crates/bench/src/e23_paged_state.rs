//! **E23** — disk-resident state pages and streamed bootstrap
//! (DESIGN.md §14). Two equivalence checks (wall time for either
//! path is medbench's: `paged_blocks` end to end, `bootstrap.rejoin_ms`):
//!
//! 1. **State-larger-than-cache sweep**: the same committed workload —
//!    a funded account population far bigger than any page budget,
//!    plus rounds of transfers and anchors — runs on a fully-resident
//!    consortium and on consortiums capped at a handful of 4 KiB page
//!    slots. Every run must land the *byte-identical* tip; the sweep
//!    reports the `storage.page_*` traffic each budget paid for it.
//! 2. **Streamed bootstrap vs local replay**: after a source chain
//!    commits its history, a joining site either re-executes every
//!    block (`Ledger::apply` from genesis) or streams the peer's
//!    chunked snapshot + tail (`stream_into` over the captured source,
//!    installed through local recovery). Both must land on the source
//!    tip.
//!
//! The tightest budget's aggregate `storage.page_writes` /
//! `storage.page_misses` / `storage.page_evictions` land on the caller's
//! sink.

use crate::report::Table;
use medchain::bootstrap::{stream_into, BootstrapSource};
use medchain::Network;
use medchain_chain::ledger::Ledger;
use medchain_chain::{Address, Hash256, TxPayload};
use medchain_contracts::runtime::Runtime;
use medchain_runtime::metrics::{Metrics, Registry};
use medchain_storage::{DiskStore, StorageConfig};
use std::path::PathBuf;

/// Transfers queued per committed block in the sweep workload.
const TRANSFERS_PER_BLOCK: u64 = 8;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medchain-e23-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear e23 scratch dir");
    }
    dir
}

/// One sweep run: a 3-site storage-backed consortium, optionally paged.
struct SweepRun {
    budget: Option<usize>,
    tip: Hash256,
    height: u64,
    page_writes: u64,
    page_misses: u64,
    page_evictions: u64,
}

impl SweepRun {
    fn label(&self) -> String {
        match self.budget {
            None => "resident".into(),
            Some(pages) => format!("{pages}-page"),
        }
    }
}

/// Runs the identical workload at one page budget and reads the page
/// counters back out of a run-local registry.
fn sweep_run(budget: Option<usize>, accounts: u64, blocks: u64) -> SweepRun {
    let registry = Registry::new();
    let dir = scratch_dir(&format!(
        "sweep-{}",
        budget.map_or("resident".into(), |p| p.to_string())
    ));
    let mut builder = Network::builder()
        .seed(0xe23)
        .block_interval_ms(20)
        .storage_with(&dir, StorageConfig { snapshot_every: 16, ..StorageConfig::default() })
        .metrics(registry.handle());
    if let Some(pages) = budget {
        builder = builder.state_cache(pages);
    }
    for i in 0..3 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("e23 sweep network builds");

    // Population far larger than any budget in the sweep: these
    // accounts overflow the hot set at the first commit and page out.
    for i in 0..accounts {
        net.fund(Address::from_seed(i), 1 + i);
    }

    for block in 0..blocks {
        // Stride across the population so later rounds fault earlier
        // rounds' victims back in off disk.
        let stride = (accounts / TRANSFERS_PER_BLOCK).max(1);
        for k in 0..TRANSFERS_PER_BLOCK {
            let to = Address::from_seed((block + k * stride) % accounts);
            net.submit(0, TxPayload::Transfer { to, amount: 1 }, 1_000)
                .expect("transfer accepted");
        }
        let label = format!("e23/round-{block}");
        net.submit(
            1,
            TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label },
            1_000,
        )
        .expect("anchor accepted");
        net.advance(1).expect("block commits");
    }

    let run = SweepRun {
        budget,
        tip: net.ledger().tip().id(),
        height: net.height(),
        page_writes: registry.counter_value("storage.page_writes"),
        page_misses: registry.counter_value("storage.page_misses"),
        page_evictions: registry.counter_value("storage.page_evictions"),
    };
    net.shutdown();
    drop(net);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

/// Streamed-bootstrap vs local-replay comparison over one source chain.
struct BootstrapCheck {
    blocks: u64,
    tail_blocks: u64,
    agree: bool,
}

fn check_bootstrap(blocks: u64) -> BootstrapCheck {
    // In-memory source so the full history stays resident and the
    // replay side really re-executes from genesis.
    let mut builder = Network::builder().seed(0xe23).block_interval_ms(20);
    for i in 0..2 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("e23 source network builds");
    for block in 0..blocks {
        for site in 0..net.site_count() {
            let label = format!("e23/site-{site}/block-{block}");
            net.submit(
                site,
                TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label },
                1_000,
            )
            .expect("anchor accepted");
        }
        net.advance(1).expect("block commits");
    }
    let source_tip = net.ledger().tip().id();

    let fresh = || Ledger::new("medchain", net.registry().clone(), Box::new(Runtime::standard()));

    // Local replay: re-execute every committed block above genesis.
    let mut replayed = fresh();
    for block in net.ledger().blocks_from(1) {
        replayed.apply(block).expect("replay applies committed block");
    }

    // Streamed bootstrap: snapshot + tail fetched from the captured
    // source, installed through local recovery.
    let source = BootstrapSource::capture(net.ledger(), None).expect("source captures snapshot");
    let dir = scratch_dir("bootstrap");
    let mut store =
        DiskStore::open(&dir, StorageConfig::default()).expect("bootstrap store opens");
    let mut streamed = fresh();
    let report = stream_into(|request| Ok(source.answer(request)), &mut streamed, &mut store)
        .expect("streamed bootstrap succeeds");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let agree = replayed.tip().id() == source_tip && streamed.tip().id() == source_tip;
    net.shutdown();
    BootstrapCheck { blocks, tail_blocks: report.tail_blocks, agree }
}

/// Runs E23, landing the tightest budget's page-traffic aggregates on
/// the caller's sink.
pub fn run_e23(quick: bool, metrics: Metrics) -> Table {
    let accounts: u64 = if quick { 512 } else { 4_096 };
    let blocks: u64 = if quick { 6 } else { 24 };
    let budgets: &[Option<usize>] =
        if quick { &[None, Some(4), Some(1)] } else { &[None, Some(16), Some(4), Some(1)] };
    let chain_blocks: u64 = if quick { 12 } else { 48 };

    let runs: Vec<SweepRun> =
        budgets.iter().map(|&budget| sweep_run(budget, accounts, blocks)).collect();
    let resident = &runs[0];
    let tips_identical =
        runs.iter().all(|r| r.tip == resident.tip && r.height == resident.height);
    if let Some(tightest) = runs.last() {
        metrics.counter("storage.page_writes", tightest.page_writes);
        metrics.counter("storage.page_misses", tightest.page_misses);
        metrics.counter("storage.page_evictions", tightest.page_evictions);
    }

    let boot = check_bootstrap(chain_blocks);

    let mut table = Table::new(
        "E23",
        "Disk-resident state pages and streamed bootstrap (DESIGN.md §14)",
        &["metric", "value"],
    );
    table.row(vec!["funded accounts".into(), accounts.to_string()]);
    table.row(vec!["committed blocks (sweep)".into(), blocks.to_string()]);
    for run in &runs {
        if run.budget.is_some() {
            table.row(vec![
                format!("{} page writes/misses/evictions", run.label()),
                format!("{}/{}/{}", run.page_writes, run.page_misses, run.page_evictions),
            ]);
        }
    }
    table.row(vec!["paged tips == resident tip".into(), tips_identical.to_string()]);
    table.row(vec!["chain blocks (bootstrap)".into(), boot.blocks.to_string()]);
    table.row(vec!["streamed tail blocks".into(), boot.tail_blocks.to_string()]);
    table.row(vec!["bootstrap tips == source tip".into(), boot.agree.to_string()]);

    let tightest = runs.last().expect("sweep ran");
    table.finding(format!(
        "A {} budget commits the byte-identical tip as the fully-resident run \
         ({} page writes, {} faults along the way), and a joining site lands on \
         the same tip by streaming a snapshot instead of replaying {} blocks.",
        tightest.label(),
        tightest.page_writes,
        tightest.page_misses,
        boot.blocks,
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_pages_and_bootstraps_with_identical_tips() {
        let registry = Registry::new();
        let table = run_e23(true, registry.handle());
        let cell = |label: &str| {
            table
                .rows
                .iter()
                .find(|r| r[0] == label)
                .unwrap_or_else(|| panic!("row {label:?} missing"))[1]
                .clone()
        };
        assert_eq!(cell("paged tips == resident tip"), "true");
        assert_eq!(cell("bootstrap tips == source tip"), "true");
        // The tightest budget really paged: spills and faults landed on
        // the sink, so the sweep exercised the disk path, not just RAM.
        assert!(registry.counter_value("storage.page_writes") > 0);
        assert!(registry.counter_value("storage.page_misses") > 0);
    }
}
