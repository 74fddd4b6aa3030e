//! Running beyond RAM, and rejoining without a history (DESIGN.md §14).
//!
//! Two claims, both checked in-process:
//!
//! 1. **Paged state is invisible to consensus.** A consortium whose
//!    sites cap resident state at a handful of 4 KiB page slots
//!    (`state_cache`) commits the *byte-identical* tip as a
//!    fully-resident consortium doing the same work — cold accounts and
//!    authenticated-tree subtrees spill to `<site-dir>/pages.bin` and
//!    fault back in on demand, and the page traffic is visible in the
//!    `storage.page_*` counters.
//! 2. **A wiped site rejoins by streaming, not replaying.** After the
//!    paged consortium shuts down, one site's data directory is
//!    deleted outright. On restart that site bootstraps from a peer's
//!    chunked snapshot + WAL tail (installed through local recovery,
//!    then checked against the cohort's tip) and comes back agreeing
//!    with the cohort.
//!
//! ```text
//! cargo run --release --example paged_bootstrap [data-dir]
//! ```
//!
//! The data directory defaults to `<tmp>/medchain-paged-bootstrap` and
//! is cleared on entry so both lives start from a known state.

use medchain_repro::prelude::*;
use std::path::{Path, PathBuf};

/// Anchors, grants, and purpose-gated requests — enough distinct
/// writers to push accounts and tree nodes past a tiny page budget.
fn do_work(net: &mut Network, rounds: usize) -> Result<(), Box<dyn std::error::Error>> {
    net.grant_all(net.site(2).address(), Purpose::Research)?;
    let data = net.contracts().data;
    for round in 0..rounds {
        for site in 0..net.site_count() {
            let label = format!("hospital-{site}/scan-{round}");
            net.submit(
                site,
                TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label },
                1_000,
            )?;
        }
        let id = net.invoke(
            2,
            data,
            "request",
            &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
            50_000,
        )?;
        net.confirm(&id)?;
    }
    Ok(())
}

fn build(
    dir: &Path,
    pages: Option<usize>,
    registry: &Registry,
) -> Result<Network, Box<dyn std::error::Error>> {
    // Frequent snapshots so a wiped site always finds a recent one to
    // stream; small segments exercise log rolling along the way.
    let config = StorageConfig { snapshot_every: 8, ..StorageConfig::default() };
    let mut builder = Network::builder()
        .storage_with(dir, config)
        .metrics(registry.handle());
    if let Some(pages) = pages {
        builder = builder.state_cache(pages);
    }
    for i in 0..3 {
        let records =
            CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
                .cohort((i * 100_000) as u64, 80, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    Ok(builder.build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("medchain-paged-bootstrap"));
    if root.exists() {
        std::fs::remove_dir_all(&root)?;
    }
    println!("▸ data directory: {}", root.display());

    // ---- Claim 1: paged ≡ fully-resident -------------------------------
    let resident_registry = Registry::new();
    let mut resident = build(&root.join("resident"), None, &resident_registry)?;
    do_work(&mut resident, 4)?;
    let resident_tip = resident.ledger().tip().id();
    let resident_height = resident.height();
    resident.shutdown();
    drop(resident);

    let paged_registry = Registry::new();
    let paged_dir = root.join("paged");
    let mut paged = build(&paged_dir, Some(1), &paged_registry)?;
    do_work(&mut paged, 4)?;
    assert_eq!(paged.height(), resident_height, "paged node fell behind");
    assert_eq!(
        paged.ledger().tip().id(),
        resident_tip,
        "paged node committed a different tip than the fully-resident node"
    );
    let spills = paged_registry.counter_value("storage.page_writes");
    let faults = paged_registry.counter_value("storage.page_misses");
    assert!(spills > 0, "page budget never forced a spill — nothing was paged");
    assert!(faults > 0, "no page ever faulted back in — reads never hit the page file");
    println!(
        "▸ paged node committed byte-identical tip {:?} at height {} \
         ({spills} page writes, {faults} page faults)",
        resident_tip, resident_height,
    );
    paged.shutdown();
    drop(paged);

    // ---- Claim 2: wiped site rejoins via streamed snapshot --------------
    std::fs::remove_dir_all(paged_dir.join("site-2"))?;
    println!("▸ wiped site-2's data directory entirely");
    let rejoin_registry = Registry::new();
    let mut rejoined = build(&paged_dir, Some(1), &rejoin_registry)?;
    assert!(rejoined.resumed(), "restart against a persisted chain must resume");
    assert_eq!(rejoined.height(), resident_height, "rejoined consortium lost height");
    for site in 0..rejoined.site_count() {
        assert_eq!(
            rejoined.ledger_of(site).tip().id(),
            resident_tip,
            "site {site} disagrees with the cohort after rejoin"
        );
    }
    println!(
        "▸ wiped site rejoined from streamed snapshot at height {} — all {} sites \
         agree on tip {:?}",
        rejoined.height(),
        rejoined.site_count(),
        resident_tip,
    );

    // The rejoined consortium keeps committing: the streamed state is a
    // working state, not a read-only copy.
    do_work(&mut rejoined, 1)?;
    assert!(rejoined.height() > resident_height);
    println!("▸ post-rejoin commits OK; chain now at height {}", rejoined.height());
    rejoined.shutdown();
    Ok(())
}
