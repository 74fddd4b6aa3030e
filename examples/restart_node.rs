//! Kill-and-restart: a consortium whose chain survives the process.
//!
//! Every site persists its ledger under `<data-dir>/site-<i>` — an
//! append-only segmented WAL of canonically encoded blocks plus
//! periodic world-state snapshots. Run this example twice against the
//! same directory: the first run bootstraps the consortium (deploys
//! contracts, anchors datasets) and commits a few blocks; the second
//! recovers each site from disk, verifies the replayed tip, skips the
//! one-time setup, and keeps extending the same chain. The second life
//! also commits past its next snapshot, after which a site keeps only
//! the blocks from that snapshot up decoded (DESIGN.md §8), and reads an
//! older block and a receipt proof cut from it back from its log.
//!
//! ```text
//! cargo run --release --example restart_node /tmp/medchain-node
//! cargo run --release --example restart_node /tmp/medchain-node   # resumes
//! ```
//!
//! The data directory defaults to `<tmp>/medchain-restart-node`.
//!
//! With `MEDCHAIN_SHARDS=k` (k ≥ 2) the same flow runs the sharded
//! consortium instead (DESIGN.md §9): per-shard sub-chains persist under
//! `<data-dir>/shard-<s>/site-<j>`, the coordinator chain under
//! `<data-dir>/coordinator/site-<i>`, and a restart re-checks every
//! recovered sub-chain against the newest committed cross-links before
//! consensus resumes.
//!
//! With `MEDCHAIN_STATE_CACHE_PAGES=n` either flow caps every site's
//! resident state at `n` page slots (DESIGN.md §14). The library has one
//! knob for that, `.state_cache(pages)`; reading the variable is this
//! binary's business.

use medchain::NetworkBuilder;
use medchain_repro::prelude::*;
use std::path::PathBuf;

/// Applies `MEDCHAIN_STATE_CACHE_PAGES` (a positive page count) to the
/// builder when it is set.
fn with_page_budget(builder: NetworkBuilder) -> Result<NetworkBuilder, String> {
    match std::env::var("MEDCHAIN_STATE_CACHE_PAGES") {
        Err(_) => Ok(builder),
        Ok(v) => match v.parse::<usize>() {
            Ok(pages) if pages > 0 => Ok(builder.state_cache(pages)),
            _ => Err(format!("bad MEDCHAIN_STATE_CACHE_PAGES={v}")),
        },
    }
}

/// The sharded variant: anchors routed across sub-chains, a cross-link
/// round on the coordinator, and a restart audited against those links.
fn run_sharded_flow(
    data_dir: &std::path::Path,
    shards: u16,
) -> Result<(), Box<dyn std::error::Error>> {
    let sites = 4usize.max(shards as usize);
    let mut builder = Network::builder()
        .shards(shards)
        .storage(data_dir)
        .transport(TransportKind::from_env());
    for i in 0..sites {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = with_page_budget(builder)?.build()?;

    if net.resumed() {
        println!(
            "▸ resumed {} sub-chains at heights {:?} — recovery re-checked against the \
             coordinator's cross-links",
            net.shard_count(),
            net.shard_heights(),
        );
    } else {
        println!(
            "▸ fresh sharded consortium: {} sites across {} sub-chain committees + coordinator",
            net.site_count(),
            net.shard_count(),
        );
    }

    // Either life does real work on every sub-chain…
    for i in 0..sites {
        let label = format!("hospital-{i}/emr-{}", net.shard_heights().iter().sum::<u64>());
        let shard = net
            .submit(
                i,
                TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label: label.clone() },
                1_000,
            )?
            .shard;
        println!("▸ anchor {label:?} routed to {shard}");
    }
    net.advance(2)?;

    // …then commits a cross-link round so no sub-chain can fork past
    // this point unnoticed.
    for link in net.cross_link()? {
        println!("▸ committed {link}");
    }
    println!(
        "▸ coordinator chain at height {}; kill this process and run again — every sub-chain \
         must come back agreeing with these cross-links",
        net.home_ledger().height()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data_dir: PathBuf = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("medchain-restart-node"));
    println!("▸ data directory: {}", data_dir.display());

    if let Ok(k) = std::env::var("MEDCHAIN_SHARDS") {
        let shards: u16 = k.parse().map_err(|_| format!("bad MEDCHAIN_SHARDS={k}"))?;
        if shards >= 2 {
            return run_sharded_flow(&data_dir, shards);
        }
    }

    // Site datasets are generated deterministically, so a restarted
    // process re-derives the same local data its anchors commit to.
    let mut builder = Network::builder().storage(&data_dir);
    for i in 0..3 {
        let records =
            CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
                .cohort((i * 100_000) as u64, 120, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = with_page_budget(builder)?.build()?;

    if net.resumed() {
        println!(
            "▸ resumed at height {} (tip {:?}) — setup skipped, chain recovered from disk",
            net.height(),
            net.ledger().tip().id(),
        );
    } else {
        println!(
            "▸ fresh chain bootstrapped: contracts deployed + datasets anchored at height {}",
            net.height()
        );
        net.grant_all(net.site(2).address(), Purpose::Research)?;
    }

    // Either life does real work: a purpose-gated access request that
    // relies on grants persisted in the previous life.
    let data = net.contracts().data;
    let id = net.invoke(
        2,
        data,
        "request",
        &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
        50_000,
    )?;
    net.confirm(&id)?;
    let receipt = net.receipt(&id.tx_id).ok_or("confirmed receipt")?;
    println!(
        "▸ access request committed (event {:?}); chain now at height {}",
        receipt.events[0].topic,
        net.height()
    );
    if net.resumed() {
        read_back_below_the_window(&mut net, id.tx_id)?;
    }
    println!("▸ kill this process and run again — the chain picks up where it left off");
    Ok(())
}

/// Commits past the next snapshot boundary, which leaves the block of
/// `id` below the resident window, then reads that block and the
/// receipt proof cut from it back from the log.
fn read_back_below_the_window(
    net: &mut Network,
    id: Hash256,
) -> Result<(), Box<dyn std::error::Error>> {
    let every = StorageConfig::default().snapshot_every;
    let (height, _) = net.ledger().locate_tx(&id).ok_or("request not located")?;
    let boundary = (height / every + 1) * every;
    net.advance(boundary - net.height().min(boundary))?;
    let block = net.ledger().block(height).ok_or("block not read back")?;
    let (block_id, tx_root) = (block.id(), block.header.tx_root);
    let proof = net.ledger().tx_receipt(&id).ok_or("receipt not read back")?;
    if !proof.verify_against(&tx_root) {
        return Err("the read-back receipt does not verify against its block".into());
    }
    println!(
        "▸ below the resident window (snapshot at {boundary}): block {height} ({block_id:?}) and \
         its receipt read back from the log; the proof verifies"
    );
    Ok(())
}
