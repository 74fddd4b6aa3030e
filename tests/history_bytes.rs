//! Resident bytes one committed block adds to a 4-site in-process
//! network, measured by a global allocator that wraps `System` and sums
//! the live `Layout` bytes. The sum is process-wide, so this binary
//! holds this one test and nothing else.
//!
//! Every site keeps the whole committed history, and in one process
//! that history is paid once per replica. What a block leaves behind
//! once it commits is its header and body, held once and shared by
//! every replica, and on each replica a 96-byte `Block` with its own
//! seal (replicas commit different vote sets) and a start offset, and a
//! 24-byte outcome and a tx-index entry per transaction. The window's
//! transfers circle among the four funded sites, so the state gains no
//! account and its tree no node: the growth is history's. The counts
//! include the growth slack of history's lists and index as it stands
//! after this window.
//!
//! Before headers were shared and receipts were kept as outcomes, the
//! same drive left 3,684 bytes per one-transfer block and 275,216 per
//! 256-transfer block: each replica kept its own copy of the header and
//! digest inline in a 264-byte `Block`, and each receipt as a 120-byte
//! `Receipt` (235,776 and 2,201,728 bytes over the two windows). Now
//! they leave 2,052 (−44%) and 177,776 (−35%).
//!
//! A site that keeps its chain on disk keeps decoded only the blocks
//! from its newest snapshot up. Past that window a one-transfer block
//! leaves each replica its log offset, an empty 8-byte slot, a start
//! offset, its outcome and a tx-index entry, pinned by the same drive on
//! a network with storage (`FsyncPolicy::Never`, a snapshot every
//! [`SNAPSHOT_EVERY`] blocks) over a window that starts and ends on a
//! snapshot boundary: 32,640 bytes over 64 blocks, 510 a block (−75%
//! against the 2,052 a block costs where every block stays decoded).

use medchain_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct Live;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call goes unchanged to `System`, which meets the
// `GlobalAlloc` contract; counting touches nothing but one atomic.
unsafe impl GlobalAlloc for Live {
    // SAFETY: the caller's guarantees on `layout` are passed on as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above — `layout` is the caller's, unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's guarantees on `ptr` and `layout` are passed on.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc` above, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static LIVE_BYTES: Live = Live;

const SITES: usize = 4;
/// Snapshot cadence of the network with storage.
const SNAPSHOT_EVERY: u64 = 8;
const THIN_BLOCKS: u64 = 64;
const FAT_BLOCKS: u64 = 8;
/// Transfers per fat block: 64 from each site.
const FAT: usize = 256;

/// Live bytes left by `(THIN_BLOCKS one-transfer blocks, FAT_BLOCKS
/// 256-transfer blocks)` in one run.
fn live_bytes(seed: u64) -> (i64, i64) {
    let mut builder = MedicalNetwork::builder().block_interval_ms(20).seed(seed);
    for i in 0..SITES {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let sites: Vec<Address> = (0..SITES).map(|i| net.site(i).address()).collect();
    for site in &sites {
        net.fund(*site, 1_000_000_000);
    }
    // Warm-up: the first block after funding builds each replica's tree.
    net.advance(1).expect("warm-up block");
    let mut last = None;
    let mut transfer = |net: &mut MedicalNetwork, from: usize| {
        let payload = TxPayload::Transfer { to: sites[(from + 1) % SITES], amount: 1 };
        last = Some(net.submit(from, payload, 1_000).expect("admitted").tx_id);
    };
    // One of each shape outside the window, so that every structure a
    // block touches has been grown once.
    transfer(&mut net, 0);
    net.advance(1).expect("thin block");
    for from in 0..FAT {
        transfer(&mut net, from % SITES);
    }
    net.advance(1).expect("fat block");

    let start = (net.height(), LIVE.load(Ordering::Relaxed));
    for block in 0..THIN_BLOCKS {
        transfer(&mut net, block as usize % SITES);
        net.advance(1).expect("thin block");
    }
    let thin = (net.height(), LIVE.load(Ordering::Relaxed));
    for _ in 0..FAT_BLOCKS {
        for from in 0..FAT {
            transfer(&mut net, from % SITES);
        }
        net.advance(1).expect("fat block");
    }
    let fat = (net.height(), LIVE.load(Ordering::Relaxed));

    let blocks = (thin.0 - start.0, fat.0 - thin.0);
    assert_eq!(blocks, (THIN_BLOCKS, FAT_BLOCKS), "one block per advance");
    for height in start.0 + 1..=fat.0 {
        let want = if height <= thin.0 { 1 } else { FAT };
        assert_eq!(net.ledger().block(height).expect("retained").transactions.len(), want);
    }
    for site in 1..SITES {
        assert_eq!(net.ledger_of(site).tip().id(), net.ledger().tip().id());
    }
    assert!(net.receipt(&last.expect("submitted")).is_some_and(|receipt| receipt.ok));
    net.shutdown();
    (thin.1 - start.1, fat.1 - thin.1)
}

/// Live bytes left by `THIN_BLOCKS` one-transfer blocks on the same
/// network with every site's chain on disk, from one snapshot boundary
/// to another.
fn live_bytes_on_disk(seed: u64) -> i64 {
    let dir = std::env::temp_dir()
        .join(format!("medchain-history-bytes-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StorageConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every: SNAPSHOT_EVERY,
        ..StorageConfig::default()
    };
    let mut builder =
        MedicalNetwork::builder().block_interval_ms(20).seed(seed).storage_with(&dir, config);
    for i in 0..SITES {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let sites: Vec<Address> = (0..SITES).map(|i| net.site(i).address()).collect();
    for site in &sites {
        net.fund(*site, 1_000_000_000);
    }
    let mut last = None;
    let mut transfer = |net: &mut MedicalNetwork, from: usize| {
        let payload = TxPayload::Transfer { to: sites[(from + 1) % SITES], amount: 1 };
        last = Some(net.submit(from, payload, 1_000).expect("admitted").tx_id);
    };
    // Warm-up: two windows' worth of blocks, then on to a boundary.
    let mut from = 0;
    while net.height() < 2 * SNAPSHOT_EVERY || !net.height().is_multiple_of(SNAPSHOT_EVERY) {
        transfer(&mut net, from % SITES);
        net.advance(1).expect("warm-up block");
        from += 1;
    }

    let start = (net.height(), LIVE.load(Ordering::Relaxed));
    for block in 0..THIN_BLOCKS {
        transfer(&mut net, block as usize % SITES);
        net.advance(1).expect("thin block");
    }
    let end = (net.height(), LIVE.load(Ordering::Relaxed));

    assert_eq!(end.0 - start.0, THIN_BLOCKS, "one block per advance");
    // Every height stays readable: the window from memory, the rest
    // read back from the log.
    for height in 1..=end.0 {
        let block = net.ledger().block(height).expect("readable");
        assert_eq!(block.header.height, height);
        if height > start.0 {
            assert_eq!(block.transactions.len(), 1);
        }
    }
    for site in 1..SITES {
        assert_eq!(net.ledger_of(site).tip().id(), net.ledger().tip().id());
    }
    let last = last.expect("submitted");
    assert!(net.receipt(&last).is_some_and(|receipt| receipt.ok));
    net.shutdown();
    drop(net);
    std::fs::remove_dir_all(&dir).expect("data directory removed");
    end.1 - start.1
}

#[test]
fn a_committed_block_leaves_a_pinned_number_of_live_bytes() {
    let (thin, fat) = live_bytes(7);
    assert_eq!((thin, fat), live_bytes(7), "same seed, same bytes");
    let per_block = (thin / THIN_BLOCKS as i64, fat / FAT_BLOCKS as i64);
    assert_eq!(
        (thin, fat),
        (131_328, 1_422_208),
        "{per_block:?} bytes per one-transfer and per 256-transfer block"
    );

    let on_disk = live_bytes_on_disk(7);
    assert_eq!(on_disk, live_bytes_on_disk(7), "same seed, same bytes on disk");
    let per_block = on_disk / THIN_BLOCKS as i64;
    assert_eq!(on_disk, 32_640, "{per_block} bytes per one-transfer block on disk");
}
