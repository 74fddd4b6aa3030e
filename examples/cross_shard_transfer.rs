//! Cross-shard atomic transfers: two-phase commit over the coordinator
//! chain (DESIGN.md §12).
//!
//! Phase 1 runs a transfer spanning both sub-chains of a 2-shard
//! consortium: a debit prepare locks and escrows on the sender's home
//! shard, a credit prepare locks on the receiver's, the coordinator
//! chain records a commit decision, and finalize legs release both
//! locks — the sender's shard keeps the debit, the receiver's pays out.
//!
//! Phase 2 injects a participant crash mid-prepare: only the debit leg
//! ever locks, the whole consortium is killed, and a *restart from
//! disk* reconstructs the lock before the resolver timeout-aborts it —
//! the escrow is refunded and no balance moved anywhere.
//!
//! ```text
//! cargo run --release --example cross_shard_transfer
//! ```

use medchain_repro::prelude::*;

const SHARDS: u16 = 2;

fn build(data_dir: &std::path::Path) -> Result<Network, Box<dyn std::error::Error>> {
    // Snapshot every block so held 2PC locks and test funding survive a
    // kill-and-restart (recovery restores the newest agreeing snapshot).
    let config = StorageConfig { snapshot_every: 1, ..StorageConfig::default() };
    let mut builder = Network::builder()
        .shards(SHARDS)
        .block_interval_ms(20)
        .storage_with(data_dir, config);
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    Ok(builder.build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data_dir = std::env::temp_dir().join("medchain-cross-shard-transfer");
    if data_dir.exists() {
        std::fs::remove_dir_all(&data_dir)?;
    }

    let from = AuthorityKey::from_seed(0).address(); // site 0's account
    let to = (1000..)
        .map(Address::from_seed)
        .find(|a| shard_for_key(&a.0, SHARDS) != shard_for_key(&from.0, SHARDS))
        .unwrap();
    println!(
        "▸ sender {from:?} lives on {}, receiver {to:?} on {}",
        shard_for_key(&from.0, SHARDS),
        shard_for_key(&to.0, SHARDS),
    );

    // ── Phase 1: a committed transfer spanning both sub-chains ─────────
    let mut net = build(&data_dir)?;
    net.fund(from, 100);
    let deadline = net.now_ms() + 1_000_000;
    let (xid, committed) = net.run_cross_shard_transfer(0, to, 40, deadline)?;
    assert!(committed, "both legs locked, so the coordinator commits");
    assert_eq!(net.balance_of(&from), 60, "debit applied on the sender's shard");
    assert_eq!(net.balance_of(&to), 40, "credit applied on the receiver's shard");
    assert!(net.lock_of(&from).is_none() && net.lock_of(&to).is_none());
    println!("▸ {xid:?}: cross-shard transfer committed atomically");
    println!("  balances: sender {} / receiver {}", net.balance_of(&from), net.balance_of(&to));

    // ── Phase 2: participant crash mid-prepare, then restart ───────────
    // Only the debit leg locks (the credit shard "crashed"); then the
    // whole consortium dies with the lock held.
    let xid = Hash256::digest(b"crashed-participant");
    let debit = net.submit_prepare(0, xid, from, 25, true, net.now_ms())?;
    net.confirm(&debit)?;
    assert_eq!(net.balance_of(&from), 35, "escrow taken at prepare");
    drop(net); // kill every site mid-2PC

    let mut net = build(&data_dir)?;
    assert!(net.resumed(), "all sub-chains restarted from disk");
    assert_eq!(
        net.lock_of(&from).map(|l| l.xid),
        Some(xid),
        "the lock was reconstructed on replay"
    );
    println!("▸ restarted from disk with the prepare lock intact");

    // The credit leg never locked: once the (restarted) coordinator
    // clock passes the deadline, the resolver aborts and refunds the
    // escrow. Run coordinator rounds until the verdict lands.
    let mut resolution = XsResolution::default();
    for _ in 0..64 {
        net.advance_coordinator(1)?;
        resolution = net.resolve_cross_shard()?;
        if resolution.aborted > 0 {
            break;
        }
    }
    assert_eq!((resolution.aborted, resolution.finalized), (1, 1));
    assert!(net.lock_of(&from).is_none());
    assert_eq!(net.balance_of(&from), 60, "escrow refunded in full");
    assert!(!net.home_ledger().state().xs_decision(&xid).unwrap().commit);
    println!("▸ {xid:?}: timeout-abort released all locks");
    println!("  balances: sender {} / receiver {}", net.balance_of(&from), net.balance_of(&to));

    std::fs::remove_dir_all(&data_dir)?;
    Ok(())
}
