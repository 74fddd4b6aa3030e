//! Crash-recovery acceptance tests for the durable storage subsystem.
//!
//! The invariant under test: a node you kill — even mid-append — comes
//! back with exactly the chain it had durably committed. Recovery
//! truncates the torn tail record, restores the newest snapshot that
//! agrees with the log, re-executes the tail through the ledger, and
//! the replayed tip hash and state root are asserted equal to the
//! pre-crash values. `storage.*` counters on the metrics sink make the
//! recovery observable, not just survivable.

use medchain_chain::auth::leaf::{key_bit, key_hash};
use medchain_chain::ledger::NullRuntime;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::tx::{Transaction, TxPayload};
use medchain_chain::WorldState;
use medchain_chain::{
    Hash256, KeyRegistry, LeafKey, Ledger, Pager, StateAccess, StateCacheConfig, StateDelta,
    StateTree, WorldStateOverlay, ACCOUNTS_PER_PAGE,
};
use medchain::gateway::GatewayBackend;
use medchain::{BootstrapSource, GatewayRequest, GatewayResponse, NetworkError};
use medchain_repro::prelude::*;
use medchain_runtime::metrics::Registry;
use medchain_storage::{
    split_record, SegmentedLog, SnapshotStore, PAGE_BYTES, RECORD_HEADER_BYTES,
};
use medchain_chain::ledger::LedgerError;
use medchain_chain::{Block, BlockStore, StoreError};
use medchain_runtime::check::{check, CheckConfig, PropResult};
use medchain_runtime::{ensure, ensure_eq};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("medchain-itest-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale test dir");
    }
    dir
}

fn fresh_ledger(key: &AuthorityKey) -> Ledger {
    let mut registry = KeyRegistry::new();
    registry.enroll(key);
    Ledger::new("storage-itest", registry, Box::new(NullRuntime))
}

/// Commits `n` anchor blocks (anchors need no balances, so replaying
/// from genesis reproduces the exact state).
fn grow(ledger: &mut Ledger, key: &AuthorityKey, n: u64) {
    for _ in 0..n {
        let h = ledger.height();
        let tx = Transaction::new(
            key.address(),
            ledger.state().account(&key.address()).nonce,
            TxPayload::Anchor {
                root: Hash256::digest(&h.to_le_bytes()),
                label: format!("cohort-{h}"),
            },
            100,
        )
        .signed(key);
        let block = ledger.propose(key.address(), (h + 1) * 50, vec![tx]);
        ledger.apply(&block).expect("block applies");
    }
}

/// The headline acceptance test: commit N blocks with snapshots
/// enabled, crash mid-append of block N+1 — half its record on disk, as a
/// crash between the write and its fsync may leave it — reopen, and
/// verify the replayed chain equals the pre-crash chain with
/// `storage.truncated_records == 1` on the sink. The storage crate's
/// crash model checks every crash point of a scripted run this way
/// (DESIGN.md §8); that a failed append leaves memory untouched is
/// `torn_append_on_a_paged_ledger_leaves_cold_accounts_cold`.
#[test]
fn torn_tail_crash_recovers_pre_crash_tip_and_state_root() {
    let dir = test_dir("torn-tail");
    let key = AuthorityKey::from_seed(7);
    let config = StorageConfig {
        snapshot_every: 4,
        segment_bytes: 2048, // small segments: the log rolls several times
        ..StorageConfig::default()
    };

    // First life: 10 committed blocks, then block 11 torn on disk.
    let mut ledger = fresh_ledger(&key);
    let mut store = DiskStore::open(&dir, config).unwrap();
    store.recover_into(&mut ledger).unwrap();
    ledger.attach_store(Box::new(store));
    grow(&mut ledger, &key, 10);
    let tip_id = ledger.tip().id();
    let state_root = ledger.state().state_root();
    grow(&mut ledger, &key, 1);
    drop(ledger);
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    segments.sort();
    let newest = segments.last().expect("a segment file");
    let bytes = std::fs::read(newest).unwrap();
    let (mut rest, mut last) = (&bytes[..], 0);
    while !rest.is_empty() {
        last = bytes.len() - rest.len();
        rest = split_record(rest).unwrap().1;
    }
    std::fs::write(newest, &bytes[..last + (bytes.len() - last) / 2]).unwrap();

    // Second life: recovery truncates the torn record and replays.
    let registry = Registry::new();
    let mut ledger = fresh_ledger(&key);
    let mut store =
        DiskStore::open_with_metrics(&dir, StorageConfig::default(), registry.handle()).unwrap();
    let report = store.recover_into(&mut ledger).unwrap();

    assert_eq!(report.height, 10);
    assert_eq!(report.tip_id, tip_id);
    assert_eq!(report.truncated_records, 1);
    assert_eq!(ledger.tip().id(), tip_id, "replayed tip hash == pre-crash tip hash");
    assert_eq!(
        ledger.state().state_root(),
        state_root,
        "replayed state root == pre-crash state root"
    );
    // Snapshot at height 8 bounded the replay to blocks 9 and 10.
    assert_eq!(report.from_snapshot, Some(8));
    assert_eq!(report.replayed_blocks, 2);
    // The sink saw the recovery.
    assert_eq!(registry.counter_value("storage.truncated_records"), 1);
    assert_eq!(registry.counter_value("storage.replayed_blocks"), 2);

    // And the recovered chain still accepts new blocks.
    ledger.attach_store(Box::new(store));
    grow(&mut ledger, &key, 1);
    assert_eq!(ledger.height(), 11);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Flipping one byte inside a mid-log record corrupts its CRC; recovery
/// stops cleanly at the prior record instead of loading garbage.
#[test]
fn flipped_byte_in_log_record_stops_recovery_at_prior_record() {
    let dir = test_dir("byte-flip");
    let key = AuthorityKey::from_seed(9);
    // No snapshots: recovery must come entirely from the log replay.
    let config =
        StorageConfig { snapshot_every: 0, ..StorageConfig::default() };

    let mut ledger = fresh_ledger(&key);
    let mut store = DiskStore::open(&dir, config).unwrap();
    store.recover_into(&mut ledger).unwrap();
    ledger.attach_store(Box::new(store));
    grow(&mut ledger, &key, 6);
    let fourth_tip = ledger.block(4).unwrap().id();
    drop(ledger);

    // Corrupt one byte inside the fifth record's payload. All six
    // records live in one segment; walk the framing to find it.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "wal"))
        .expect("one segment file");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mut rest = &bytes[..];
    for _ in 0..4 {
        rest = split_record(rest).unwrap().1;
    }
    let offset = bytes.len() - rest.len();
    bytes[offset + RECORD_HEADER_BYTES + 10] ^= 0x40;
    std::fs::write(&seg, bytes).unwrap();

    let registry = Registry::new();
    let mut ledger = fresh_ledger(&key);
    let mut store =
        DiskStore::open_with_metrics(&dir, config, registry.handle()).unwrap();
    let report = store.recover_into(&mut ledger).unwrap();
    // Blocks 5 and 6 are gone (5 was corrupt, 6 can't follow a hole);
    // the chain stops cleanly at block 4.
    assert_eq!(report.height, 4);
    assert_eq!(ledger.tip().id(), fourth_tip);
    assert_eq!(registry.counter_value("storage.truncated_records"), 1);

    // The truncated chain extends normally from block 4.
    ledger.attach_store(Box::new(store));
    grow(&mut ledger, &key, 2);
    assert_eq!(ledger.height(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn sharded_net(root: &std::path::Path, sites: usize, shards: u16) -> Network {
    let mut builder =
        Network::builder().shards(shards).block_interval_ms(20).storage(root);
    for i in 0..sites {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    builder.build().expect("sharded network builds")
}

/// Kill-and-restart for the sharded topology (DESIGN.md §9): every
/// sub-chain and the coordinator chain resume from their own data
/// directories, the recovered sub-chains agree with the newest
/// cross-links the recovered coordinator holds, and the consortium keeps
/// committing — including a fresh cross-link round past the old tips.
#[test]
fn sharded_network_restart_recovers_subchains_agreeing_with_cross_links() {
    let root = test_dir("sharded-restart");

    // First life: work on both shards, then a committed cross-link round.
    let mut net = sharded_net(&root, 4, 2);
    assert!(!net.resumed());
    for i in 0..4 {
        let label = format!("hospital-{i}/emr");
        net.submit(i, TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }, 1_000)
            .unwrap();
    }
    net.advance(2).unwrap();
    let links = net.cross_link().unwrap();
    assert_eq!(links.len(), 2);
    let heights = net.shard_heights();
    let tips: Vec<Hash256> =
        (0..2).map(|s| net.ledger_of_shard(ShardId(s)).tip().id()).collect();
    let coordinator_tip = net.home_ledger().tip().id();
    drop(net);

    // Second life: all sub-chains resume and pass the cross-link audit.
    let mut net = sharded_net(&root, 4, 2);
    assert!(net.resumed());
    assert_eq!(net.shard_heights(), heights);
    for s in 0..2u16 {
        assert_eq!(net.ledger_of_shard(ShardId(s)).tip().id(), tips[s as usize]);
    }
    assert_eq!(net.home_ledger().tip().id(), coordinator_tip);
    // The recovered coordinator still holds the pre-crash cross-links.
    for link in &links {
        let record =
            net.home_ledger().state().cross_link(link.shard).expect("recorded");
        assert_eq!(record.tip, link.tip);
    }
    // The resumed consortium keeps growing and cross-links past the old
    // tips.
    net.submit(0, TxPayload::Anchor { root: Hash256::ZERO, label: "post-restart".into() }, 1_000)
        .unwrap();
    net.advance(1).unwrap();
    let new_links = net.cross_link().unwrap();
    assert!(!new_links.is_empty());
    assert!(new_links.iter().all(|l| {
        links.iter().find(|p| p.shard == l.shard).map_or(true, |p| l.height > p.height)
    }));
    std::fs::remove_dir_all(&root).unwrap();
}

/// A shard whose durable chain was rolled back behind its committed
/// cross-link (here: its data wiped entirely) must be caught at resume —
/// the recovery audit refuses to bring up a consortium whose coordinator
/// commits a height the sub-chain no longer has.
#[test]
fn sharded_restart_rejects_subchain_rolled_back_behind_cross_link() {
    let root = test_dir("sharded-rollback");

    let mut net = sharded_net(&root, 4, 2);
    for i in 0..4 {
        let label = format!("hospital-{i}/emr");
        net.submit(i, TxPayload::Anchor { root: Hash256::ZERO, label }, 1_000).unwrap();
    }
    net.advance(2).unwrap();
    assert_eq!(net.cross_link().unwrap().len(), 2);
    drop(net);

    // Roll shard-0 back to genesis by wiping its data directories.
    std::fs::remove_dir_all(root.join("shard-0")).unwrap();
    let mut builder =
        Network::builder().shards(2).block_interval_ms(20).storage(&root);
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let err = builder.build().expect_err("rolled-back shard must not resume");
    let text = err.to_string();
    assert!(
        text.contains("cross-link") && text.contains("shard-0"),
        "unexpected error: {text}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// Builds a sharded net whose world state (balances *and* 2PC locks)
/// snapshots on every block, so out-of-band test funding and held locks
/// survive a kill-and-restart.
fn sharded_net_2pc(root: &std::path::Path, sites: usize, shards: u16) -> Network {
    let config = StorageConfig { snapshot_every: 1, ..StorageConfig::default() };
    let mut builder = Network::builder()
        .shards(shards)
        .block_interval_ms(20)
        .storage_with(root, config);
    for i in 0..sites {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    builder.build().expect("sharded network builds")
}

/// An address homed on a different shard than `other`.
fn other_shard_address(other: Address, shards: u16) -> Address {
    let home = shard_for_key(&other.0, shards);
    (1000..)
        .map(Address::from_seed)
        .find(|a| shard_for_key(&a.0, shards) != home)
        .unwrap()
}

/// Kill-and-restart in the middle of a two-phase commit, after the
/// coordinator decided but before any shard finalized: the restart
/// reconstructs both locks and the decision record from disk, and one
/// resolver pass finishes the transfer exactly as the pre-crash
/// coordinator decided — debit kept, credit paid, locks released.
#[test]
fn restart_mid_2pc_resolves_via_coordinator_record() {
    let root = test_dir("2pc-mid-restart");
    let from = AuthorityKey::from_seed(0).address(); // site 0's account
    let to = other_shard_address(from, 2);

    // First life: lock both legs, decide commit, crash before finalize.
    let mut net = sharded_net_2pc(&root, 4, 2);
    net.fund(from, 100);
    let deadline = net.now_ms() + 1_000_000;
    let transfer = net.begin_cross_shard_transfer(0, to, 40, deadline).unwrap();
    net.confirm(&transfer.debit).unwrap();
    net.confirm(&transfer.credit).unwrap();
    net.submit_lane(0, TxPayload::XsDecide { xid: transfer.xid, commit: true }, 1_000, Lane::Priority)
        .unwrap();
    net.advance_coordinator(2).unwrap();
    assert!(net.home_ledger().state().xs_decision(&transfer.xid).is_some());
    assert!(net.lock_of(&from).is_some(), "crash strikes before finalize");
    assert!(net.lock_of(&to).is_some());
    assert_eq!(net.balance_of(&from), 60, "escrow taken at prepare");
    assert_eq!(net.balance_of(&to), 0);
    drop(net);

    // Second life: locks and the decision record come back from disk.
    let mut net = sharded_net_2pc(&root, 4, 2);
    assert!(net.resumed());
    assert_eq!(net.lock_of(&from).map(|l| l.xid), Some(transfer.xid));
    assert_eq!(net.lock_of(&to).map(|l| l.xid), Some(transfer.xid));
    let decision =
        net.home_ledger().state().xs_decision(&transfer.xid).expect("decision durable");
    assert!(decision.commit);
    // One resolver pass finishes what the coordinator already decided.
    let resolution = net.resolve_cross_shard().unwrap();
    assert_eq!(resolution.finalized, 2);
    assert_eq!(resolution.committed + resolution.aborted, 0, "no new decision needed");
    assert_eq!(net.balance_of(&from), 60);
    assert_eq!(net.balance_of(&to), 40);
    assert!(net.lock_of(&from).is_none());
    assert!(net.lock_of(&to).is_none());
    std::fs::remove_dir_all(&root).unwrap();
}

/// A participant crash mid-prepare: the debit leg locked its shard, the
/// credit leg's shard died and never locked. After a full
/// kill-and-restart of the consortium the lock is reconstructed from
/// disk, the resolver timeout-aborts past the deadline, the escrow is
/// refunded, and the abort verdict itself survives another restart.
#[test]
fn kill_mid_prepare_timeout_aborts_after_restart_and_refunds() {
    let root = test_dir("2pc-timeout-abort");
    let from = AuthorityKey::from_seed(0).address();
    let to = other_shard_address(from, 2);

    // First life: only the debit leg ever locks (deadline already at 0),
    // then the whole consortium dies mid-prepare.
    let mut net = sharded_net_2pc(&root, 4, 2);
    net.fund(from, 100);
    let xid = Hash256::digest(b"crashed-participant");
    let debit = net.submit_prepare(0, xid, from, 40, true, 0).unwrap();
    net.confirm(&debit).unwrap();
    assert_eq!(net.balance_of(&from), 60);
    drop(net);

    // Second life: the lock is reconstructed on replay; the resolver
    // cannot wait for a shard that never locked — timeout-abort.
    let mut net = sharded_net_2pc(&root, 4, 2);
    assert!(net.resumed());
    assert_eq!(net.lock_of(&from).map(|l| l.xid), Some(xid), "lock recovered from disk");
    net.advance_coordinator(1).unwrap(); // move the clock past the deadline
    let resolution = net.resolve_cross_shard().unwrap();
    assert_eq!(resolution.aborted, 1);
    assert_eq!(resolution.committed, 0);
    assert_eq!(resolution.finalized, 1);
    assert_eq!(net.balance_of(&from), 100, "escrow refunded");
    assert_eq!(net.balance_of(&to), 0, "the receiver never saw a credit");
    assert!(net.lock_of(&from).is_none(), "all locks released");
    assert!(!net.home_ledger().state().xs_decision(&xid).unwrap().commit);
    drop(net);

    // Third life: the abort is durable — nothing left to resolve.
    let mut net = sharded_net_2pc(&root, 4, 2);
    assert!(net.resumed());
    assert!(net.lock_of(&from).is_none());
    assert_eq!(net.balance_of(&from), 100);
    assert!(!net.home_ledger().state().xs_decision(&xid).unwrap().commit);
    assert_eq!(net.resolve_cross_shard().unwrap(), XsResolution::default());
    std::fs::remove_dir_all(&root).unwrap();
}

/// Restarting a `Network` from its data directory resumes at the
/// persisted height with the identical tip hash, and the storage
/// counters on the sink show the persistence actually happening.
#[test]
fn medical_network_restart_resumes_at_persisted_height() {
    let root = test_dir("net-restart");
    let records = |i: usize| {
        CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
            .cohort((i * 10_000) as u64, 50, &DiseaseModel::stroke())
    };

    // First life: bootstrap and do some work; count appends on the sink.
    let registry = Registry::new();
    let mut net = Network::builder()
        .site("hospital-0", records(0))
        .site("hospital-1", records(1))
        .site("hospital-2", records(2))
        .storage(&root)
        .metrics(registry.handle())
        .build()
        .unwrap();
    assert!(!net.resumed());
    net.grant_all(net.site(1).address(), Purpose::Research).unwrap();
    let height = net.height();
    let tip = net.ledger().tip().id();
    assert_eq!(
        registry.counter_value("storage.appends"),
        height,
        "every committed block was persisted write-ahead"
    );
    assert!(registry.counter_value("storage.bytes") > 0);
    assert!(registry.counter_value("storage.fsyncs") > 0);
    drop(net);

    // Second life: resume from disk; the chain replays instead of
    // re-running setup.
    let registry = Registry::new();
    let net = Network::builder()
        .site("hospital-0", records(0))
        .site("hospital-1", records(1))
        .site("hospital-2", records(2))
        .storage(&root)
        .metrics(registry.handle())
        .build()
        .unwrap();
    assert!(net.resumed());
    assert_eq!(net.height(), height, "resumed at the persisted height");
    assert_eq!(net.ledger().tip().id(), tip, "identical tip hash after restart");
    assert!(registry.counter_value("storage.replayed_blocks") > 0);
    // All replicas recovered to the same chain.
    for i in 0..3 {
        assert_eq!(net.ledger_of(i).tip().id(), tip);
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// A 3-site flat consortium persisted under `root`, snapshotting every
/// 4 blocks so a rejoining site streams a snapshot *and* a WAL tail.
fn flat_net(root: &std::path::Path) -> Network {
    let mut builder = Network::builder()
        .storage_with(root, StorageConfig { snapshot_every: 4, ..StorageConfig::default() });
    for i in 0..3 {
        let records = CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 900 + i as u64)
            .cohort((i * 10_000) as u64, 40, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    builder.build().expect("flat network builds")
}

/// Asserts every replica sits on `tip`, then commits one more data
/// request so the rejoined consortium is shown to keep growing.
fn assert_agreed_and_growing(net: &mut Network, height: u64, tip: Hash256) {
    assert!(net.resumed());
    assert_eq!(net.height(), height);
    for site in 0..net.site_count() {
        assert_eq!(net.ledger_of(site).tip().id(), tip, "site {site} disagrees");
    }
    let pending = net
        .invoke(
            1,
            net.contracts().data,
            "request",
            &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
            50_000,
        )
        .unwrap();
    net.confirm(&pending).unwrap();
    assert!(net.height() > height);
}

/// The rejoin path on the flat chain (DESIGN.md §14): a site that lost
/// its whole data directory streams a peer's snapshot + WAL tail at the
/// next build and comes back agreeing with the cohort; one life later
/// its adopted snapshot and appended tail recover natively.
#[test]
fn wiped_site_rejoins_via_streamed_snapshot() {
    let root = test_dir("net-rejoin");

    // First life: commit work beyond the one-time setup.
    let mut net = flat_net(&root);
    net.grant_all(net.site(1).address(), Purpose::Research).unwrap();
    let height = net.height();
    let tip = net.ledger().tip().id();
    drop(net);

    // Site 2 loses its entire data directory.
    std::fs::remove_dir_all(root.join("site-2")).unwrap();

    // Second life: streamed rejoin, then the consortium keeps committing.
    let mut net = flat_net(&root);
    assert_agreed_and_growing(&mut net, height, tip);
    drop(net);

    // Third life: no peer involved any more.
    let net = flat_net(&root);
    assert!(net.resumed());
    let tips: Vec<Hash256> = (0..3).map(|i| net.ledger_of(i).tip().id()).collect();
    assert!(tips.windows(2).all(|w| w[0] == w[1]));
    std::fs::remove_dir_all(&root).unwrap();
}

/// A 4-site flat consortium of empty sites, funded, whose sites keep
/// their chains under `root` (fsync off, a snapshot every `every`
/// blocks) when one is given.
fn read_back_net(root: Option<&std::path::Path>, seed: u64, every: u64) -> Network {
    let mut builder = Network::builder().block_interval_ms(20).seed(seed);
    if let Some(root) = root {
        let config =
            StorageConfig { fsync: FsyncPolicy::Never, snapshot_every: every, ..StorageConfig::default() };
        builder = builder.storage_with(root, config);
    }
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    if !net.resumed() {
        for i in 0..4 {
            let site = net.site(i).address();
            net.fund(site, 1_000_000_000);
        }
    }
    net
}

/// Commits one block per entry of `plan`, each holding a transfer from
/// every site the entry names; returns the transactions' ids.
fn drive(net: &mut Network, plan: &[Vec<usize>]) -> Result<Vec<Hash256>, String> {
    let sites: Vec<Address> = (0..4).map(|i| net.site(i).address()).collect();
    let mut ids = Vec::new();
    for senders in plan {
        for &from in senders {
            let payload = TxPayload::Transfer { to: sites[(from + 1) % 4], amount: 1 };
            ids.push(net.submit(from, payload, 1_000).map_err(|e| e.to_string())?.tx_id);
        }
        net.advance(1).map_err(|e| e.to_string())?;
    }
    Ok(ids)
}

/// `net` serves what its storeless `twin` serves above `above`: every
/// readable height on every site is the twin's block (id and seal), every
/// transaction committed there has the twin's receipt proof and it
/// verifies against the header `net` reads, and a `BlocksFrom` feed from
/// the lowest such height is the twin's.
fn ensure_serves_the_twins_blocks(
    net: &mut Network,
    twin: &mut Network,
    txs: &[Hash256],
    above: u64,
) -> PropResult {
    let tip = net.height();
    for site in 0..4 {
        let (ledger, twin_ledger) = (net.ledger_of(site), twin.ledger_of(site));
        let from = ledger.base_height().max(above);
        for height in from..=tip {
            let got = ledger.block(height).ok_or(format!("site {site}: {height} unreadable"))?;
            ensure!(Some(got) == twin_ledger.block(height), "site {site}: block {height} differs");
        }
    }
    let from = net.ledger().base_height().max(above);
    for id in txs {
        let Some((height, _)) = twin.ledger().locate_tx(id) else { continue };
        if height <= from || height > tip {
            continue;
        }
        let proof = net.ledger().tx_receipt(id).ok_or(format!("no receipt at {height}"))?;
        ensure!(Some(&proof) == twin.ledger().tx_receipt(id).as_ref(), "proof at {height}");
        let root = net.ledger().block(height).ok_or("receipt block unreadable")?.header.tx_root;
        ensure!(proof.verify_against(&root), "receipt proof at {height} failed");
    }
    let feed = |net: &mut Network| {
        let (tip, blocks) = net.blocks_from(ShardId(0), from).expect("shard 0 serves blocks");
        (tip, blocks.take_while(|block| block.header.height <= tip).cloned().collect::<Vec<_>>())
    };
    let (got, want) = (feed(net), feed(twin));
    ensure_eq!(got.0, tip);
    ensure!(got.1[..] == want.1[..got.1.len()], "a BlocksFrom feed from {from} differs");
    ensure_eq!(got.1.len() as u64, tip + 1 - from);
    Ok(())
}

/// Bounded history (DESIGN.md §8): a site that keeps its chain on disk
/// keeps decoded only the blocks from its newest snapshot up, and reads
/// older ones back from its log. Every readable height, receipt proof,
/// `BlocksFrom` feed and bootstrap-capture tail must be the storeless
/// twin's, before a restart and, above the restored base, after one —
/// and again once later commits have moved those heights out of memory.
#[test]
fn a_store_backed_network_reads_back_what_its_storeless_twin_keeps() {
    check("store-backed reads equal the storeless twin", CheckConfig::cases(4), |g| {
        let root = test_dir("read-back");
        let (seed, every) = (g.u64() % 1_000, g.usize_in(2, 6) as u64);
        let blocks = g.usize_in(3 * every as usize, 6 * every as usize);
        let plan: Vec<Vec<usize>> =
            (0..blocks).map(|_| (0..g.usize_in(0, 4)).map(|_| g.usize_in(0, 4)).collect()).collect();
        let mut net = read_back_net(Some(&root), seed, every);
        let mut twin = read_back_net(None, seed, every);
        let txs = drive(&mut net, &plan)?;
        ensure_eq!(drive(&mut twin, &plan)?, txs);
        ensure_eq!(net.height(), twin.height());
        ensure_serves_the_twins_blocks(&mut net, &mut twin, &txs, 0)?;

        // A capture tail from the newest full snapshot, which deltas
        // have left below the resident window.
        let store = DiskStore::open(root.join("site-0"), StorageConfig::default())
            .map_err(|e| e.to_string())?;
        let source = BootstrapSource::capture(net.ledger(), Some(&store)).ok_or("no capture")?;
        let snapshot = source.manifest().height;
        ensure!(snapshot + every <= net.height(), "the tail starts in the window");
        let request = GatewayRequest::BlocksFrom { shard: ShardId(0), height: snapshot + 1 };
        let GatewayResponse::Blocks { tip_height, blocks: tail } = source.answer(&request) else {
            return Err("a capture answers a block request with blocks".into());
        };
        ensure_eq!(tip_height, net.height());
        let want: Vec<Block> = twin.ledger().blocks_from(snapshot + 1).cloned().collect();
        ensure!(!tail.is_empty() && tail[..] == want[..tail.len()], "the capture tail differs");
        drop(store);

        // A restart: the heights above the restored base read the same,
        // from memory and, once more blocks commit, from the log.
        let tip = net.height();
        net.shutdown();
        drop(net);
        let mut net = read_back_net(Some(&root), seed, every);
        ensure!(net.resumed(), "the network did not resume");
        ensure_eq!(net.height(), tip);
        let base = net.ledger().base_height();
        ensure!(base > 0, "no snapshot to restore from");
        ensure_serves_the_twins_blocks(&mut net, &mut twin, &txs, base)?;
        let later: Vec<Vec<usize>> = (0..2 * every).map(|i| vec![i as usize % 4]).collect();
        drive(&mut net, &later)?;
        for height in base..=tip {
            let got = net.ledger().block(height).ok_or(format!("{height} unreadable"))?;
            ensure!(Some(got) == twin.ledger().block(height), "block {height} differs");
        }
        net.shutdown();
        twin.shutdown();
        std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
        Ok(())
    });
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// A site left with a *partial prefix* of the chain — here the data
/// directory of a shorter, earlier life copied back over it, as a
/// restore from a stale backup would — cannot take a streamed snapshot
/// above its own WAL (the log would hold a height gap). The rejoin path
/// resets the directory and re-seeds it from the stream instead of
/// refusing to start.
#[test]
fn stale_prefix_site_is_reset_and_reseeded() {
    let root = test_dir("net-stale-prefix");
    let backup = test_dir("net-stale-prefix-backup");

    // First life ends at the set-up height; back site 2 up there.
    let net = flat_net(&root);
    let short = net.height();
    drop(net);
    copy_dir(&root.join("site-2"), &backup);

    // Second life moves the cohort past the backup.
    let mut net = flat_net(&root);
    net.grant_all(net.site(1).address(), Purpose::Research).unwrap();
    let height = net.height();
    let tip = net.ledger().tip().id();
    assert!(height > short);
    drop(net);

    // Site 2 is restored from the stale backup: a valid chain, but short.
    std::fs::remove_dir_all(root.join("site-2")).unwrap();
    copy_dir(&backup, &root.join("site-2"));

    let mut net = flat_net(&root);
    assert_agreed_and_growing(&mut net, height, tip);
    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&backup).unwrap();
}

/// The same rejoin path inside a shard committee: one member of shard 1
/// loses its data directory, streams back from its committee peer, and
/// the recovered consortium still passes the cross-link audit (a shard
/// that came back *behind* its cross-link would be refused, see
/// `sharded_restart_rejects_subchain_rolled_back_behind_cross_link`).
#[test]
fn wiped_shard_member_rejoins_and_passes_cross_link_audit() {
    let root = test_dir("sharded-member-rejoin");

    let mut net = sharded_net(&root, 4, 2);
    for i in 0..4 {
        let label = format!("hospital-{i}/emr");
        net.submit(i, TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }, 1_000)
            .unwrap();
    }
    net.advance(2).unwrap();
    assert_eq!(net.cross_link().unwrap().len(), 2);
    let heights = net.shard_heights();
    let tip = net.ledger_of_shard(ShardId(1)).tip().id();
    drop(net);

    // Local member 0 of shard 1 (global site 1) loses everything; its
    // committee peer (local member 1) still holds the sub-chain.
    std::fs::remove_dir_all(root.join("shard-1").join("site-0")).unwrap();

    // `ledger_of_shard` reads member 0 — the one that was wiped.
    let mut net = sharded_net(&root, 4, 2);
    assert!(net.resumed());
    assert_eq!(net.shard_heights(), heights);
    assert_eq!(net.ledger_of_shard(ShardId(1)).tip().id(), tip);
    // Consensus needs both members: the shard only commits again if the
    // rejoined one is really in step.
    net.submit(1, TxPayload::Anchor { root: Hash256::ZERO, label: "post-rejoin".into() }, 1_000)
        .unwrap();
    net.advance(1).unwrap();
    assert!(!net.cross_link().unwrap().is_empty());
    let heights = net.shard_heights();
    drop(net);

    // The streamed member now recovers from its own disk.
    let net = sharded_net(&root, 4, 2);
    assert!(net.resumed());
    assert_eq!(net.shard_heights(), heights);
    std::fs::remove_dir_all(&root).unwrap();
}

/// Proposes the next block on `ledger`: four transactions from `key`,
/// each a transfer into a 64-account universe or a fresh anchor.
fn random_block(
    rng: &mut DetRng,
    ledger: &mut Ledger,
    key: &AuthorityKey,
) -> medchain_chain::Block {
    propose_random(rng, ledger, key, true)
}

/// [`random_block`] without anchors: once every account of the universe
/// exists, the state stops growing.
fn transfer_block(
    rng: &mut DetRng,
    ledger: &mut Ledger,
    key: &AuthorityKey,
) -> medchain_chain::Block {
    propose_random(rng, ledger, key, false)
}

fn propose_random(
    rng: &mut DetRng,
    ledger: &mut Ledger,
    key: &AuthorityKey,
    anchors: bool,
) -> medchain_chain::Block {
    let height = ledger.height() + 1;
    let nonce_base = ledger.state().account(&key.address()).nonce;
    let txs: Vec<Transaction> = (0..4)
        .map(|k| {
            let payload = if !anchors || rng.next_u64().is_multiple_of(2) {
                let mut to = [0u8; 20];
                to[..8].copy_from_slice(&(rng.next_u64() % 64).to_le_bytes());
                TxPayload::Transfer {
                    to: medchain_chain::Address(to),
                    amount: 1 + rng.next_u64() % 50,
                }
            } else {
                let label = format!("scan-{height}-{k}");
                TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }
            };
            Transaction::new(key.address(), nonce_base + k, payload, 100).signed(key)
        })
        .collect();
    ledger.propose(key.address(), height * 50, txs)
}

/// A page budget needs a data directory for its page file: a builder
/// given `.state_cache(pages)` without `.storage(..)` is refused on
/// either topology instead of silently running fully resident.
#[test]
fn a_page_budget_without_storage_is_refused() {
    let builder = || {
        Network::builder()
            .state_cache(4)
            .site("hospital-0", Vec::new())
            .site("hospital-1", Vec::new())
    };
    for built in [builder().build(), builder().shards(2).build()] {
        match built {
            Err(NetworkError::Storage(reason)) => {
                assert!(reason.contains("storage"), "unclear refusal: {reason}")
            }
            Err(other) => panic!("refused for the wrong reason: {other}"),
            Ok(_) => panic!("a page budget without storage was accepted"),
        }
    }
}

/// A page-capped state cache over `pages`, budgets far below the
/// 64-account working set of [`random_block`].
fn tiny_state_cache(pages: Arc<PageStore>) -> StateCacheConfig {
    StateCacheConfig {
        pager: pages,
        max_hot_accounts: 8, // « the 64-account universe: constant churn
        node_budget: 16,     // forces subtree spills on every commit
    }
}

/// Paged reads ≡ fully-resident reads (DESIGN.md §14): one seeded
/// random block sequence — transfers across a 64-account universe plus
/// anchors — committed by a fully-resident ledger and by page-capped
/// ledgers with 1..=4 cached page slots. Hot-set and node budgets sit
/// far below the working set, so every commit demotes accounts and
/// spills subtrees, and later blocks fault them back in. State roots
/// and full canonical state encodings must stay byte-identical at
/// every height.
#[test]
fn paged_ledger_matches_resident_ledger_under_random_blocks() {
    for cache_pages in 1..=4usize {
        let dir = test_dir(&format!("paged-equiv-{cache_pages}"));
        std::fs::create_dir_all(&dir).unwrap();
        let key = AuthorityKey::from_seed(11);
        let mut resident = fresh_ledger(&key);
        let mut paged = fresh_ledger(&key);
        // Genesis funding (identical on both) before the cache attaches.
        resident.state_mut().credit(key.address(), 1_000_000);
        paged.state_mut().credit(key.address(), 1_000_000);

        let registry = Registry::new();
        let pages = Arc::new(
            PageStore::open(&dir.join("pages.bin"), cache_pages, registry.handle()).unwrap(),
        );
        paged.attach_state_cache(tiny_state_cache(pages));

        let mut rng = DetRng::from_seed(0xD15C_0000 + cache_pages as u64);
        for step in 0..30u64 {
            let block = random_block(&mut rng, &mut resident, &key);
            resident.apply(&block).unwrap();
            paged.apply(&block).unwrap();
            assert_eq!(
                paged.state().state_root(),
                resident.state().state_root(),
                "state root diverged at step {step} with {cache_pages} page slot(s)"
            );
            assert_eq!(
                paged.state().encoded(),
                resident.state().encoded(),
                "state encoding diverged at step {step} with {cache_pages} page slot(s)"
            );
        }
        assert!(
            registry.counter_value("storage.page_writes") > 0,
            "{cache_pages} slot(s): budget never forced a spill"
        );
        assert!(
            registry.counter_value("storage.page_misses") > 0,
            "{cache_pages} slot(s): no read ever faulted a page back in"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The cold set (DESIGN.md §14) packs demoted records
/// `ACCOUNTS_PER_PAGE` to a page and stages the remainder; a page is
/// freed with the last of its members to be promoted, and the merged
/// view — reads, equality, the canonical bytes — never moves.
#[test]
fn cold_accounts_pack_by_the_page_and_free_it_with_its_last_member() {
    let dir = test_dir("cold-packing");
    std::fs::create_dir_all(&dir).unwrap();
    let mut ledger = fresh_ledger(&AuthorityKey::from_seed(37));
    let n = ACCOUNTS_PER_PAGE as u64 * 2 + 7;
    let addrs: Vec<Address> = (0..n).map(Address::from_seed).collect();
    for (balance, addr) in (1..).zip(&addrs) {
        ledger.state_mut().credit(*addr, balance);
    }
    let resident = ledger.state().clone();
    let pages =
        Arc::new(PageStore::open(&dir.join("pages.bin"), 1, Registry::new().handle()).unwrap());
    ledger.attach_state_cache(StateCacheConfig {
        pager: Arc::clone(&pages) as Arc<dyn Pager>,
        max_hot_accounts: 0, // every record demotes at attach
        node_budget: usize::MAX,
    });

    // Two full batches packed, the remainder staged.
    assert_eq!(pages.live(), 2);
    assert_eq!(ledger.state().paged_account_count(), n as usize);
    assert!(addrs.iter().all(|addr| ledger.state().account_is_cold(addr)));
    assert!(*ledger.state() == resident, "paging changed the merged view");
    assert_eq!(ledger.state().encoded(), resident.encoded());

    for (balance, addr) in (1..).zip(&addrs) {
        assert_eq!(ledger.state().account(addr).balance, balance, "cold read of {addr:?}");
        ledger.state_mut().credit(*addr, 1);
        assert!(!ledger.state().account_is_cold(addr), "a write left {addr:?} cold");
    }
    // Fully evacuated pages were freed.
    assert_eq!(pages.live(), 0);
    assert_eq!(ledger.state().paged_account_count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The paged half of `state.rs`'s `hash_order_never_reaches_bytes`:
/// the hot account map is hash-indexed, so its order must reach neither
/// bytes nor the choice of demotion victims. Two page-capped ledgers
/// credit one multiset of amounts to one universe of accounts in
/// different orders, attach the cache at different points and commit
/// empty blocks (each one demotes) at different points, so records grow
/// hot, demote and promote along different histories. Both must encode
/// byte-identically to a resident ledger, hash to its root and compare
/// equal to it; then, every record promoted back, one empty block must
/// demote the same lowest addresses on both.
#[test]
fn hash_order_never_reaches_paged_bytes_or_victims() {
    let dir = test_dir("hash-order");
    std::fs::create_dir_all(&dir).unwrap();
    let key = AuthorityKey::from_seed(43);
    let commit_empty = |ledger: &mut Ledger| -> PropResult {
        let now = ledger.tip().header.timestamp_ms + 1;
        let block = ledger.propose(key.address(), now, Vec::<Transaction>::new());
        ledger.apply(&block).map(|_| ()).map_err(|e| format!("empty block: {e}"))
    };
    check("hash order never reaches paged bytes or victims", CheckConfig::cases(24), |g| {
        let universe = g.usize_in(1, 200) as u64;
        let credits: Vec<(Address, u64)> = (0..g.usize_in(1, 300))
            .map(|_| (Address::from_seed(g.u64() % universe), 1 + g.u64() % 1_000))
            .collect();
        let max_hot = g.usize_in(0, 24);
        let mut resident = fresh_ledger(&key);
        for (addr, amount) in &credits {
            resident.state_mut().credit(*addr, *amount);
        }
        let mut paged = Vec::new();
        for side in ["a", "b"] {
            let mut order = credits.clone();
            g.rng().shuffle(&mut order);
            let attach_at = g.usize_in(0, order.len() + 1);
            let pages = PageStore::open(
                &dir.join(format!("pages-{side}.bin")),
                2,
                Registry::new().handle(),
            )
            .map_err(|e| e.to_string())?;
            let mut cache = Some(StateCacheConfig {
                pager: Arc::new(pages),
                max_hot_accounts: max_hot,
                node_budget: 16,
            });
            let mut ledger = fresh_ledger(&key);
            for (i, (addr, amount)) in order.iter().enumerate() {
                if i == attach_at {
                    ledger.attach_state_cache(cache.take().expect("attached once"));
                }
                ledger.state_mut().credit(*addr, *amount);
                if g.usize_in(0, 8) == 0 {
                    commit_empty(&mut ledger)?;
                }
            }
            if let Some(cache) = cache {
                ledger.attach_state_cache(cache);
            }
            paged.push(ledger);
        }
        let bytes = resident.state().encoded();
        let root = resident.state().state_root();
        for (side, ledger) in ["a", "b"].into_iter().zip(&paged) {
            ensure!(ledger.state().encoded() == bytes, "{side}: encoding differs");
            ensure_eq!(ledger.state().state_root(), root);
            ensure!(ledger.state() == resident.state(), "{side}: not equal to the resident state");
        }

        let mut addrs: Vec<Address> = credits.iter().map(|(addr, _)| *addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        for ledger in &mut paged {
            for addr in &addrs {
                ledger.state_mut().credit(*addr, 0);
            }
            commit_empty(ledger)?;
        }
        let cold = |ledger: &Ledger| -> Vec<bool> {
            addrs.iter().map(|addr| ledger.state().account_is_cold(addr)).collect()
        };
        let lowest: Vec<bool> =
            (0..addrs.len()).map(|i| i < addrs.len().saturating_sub(max_hot)).collect();
        ensure_eq!(cold(&paged[0]), lowest);
        ensure_eq!(cold(&paged[1]), lowest);
        Ok(())
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The one-descent merge through spilled subtrees: a tree spilled to a
/// 16-node budget takes a batch that deletes two slots in three (so
/// subtrees collapse inside the stubs the merge resolves), rewrites
/// others and adds new ones, and must land on the resident tree's root
/// and bytes. The paged ≡ resident ledger property above commits only
/// transfers and anchors, so no delete reaches a paged subtree there.
/// An empty batch resolves nothing: same resident nodes, no page read.
#[test]
fn paged_merge_collapses_inside_resolved_stubs_like_the_resident_tree() {
    let dir = test_dir("paged-merge");
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Registry::new();
    let pages = Arc::new(PageStore::open(&dir.join("pages.bin"), 1, registry.handle()).unwrap());
    let contract = Address::from_seed(3);
    let slot = |i: u64| format!("slot/{i}").into_bytes();
    let mut state = WorldState::new();
    for i in 0..600 {
        state.set_storage(contract, slot(i), vec![1; 8]);
    }
    let resident = StateTree::from_state(&state);
    let mut paged = resident.clone();
    let pager: Arc<dyn Pager> = pages;
    paged.spill_to_budget(&pager, 16);
    assert!(paged.resident_nodes() < resident.resident_nodes() / 10, "the budget spilled");

    let page_reads = || {
        registry.counter_value("storage.page_misses") + registry.counter_value("storage.page_hits")
    };
    let reads = page_reads();
    let untouched = paged.with_delta(&StateDelta::default());
    assert_eq!(untouched.resident_nodes(), paged.resident_nodes());
    assert_eq!(untouched.root(), paged.root());
    assert_eq!(page_reads(), reads, "an empty batch read a page");

    let mut overlay = WorldStateOverlay::new(&state);
    for i in 0..600 {
        match i % 6 {
            0 => overlay.set_storage(contract, slot(i), vec![2; 8]),
            3 => {} // untouched
            _ => overlay.set_storage(contract, slot(i), Vec::new()),
        }
    }
    for i in 600..650 {
        overlay.set_storage(contract, slot(i), vec![3; 8]);
    }
    let delta = overlay.into_delta();
    let merged = paged.with_delta(&delta);
    let expected = resident.with_delta(&delta);
    assert!(page_reads() > reads, "no stub was resolved");
    assert_eq!(merged.root(), expected.root());
    assert_eq!(merged.len(), expected.len());
    assert_eq!(merged.encoded(), expected.encoded());
    assert!(merged.audit());
    delta.apply_to(&mut state);
    assert_eq!(expected.encoded(), StateTree::from_state(&state).encoded());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The first `cut` path bits of `key`'s hash: which page at the cut
/// holds it.
fn cut_prefix(key: &LeafKey, cut: usize) -> u64 {
    let kh = key_hash(key);
    (0..cut).fold(0, |prefix, depth| 2 * prefix + u64::from(key_bit(&kh, depth)))
}

/// The cut prefixes of the leaves `block` writes when every transaction
/// in it succeeds: each sender's account, each transfer's recipient and
/// each anchor's label.
fn written_prefixes(block: &medchain_chain::Block, cut: usize) -> BTreeSet<u64> {
    let mut keys = Vec::new();
    for tx in block.transactions.iter() {
        keys.push(LeafKey::Account(tx.sender));
        match &tx.payload {
            TxPayload::Transfer { to, .. } => keys.push(LeafKey::Account(*to)),
            TxPayload::Anchor { label, .. } => keys.push(LeafKey::Anchor(label.clone())),
            other => panic!("random blocks carry transfers and anchors only, not {other:?}"),
        }
    }
    keys.iter().map(|key| cut_prefix(key, cut)).collect()
}

/// One cut, fixed by the budget (DESIGN.md §14): after every commit the
/// resident tree fits the node budget, and the commit's spill writes at
/// most one page per cut-depth key prefix the block wrote — the pages
/// its merge resolved — never the whole tree again. Accounts share the
/// pager, but the hot set holds every account the test funds or pays,
/// so every page write counted is a tree page.
#[test]
fn a_commit_rewrites_only_the_pages_it_touched() {
    let dir = test_dir("paged-touched");
    std::fs::create_dir_all(&dir).unwrap();
    let key = AuthorityKey::from_seed(19);
    let mut ledger = fresh_ledger(&key);
    ledger.state_mut().credit(key.address(), 1_000_000);
    for n in 0..512 {
        ledger.state_mut().credit(Address::from_seed(n), 1);
    }
    let registry = Registry::new();
    let node_budget = 64; // cut = ⌊log₂ 65⌋ − 1 = 5: 31 spine nodes, 32 pages
    ledger.attach_state_cache(StateCacheConfig {
        pager: Arc::new(PageStore::open(&dir.join("pages.bin"), 4, registry.handle()).unwrap()),
        // Above the 1 + 512 funded and 64 paid accounts: none demotes.
        max_hot_accounts: 1_024,
        node_budget,
    });

    let mut rng = DetRng::from_seed(0x70C4);
    let mut total = 0;
    for step in 0..40 {
        let block = random_block(&mut rng, &mut ledger, &key);
        let before = registry.counter_value("storage.page_writes");
        ledger.apply(&block).unwrap();
        let writes = registry.counter_value("storage.page_writes") - before;
        let prefixes = written_prefixes(&block, 5).len() as u64;
        assert!(writes <= prefixes, "step {step}: {writes} page writes for {prefixes} prefixes");
        let resident = ledger.state_tree().resident_nodes();
        assert!(resident <= node_budget, "step {step}: {resident} resident nodes");
        total += writes;
    }
    assert!(total > 0, "no commit ever spilled");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reclamation (DESIGN.md §14): a page goes back to the store when the
/// last tree version naming it drops, so 300 commits over a fixed
/// account universe leave the page file as 50 left it — live pages and
/// the file's slot high-water stay flat instead of growing per commit.
#[test]
fn page_file_stays_flat_across_300_paged_commits() {
    let dir = test_dir("paged-flat");
    std::fs::create_dir_all(&dir).unwrap();
    let key = AuthorityKey::from_seed(23);
    let mut ledger = fresh_ledger(&key);
    ledger.state_mut().credit(key.address(), 1_000_000);
    let registry = Registry::new();
    let pages = Arc::new(PageStore::open(&dir.join("pages.bin"), 2, registry.handle()).unwrap());
    ledger.attach_state_cache(tiny_state_cache(Arc::clone(&pages)));

    let mut rng = DetRng::from_seed(0xF1A7);
    let mut footprint = || {
        let block = transfer_block(&mut rng, &mut ledger, &key);
        ledger.apply(&block).unwrap();
        (pages.live(), registry.gauge_value("storage.page_file_slots").unwrap())
    };
    let (live_50, slots_50) = (1..=50).map(|_| footprint()).last().unwrap();
    let (live_300, slots_300) = (51..=300).map(|_| footprint()).last().unwrap();
    assert!(live_300 <= live_50 + 2, "live pages: {live_50} at commit 50, {live_300} at 300");
    assert!(slots_300 <= slots_50 + 2, "file slots: {slots_50} at commit 50, {slots_300} at 300");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Freeing never pulls a page from under a live version: a tree cloned
/// at height h — as a proof server or a snapshot writer holds one —
/// still resolves every stub after 20 more commits have replaced all of
/// the live tree's pages, and matches a from-scratch build of the
/// height-h state byte for byte and proof for proof. Once the clone
/// drops, its pages go back to the store.
#[test]
fn a_retained_tree_version_keeps_its_pages() {
    let dir = test_dir("paged-retained");
    std::fs::create_dir_all(&dir).unwrap();
    let key = AuthorityKey::from_seed(29);
    let mut resident = fresh_ledger(&key);
    let mut paged = fresh_ledger(&key);
    resident.state_mut().credit(key.address(), 1_000_000);
    paged.state_mut().credit(key.address(), 1_000_000);
    let registry = Registry::new();
    let pages = Arc::new(PageStore::open(&dir.join("pages.bin"), 1, registry.handle()).unwrap());
    paged.attach_state_cache(tiny_state_cache(Arc::clone(&pages)));

    let mut rng = DetRng::from_seed(0x2E7A);
    for _ in 0..10 {
        let block = random_block(&mut rng, &mut resident, &key);
        resident.apply(&block).unwrap();
        paged.apply(&block).unwrap();
    }
    let retained = paged.state_tree();
    let reference = StateTree::from_state(resident.state());

    // A 16-node budget cuts at depth 3: eight pages.
    let mut touched = BTreeSet::new();
    let frees = registry.counter_value("storage.page_frees");
    for _ in 0..20 {
        let block = random_block(&mut rng, &mut paged, &key);
        paged.apply(&block).unwrap();
        touched.extend(written_prefixes(&block, 3));
    }
    assert_eq!(touched.len(), 8, "the commits left a page untouched");
    assert!(registry.counter_value("storage.page_frees") > frees, "no page was reclaimed");

    assert_eq!(retained.encoded(), reference.encoded());
    let mut keys = vec![LeafKey::Account(key.address())];
    for n in 0..64u64 {
        let mut to = [0u8; 20];
        to[..8].copy_from_slice(&n.to_le_bytes());
        keys.push(LeafKey::Account(Address(to)));
    }
    for height in 1..=30 {
        keys.extend((0..4).map(|k| LeafKey::Anchor(format!("scan-{height}-{k}"))));
    }
    for leaf in &keys {
        assert_eq!(retained.prove(leaf), reference.prove(leaf), "{leaf:?}");
    }
    assert!(retained.audit());

    let live = pages.live();
    drop(retained);
    assert!(pages.live() < live, "the clone's pages outlived it");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Write-ahead on a paged ledger: the block is logged before the state
/// changes, so a torn append that would have written a cold account
/// leaves that account cold — the pager still holds the same record, no
/// more and no fewer accounts are paged — and the state, the tree and
/// the tip agree with a resident twin that never saw the block.
#[test]
fn torn_append_on_a_paged_ledger_leaves_cold_accounts_cold() {
    let dir = test_dir("paged-torn");
    std::fs::create_dir_all(&dir).unwrap();
    let key = AuthorityKey::from_seed(31);
    let torn_at = 11;

    let mut resident = fresh_ledger(&key);
    let mut paged = fresh_ledger(&key);
    resident.state_mut().credit(key.address(), 1_000_000);
    paged.state_mut().credit(key.address(), 1_000_000);
    let pages =
        Arc::new(PageStore::open(&dir.join("pages.bin"), 2, Registry::new().handle()).unwrap());
    paged.attach_state_cache(tiny_state_cache(pages));
    let tear = Arc::new(AtomicBool::new(false));
    paged.attach_store(Box::new(TearableStore(Arc::clone(&tear))));

    let mut rng = DetRng::from_seed(0x7042);
    while paged.height() + 1 < torn_at {
        let block = random_block(&mut rng, &mut resident, &key);
        resident.apply(&block).unwrap();
        paged.apply(&block).unwrap();
    }
    let target = (0..64u64)
        .map(|n| {
            let mut to = [0u8; 20];
            to[..8].copy_from_slice(&n.to_le_bytes());
            Address(to)
        })
        .find(|addr| paged.state().account_is_cold(addr))
        .expect("some account of the universe is cold");
    let record = paged.state().account(&target);
    let paged_accounts = paged.state().paged_account_count();

    let nonce = paged.state().account(&key.address()).nonce;
    let transfer =
        Transaction::new(key.address(), nonce, TxPayload::Transfer { to: target, amount: 7 }, 100)
            .signed(&key);
    let block = paged.propose(key.address(), torn_at * 50, vec![transfer]);
    tear.store(true, Ordering::SeqCst);
    let err = paged.apply(&block).expect_err("append is torn");
    assert!(matches!(err, LedgerError::Storage(_)), "got: {err}");

    assert!(paged.state().account_is_cold(&target), "the torn block promoted a cold record");
    assert_eq!(paged.state().account(&target), record, "the torn block moved a cold record");
    assert_eq!(paged.state().paged_account_count(), paged_accounts);
    assert!(paged.state() == resident.state(), "the torn block changed the state");
    assert_eq!(paged.tip().id(), resident.tip().id());
    assert_eq!(paged.state_tree().versioned_root(), paged.tip().header.state_root);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Snapshots are written from the tree the commit built, never from a
/// rebuild — so every `snap-*.bin` a ledger's store writes, with the
/// state resident or paged (spilled subtrees spliced from their pages),
/// must be byte-identical to a snapshot of the same tip and state over a
/// tree built from scratch, and must be what a restart recovers from.
/// A boundary that writes a `delta-*.bin` instead must recover, full
/// plus delta and no replay, to the live state and a from-scratch root.
#[test]
fn snapshots_from_the_commit_tree_match_a_from_scratch_build() {
    for paged in [false, true] {
        let dir = test_dir(&format!("snap-live-tree-{paged}"));
        let reference_dir = test_dir(&format!("snap-live-tree-{paged}-reference"));
        let reference = SnapshotStore::open(&reference_dir).unwrap();
        let key = AuthorityKey::from_seed(13);
        let config = StorageConfig { snapshot_every: 4, ..StorageConfig::default() };

        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).unwrap();
        store.recover_into(&mut ledger).unwrap();
        ledger.state_mut().credit(key.address(), 1_000_000);
        let registry = Registry::new();
        if paged {
            let pages =
                Arc::new(PageStore::open(&dir.join("pages.bin"), 4, registry.handle()).unwrap());
            store.attach_pages(Arc::clone(&pages));
            ledger.attach_state_cache(tiny_state_cache(pages));
        }
        ledger.attach_store(Box::new(store));

        let mut rng = DetRng::from_seed(0x5A47 + paged as u64);
        let (mut fulls, mut deltas) = (0, 0);
        for _ in 0..14 {
            let block = random_block(&mut rng, &mut ledger, &key);
            ledger.apply(&block).unwrap();
            let height = ledger.height();
            if height % 4 != 0 {
                continue;
            }
            let name = format!("snap-{height:020}.bin");
            let state = ledger.state();
            let scratch_tree = StateTree::from_state(state);
            if !dir.join(&name).exists() {
                assert!(dir.join(format!("delta-{height:020}.bin")).exists(), "no snapshot");
                deltas += 1;
                let copy = test_dir(&format!("snap-live-tree-{paged}-{height}"));
                copy_dir(&dir, &copy);
                let mut recovered = fresh_ledger(&key);
                let report =
                    DiskStore::open(&copy, config).unwrap().recover_into(&mut recovered).unwrap();
                assert_eq!((report.from_snapshot, report.replayed_blocks), (Some(height), 0));
                assert!(recovered.state() == state, "paged={paged}: delta {height} state");
                let tree = recovered.state_tree();
                assert_eq!(tree.versioned_root(), scratch_tree.versioned_root());
                assert_eq!(tree.len(), scratch_tree.len());
                std::fs::remove_dir_all(&copy).unwrap();
                continue;
            }
            fulls += 1;
            reference.write(ledger.tip(), state, &scratch_tree).unwrap();
            assert_eq!(
                std::fs::read(dir.join(&name)).unwrap(),
                std::fs::read(reference_dir.join(&name)).unwrap(),
                "paged={paged}: {name} differs from a from-scratch build"
            );
        }
        assert!(fulls >= 1 && deltas >= 1, "paged={paged}: {fulls} fulls, {deltas} deltas");
        assert_eq!(registry.counter_value("storage.page_writes") > 0, paged);
        let (tip_id, state_root) = (ledger.tip().id(), ledger.state().state_root());
        drop(ledger);

        // The funding above never went through a block, so only the
        // snapshot can have carried it into the second life.
        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).unwrap();
        let report = store.recover_into(&mut ledger).unwrap();
        assert_eq!(report.from_snapshot, Some(12));
        assert_eq!(report.replayed_blocks, 2);
        assert_eq!(ledger.tip().id(), tip_id);
        assert_eq!(ledger.state().state_root(), state_root);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&reference_dir).unwrap();
    }
}

/// A snapshot is an optimisation (`BlockStore` contract 3): one that
/// cannot be written must not un-commit the block it follows, which is
/// already durable in the log. Here a directory squats on the height-2
/// snapshot's `.tmp` path so its open fails; the chain keeps committing,
/// the failure is counted and reported once, and the next boundary
/// writes the snapshot a restart then recovers from.
#[test]
fn failed_snapshot_keeps_the_durable_block_and_retries_at_next_boundary() {
    let dir = test_dir("snap-write-fails");
    let key = AuthorityKey::from_seed(17);
    let config = StorageConfig { snapshot_every: 2, ..StorageConfig::default() };
    std::fs::create_dir_all(dir.join(format!("snap-{:020}.bin.tmp", 2))).unwrap();

    let registry = Registry::new();
    let mut ledger = fresh_ledger(&key);
    let mut store = DiskStore::open_with_metrics(&dir, config, registry.handle()).unwrap();
    store.recover_into(&mut ledger).unwrap();
    ledger.attach_store(Box::new(store));
    grow(&mut ledger, &key, 4);
    assert_eq!(ledger.height(), 4);
    let tip_id = ledger.tip().id();
    drop(ledger);

    assert_eq!(registry.counter_value("storage.snapshot_failures"), 1);
    assert_eq!(registry.counter_value("storage.snapshots"), 1);
    let failures: Vec<_> =
        registry.events().into_iter().filter(|e| e.name == "snapshot_failed").collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].scope, "storage");
    assert_eq!(failures[0].fields[0], ("height".to_string(), "2".to_string()));
    assert!(!dir.join(format!("snap-{:020}.bin", 2)).exists());
    assert!(dir.join(format!("snap-{:020}.bin", 4)).exists());

    let mut ledger = fresh_ledger(&key);
    let mut store = DiskStore::open(&dir, config).unwrap();
    let report = store.recover_into(&mut ledger).unwrap();
    assert_eq!(report.height, 4);
    assert_eq!(report.from_snapshot, Some(4));
    assert_eq!(report.tip_id, tip_id);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Delta snapshots (DESIGN.md §8): after every snapshot boundary, a
/// fresh ledger recovered from the directory is the live one — same
/// tip, equal state, same tree root over as many leaves — whether the
/// boundary wrote a full snapshot or a delta of the writes since one.
/// Random blocks run at a random cadence on resident and paged ledgers,
/// with direct `state_mut` credits between them that no block carries,
/// so a delta that spanned one would recover the wrong state. Recovery
/// reads at most one full file and one delta file.
#[test]
fn recovery_from_full_plus_delta_is_the_live_ledger() {
    let dir = test_dir("delta-recovery");
    let (fulls, deltas) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
    check("full plus delta recovers the live ledger", CheckConfig::cases(24), |g| {
        let _ = std::fs::remove_dir_all(&dir);
        let every = g.usize_in(1, 7) as u64;
        let config = StorageConfig { snapshot_every: every, ..StorageConfig::default() };
        let key = AuthorityKey::from_seed(41);
        let mut ledger = fresh_ledger(&key);
        let mut store = DiskStore::open(&dir, config).map_err(|e| e.to_string())?;
        store.recover_into(&mut ledger).map_err(|e| e.to_string())?;
        ledger.state_mut().credit(key.address(), 1_000_000);
        if g.bool() {
            let pages = PageStore::open(&dir.join("pages.bin"), 2, Registry::new().handle())
                .map_err(|e| e.to_string())?;
            let pages = Arc::new(pages);
            store.attach_pages(Arc::clone(&pages));
            ledger.attach_state_cache(tiny_state_cache(pages));
        }
        ledger.attach_store(Box::new(store));
        for _ in 0..g.usize_in(6, 30) {
            if g.usize_in(0, 5) == 0 {
                let to = Address::from_seed(g.u64() % 8);
                ledger.state_mut().credit(to, 1 + g.u64() % 9);
            }
            let block = random_block(g.rng(), &mut ledger, &key);
            ledger.apply(&block).map_err(|e| format!("apply: {e}"))?;
            let height = ledger.height();
            if !height.is_multiple_of(every) {
                continue;
            }
            if dir.join(format!("delta-{height:020}.bin")).exists() {
                deltas.set(deltas.get() + 1);
            } else {
                fulls.set(fulls.get() + 1);
            }
            let registry = Registry::new();
            let mut recovered = fresh_ledger(&key);
            let report = DiskStore::open_with_metrics(&dir, config, registry.handle())
                .and_then(|mut store| store.recover_into(&mut recovered))
                .map_err(|e| format!("recover at {height}: {e}"))?;
            ensure_eq!((report.from_snapshot, report.replayed_blocks), (Some(height), 0));
            ensure_eq!(recovered.tip().id(), ledger.tip().id());
            ensure!(recovered.state() == ledger.state(), "state at {height} (every {every})");
            let (mine, live) = (recovered.state_tree(), ledger.state_tree());
            ensure_eq!(mine.versioned_root(), live.versioned_root());
            ensure_eq!(mine.len(), live.len());
            ensure!(
                registry.counter_value("storage.snapshot_reads") <= 1
                    && registry.counter_value("storage.delta_reads") <= 1,
                "recovery at {height} read more than one full and one delta"
            );
        }
        Ok(())
    });
    let (fulls, deltas) = (fulls.get(), deltas.get());
    assert!(fulls > 0 && deltas > 0, "{fulls} full and {deltas} delta boundaries");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two process lives on one directory, every boundary two blocks apart,
/// over a funded 64-account universe so writes stay below half the
/// state: the first life writes the full `snap-2` and `delta-4`; the
/// second recovers from them, writes the full `snap-6` (its first
/// boundary), `delta-8` and `delta-10` on it, and one tail block. The
/// older delta is pruned with its base's turn. Returns the live tip id
/// and state root.
fn two_lives_of_deltas(dir: &std::path::Path, key: &AuthorityKey) -> (Hash256, Hash256) {
    let config = StorageConfig { snapshot_every: 2, ..StorageConfig::default() };
    let mut rng = DetRng::from_seed(0xDE17A);
    let mut ledger = fresh_ledger(key);
    let mut store = DiskStore::open(dir, config).unwrap();
    store.recover_into(&mut ledger).unwrap();
    ledger.state_mut().credit(key.address(), 1_000_000);
    for n in 0..64u64 {
        let mut to = [0u8; 20];
        to[..8].copy_from_slice(&n.to_le_bytes());
        ledger.state_mut().credit(Address(to), 1);
    }
    ledger.attach_store(Box::new(store));
    for _ in 0..4 {
        let block = transfer_block(&mut rng, &mut ledger, key);
        ledger.apply(&block).unwrap();
    }
    drop(ledger);

    let mut ledger = fresh_ledger(key);
    let mut store = DiskStore::open(dir, config).unwrap();
    let report = store.recover_into(&mut ledger).unwrap();
    assert_eq!((report.from_snapshot, report.replayed_blocks), (Some(4), 0));
    ledger.attach_store(Box::new(store));
    for _ in 0..7 {
        let block = transfer_block(&mut rng, &mut ledger, key);
        ledger.apply(&block).unwrap();
    }
    let names = |prefix| -> Vec<String> {
        files_named(dir, prefix)
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap()[prefix.len()..].to_string())
            .collect()
    };
    let at = |h: u64| format!("{h:020}.bin");
    assert_eq!(names("snap-"), [at(2), at(6)]);
    assert_eq!(names("delta-"), [at(8), at(10)]);
    (ledger.tip().id(), ledger.state().state_root())
}

/// A delta snapshot installs only onto its own base: read back and
/// applied onto the full snapshot it names, it is the state at its tip;
/// onto a full at the same height with another tip it is refused, and
/// so are writes that miss the tip's state root.
#[test]
fn a_delta_installs_only_onto_its_own_base() {
    let dir = test_dir("delta-onto-base");
    let snaps = SnapshotStore::open(&dir).unwrap();
    let key = AuthorityKey::from_seed(45);
    let mut ledger = fresh_ledger(&key);
    grow(&mut ledger, &key, 4);
    snaps.write(ledger.tip(), ledger.state(), &ledger.state_tree()).unwrap();
    let mut overlay = WorldStateOverlay::new(ledger.state());
    overlay.credit(Address::from_seed(9), 5);
    let writes: StateDelta = overlay.into_delta();
    let mut after = ledger.state().clone();
    writes.clone().apply_to(&mut after);
    let mut tip = ledger.tip().clone();
    tip.header.height = 8;
    tip.header.state_root = after.state_root();
    snaps.write_delta(&tip, 4, ledger.tip().id(), &writes).unwrap();
    assert_eq!(snaps.delta_heights().unwrap(), vec![8]);
    assert_eq!(snaps.heights().unwrap(), vec![4], "a delta is not a full snapshot");

    let delta = snaps.read_delta(8).unwrap().unwrap();
    assert_eq!(delta.writes, writes);
    let snap = delta.clone().onto(snaps.load(4).unwrap().unwrap()).unwrap();
    assert_eq!(snap.height, 8);
    assert!(snap.state == after);
    assert_eq!(snap.tree.versioned_root(), StateTree::from_state(&after).versioned_root());
    // A full at the base height on another chain is not the base.
    let other_key = AuthorityKey::from_seed(46);
    let mut other = fresh_ledger(&other_key);
    grow(&mut other, &other_key, 4);
    let foreign_dir = test_dir("delta-onto-foreign");
    let foreign = SnapshotStore::open(&foreign_dir).unwrap();
    foreign.write(other.tip(), other.state(), &other.state_tree()).unwrap();
    assert!(delta.clone().onto(foreign.load(4).unwrap().unwrap()).is_none());
    std::fs::remove_dir_all(&foreign_dir).unwrap();
    // Writes that miss the tip's root are refused.
    let mut wrong = delta;
    wrong.writes = StateDelta::default();
    assert!(wrong.onto(snaps.load(4).unwrap().unwrap()).is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash points around delta snapshots: whatever a crash or a bad disk
/// leaves among the snapshot files, recovery restores the newest usable
/// one and replays the log to the live tip and state. A leftover
/// `.tmp` is ignored; a corrupt newest delta falls back to the older
/// delta, then to the full plus replay; a delta whose base is missing
/// or foreign is refused, for the older full plus replay.
#[test]
fn recovery_survives_torn_corrupt_and_orphaned_deltas() {
    let scenario = test_dir("delta-crash-points");
    let key = AuthorityKey::from_seed(43);
    let (tip_id, state_root) = two_lives_of_deltas(&scenario, &key);
    let snap = |h: u64| format!("snap-{h:020}.bin");
    let delta = |h: u64| format!("delta-{h:020}.bin");
    let flip = |path: PathBuf| {
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
    };
    let foreign_six = |dir: &std::path::Path| {
        let other_key = AuthorityKey::from_seed(44);
        let mut other = fresh_ledger(&other_key);
        other.state_mut().credit(other_key.address(), 1_000_000);
        let mut rng = DetRng::from_seed(0xF0E);
        for _ in 0..6 {
            let block = transfer_block(&mut rng, &mut other, &other_key);
            other.apply(&block).unwrap();
        }
        let snaps = SnapshotStore::open(dir).unwrap();
        snaps.write(other.tip(), other.state(), &other.state_tree()).unwrap();
    };
    type Edit<'a> = Box<dyn Fn(&std::path::Path) + 'a>;
    let cases: Vec<(&str, Edit<'_>, Option<u64>)> = vec![
        ("untouched", Box::new(|_| {}), Some(10)),
        (
            "leftover .tmp files",
            Box::new(|dir| {
                std::fs::write(dir.join(format!("{}.tmp", delta(10))), b"torn").unwrap();
                std::fs::write(dir.join(format!("{}.tmp", delta(12))), b"torn").unwrap();
            }),
            Some(10),
        ),
        ("corrupt newest delta", Box::new(|dir| flip(dir.join(delta(10)))), Some(8)),
        (
            "both deltas corrupt",
            Box::new(|dir| {
                flip(dir.join(delta(10)));
                flip(dir.join(delta(8)));
            }),
            Some(6),
        ),
        (
            "base full missing",
            Box::new(|dir| std::fs::remove_file(dir.join(snap(6))).unwrap()),
            Some(2),
        ),
        ("base full foreign", Box::new(foreign_six), Some(2)),
    ];
    for (what, edit, from) in cases {
        let dir = test_dir(&format!("delta-crash-{}", what.replace(' ', "-")));
        copy_dir(&scenario, &dir);
        edit(&dir);
        let mut ledger = fresh_ledger(&key);
        let report = DiskStore::open(&dir, StorageConfig::default())
            .unwrap()
            .recover_into(&mut ledger)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(report.from_snapshot, from, "{what}");
        assert_eq!(report.replayed_blocks, 11 - from.unwrap(), "{what}");
        assert_eq!(ledger.tip().id(), tip_id, "{what}");
        assert_eq!(ledger.state().state_root(), state_root, "{what}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&scenario).unwrap();
}

/// A block store whose next append fails when armed — a crash
/// mid-append, without a disk.
struct TearableStore(Arc<AtomicBool>);

impl BlockStore for TearableStore {
    fn append(&mut self, _block: &Block, _state: &WorldState) -> Result<(), StoreError> {
        if self.0.swap(false, Ordering::SeqCst) {
            return Err(StoreError::Io("append torn".into()));
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// Checks `ledger` against `twin` after a step: same tip, state,
/// receipts and receipt proofs; a tree whose root is a from-scratch
/// build's; and, unless the state was funded since the last commit
/// (the window in which no proof can match the tip), state proofs equal
/// to the twin's that verify against the committed header.
fn ensure_twins(
    ledger: &Ledger,
    twin: &Ledger,
    committed: &[Hash256],
    keys: &[LeafKey],
    funded: bool,
) -> PropResult {
    ensure_eq!(ledger.tip().id(), twin.tip().id());
    ensure!(ledger.state() == twin.state(), "states diverged");
    let rebuilt = StateTree::from_state(ledger.state()).versioned_root();
    ensure_eq!(ledger.state_tree().versioned_root(), rebuilt);
    for id in committed {
        ensure_eq!(ledger.receipt(id), twin.receipt(id));
        ensure_eq!(ledger.locate_tx(id), twin.locate_tx(id));
        let proof = ledger.tx_receipt(id);
        ensure_eq!(proof, twin.tx_receipt(id));
        let proof = proof.ok_or("a committed transaction has no receipt proof")?;
        let root = ledger.block(proof.height).ok_or("receipt block pruned")?.header.tx_root;
        ensure!(proof.verify_against(&root), "receipt proof for {id:?} failed");
    }
    if !funded {
        for key in keys {
            let proof = ledger.prove_state(key);
            ensure_eq!(proof, twin.prove_state(key));
            ensure!(proof.verify(), "state proof for {key:?} failed");
            ensure_eq!(proof.state_root, ledger.tip().header.state_root);
        }
    }
    Ok(())
}

/// The tree that runs ahead (DESIGN.md §13): a proposing ledger keeps
/// its proposal merged into its own tree, so every way a proposal can
/// end — committed, superseded by another leader's block at its height,
/// torn mid-append, or invalidated by direct funding — and every read
/// while it is pending must leave that ledger indistinguishable from a
/// twin that only applies blocks. A third ledger leads the foreign
/// blocks. Half the cases page the proposer's state under a tiny cache,
/// so pull-backs read cold accounts and resolve spilled subtrees.
#[test]
fn a_proposing_ledger_stays_the_twin_of_one_that_only_applies() {
    let dir = test_dir("ahead-tree");
    std::fs::create_dir_all(&dir).unwrap();
    check("ahead tree pulls back", CheckConfig::cases(24), |g| {
        let key = AuthorityKey::from_seed(37);
        let mut ledger = fresh_ledger(&key);
        let mut twin = fresh_ledger(&key);
        let mut leader = fresh_ledger(&key);
        for l in [&mut ledger, &mut twin, &mut leader] {
            l.state_mut().credit(key.address(), 1_000_000);
        }
        if g.bool() {
            let pages = PageStore::open(&dir.join("pages.bin"), 2, Registry::new().handle())
                .map_err(|e| e.to_string())?;
            ledger.attach_state_cache(tiny_state_cache(Arc::new(pages)));
        }
        let tear = Arc::new(AtomicBool::new(false));
        ledger.attach_store(Box::new(TearableStore(Arc::clone(&tear))));

        let mut keys: Vec<LeafKey> = (0..64u64)
            .map(|n| {
                let mut to = [0u8; 20];
                to[..8].copy_from_slice(&n.to_le_bytes());
                LeafKey::Account(Address(to))
            })
            .collect();
        keys.push(LeafKey::Account(key.address()));
        keys.push(LeafKey::Anchor("never-written".into()));
        let mut committed: Vec<Hash256> = Vec::new();
        let mut funded = true; // genesis funding: no block covers it yet
        for _ in 0..12 {
            let own = random_block(g.rng(), &mut ledger, &key);
            if g.bool() {
                // Read while the proposal is pending.
                ensure_twins(&ledger, &twin, &committed, &keys, funded)?;
            }
            let block = match g.usize_in(0, 4) {
                0 => random_block(g.rng(), &mut leader, &key),
                1 => {
                    // Funding between propose and commit: the kept result
                    // goes, and the block no longer matches the state.
                    let to = Address::from_seed(g.u64() % 8);
                    for l in [&mut ledger, &mut twin, &mut leader] {
                        l.state_mut().credit(to, 5);
                    }
                    funded = true;
                    ensure!(ledger.apply(&own).is_err(), "a stale proposal committed");
                    ensure!(twin.apply(&own).is_err(), "the twin committed a stale block");
                    ensure_twins(&ledger, &twin, &committed, &keys, funded)?;
                    continue;
                }
                _ => own,
            };
            if g.bool() && !block.transactions.is_empty() {
                // The same block id over a body with one signature
                // stripped (ids, and so the tx root, leave it out): the
                // kept result must not commit it.
                let mut txs: Vec<Transaction> =
                    block.transactions.iter().map(|tx| Transaction::clone(tx)).collect();
                let stripped = g.usize_in(0, txs.len());
                txs[stripped].signature = None;
                let mut forged = block.clone();
                forged.transactions = txs.into();
                ensure!(forged.id() == block.id(), "the signature moved the block id");
                let refused = |r: Result<(), LedgerError>| {
                    matches!(r, Err(LedgerError::BadSignature(_)))
                };
                ensure!(refused(ledger.apply(&forged)), "a stripped signature committed");
                ensure!(refused(twin.apply(&forged)), "the twin took a stripped signature");
                ensure_twins(&ledger, &twin, &committed, &keys, funded)?;
            }
            if g.bool() {
                tear.store(true, Ordering::SeqCst);
                let torn = ledger.apply(&block).err();
                ensure!(matches!(torn, Some(LedgerError::Storage(_))), "not torn: {torn:?}");
                ensure_twins(&ledger, &twin, &committed, &keys, funded)?;
            }
            ledger.apply(&block).map_err(|e| format!("commit: {e}"))?;
            twin.apply(&block).map_err(|e| format!("twin: {e}"))?;
            leader.apply(&block).map_err(|e| format!("leader: {e}"))?;
            funded = false;
            committed.extend(block.transactions.iter().map(|tx| tx.id()));
            for tx in block.transactions.iter() {
                if let TxPayload::Anchor { label, .. } = &tx.payload {
                    keys.push(LeafKey::Anchor(label.clone()));
                }
            }
            ensure_twins(&ledger, &twin, &committed, &keys, funded)?;
        }
        Ok(())
    });
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The files of `dir` whose names start with `prefix`, sorted.
fn files_named(dir: &std::path::Path, prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.file_name().unwrap().to_str().unwrap().starts_with(prefix))
        .collect();
    files.sort();
    files
}

/// The bytes a durable site puts on disk and on the wire, pinned. A
/// seeded 4-site chain with shipped storage defaults commits one
/// transfer a block up to its first snapshot, serves the manifest for
/// it, and commits three more. The SHA-256 of site 0's WAL segment, of
/// its `snap-<height>.bin` and of the served manifest's CRC must not
/// move when the CRC code, the framing or the block format is reworked:
/// a change that alters them breaks every existing data directory.
#[test]
fn durable_bytes_are_pinned() {
    let root = test_dir("pinned-bytes");
    let mut builder = Network::builder().seed(11).storage(&root);
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("durable network builds");
    let payer = net.site(0).address();
    net.fund(payer, 1_000_000);
    let every = StorageConfig::default().snapshot_every;
    let transfer = |net: &mut Network, n: u64| {
        let to = Address::from_seed(100 + n);
        let pending = net.submit(0, TxPayload::Transfer { to, amount: 1 + n }, 10_000).unwrap();
        net.confirm(&pending).unwrap();
    };
    let mut n = 0;
    while net.height() < every {
        transfer(&mut net, n);
        n += 1;
    }
    assert_eq!(net.height(), every, "one block per transfer lands on the snapshot height");
    let manifest = net.snapshot_manifest(ShardId(0)).expect("site 0 serves its tip");
    assert_eq!(manifest.height, every);
    for _ in 0..3 {
        transfer(&mut net, n);
        n += 1;
    }
    net.shutdown();
    drop(net);

    let site = root.join("site-0");
    let segments = files_named(&site, "seg-");
    let snapshots = files_named(&site, "snap-");
    assert_eq!(segments.len(), 1, "{segments:?}");
    assert_eq!(snapshots.len(), 1, "{snapshots:?}");
    let snapshot = std::fs::read(&snapshots[0]).unwrap();
    // The served manifest describes the snapshot file's own record.
    assert_eq!(manifest.total_len + RECORD_HEADER_BYTES as u64, snapshot.len() as u64);
    assert_eq!(manifest.crc.to_le_bytes(), snapshot[4..8]);
    let digests = [
        Hash256::digest(&std::fs::read(&segments[0]).unwrap()).to_hex(),
        Hash256::digest(&snapshot).to_hex(),
        Hash256::digest(&manifest.crc.to_le_bytes()).to_hex(),
    ];
    assert_eq!(
        digests,
        [
            "69160a77c2cb0e89c84ebe0230f1a511238382f6bb3c1c3aa38deaf728551d0f",
            "5db5efff449f1fb889eed562df57e49fe51ff8796032e00999a149d08c96e329",
            "bf431e3005342de6ae35214785d3f9e89b5b5b59a956fe778669ff6956e58102",
        ],
        "the WAL segment, the snapshot file or the served CRC changed"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// One hostile edit inside `bytes[region]`: a run of random bytes
/// overwritten (each one changed), one to eight bits flipped, or the
/// file cut short before the region ends. Returns what it did.
fn corrupt(
    g: &mut medchain_runtime::check::Gen,
    bytes: &mut Vec<u8>,
    region: std::ops::Range<usize>,
) -> String {
    match g.usize_in(0, 3) {
        0 => {
            let at = g.usize_in(region.start, region.end);
            let run = g.usize_in(1, 65).min(region.end - at);
            for byte in &mut bytes[at..at + run] {
                *byte ^= g.usize_in(1, 256) as u8;
            }
            format!("{run} random bytes at {at}")
        }
        1 => {
            let mut flipped = BTreeSet::new();
            for _ in 0..g.usize_in(1, 9) {
                flipped.insert(g.usize_in(region.start * 8, region.end * 8));
            }
            for &bit in &flipped {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            format!("bits {flipped:?} flipped")
        }
        _ => {
            let len = g.usize_in(0, region.end);
            bytes.truncate(len);
            format!("cut to {len} bytes")
        }
    }
}

/// Every block `log` holds, read back through its index.
fn read_back(log: &SegmentedLog) -> Result<Vec<Block>, String> {
    log.heights()
        .map(|h| log.read_block(h).map_err(|e| e.to_string())?.ok_or(format!("{h} unread")))
        .collect()
}

/// Hostile bytes in the four CRC-framed files never panic the reader:
/// a corrupted WAL segment is truncated back to a prefix of the blocks
/// written (or refused with `Err`), a corrupted `snap-*.bin` loads as
/// `None`, a corrupted `delta-*.bin` never installs onto its base, and
/// a corrupted spilled extent in `pages.bin` reads as `Err`.
#[test]
fn corrupt_wal_snapshot_and_page_files_never_panic_the_reader() {
    let dir = test_dir("hostile-frames");
    let key = AuthorityKey::from_seed(7);
    let mut ledger = fresh_ledger(&key);
    grow(&mut ledger, &key, 12);
    let blocks: Vec<Block> = ledger.blocks_from(1).cloned().collect();
    let height = ledger.height();

    check("a corrupt WAL segment truncates or errs", CheckConfig::cases(64), |g| {
        let wal = dir.join("wal");
        let _ = std::fs::remove_dir_all(&wal);
        let (mut log, _) = SegmentedLog::open(&wal, 2048).map_err(|e| e.to_string())?;
        for block in &blocks {
            log.append(block.header.height, &block.encoded()).map_err(|e| e.to_string())?;
        }
        drop(log);
        let segments = files_named(&wal, "seg-");
        let segment = &segments[g.usize_in(0, segments.len())];
        let mut bytes = std::fs::read(segment).unwrap();
        let len = bytes.len();
        let edit = corrupt(g, &mut bytes, 0..len);
        std::fs::write(segment, &bytes).unwrap();
        let Ok((log, _)) = SegmentedLog::open(&wal, 2048) else { return Ok(()) };
        let kept = read_back(&log)?;
        ensure!(kept.len() < blocks.len(), "{edit}: every block survived");
        ensure!(kept[..] == blocks[..kept.len()], "{edit}: not a prefix");
        drop(log);
        let (log, again) = SegmentedLog::open(&wal, 2048).map_err(|e| e.to_string())?;
        ensure_eq!(again.truncated_records, 0);
        ensure!(read_back(&log)? == kept, "{edit}: the repair did not hold");
        Ok(())
    });

    let snapshots = SnapshotStore::open(&dir.join("snap")).unwrap();
    snapshots.write(ledger.tip(), ledger.state(), &ledger.state_tree()).unwrap();
    let snap_file = files_named(&dir.join("snap"), "snap-").remove(0);
    let clean = std::fs::read(&snap_file).unwrap();
    assert!(snapshots.load(height).unwrap().is_some());
    check("a corrupt snapshot loads as None", CheckConfig::cases(64), |g| {
        let mut bytes = clean.clone();
        let edit = corrupt(g, &mut bytes, 0..clean.len());
        std::fs::write(&snap_file, &bytes).unwrap();
        let loaded = snapshots.load(height);
        ensure!(matches!(loaded, Ok(None)), "{edit}: {loaded:?}");
        Ok(())
    });
    std::fs::write(&snap_file, &clean).unwrap();

    // A delta at height + 1 on the full snapshot above: one new anchor.
    let mut overlay = WorldStateOverlay::new(ledger.state());
    overlay.set_anchor("late-cohort", Hash256::digest(b"late"));
    let writes: StateDelta = overlay.into_delta();
    let mut after = ledger.state().clone();
    writes.clone().apply_to(&mut after);
    let mut delta_tip = ledger.tip().clone();
    delta_tip.header.height = height + 1;
    delta_tip.header.state_root = after.state_root();
    snapshots.write_delta(&delta_tip, height, ledger.tip().id(), &writes).unwrap();
    let delta_file = files_named(&dir.join("snap"), "delta-").remove(0);
    let clean = std::fs::read(&delta_file).unwrap();
    let installs = || -> Result<bool, String> {
        let delta = snapshots.read_delta(height + 1).map_err(|e| e.to_string())?;
        let base = snapshots.load(height).map_err(|e| e.to_string())?;
        Ok(delta.zip(base).and_then(|(delta, base)| delta.onto(base)).is_some())
    };
    assert_eq!(installs(), Ok(true));
    check("a corrupt delta never installs", CheckConfig::cases(64), |g| {
        let mut bytes = clean.clone();
        let edit = corrupt(g, &mut bytes, 0..clean.len());
        std::fs::write(&delta_file, &bytes).unwrap();
        ensure!(installs() == Ok(false), "{edit}: the corrupt delta installed");
        Ok(())
    });

    check("a corrupt page extent reads as Err", CheckConfig::cases(64), |g| {
        let path = dir.join("pages.bin");
        let pages = PageStore::open(&path, 1, Registry::new().handle()).unwrap();
        pages.write(&g.bytes(0, 3 * PAGE_BYTES)).unwrap();
        let payload = g.bytes(0, 3 * PAGE_BYTES);
        let page = pages.write(&payload).unwrap();
        // A third write evicts the extent under test to disk.
        pages.write(b"evictor").unwrap();
        let start = page as usize * PAGE_BYTES;
        let mut bytes = std::fs::read(&path).unwrap();
        let record = start..start + RECORD_HEADER_BYTES + payload.len();
        let edit = corrupt(g, &mut bytes, record);
        std::fs::write(&path, &bytes).unwrap();
        ensure!(pages.read(page).is_err(), "{edit}: the extent still read");
        Ok(())
    });
    std::fs::remove_dir_all(&dir).unwrap();
}
