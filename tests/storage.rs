//! Crash-recovery acceptance tests for the durable storage subsystem.
//!
//! The invariant under test: a node you kill — even mid-append — comes
//! back with exactly the chain it had durably committed. Recovery
//! truncates the torn tail record, restores the newest snapshot that
//! agrees with the log, re-executes the tail through the ledger, and
//! the replayed tip hash and state root are asserted equal to the
//! pre-crash values. `storage.*` counters on the metrics sink make the
//! recovery observable, not just survivable.

use medchain_chain::ledger::NullRuntime;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::tx::{Transaction, TxPayload};
use medchain_chain::{Hash256, KeyRegistry, LeafKey, Ledger, StateCacheConfig, StateTree};
use medchain_repro::prelude::*;
use medchain_runtime::metrics::Registry;
use medchain_storage::wal::RECORD_HEADER_BYTES;
use medchain_storage::{PagedAccounts, PagedNodes, SnapshotStore};
use std::path::PathBuf;
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
/// enabled, tear the append of block N+1 mid-record (simulated crash),
/// reopen, and verify the replayed chain equals the pre-crash chain
/// with `storage.truncated_records == 1` on the sink.
#[test]
fn torn_tail_crash_recovers_pre_crash_tip_and_state_root() {
    let dir = test_dir("torn-tail");
    let key = AuthorityKey::from_seed(7);
    let config = StorageConfig {
        snapshot_every: 4,
        segment_bytes: 2048, // small segments: the log rolls several times
        fault: Some(StorageFault::TornAppend { at: 11 }),
        ..StorageConfig::default()
    };

    // First life: 10 committed blocks, crash tearing block 11's record.
    let mut ledger = fresh_ledger(&key);
    let mut store = DiskStore::open(&dir, config).unwrap();
    store.recover_into(&mut ledger).unwrap();
    ledger.attach_store(Box::new(store));
    grow(&mut ledger, &key, 10);
    let tip_id = ledger.tip().id();
    let state_root = ledger.state().state_root();

    let tx = Transaction::new(
        key.address(),
        ledger.state().account(&key.address()).nonce,
        TxPayload::Anchor { root: Hash256::ZERO, label: "doomed".into() },
        100,
    )
    .signed(&key);
    let block = ledger.propose(key.address(), 550, vec![tx]);
    let err = ledger.apply(&block).expect_err("append is torn");
    assert!(err.to_string().contains("simulated crash"), "got: {err}");
    // Write-ahead ordering: the failed block never reached memory either.
    assert_eq!(ledger.height(), 10);
    assert_eq!(ledger.tip().id(), tip_id);
    drop(ledger);

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
    let mut offset = 0usize;
    for _ in 0..4 {
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += RECORD_HEADER_BYTES as usize + len;
    }
    bytes[offset + RECORD_HEADER_BYTES as usize + 10] ^= 0x40;
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

fn sharded_net(root: &std::path::Path, sites: usize, shards: u16) -> ShardedNetwork {
    let mut builder =
        MedicalNetwork::builder().shards(shards).block_interval_ms(20).storage(root);
    for i in 0..sites {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    builder.build_sharded().expect("sharded network builds")
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
        net.submit_as(i, TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }, 1_000)
            .unwrap();
    }
    net.advance(2).unwrap();
    let links = net.cross_link().unwrap();
    assert_eq!(links.len(), 2);
    let heights = net.shard_heights();
    let tips: Vec<Hash256> =
        (0..2).map(|s| net.ledger_of_shard(ShardId(s)).tip().id()).collect();
    let coordinator_tip = net.coordinator_ledger().tip().id();
    drop(net);

    // Second life: all sub-chains resume and pass the cross-link audit.
    let mut net = sharded_net(&root, 4, 2);
    assert!(net.resumed());
    assert_eq!(net.shard_heights(), heights);
    for s in 0..2u16 {
        assert_eq!(net.ledger_of_shard(ShardId(s)).tip().id(), tips[s as usize]);
    }
    assert_eq!(net.coordinator_ledger().tip().id(), coordinator_tip);
    // The recovered coordinator still holds the pre-crash cross-links.
    for link in &links {
        let record =
            net.coordinator_ledger().state().cross_link(link.shard).expect("recorded");
        assert_eq!(record.tip, link.tip);
    }
    // The resumed consortium keeps growing and cross-links past the old
    // tips.
    net.submit_as(0, TxPayload::Anchor { root: Hash256::ZERO, label: "post-restart".into() }, 1_000)
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
        net.submit_as(i, TxPayload::Anchor { root: Hash256::ZERO, label }, 1_000).unwrap();
    }
    net.advance(2).unwrap();
    assert_eq!(net.cross_link().unwrap().len(), 2);
    drop(net);

    // Roll shard-0 back to genesis by wiping its data directories.
    std::fs::remove_dir_all(root.join("shard-0")).unwrap();
    let mut builder =
        MedicalNetwork::builder().shards(2).block_interval_ms(20).storage(&root);
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let err = builder.build_sharded().expect_err("rolled-back shard must not resume");
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
fn sharded_net_2pc(root: &std::path::Path, sites: usize, shards: u16) -> ShardedNetwork {
    let config = StorageConfig { snapshot_every: 1, ..StorageConfig::default() };
    let mut builder = MedicalNetwork::builder()
        .shards(shards)
        .block_interval_ms(20)
        .storage_with(root, config);
    for i in 0..sites {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    builder.build_sharded().expect("sharded network builds")
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
    assert!(net.coordinator_ledger().state().xs_decision(&transfer.xid).is_some());
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
        net.coordinator_ledger().state().xs_decision(&transfer.xid).expect("decision durable");
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
    assert!(!net.coordinator_ledger().state().xs_decision(&xid).unwrap().commit);
    drop(net);

    // Third life: the abort is durable — nothing left to resolve.
    let mut net = sharded_net_2pc(&root, 4, 2);
    assert!(net.resumed());
    assert!(net.lock_of(&from).is_none());
    assert_eq!(net.balance_of(&from), 100);
    assert!(!net.coordinator_ledger().state().xs_decision(&xid).unwrap().commit);
    assert_eq!(net.resolve_cross_shard().unwrap(), XsResolution::default());
    std::fs::remove_dir_all(&root).unwrap();
}

/// Restarting a `MedicalNetwork` from its data directory resumes at the
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
    let mut net = MedicalNetwork::builder()
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
    let net = MedicalNetwork::builder()
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
fn flat_net(root: &std::path::Path) -> MedicalNetwork {
    let mut builder = MedicalNetwork::builder()
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
fn assert_agreed_and_growing(net: &mut MedicalNetwork, height: u64, tip: Hash256) {
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

/// The `latest_state` projection is derived data a restart has to
/// rebuild whole: recovery installs the newest snapshot and replays only
/// the tail above it, so keys last written below the snapshot reach the
/// projection through the install, not through a replayed block.
#[test]
fn latest_state_projection_survives_restart_past_a_snapshot() {
    let root = test_dir("net-latest-state");
    let tracked = |root: &std::path::Path| {
        let mut builder = MedicalNetwork::builder().track_latest_state().storage_with(
            root,
            StorageConfig { snapshot_every: 4, ..StorageConfig::default() },
        );
        for i in 0..3 {
            builder = builder.site(&format!("hospital-{i}"), Vec::new());
        }
        builder.build().expect("tracked network builds")
    };
    let anchor_a = LeafKey::Anchor("cohort-a".into());

    // First life: anchor A, then move the chain past two more snapshot
    // boundaries so A's block lies below the snapshot recovery installs.
    let mut net = tracked(&root);
    net.submit_as(
        0,
        TxPayload::Anchor { root: Hash256::digest(b"cohort-a"), label: "cohort-a".into() },
        1_000,
    )
    .unwrap();
    net.advance(1).unwrap();
    let anchored_at = net.height();
    while net.height() < anchored_at.next_multiple_of(4) + 5 {
        let label = format!("filler-{}", net.height());
        net.submit_as(1, TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }, 1_000)
            .unwrap();
        net.advance(1).unwrap();
    }
    assert!(net.height() > 8);
    net.shutdown();
    drop(net);

    let net = tracked(&root);
    assert!(net.resumed());
    let state = net.ledger().state();
    let latest = net.latest_state().expect("projection tracked");
    let expected = state.leaf_value(&anchor_a).expect("A is committed state");
    assert_eq!(
        latest.get(&anchor_a).map(|entry| entry.value),
        Some(expected),
        "anchor A fell out of the projection across the restart"
    );
    // Every leaf is projected, and each projected value is the ledger's.
    assert_eq!(latest.len(), state.leaf_count());
    let mut keys: Vec<LeafKey> =
        (0..3).map(|i| LeafKey::Account(net.site(i).address())).collect();
    keys.extend((anchored_at..net.height()).map(|h| LeafKey::Anchor(format!("filler-{h}"))));
    for key in keys {
        let entry = latest.get(&key).unwrap_or_else(|| panic!("{key:?} not projected"));
        assert_eq!(Some(entry.value), state.leaf_value(&key), "{key:?}");
    }
    std::fs::remove_dir_all(&root).unwrap();
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
        net.submit_as(i, TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }, 1_000)
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
    net.submit_as(1, TxPayload::Anchor { root: Hash256::ZERO, label: "post-rejoin".into() }, 1_000)
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
fn random_block(rng: &mut DetRng, ledger: &Ledger, key: &AuthorityKey) -> medchain_chain::Block {
    let height = ledger.height() + 1;
    let nonce_base = ledger.state().account(&key.address()).nonce;
    let txs: Vec<Transaction> = (0..4)
        .map(|k| {
            let payload = if rng.next_u64() % 2 == 0 {
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

/// A page-capped state cache over `pages`, budgets far below the
/// 64-account working set of [`random_block`].
fn tiny_state_cache(pages: Arc<PageStore>) -> StateCacheConfig {
    StateCacheConfig {
        accounts: Arc::new(PagedAccounts::new(Arc::clone(&pages))),
        nodes: Arc::new(PagedNodes::new(pages)),
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
            let block = random_block(&mut rng, &resident, &key);
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

/// Snapshots are written from the tree the commit built, never from a
/// rebuild — so every `snap-*.bin` a ledger's store writes, with the
/// state resident or paged (spilled subtrees spliced from their pages),
/// must be byte-identical to a snapshot of the same tip and state over a
/// tree built from scratch, and must be what a restart recovers from.
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
        for _ in 0..14 {
            let block = random_block(&mut rng, &ledger, &key);
            ledger.apply(&block).unwrap();
            let height = ledger.height();
            if height % 4 != 0 {
                continue;
            }
            let name = format!("snap-{height:020}.bin");
            let state = ledger.state();
            reference.write(ledger.tip(), state, &StateTree::from_state(state)).unwrap();
            assert_eq!(
                std::fs::read(dir.join(&name)).unwrap(),
                std::fs::read(reference_dir.join(&name)).unwrap(),
                "paged={paged}: {name} differs from a from-scratch build"
            );
        }
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
