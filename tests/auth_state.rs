//! Authenticated-world-state tests (DESIGN.md §13): the sparse-Merkle
//! commitment, its incremental maintenance, the proof surface, and the
//! light-client query path end to end over a sharded TCP gateway.
//!
//! Covered: (1) seeded property — incremental root maintenance over
//! random delta sequences (credits, storage writes *and deletes*, code,
//! anchors, lock set/clear, coordinator records) always lands on the
//! full-rehash root, and on the same encoded nodes as the one-pass
//! build (which `state_root_with` also predicts); (2) seeded property —
//! one large batch merged in one descent, with deletes that empty whole
//! subtrees, equals a fresh build and the same batch split up and
//! reordered; (3) tampering any byte of a serialized proof makes
//! it fail; (4) absence proofs for never-written and written-then-
//! deleted keys; (5) the pinned cost — maintaining the root for a
//! 100-write block must take ≤ 0.1× the SHA-256 compressions of a full
//! rehash at 20k accounts, both counted exactly; (6) sharded E2E — prove
//! a record on its home sub-chain and its absence on the other one, each
//! against an independently read committed header root.

use medchain::{Client, GatewayConfig, Network};
use medchain_chain::auth::leaf::key_bit;
use medchain_chain::auth::{key_hash, EMPTY_SUBTREE};
use medchain_chain::{CrossLinkRecord, WorldState, XsDecisionRecord, XsLock};
use medchain_chain::shard::{shard_for_key, ShardId};
use medchain_chain::{
    sha256_compressions, Address, Hash256, LeafKey, SmtProof, StateAccess, StateDelta, StateTree,
    Transaction, TxPayload, WorldStateOverlay,
};
use medchain_runtime::check::{check, CheckConfig, Gen};
use medchain_runtime::codec::{Decode, Encode};
use medchain_runtime::{ensure, ensure_eq};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const COMMIT_TIMEOUT: Duration = Duration::from_secs(30);

/// `sha256_compressions` is process-wide and the tests of one binary
/// run in parallel: every test here hashes, so each holds this and the
/// counting test sees only its own compressions.
fn counted_section() -> MutexGuard<'static, ()> {
    static COUNTED: Mutex<()> = Mutex::new(());
    COUNTED.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_address(g: &mut Gen) -> Address {
    // A small pool so rounds revisit (and overwrite/delete) keys.
    Address::from_seed(g.u64() % 24)
}

/// One random mutation batch against `state`, returned as the delta the
/// ledger would commit.
fn random_delta(g: &mut Gen, state: &WorldState) -> medchain_chain::StateDelta {
    let mut overlay = WorldStateOverlay::new(state);
    for _ in 0..g.usize_in(1, 12) {
        match g.u64() % 8 {
            0 => overlay.credit(small_address(g), g.u64() % 1_000),
            1 => {
                // Empty value = delete; hits the tombstone path whether
                // or not the slot exists.
                let value = if g.bool() { g.bytes(1, 16) } else { Vec::new() };
                overlay.set_storage(small_address(g), g.bytes(1, 8), value);
            }
            2 => overlay.set_code(small_address(g), g.bytes(1, 24)),
            3 => {
                let label = format!("trial/{}", g.u64() % 16);
                overlay.set_anchor(&label, Hash256::digest(&g.bytes(0, 12)));
            }
            4 => overlay.set_lock(
                small_address(g),
                XsLock {
                    xid: Hash256::digest(&g.bytes(0, 8)),
                    amount: g.u64() % 500,
                    debit: g.bool(),
                    deadline_ms: g.u64() % 10_000,
                },
            ),
            5 => overlay.clear_lock(&small_address(g)),
            6 => overlay.set_cross_link(
                ShardId((g.u64() % 4) as u16),
                CrossLinkRecord { height: g.u64() % 100, tip: Hash256::digest(&g.bytes(0, 8)) },
            ),
            _ => overlay.set_xs_decision(
                Hash256::digest(&g.bytes(0, 8)),
                XsDecisionRecord { commit: g.bool(), tx_id: Hash256::digest(&g.bytes(0, 8)) },
            ),
        }
    }
    overlay.into_delta()
}

#[test]
fn incremental_root_tracks_full_rehash_over_random_deltas() {
    let _counted = counted_section();
    check(
        "incremental root tracks full rehash",
        CheckConfig::cases(24),
        |g| {
            let mut state = WorldState::new();
            let mut tree = StateTree::from_state(&state);
            for round in 0..g.usize_in(2, 6) {
                let delta = random_delta(g, &state);
                let predicted = state.state_root_with(&delta);
                tree = tree.with_delta(&delta);
                delta.apply_to(&mut state);
                // Two independent constructions — path-copying inserts
                // and deletes in delta order vs one sorted bottom-up
                // build — must agree node for node, not just at the root.
                let built = StateTree::from_state(&state);
                ensure_eq!(tree.versioned_root(), built.versioned_root());
                ensure_eq!(predicted, built.versioned_root());
                ensure_eq!(tree.len(), state.leaf_count());
                ensure_eq!(built.len(), state.leaf_count());
                ensure!(tree.audit(), "tree failed its structural audit at round {round}");
                ensure!(built.audit(), "built tree failed its structural audit at round {round}");
                ensure_eq!(built.encoded(), tree.encoded());
            }
            Ok(())
        },
    );
}

/// Storage slot `i`, spread over four contracts: slots are a leaf family
/// a delta can both write and delete.
fn slot(i: u64) -> (Address, Vec<u8>) {
    (Address::from_seed(i % 4), format!("slot/{i}").into_bytes())
}

/// The delta that writes `writes` to storage slots (`None` deletes).
fn slot_delta(state: &WorldState, writes: &[(u64, Option<Vec<u8>>)]) -> StateDelta {
    let mut overlay = WorldStateOverlay::new(state);
    for (i, value) in writes {
        let (contract, key) = slot(*i);
        overlay.set_storage(contract, key, value.clone().unwrap_or_default());
    }
    overlay.into_delta()
}

/// `with_delta` merges a whole batch in one descent. Over trees of
/// 0–2,000 leaves and batches of 1–400 keys — at least a third of them
/// deletes, some emptying a whole subtree or the whole tree, plus
/// rewrites of an unchanged value and deletes of absent keys — the
/// merged tree must equal a fresh bottom-up build of the resulting
/// state node for node, and must equal the same writes applied as
/// random sub-batches in random order (roots are history-independent).
#[test]
fn batched_merge_equals_a_fresh_build_and_any_split_of_the_batch() {
    let _counted = counted_section();
    check("batched merge ≡ fresh build ≡ split batches", CheckConfig::cases(24), |g| {
        let leaves = g.usize_in(0, 2_001) as u64;
        let value = |i: u64, version: u64| format!("value/{i}/{version}").into_bytes();
        let mut state = WorldState::new();
        for i in 0..leaves {
            let (contract, key) = slot(i);
            state.set_storage(contract, key, value(i, 0));
        }
        let tree = StateTree::from_state(&state);

        // One final write per slot, so any order of any split means the
        // same thing.
        let mut writes: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        let empty_all = (1..=400).contains(&leaves) && g.usize_in(0, 4) == 0;
        if empty_all {
            writes.extend((0..leaves).map(|i| (i, None)));
        } else if leaves > 0 && g.bool() {
            // Every slot under some leaf's first `depth` path bits, at
            // the shallowest depth holding at most 300 of them.
            let hashes: Vec<Hash256> = (0..leaves)
                .map(|i| {
                    let (contract, key) = slot(i);
                    key_hash(&LeafKey::Storage(contract, key))
                })
                .collect();
            let pivot = hashes[(g.u64() % leaves) as usize];
            let hashes = &hashes;
            let under = |depth: usize| {
                (0..leaves).filter(move |&i| {
                    (0..depth).all(|d| key_bit(&hashes[i as usize], d) == key_bit(&pivot, d))
                })
            };
            let depth = (0..).find(|&depth| under(depth).count() <= 300).expect("keys differ");
            writes.extend(under(depth).map(|i| (i, None)));
        }
        let target = if empty_all { 0 } else { g.usize_in(1, 401) };
        while writes.len() < target {
            let existing = if leaves > 0 { g.u64() % leaves } else { 0 };
            let fresh = leaves + g.u64() % 1_000;
            let (i, write) = match g.u64() % 6 {
                0 | 1 if leaves > 0 => (existing, None),
                2 => (fresh, None), // absent
                4 if leaves > 0 => (existing, Some(value(existing, 1))),
                5 if leaves > 0 => (existing, Some(value(existing, 0))), // unchanged
                _ => (fresh, Some(value(fresh, 1))),
            };
            writes.insert(i, write);
        }
        let mut writes: Vec<(u64, Option<Vec<u8>>)> = writes.into_iter().collect();

        let merged = tree.with_delta(&slot_delta(&state, &writes));
        let mut after = state.clone();
        slot_delta(&state, &writes).apply_to(&mut after);
        let built = StateTree::from_state(&after);
        ensure_eq!(merged.root(), built.root());
        ensure_eq!(merged.encoded(), built.encoded());
        ensure!(merged.audit(), "merged tree failed its structural audit");
        ensure_eq!(merged.len(), after.leaf_count());
        if empty_all {
            ensure_eq!(merged.root(), EMPTY_SUBTREE);
            ensure_eq!(merged.len(), 0);
        }

        g.rng().shuffle(&mut writes);
        let mut split = tree.clone();
        let mut rest = &writes[..];
        while !rest.is_empty() {
            let (batch, tail) = rest.split_at(g.usize_in(1, rest.len() + 1));
            split = split.with_delta(&slot_delta(&state, batch));
            rest = tail;
        }
        ensure_eq!(split.encoded(), merged.encoded());
        ensure_eq!(split.len(), merged.len());
        Ok(())
    });
}

#[test]
fn tampering_any_proof_byte_breaks_verification() {
    let _counted = counted_section();
    check("tampered proofs fail", CheckConfig::cases(12), |g| {
        let mut state = WorldState::new();
        for i in 0..g.usize_in(4, 32) {
            state.credit(Address::from_seed(i as u64), 1 + i as u64);
        }
        let tree = StateTree::from_state(&state);
        let root = tree.versioned_root();
        let key = LeafKey::Account(Address::from_seed(0));
        let value = state.leaf_value(&key).expect("funded account present");
        let proof = tree.prove(&key);
        ensure!(proof.verify(&key, Some(&value), &root), "honest proof must verify");

        let encoded = proof.encoded();
        for i in 0..encoded.len() {
            let mut tampered = encoded.clone();
            tampered[i] ^= 1 << (g.u64() % 8) as u8;
            // A flipped byte must break decoding or verification — it
            // can never yield a second valid proof for the same claim.
            if let Ok(bad) = SmtProof::decoded(&tampered) {
                ensure!(
                    !bad.verify(&key, Some(&value), &root),
                    "byte {i} tampered yet the proof still verified"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn absence_proofs_cover_never_written_and_deleted_keys() {
    let _counted = counted_section();
    let contract = Address::from_seed(7);
    let mut state = WorldState::new();
    state.credit(Address::from_seed(1), 10);
    state.set_storage(contract, b"genome/brca1".to_vec(), b"variant".to_vec());
    let tree = StateTree::from_state(&state);
    let root = tree.versioned_root();

    // Never written: both a key type that exists elsewhere and one that
    // does not exist at all in this state.
    for key in [
        LeafKey::Account(Address::from_seed(999)),
        LeafKey::Anchor("never/written".into()),
    ] {
        let proof = tree.prove(&key);
        assert!(proof.verify(&key, None, &root), "absence of {key:?} must verify");
        assert!(!proof.verify(&key, Some(b"x"), &root), "absence proof must not claim a value");
    }

    // Written then deleted: the inclusion proof verifies before, the
    // absence proof after, and neither crosses over.
    let key = LeafKey::Storage(contract, b"genome/brca1".to_vec());
    let inclusion = tree.prove(&key);
    assert!(inclusion.verify(&key, Some(b"variant"), &root));

    let mut overlay = WorldStateOverlay::new(&state);
    overlay.set_storage(contract, b"genome/brca1".to_vec(), Vec::new());
    let delta = overlay.into_delta();
    let after = tree.with_delta(&delta);
    delta.apply_to(&mut state);
    let root_after = after.versioned_root();
    assert_eq!(root_after, StateTree::from_state(&state).versioned_root());

    let absence = after.prove(&key);
    assert!(absence.verify(&key, None, &root_after), "deleted key needs an absence proof");
    assert!(!absence.verify(&key, Some(b"variant"), &root_after));
    assert!(!inclusion.verify(&key, Some(b"variant"), &root_after), "stale proof must die");
}

/// The acceptance pin: maintaining the root for one 100-write block
/// must cost at most 0.1× the compressions of rehashing the whole state,
/// at a 20k account population. Counted, not timed, so the bound and
/// the exact totals hold on any host and in any build.
#[test]
fn root_maintenance_is_at_most_a_tenth_of_full_rehash() {
    let _counted = counted_section();
    let accounts = 20_000u64;
    let writes = 100u64;
    let mut state = WorldState::new();
    for i in 0..accounts {
        state.credit(Address::from_seed(i), 1 + i);
    }

    let before = sha256_compressions();
    let tree = StateTree::from_state(&state);
    let full = sha256_compressions() - before;

    let mut overlay = WorldStateOverlay::new(&state);
    for i in 0..writes {
        overlay.credit(Address::from_seed((i * (accounts / writes)) % accounts), 3);
    }
    let delta = overlay.into_delta();

    let before = sha256_compressions();
    let updated = tree.with_delta(&delta);
    let incremental = sha256_compressions() - before;

    delta.apply_to(&mut state);
    assert_eq!(updated.versioned_root(), StateTree::from_state(&state).versioned_root());
    assert_eq!((full, incremental), (137_828, 2_228), "full vs incremental compressions");
    assert!(
        incremental * 10 <= full,
        "incremental {incremental} exceeded 0.1x of full rehash {full} compressions"
    );
}

#[test]
fn sharded_gateway_proves_presence_home_and_absence_away() {
    let _counted = counted_section();
    let shards = 2u16;
    let mut builder = Network::builder()
        .block_interval_ms(20)
        .shards(shards)
        .gateway(GatewayConfig { clients: 1 });
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("sharded gateway network builds");
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();

    // One anchor per sub-chain, so both tips carry a real (non-genesis)
    // state commitment before any proof is requested.
    let mut labels: Vec<String> = Vec::new();
    let mut covered = [false; 2];
    for i in 0u32.. {
        let label = format!("registry/{i}");
        let shard = shard_for_key(label.as_bytes(), shards);
        if !covered[shard.0 as usize] {
            covered[shard.0 as usize] = true;
            labels.push(label);
        }
        if covered.iter().all(|&c| c) {
            break;
        }
    }

    let stop = AtomicBool::new(false);
    let proofs = std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            // Nonces are per sub-chain and the labels route one to
            // each, so every anchor is nonce 0 on its own chain.
            for label in &labels {
                let payload = TxPayload::Anchor {
                    root: Hash256::digest(label.as_bytes()),
                    label: label.clone(),
                };
                let tx = Transaction::new(key.address(), 0, payload, 1_000).signed(key);
                let pending = client.submit(&tx, false).expect("accepted");
                client.wait_receipt(&pending, COMMIT_TIMEOUT).expect("commits");
            }

            let mut proofs = Vec::new();
            for label in &labels {
                let leaf = LeafKey::Anchor(label.clone());
                let home = leaf.home_shard(shards);
                let away = ShardId(1 - home.0);

                // Home shard, routed automatically: inclusion.
                let proof = client.query_proven(&leaf).expect("home proof served");
                assert_eq!(proof.shard, home, "gateway must route to the home shard");
                assert_eq!(
                    proof.value.as_deref(),
                    Some(Hash256::digest(label.as_bytes()).0.as_slice()),
                    "anchor value must round-trip"
                );
                proofs.push(proof);

                // Pinned to the other shard: a verifiable absence.
                let proof =
                    client.query_proven_on(&leaf, Some(away)).expect("away proof served");
                assert_eq!(proof.shard, away);
                assert!(proof.value.is_none(), "the record must be absent on the other shard");
                proofs.push(proof);

                // A corrupted query answer is rejected client-side: ask
                // for a key the shard holds but claim a different key.
                let bogus = LeafKey::Anchor(format!("{label}/forged"));
                let err = client.query_proven_on(&bogus, Some(home));
                let proof = err.expect("absence of the forged label is still provable");
                assert!(proof.value.is_none());
                assert_eq!(key_hash(&bogus), key_hash(&proof.key));
            }
            stop.store(true, Ordering::Relaxed);
            proofs
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread")
    });

    // Trustless re-check: every proof folds to the state root of the
    // committed block it names, read straight off the sub-chain ledger
    // the gateway never controls.
    for proof in &proofs {
        let header = &net
            .ledger_of_shard(proof.shard)
            .block(proof.height)
            .expect("block retained")
            .header;
        assert_eq!(header.state_root, proof.state_root);
        assert!(
            proof.verify_against(&header.state_root),
            "proof must verify against the independently read root"
        );
    }
    net.shutdown();
}
