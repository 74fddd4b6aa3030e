//! Property-based tests over the core data structures and invariants of
//! every substrate crate, driven by the seeded `medchain_runtime::check`
//! harness (failures print the one `MEDCHAIN_CHECK_SEED` that reproduces
//! them).

use medchain_chain::hash::{Hash256, Sha256};
use medchain_chain::{Address, MerkleTree};
use medchain_contracts::policy::{AccessPolicy, Purpose};
use medchain_contracts::value::{decode_args, encode_args, Value};
use medchain_data::formats::json;
use medchain_data::formats::LegacyFormat;
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
use medchain_data::Dataset;
use medchain_hie::crypto::{nonce_from, ChaCha20, DhKeypair};
use medchain_learning::decompose::{Aggregate, Partial};
use medchain_learning::linalg::weighted_average;
use medchain_runtime::check::{check, CheckConfig, Gen};
use medchain_runtime::{ensure, ensure_eq, ensure_ne};

fn random_value(g: &mut Gen) -> Value {
    if g.bool() {
        Value::Int(g.i64())
    } else {
        Value::Bytes(g.bytes(0, 200))
    }
}

#[test]
fn sha256_incremental_equals_oneshot() {
    check("sha256 incremental equals oneshot", CheckConfig::cases(64), |g| {
        let data = g.bytes(0, 500);
        let split = g.usize_in(0, data.len() + 1);
        let mut hasher = Sha256::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        ensure_eq!(hasher.finalize(), Hash256::digest(&data));
        Ok(())
    });
}

#[test]
fn merkle_proofs_verify_for_every_leaf() {
    check("merkle proofs verify for every leaf", CheckConfig::cases(64), |g| {
        let leaves = g.vec_of(1, 40, |g| g.bytes(0, 40));
        let tree = MerkleTree::from_items(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).expect("in range");
            ensure!(
                proof.verify(&Hash256::digest(leaf), &tree.root()),
                "proof for leaf {i} rejected"
            );
        }
        Ok(())
    });
}

#[test]
fn merkle_root_changes_with_any_flip() {
    check("merkle root changes with any flip", CheckConfig::cases(64), |g| {
        let leaves = g.vec_of(2, 20, |g| g.bytes(1, 30));
        let original = MerkleTree::from_items(&leaves).root();
        let mut mutated = leaves.clone();
        let i = g.usize_in(0, mutated.len());
        mutated[i][0] ^= 1;
        ensure_ne!(MerkleTree::from_items(&mutated).root(), original);
        Ok(())
    });
}

#[test]
fn value_codec_round_trips() {
    check("value codec round trips", CheckConfig::cases(64), |g| {
        let values = g.vec_of(0, 16, random_value);
        let encoded = encode_args(&values);
        ensure_eq!(decode_args(&encoded).unwrap(), values);
        Ok(())
    });
}

#[test]
fn value_codec_rejects_truncation() {
    check("value codec rejects truncation", CheckConfig::cases(64), |g| {
        let values = g.vec_of(1, 8, random_value);
        let encoded = encode_args(&values);
        let cut = ((encoded.len() as f64) * g.f64()) as usize;
        if cut < encoded.len() {
            ensure!(decode_args(&encoded[..cut]).is_err(), "truncated decode succeeded");
        }
        Ok(())
    });
}

#[test]
fn chacha20_round_trips() {
    check("chacha20 round trips", CheckConfig::cases(64), |g| {
        let key: [u8; 32] = g.byte_array();
        let id = g.u64();
        let data = g.bytes(0, 300);
        let cipher = ChaCha20::new(&key, &nonce_from(id, 0));
        ensure_eq!(cipher.decrypt(&cipher.encrypt(&data)), data);
        Ok(())
    });
}

#[test]
fn dh_agreement_is_symmetric() {
    check("dh agreement is symmetric", CheckConfig::cases(64), |g| {
        let seed_a: [u8; 8] = g.byte_array();
        let seed_b: [u8; 8] = g.byte_array();
        let ctx = g.bytes(1, 30);
        let a = DhKeypair::from_seed(&seed_a);
        let b = DhKeypair::from_seed(&seed_b);
        ensure_eq!(a.session_key(b.public, &ctx), b.session_key(a.public, &ctx));
        Ok(())
    });
}

#[test]
fn policy_value_encoding_round_trips() {
    check("policy value encoding round trips", CheckConfig::cases(64), |g| {
        let mut policy = AccessPolicy::new(Address::from_seed(g.u64()));
        if g.bool() {
            policy.require_consent();
        }
        for _ in 0..g.usize_in(0, 8) {
            let grantee = Address::from_seed(g.u64());
            let purpose = Purpose::from_code(g.rng().gen_range(0i64..5)).unwrap();
            let expiry =
                if g.bool() { Some(g.rng().gen_range(0u64..100_000)) } else { None };
            policy.grant(grantee, purpose, expiry);
        }
        let decoded = AccessPolicy::from_values(&policy.to_values()).unwrap();
        ensure_eq!(decoded, policy);
        Ok(())
    });
}

#[test]
fn weighted_average_is_bounded_by_extremes() {
    check("weighted average is bounded by extremes", CheckConfig::cases(64), |g| {
        let vectors = g.vec_of(1, 6, |g| {
            (0..3).map(|_| g.f64_in(-100.0, 100.0)).collect::<Vec<f64>>()
        });
        let weights: Vec<f64> = (0..vectors.len()).map(|_| g.f64_in(0.1, 10.0)).collect();
        let avg = weighted_average(&vectors, &weights);
        for dim in 0..3 {
            let lo = vectors.iter().map(|v| v[dim]).fold(f64::INFINITY, f64::min);
            let hi = vectors.iter().map(|v| v[dim]).fold(f64::NEG_INFINITY, f64::max);
            ensure!(
                avg[dim] >= lo - 1e-9 && avg[dim] <= hi + 1e-9,
                "dim {dim}: {} outside [{lo}, {hi}]",
                avg[dim]
            );
        }
        Ok(())
    });
}

#[test]
fn aggregates_decompose_exactly_for_any_partition() {
    check("aggregates decompose exactly for any partition", CheckConfig::cases(32), |g| {
        let records = CohortGenerator::new("prop", SiteProfile::default(), g.u64())
            .cohort(0, 120, &DiseaseModel::stroke());
        let cuts = g.vec_of(0, 4, |g| g.usize_in(1, 100));
        for aggregate in [
            Aggregate::Count,
            Aggregate::Mean(medchain_data::Field::Age),
            Aggregate::Variance(medchain_data::Field::SystolicBp),
        ] {
            let whole = aggregate.compute(&records).scalar();
            // Partition at arbitrary cut points.
            let mut partials: Vec<Partial> = Vec::new();
            let mut start = 0usize;
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % records.len()).collect();
            bounds.sort_unstable();
            bounds.dedup();
            for b in bounds {
                if b > start {
                    partials.push(aggregate.map_site(&records[start..b]));
                    start = b;
                }
            }
            partials.push(aggregate.map_site(&records[start..]));
            let composed = aggregate.compose(&partials).scalar();
            ensure!(
                (whole - composed).abs() < 1e-9,
                "{aggregate:?}: {whole} vs {composed}"
            );
        }
        Ok(())
    });
}

#[test]
fn json_round_trips_arbitrary_strings() {
    check("json round trips arbitrary strings", CheckConfig::cases(64), |g| {
        let doc = json::Json::String(g.string(60));
        let parsed = json::parse(&doc.to_text()).unwrap();
        ensure_eq!(parsed, doc);
        Ok(())
    });
}

#[test]
fn dataset_split_preserves_rows() {
    check("dataset split preserves rows", CheckConfig::cases(64), |g| {
        let seed = g.u64();
        let frac = g.f64();
        let records = CohortGenerator::new("prop", SiteProfile::default(), seed)
            .cohort(0, 60, &DiseaseModel::stroke());
        let data = Dataset::from_records(&records, "I63");
        let (train, test) = data.train_test_split(frac, seed);
        ensure_eq!(train.len() + test.len(), data.len());
        let total_pos = data.labels.iter().sum::<f64>();
        let split_pos = train.labels.iter().sum::<f64>() + test.labels.iter().sum::<f64>();
        ensure!((total_pos - split_pos).abs() < 1e-9, "positives not preserved");
        Ok(())
    });
}

#[test]
fn fhir_codec_round_trips_generated_records() {
    check("fhir codec round trips generated records", CheckConfig::cases(32), |g| {
        let records = CohortGenerator::new("prop", SiteProfile::default(), g.u64())
            .cohort(0, 5, &DiseaseModel::cancer());
        let codec = medchain_data::formats::fhir::FhirLikeFormat;
        for record in &records {
            let decoded = codec.decode(&codec.encode(record)).unwrap();
            ensure_eq!(decoded.patient_id, record.patient_id);
            ensure_eq!(&decoded.diagnoses, &record.diagnoses);
            ensure_eq!(&decoded.genomics, &record.genomics);
        }
        Ok(())
    });
}

#[test]
fn hash_hex_round_trips() {
    check("hash hex round trips", CheckConfig::cases(64), |g| {
        let h = Hash256(g.byte_array());
        ensure_eq!(Hash256::from_hex(&h.to_hex()).unwrap(), h);
        Ok(())
    });
}

// === VM fuzzing and ledger invariants ===

use medchain_chain::ledger::{Ledger, NullRuntime};
use medchain_chain::sig::{AuthorityKey, KeyRegistry};
use medchain_chain::tx::{Transaction, TxPayload};
use medchain_chain::WorldState;
use medchain_contracts::opcode::{decode_program, encode_program, Instr};
use medchain_contracts::vm::{execute, CallEnv};

fn random_instr(g: &mut Gen) -> Instr {
    match g.usize_in(0, 34) {
        0 => Instr::PushInt(g.i64()),
        1 => Instr::PushBytes(g.bytes(0, 24)),
        2 => Instr::Pop,
        3 => Instr::Dup(g.rng().gen_range(0u8..4)),
        4 => Instr::Swap(g.rng().gen_range(0u8..4)),
        5 => Instr::Add,
        6 => Instr::Sub,
        7 => Instr::Mul,
        8 => Instr::Div,
        9 => Instr::Mod,
        10 => Instr::Neg,
        11 => Instr::Eq,
        12 => Instr::Lt,
        13 => Instr::Gt,
        14 => Instr::Not,
        15 => Instr::And,
        16 => Instr::Or,
        17 => Instr::Jump(g.rng().gen_range(0u16..40)),
        18 => Instr::JumpIf(g.rng().gen_range(0u16..40)),
        19 => Instr::Halt,
        20 => Instr::Revert,
        21 => Instr::Caller,
        22 => Instr::SelfAddr,
        23 => Instr::Arg(g.rng().gen_range(0u8..4)),
        24 => Instr::ArgCount,
        25 => Instr::SLoad,
        26 => Instr::SStore,
        27 => Instr::Emit,
        28 => Instr::Sha256,
        29 => Instr::Concat,
        30 => Instr::Len,
        31 => Instr::IntToBytes,
        32 => Instr::BytesToInt,
        // Burn bounded by the gas limit below anyway.
        _ => Instr::Burn,
    }
}

/// Fuzz: arbitrary programs never panic the interpreter — they halt,
/// trap, or run out of gas, but the host survives.
#[test]
fn vm_random_programs_never_panic() {
    check("vm random programs never panic", CheckConfig::cases(128), |g| {
        let program = g.vec_of(0, 40, random_instr);
        let args = g.vec_of(0, 4, random_value);
        let env = CallEnv::new(Address::from_seed(1), Address::from_seed(2), &args, 20_000);
        let mut state = WorldState::new();
        let _ = execute(&program, &env, &mut state);
        Ok(())
    });
}

/// Fuzz: bytecode round-trips for arbitrary programs.
#[test]
fn bytecode_round_trips_arbitrary_programs() {
    check("bytecode round trips arbitrary programs", CheckConfig::cases(128), |g| {
        let program = g.vec_of(0, 60, random_instr);
        let encoded = encode_program(&program);
        ensure_eq!(decode_program(&encoded).unwrap(), program);
        Ok(())
    });
}

/// Fuzz: arbitrary byte blobs never panic the bytecode decoder.
#[test]
fn bytecode_decoder_survives_garbage() {
    check("bytecode decoder survives garbage", CheckConfig::cases(128), |g| {
        let blob = g.bytes(0, 200);
        let _ = decode_program(&blob);
        Ok(())
    });
}

/// Ledger invariant: the total token supply is conserved under any
/// sequence of transfers (successful or failed).
#[test]
fn token_supply_is_conserved() {
    check("token supply is conserved", CheckConfig::cases(64), |g| {
        let transfers = g.vec_of(1, 25, |g| {
            (g.usize_in(0, 3), g.usize_in(0, 3), g.rng().gen_range(0u64..2_000))
        });
        let keys: Vec<AuthorityKey> =
            (0..3).map(|i| AuthorityKey::from_seed(i as u64)).collect();
        let mut registry = KeyRegistry::new();
        for k in &keys {
            registry.enroll(k);
        }
        let mut ledger = Ledger::new("supply-prop", registry, Box::new(NullRuntime));
        for k in &keys {
            ledger.state_mut().credit(k.address(), 1_000);
        }
        let supply_before: u64 =
            keys.iter().map(|k| ledger.state().account(&k.address()).balance).sum();

        let mut nonces = [0u64; 3];
        let txs: Vec<Transaction> = transfers
            .iter()
            .map(|&(from, to, amount)| {
                let tx = Transaction::new(
                    keys[from].address(),
                    nonces[from],
                    TxPayload::Transfer { to: keys[to].address(), amount },
                    1_000,
                )
                .signed(&keys[from]);
                nonces[from] += 1;
                tx
            })
            .collect();
        let block = ledger.propose(keys[0].address(), 10, txs);
        ledger.apply(&block).unwrap();

        let supply_after: u64 =
            keys.iter().map(|k| ledger.state().account(&k.address()).balance).sum();
        ensure_eq!(supply_before, supply_after);
        Ok(())
    });
}

// === Persistence codec round-trips (durable storage subsystem) ===
//
// The segmented WAL and snapshot files persist canonical-codec `Block`
// and `WorldState` bytes; these properties pin the codec as total and
// identity-preserving over arbitrary well-formed values, so anything the
// store writes comes back bit-equal (and hash-equal) on recovery.

use medchain_chain::block::{Block, Header, Seal};
use medchain_chain::shard::ShardId;

/// Any shard a header can carry: unsharded, a data shard, or the
/// coordinator chain.
fn random_shard(g: &mut Gen) -> ShardId {
    match g.usize_in(0, 2) {
        0 => ShardId::default(),
        1 => ShardId(g.rng().gen_range(0u16..8)),
        _ => ShardId::COORDINATOR,
    }
}
use medchain_runtime::codec::{Decode, Encode, Reader};

fn random_payload(g: &mut Gen) -> TxPayload {
    match g.usize_in(0, 4) {
        0 => TxPayload::Transfer {
            to: Address::from_seed(g.u64()),
            amount: g.rng().gen_range(0u64..1_000_000),
        },
        1 => TxPayload::Deploy { code: g.bytes(0, 60), init: g.bytes(0, 30) },
        2 => TxPayload::Invoke { contract: Address::from_seed(g.u64()), input: g.bytes(0, 40) },
        _ => TxPayload::Anchor { root: Hash256(g.byte_array()), label: g.string(16) },
    }
}

fn random_signed_tx(g: &mut Gen, keys: &[AuthorityKey]) -> Transaction {
    let key = &keys[g.usize_in(0, keys.len())];
    let nonce = g.rng().gen_range(0u64..1_000);
    let gas = g.rng().gen_range(0u64..100_000);
    Transaction::new(key.address(), nonce, random_payload(g), gas).signed(key)
}

fn random_seal(g: &mut Gen, keys: &[AuthorityKey], digest: &Hash256) -> Seal {
    match g.usize_in(0, 5) {
        0 => Seal::Genesis,
        1 => Seal::Authority {
            proposer: keys[0].sign(&digest.0),
            votes: keys.iter().map(|k| k.sign(&digest.0)).collect(),
        },
        2 => Seal::Pbft {
            view: g.rng().gen_range(0u64..10),
            commits: keys.iter().map(|k| k.sign(&digest.0)).collect(),
        },
        3 => Seal::Work { nonce: g.u64(), difficulty_bits: g.rng().gen_range(0u32..20) },
        _ => Seal::Stake {
            winner: keys[0].sign(&digest.0),
            stake: g.rng().gen_range(1u64..1_000_000),
        },
    }
}

/// Persistence property: any well-formed block survives the canonical
/// codec bit-equal, with no trailing bytes and the same block id.
#[test]
fn block_codec_round_trips_arbitrary_blocks() {
    check("block codec round trips arbitrary blocks", CheckConfig::cases(64), |g| {
        let keys: Vec<AuthorityKey> =
            (0..3).map(|i| AuthorityKey::from_seed(100 + i as u64)).collect();
        let header = Header {
            height: g.u64(),
            parent: Hash256(g.byte_array()),
            tx_root: Hash256(g.byte_array()),
            state_root: Hash256(g.byte_array()),
            timestamp_ms: g.u64(),
            proposer: Address::from_seed(g.u64()),
            shard: random_shard(g),
        };
        let digest = header.digest();
        let block = Block {
            header: header.into(),
            transactions: g.vec_of(0, 8, |g| random_signed_tx(g, &keys)).into(),
            seal: random_seal(g, &keys, &digest),
        };
        let bytes = block.encoded();
        let mut reader = Reader::new(&bytes);
        let decoded = Block::decode(&mut reader).expect("decodes");
        ensure_eq!(reader.remaining(), 0);
        ensure_eq!(decoded, block);
        ensure_eq!(decoded.id(), block.id());
        Ok(())
    });
}

/// Persistence property: any world state built from the public mutators
/// round-trips through the canonical codec with its state root intact —
/// the exact check snapshot recovery performs against the tip header.
#[test]
fn world_state_codec_round_trips_and_preserves_root() {
    check("world state codec round trips", CheckConfig::cases(64), |g| {
        let mut state = WorldState::new();
        for _ in 0..g.usize_in(0, 10) {
            state.credit(Address::from_seed(g.u64()), g.rng().gen_range(0u64..1_000_000));
        }
        for _ in 0..g.usize_in(0, 10) {
            state.set_storage(Address::from_seed(g.u64()), g.bytes(0, 16), g.bytes(0, 32));
        }
        for _ in 0..g.usize_in(0, 4) {
            state.set_code(Address::from_seed(g.u64()), g.bytes(1, 60));
        }
        for _ in 0..g.usize_in(0, 4) {
            state.set_anchor(&g.string(12), Hash256(g.byte_array()));
        }
        let bytes = state.encoded();
        let mut reader = Reader::new(&bytes);
        let decoded = WorldState::decode(&mut reader).expect("decodes");
        ensure_eq!(reader.remaining(), 0);
        ensure_eq!(decoded, state);
        ensure_eq!(decoded.state_root(), state.state_root());
        Ok(())
    });
}

/// Persistence property: truncating the canonical block encoding at any
/// point never panics the decoder — it errors (or, if the cut lands on a
/// prefix that parses, leaves trailing state the store's framing
/// rejects via CRC).
#[test]
fn block_decoder_survives_truncation() {
    check("block decoder survives truncation", CheckConfig::cases(64), |g| {
        let keys = [AuthorityKey::from_seed(5)];
        let header = Header {
            height: g.u64(),
            parent: Hash256(g.byte_array()),
            tx_root: Hash256(g.byte_array()),
            state_root: Hash256(g.byte_array()),
            timestamp_ms: g.u64(),
            proposer: Address::from_seed(g.u64()),
            shard: random_shard(g),
        };
        let digest = header.digest();
        let block = Block {
            header: header.into(),
            transactions: g.vec_of(0, 4, |g| random_signed_tx(g, &keys)).into(),
            seal: random_seal(g, &keys, &digest),
        };
        let bytes = block.encoded();
        let cut = g.usize_in(0, bytes.len());
        let mut reader = Reader::new(&bytes[..cut]);
        let _ = Block::decode(&mut reader);
        Ok(())
    });
}

/// Hostile-input property for the state tree's node encoding, which
/// snapshot trees and spilled subtree pages both decode through: the
/// encoding of a random tree cut at any point or with any byte flipped,
/// and internal nodes nested past the 256-bit key width, make
/// `StateTree::decode` return an error or a tree — never panic, and
/// never recurse past the key width.
#[test]
fn state_tree_decoder_survives_hostile_bytes() {
    use medchain_chain::StateTree;
    check("state tree decoder survives hostile bytes", CheckConfig::cases(256), |g| {
        let mut state = WorldState::new();
        for _ in 0..g.usize_in(0, 40) {
            state.credit(Address::from_seed(g.u64() % 64), 1 + g.u64() % 1_000);
        }
        let bytes = StateTree::from_state(&state).encoded();
        let cut = g.usize_in(0, bytes.len());
        let _ = StateTree::decode(&mut Reader::new(&bytes[..cut]));
        let mut flipped = bytes.clone();
        let at = g.usize_in(0, flipped.len());
        flipped[at] ^= 1 << (g.u64() % 8);
        if let Ok(tree) = StateTree::decode(&mut Reader::new(&flipped)) {
            let _ = (tree.root(), tree.audit(), tree.resident_nodes());
        }
        Ok(())
    });
    const TAG_INTERNAL: u8 = 2;
    let mut nested = 3u64.encoded();
    for _ in 0..300 {
        nested.push(TAG_INTERNAL);
        nested.extend_from_slice(&[0xab; 32]);
    }
    assert!(StateTree::decode(&mut Reader::new(&nested)).is_err(), "nesting past 256 levels");
}

/// Receipts-as-API property (DESIGN.md §10): a [`TxReceipt`]'s Merkle
/// inclusion proof verifies for any block size and transaction index —
/// and **any** single-byte tamper of the leaf (the tx id), of any
/// sibling hash on the proof path, or of the root makes verification
/// fail. (The batch-ordering invariant that used to live here moved
/// next to the mempool in `crates/chain/src/mempool.rs`.)
#[test]
fn tx_receipt_proof_verifies_and_rejects_every_single_byte_tamper() {
    use medchain_chain::receipt::TxReceipt;
    check("tx receipt proofs reject tampering", CheckConfig::cases(48), |g| {
        let key = AuthorityKey::from_seed(7);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let mut ledger = Ledger::new("receipt-prop", registry, Box::new(NullRuntime));
        let n = g.usize_in(1, 24);
        let txs: Vec<Transaction> = (0..n)
            .map(|nonce| {
                Transaction::new(
                    key.address(),
                    nonce as u64,
                    TxPayload::Anchor {
                        root: Hash256(g.byte_array()),
                        label: format!("ds/{nonce}"),
                    },
                    1_000,
                )
                .signed(&key)
            })
            .collect();
        let block = ledger.propose(key.address(), 10, txs);
        ledger.apply(&block).expect("block applies");

        let index = g.usize_in(0, n);
        let tx_id = block.transactions[index].id();
        let exec = ledger.receipt(&tx_id).expect("executed");
        let receipt = TxReceipt::for_block(&block, index, exec).expect("included");
        ensure!(receipt.verify(), "untampered proof rejected");
        ensure!(
            receipt.verify_against(&block.header.tx_root),
            "proof rejected against the committed root"
        );

        // Leaf tampering: every byte of the proven tx id.
        for byte in 0..32 {
            let mut tampered = receipt.clone();
            tampered.tx_id.0[byte] ^= 1;
            ensure!(
                !tampered.verify_against(&block.header.tx_root),
                "leaf byte {byte} tamper verified"
            );
        }
        // Root tampering: every byte of the carried root.
        for byte in 0..32 {
            let mut tampered = receipt.clone();
            tampered.tx_root.0[byte] ^= 1;
            ensure!(!tampered.verify(), "root byte {byte} tamper verified");
        }
        // Path tampering: every byte of every sibling hash.
        for step in 0..receipt.proof.path.len() {
            for byte in 0..32 {
                let mut tampered = receipt.clone();
                tampered.proof.path[step].sibling.0[byte] ^= 1;
                ensure!(
                    !tampered.verify_against(&block.header.tx_root),
                    "path step {step} byte {byte} tamper verified"
                );
            }
        }
        Ok(())
    });
}
