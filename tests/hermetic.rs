//! Hermetic-build invariants: the in-house codec round-trips the chain's
//! wire types exactly, and the in-house RNG is deterministic enough that
//! equal seeds reproduce identical synthetic cohorts. These are the two
//! properties the zero-dependency migration must preserve.

use medchain_chain::ledger::{Event, Ledger, NullRuntime, Receipt};
use medchain_chain::{Account, AuthorityKey, Block, Hash256, KeyRegistry, Transaction, TxPayload};
use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};
use medchain_runtime::{Decode, DetRng, Encode};

fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
    let encoded = value.encoded();
    let decoded = T::decoded(&encoded).expect("decode");
    assert_eq!(&decoded, value);
    // Strictness: one trailing byte must be rejected.
    let mut padded = encoded.clone();
    padded.push(0);
    assert!(T::decoded(&padded).is_err(), "trailing byte accepted");
}

fn signed_tx(key: &AuthorityKey, nonce: u64) -> Transaction {
    Transaction::new(
        key.address(),
        nonce,
        TxPayload::Transfer { to: key.address(), amount: 42 },
        1_000,
    )
    .signed(key)
}

#[test]
fn transaction_payloads_round_trip() {
    let key = AuthorityKey::from_seed(7);
    round_trip(&TxPayload::Transfer { to: key.address(), amount: 9 });
    round_trip(&TxPayload::Deploy { code: vec![1, 2, 3], init: vec![4] });
    round_trip(&TxPayload::Invoke { contract: key.address(), input: vec![0xff; 40] });
    round_trip(&TxPayload::Anchor { root: Hash256::digest(b"data"), label: "ds".into() });
    round_trip(&signed_tx(&key, 3));
}

#[test]
fn blocks_round_trip_through_the_codec() {
    round_trip(&Block::genesis("hermetic"));

    // A committed block with real transactions, straight off a ledger.
    let key = AuthorityKey::from_seed(1);
    let mut registry = KeyRegistry::new();
    registry.enroll(&key);
    let mut ledger = Ledger::new("hermetic", registry, Box::new(NullRuntime));
    ledger.state_mut().credit(key.address(), 10_000);
    let block = ledger.propose(key.address(), 10, vec![signed_tx(&key, 0), signed_tx(&key, 1)]);
    ledger.apply(&block).expect("apply");
    round_trip(&block);
}

#[test]
fn ledger_state_types_round_trip() {
    round_trip(&Account { balance: 1_234, nonce: 9 });
    round_trip(&Event {
        contract: AuthorityKey::from_seed(2).address(),
        topic: "consent".into(),
        data: vec![1, 2, 3],
    });
    round_trip(&Receipt {
        tx_id: Hash256::digest(b"tx"),
        ok: true,
        gas_used: 77,
        output: vec![5, 6],
        events: vec![],
        error: None,
    });
}

#[test]
fn equal_seeds_produce_identical_cohorts() {
    let a = CohortGenerator::new("site", SiteProfile::default(), 99).cohort(
        0,
        500,
        &DiseaseModel::stroke(),
    );
    let b = CohortGenerator::new("site", SiteProfile::default(), 99).cohort(
        0,
        500,
        &DiseaseModel::stroke(),
    );
    assert_eq!(a, b);

    let c = CohortGenerator::new("site", SiteProfile::default(), 100).cohort(
        0,
        500,
        &DiseaseModel::stroke(),
    );
    assert_ne!(a, c, "different seeds must diverge");
}

#[test]
fn equal_seeds_produce_identical_rng_streams() {
    let mut a = DetRng::from_seed(0xfeed);
    let mut b = DetRng::from_seed(0xfeed);
    for _ in 0..10_000 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    // And the derived draw helpers stay in lockstep too.
    for _ in 0..1_000 {
        assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        assert_eq!(a.gen_f64().to_bits(), b.gen_f64().to_bits());
        assert_eq!(a.normal(0.0, 1.0).to_bits(), b.normal(0.0, 1.0).to_bits());
    }
}
