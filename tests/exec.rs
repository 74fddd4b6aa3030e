//! Block execution, end to end (DESIGN.md §11): a replica that executes
//! a block must commit exactly what its proposer committed on realistic
//! mixed blocks, and a 10k-write overlay commit must reach the root a
//! full state clone reaches. That it never clones the state is pinned as
//! an allocation count in `tests/alloc_count.rs`.

use std::collections::HashMap;

use medchain_chain::exec::StateAccess;
use medchain_chain::ledger::{contract_address, Ledger};
use medchain_chain::shard::ShardId;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::{
    Address, Hash256, KeyRegistry, Receipt, Transaction, TxPayload, WorldState, WorldStateOverlay,
    XsLeg,
};
use medchain_contracts::asm::assemble;
use medchain_contracts::opcode::encode_program;
use medchain_contracts::{encode_args, Runtime, Value};
use medchain_runtime::check::{check, CheckConfig, Gen};
use medchain_runtime::{ensure, ensure_eq};

const SENDERS: u64 = 16;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn keys() -> Vec<AuthorityKey> {
    (1..=SENDERS).map(AuthorityKey::from_seed).collect()
}

/// Adder bytecode: touches only its own contract's storage.
fn adder_code() -> Vec<u8> {
    encode_program(&assemble("arg 0\narg 1\nadd\nhalt").unwrap())
}

/// Caller bytecode: `callc` re-enters the runtime on the adder.
fn caller_code(target: &Address) -> Vec<u8> {
    let input = encode_args(&[Value::Int(20), Value::Int(22)]);
    let src = format!("pushb 0x{}\npushb 0x{}\ncallc\nhalt", hex(&target.0), hex(&input));
    encode_program(&assemble(&src).unwrap())
}

/// A fresh flat ledger with the standard contract runtime, all senders
/// funded, and a setup block deploying the adder and the caller.
fn fresh_ledger() -> (Ledger, Address, Address) {
    let keys = keys();
    let mut registry = KeyRegistry::new();
    for key in &keys {
        registry.enroll(key);
    }
    let mut ledger = Ledger::new("exec", registry, Box::new(Runtime::standard()));
    for key in &keys {
        ledger.state_mut().credit(key.address(), 1_000_000);
    }
    let adder = contract_address(&keys[0].address(), 0);
    let caller = contract_address(&keys[1].address(), 0);
    let setup = vec![
        Transaction::new(
            keys[0].address(),
            0,
            TxPayload::Deploy { code: adder_code(), init: Vec::new() },
            100_000,
        )
        .signed(&keys[0]),
        Transaction::new(
            keys[1].address(),
            0,
            TxPayload::Deploy { code: caller_code(&adder), init: Vec::new() },
            100_000,
        )
        .signed(&keys[1]),
    ];
    let block = ledger.propose(keys[0].address(), 5, setup);
    ledger.apply(&block).expect("setup block applies");
    (ledger, adder, caller)
}

/// One random transaction of every payload kind a block mixes: disjoint
/// and hot-key transfers, anchors, self-contained invokes, deploys and
/// `callc` invokes, a deterministic failure against a missing contract,
/// and 2PC prepare/decide/finalize legs (lock contention on a small
/// account pool, so prepares and finalizes hand locks off within a
/// block).
fn random_tx(g: &mut Gen, i: usize, nonces: &mut HashMap<Address, u64>, adder: &Address, caller: &Address) -> Transaction {
    let keys = keys();
    let key = &keys[g.usize_in(0, keys.len())];
    let sender = key.address();
    let nonce = *nonces.get(&sender).unwrap_or(&0);
    nonces.insert(sender, nonce + 1);
    // Small pools: repeated xids/accounts make lock hand-offs happen.
    let xs_xid = Hash256::digest(&[g.usize_in(0, 3) as u8]);
    let xs_account = Address::from_seed(3_000_000 + g.usize_in(0, 3) as u64);
    let payload = match g.usize_in(0, 13) {
        0..=3 => TxPayload::Transfer {
            to: Address::from_seed(2_000_000 + i as u64),
            amount: 1 + g.usize_in(0, 50) as u64,
        },
        4 | 5 => TxPayload::Transfer { to: Address::from_seed(777), amount: 1 },
        6 => TxPayload::Anchor {
            root: Hash256::digest(&g.bytes(1, 16)),
            label: format!("site-{}", g.usize_in(0, 3)),
        },
        7 => TxPayload::Invoke {
            contract: *adder,
            input: encode_args(&[
                Value::Int(g.usize_in(0, 100) as i64),
                Value::Int(g.usize_in(0, 100) as i64),
            ]),
        },
        8 => {
            if g.bool() {
                TxPayload::Invoke { contract: *caller, input: Vec::new() }
            } else {
                TxPayload::Deploy { code: adder_code(), init: Vec::new() }
            }
        }
        9 => TxPayload::Invoke {
            contract: Address::from_seed(0xDEAD),
            input: Vec::new(),
        },
        10 | 11 => TxPayload::XsPrepare {
            xid: xs_xid,
            leg: XsLeg {
                shard: ShardId::default(),
                account: xs_account,
                amount: g.usize_in(0, 20) as u64,
                debit: g.bool(),
            },
            deadline_ms: g.usize_in(0, 1_000) as u64,
        },
        // Decides fail deterministically off the coordinator chain —
        // the failure arm must still replay identically.
        12 => TxPayload::XsDecide { xid: xs_xid, commit: g.bool() },
        _ => TxPayload::XsFinalize { xid: xs_xid, account: xs_account, commit: g.bool() },
    };
    Transaction::new(sender, nonce, payload, 100_000).signed(key)
}

/// A replica that executes a random 1k-tx mixed block commits the
/// receipts, state root and tip its proposer committed without
/// executing it again.
#[test]
fn a_replica_commits_the_proposers_receipts_on_random_mixed_blocks() {
    check("replica apply ≡ proposer commit", CheckConfig::cases(3), |g| {
        let (mut proposer, adder, caller) = fresh_ledger();
        let mut nonces: HashMap<Address, u64> = HashMap::new();
        for key in keys().iter().take(2) {
            nonces.insert(key.address(), 1); // setup deploys consumed nonce 0
        }
        let txs: Vec<Transaction> = (0..1_000)
            .map(|i| random_tx(g, i, &mut nonces, &adder, &caller))
            .collect();
        let block = proposer.propose(keys()[0].address(), 10, txs);
        ensure!(!block.transactions.is_empty(), "block empty");
        let receipts = |ledger: &Ledger| -> Vec<Option<Receipt>> {
            block.transactions.iter().map(|tx| ledger.receipt(&tx.id())).collect()
        };
        proposer.apply(&block).map_err(|e| format!("proposer commit: {e:?}"))?;
        let committed = receipts(&proposer);
        ensure!(committed.iter().all(Option::is_some), "the proposer kept no receipt");

        let (mut replica, _, _) = fresh_ledger();
        replica.apply(&block).map_err(|e| format!("replica apply: {e:?}"))?;
        ensure!(receipts(&replica) == committed, "receipts diverged from the proposer's");
        // `apply` itself enforces root equality against the header, but
        // re-check explicitly against both ledgers.
        ensure!(
            replica.state().state_root() == block.header.state_root,
            "state root diverged from the header"
        );
        ensure!(
            replica.state().state_root() == proposer.state().state_root(),
            "state root diverged from the proposer's"
        );
        ensure_eq!(replica.tip().id(), proposer.tip().id());
        Ok(())
    });
}

/// Committing a 10k-write block through the overlay (`StateDelta` +
/// `state_root_with`) on a 20k-account state reaches the root that
/// cloning the whole `WorldState` and writing into the copy reaches.
#[test]
fn overlay_commit_equals_a_full_state_clone_at_10k_tx() {
    let mut state = WorldState::new();
    for i in 0..20_000u64 {
        state.credit(Address::from_seed(i), 10);
    }
    let contract = Address::from_seed(9_999_999);
    state.set_code(contract, b"pin".to_vec());
    let ops: Vec<(Vec<u8>, Vec<u8>)> = (0..10_000u32)
        .map(|i| (i.to_le_bytes().to_vec(), vec![i as u8; 8]))
        .collect();

    let mut overlay = WorldStateOverlay::new(&state);
    for (key, value) in &ops {
        overlay.set_storage(contract, key.clone(), value.clone());
    }
    let incremental_root = state.state_root_with(&overlay.into_delta());

    let mut cloned = state.clone();
    for (key, value) in ops {
        cloned.set_storage(contract, key, value);
    }
    assert_eq!(incremental_root, cloned.state_root(), "overlay commit diverged");
}
