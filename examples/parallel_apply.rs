//! Parallel block execution (DESIGN.md §11): build one mixed 2 000-tx
//! block, then apply it sequentially and across 2- and 4-lane wave
//! schedules, asserting every schedule commits the exact state root the
//! sequential proposer computed. `scripts/verify.sh` greps the OK lines.
//!
//! ```text
//! cargo run --release --example parallel_apply
//! ```

use medchain_chain::exec::{infer_rw_set, schedule};
use medchain_chain::ledger::NullRuntime;
use medchain_chain::sig::AuthorityKey;
use medchain_chain::{Address, Hash256, KeyRegistry, Ledger, Transaction, TxPayload};

const SENDERS: u64 = 2_000;

fn fresh_ledger(keys: &[AuthorityKey]) -> Ledger {
    let mut registry = KeyRegistry::new();
    for key in keys {
        registry.enroll(key);
    }
    let mut ledger = Ledger::new("parallel-apply", registry, Box::new(NullRuntime));
    for key in keys {
        ledger.state_mut().credit(key.address(), 1_000);
    }
    ledger
}

fn main() {
    let keys: Vec<AuthorityKey> = (1..=SENDERS).map(AuthorityKey::from_seed).collect();
    // One tx per sender: mostly disjoint transfers, every 5th hits a
    // shared hot account (write-write conflicts), every 16th anchors.
    let txs: Vec<Transaction> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let payload = if i % 16 == 0 {
                TxPayload::Anchor {
                    root: Hash256::digest(&(i as u64).to_le_bytes()),
                    label: format!("site-{}", i % 4),
                }
            } else if i % 5 == 0 {
                TxPayload::Transfer { to: Address::from_seed(777), amount: 1 }
            } else {
                TxPayload::Transfer { to: Address::from_seed(1_000_000 + i as u64), amount: 1 }
            };
            Transaction::new(key.address(), 0, payload, 1_000).signed(key)
        })
        .collect();

    let mut base = fresh_ledger(&keys);
    let block = base.propose(keys[0].address(), 10, txs);
    let sets: Vec<_> = block
        .transactions
        .iter()
        .map(|tx| infer_rw_set(tx, base.shard(), base.shard_count(), base.state(), &NullRuntime))
        .collect();
    let sched = schedule(&sets);
    println!(
        "block: {} txs, {} waves, conflict rate {:.3}",
        block.transactions.len(),
        sched.waves.len(),
        sched.conflict_rate()
    );

    for threads in [1usize, 2, 4] {
        let mut ledger = fresh_ledger(&keys);
        ledger.set_parallel_exec(threads);
        let receipts = ledger.apply(&block).expect("apply").len();
        assert_eq!(receipts, block.transactions.len());
        assert_eq!(ledger.state().state_root(), block.header.state_root);
        println!(
            "parallel apply OK at {threads} thread(s): {receipts} receipts, \
             state root matches sequential"
        );
    }
}
