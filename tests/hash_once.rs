//! How many SHA-256 compressions and signature checks one committed
//! transaction costs, counted — not timed.
//!
//! The two counters (`sha256_compressions`, `registry_verifications`)
//! are process-wide, so this binary holds exactly one test: nothing else
//! may hash beside it.
//!
//! The run is `bulk_blocks` in miniature: a 4-site network on the
//! simulated transport over 20,000 funded accounts, four rounds of 256
//! pre-signed transfers (64 senders × 4 consecutive nonces), each round
//! driven the way an in-process caller drives admission — `verify` →
//! `admit_verified` → `advance(1)` → `find_receipt`.
//!
//! Before transactions were sealed (hashed once, `Arc`-shared from
//! admission to ledger, verified once per allocation) and before a block
//! kept its own transaction tree, the same drive cost 1,558.6
//! compressions and 10 transaction signature checks per committed
//! transaction: every replica re-hashed every transaction at admission,
//! at proposal, at validation, three times in `apply`, and then ≈384
//! times per receipt; signatures were checked by the caller, in
//! `propose`, and twice on each of the four replicas.

use medchain::GatewayBackend;
use medchain_chain::{registry_verifications, sha256_compressions};
use medchain_repro::prelude::*;

const ACCOUNTS: u64 = 20_000;
const SENDERS: usize = 64;
const PER_SENDER: u64 = 4;
const ROUNDS: u64 = 4;

#[derive(Debug, PartialEq, Eq)]
struct Counts {
    /// Compressions over the four fat rounds.
    compressions: u64,
    /// Registry checks over the four fat rounds, consensus included.
    verifications: u64,
    /// Registry checks over four empty blocks: proposal, votes, seals.
    empty_block_verifications: u64,
    committed: u64,
}

fn counted_run(seed: u64) -> Counts {
    let mut builder = MedicalNetwork::builder()
        .block_interval_ms(20)
        .seed(seed)
        .gateway(GatewayConfig::default());
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let keys = net.client_keys()[..SENDERS].to_vec();
    let accounts: Vec<Address> = (0..ACCOUNTS).map(|i| Address::from_seed(1_000_000 + i)).collect();
    for addr in keys.iter().map(AuthorityKey::address).chain(accounts.iter().copied()) {
        net.fund(addr, 1_000_000_000);
    }
    // The first block after out-of-band funding builds the whole state
    // tree on every replica; it is warm-up, like medbench's.
    net.advance(1).expect("warm-up block");

    let before = registry_verifications();
    net.advance(ROUNDS).expect("empty blocks");
    let empty_block_verifications = registry_verifications() - before;

    let mut rng = DetRng::from_seed(seed);
    let rounds: Vec<Vec<Transaction>> = (0..ROUNDS)
        .map(|round| {
            let mut txs = Vec::with_capacity(SENDERS * PER_SENDER as usize);
            for key in &keys {
                for k in 0..PER_SENDER {
                    let to = accounts[rng.gen_range(0..accounts.len())];
                    let payload = TxPayload::Transfer { to, amount: 1 };
                    let nonce = round * PER_SENDER + k;
                    txs.push(Transaction::new(key.address(), nonce, payload, 1_000).signed(key));
                }
            }
            txs
        })
        .collect();
    let ids: Vec<Vec<Hash256>> =
        rounds.iter().map(|round| round.iter().map(Transaction::id).collect()).collect();

    let (hashes_before, checks_before) = (sha256_compressions(), registry_verifications());
    let mut receipts = Vec::new();
    for (round, ids) in rounds.into_iter().zip(&ids) {
        assert!(round.iter().all(|tx| tx.verify(net.registry())));
        for tx in round {
            assert!(net.admit_verified(tx, Lane::Normal).1.is_admitted());
        }
        net.advance(1).expect("fat block");
        receipts.extend(ids.iter().map(|id| net.find_receipt(id).expect("committed")));
    }
    let counts = Counts {
        compressions: sha256_compressions() - hashes_before,
        verifications: registry_verifications() - checks_before,
        empty_block_verifications,
        committed: receipts.len() as u64,
    };

    let height = net.height();
    for (i, receipt) in receipts.iter().enumerate() {
        let round_height = height - (ROUNDS - 1) + i as u64 / (SENDERS as u64 * PER_SENDER);
        let root = net.ledger().block(round_height).expect("retained").header.tx_root;
        assert!(receipt.ok && receipt.height == round_height && receipt.verify_against(&root));
    }
    for site in 1..4 {
        assert_eq!(net.ledger_of(site).tip().id(), net.ledger().tip().id());
    }
    net.shutdown();
    counts
}

#[test]
fn a_committed_transaction_is_hashed_and_verified_a_counted_number_of_times() {
    let first = counted_run(5);
    let second = counted_run(5);
    assert_eq!(first, second, "same seed, same counts");
    assert_eq!(first.committed, ROUNDS * SENDERS as u64 * PER_SENDER);
    let txs = first.committed;
    // 228.4 compressions per committed transaction (PR 24: 232.6, i.e.
    // 238,132; before it 1,558.6 as that issue counted it, 1,628.8 on
    // exactly this drive). Keeping each key's HMAC midstates saves two
    // compressions per MAC, and this window runs 2,116 of them: the 2,096
    // registry checks asserted below plus 20 consensus signatures (one
    // proposal and four votes per block) — 2 × 2,116 = 4,232 fewer.
    assert_eq!(first.compressions, 233_900);
    assert!(first.compressions <= 350 * txs);
    // Two signature checks per committed transaction — the caller's and
    // the proposer's — net of the 12 consensus checks an empty block
    // costs (parent: 10, i.e. 10,288 over the same four rounds).
    assert_eq!(first.empty_block_verifications, ROUNDS * 12);
    assert_eq!(first.verifications - first.empty_block_verifications, 2 * txs);
}
