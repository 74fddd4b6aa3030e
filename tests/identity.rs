//! Bit-identity of everything a transaction's and a block's bytes end up
//! in, and the receipt oracle.
//!
//! The vectors in `tests/golden/identity.txt` were recorded at the
//! commit *before* transactions became `Arc`-shared sealed values and
//! blocks began keeping their transaction tree: a transaction id, a
//! block id, a transaction root, receipt bytes, a WAL record and the
//! encoded consensus proposal must all stay what they were. The
//! property below holds every `Ledger::tx_receipt` to a receipt built
//! the slow way — an independent `MerkleTree::from_leaves` + `prove`
//! per receipt, which is what the ledger itself used to do.

use medchain_chain::consensus::poa::PoaMsg;
use medchain_repro::prelude::*;
use medchain_runtime::check::{check, CheckConfig};
use medchain_runtime::{ensure, ensure_eq};
use std::path::PathBuf;

fn keys(n: u64) -> (Vec<AuthorityKey>, KeyRegistry) {
    let keys: Vec<AuthorityKey> = (0..n).map(|i| AuthorityKey::from_seed(0x1d00 + i)).collect();
    let mut registry = KeyRegistry::new();
    for key in &keys {
        registry.enroll(key);
    }
    (keys, registry)
}

fn funded_ledger(chain_id: &str, keys: &[AuthorityKey], registry: &KeyRegistry) -> Ledger {
    let mut ledger = Ledger::new(chain_id, registry.clone(), Box::new(NullRuntime));
    for key in keys {
        ledger.state_mut().credit(key.address(), 1_000_000);
    }
    ledger
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every kind of byte string a sealed transaction or block can leak
/// into, for one fixed three-transaction block.
fn vectors() -> Vec<(&'static str, String)> {
    let (keys, registry) = keys(3);
    let mut ledger = funded_ledger("golden-identity", &keys, &registry);
    let txs = vec![
        Transaction::new(
            keys[0].address(),
            0,
            TxPayload::Transfer { to: keys[1].address(), amount: 17 },
            1_000,
        )
        .signed(&keys[0]),
        Transaction::new(
            keys[1].address(),
            0,
            TxPayload::Anchor { root: Hash256::digest(b"golden"), label: "site-1/emr".into() },
            2_000,
        )
        .signed(&keys[1]),
        Transaction::new(
            keys[2].address(),
            0,
            TxPayload::Invoke { contract: Address::from_seed(9), input: vec![1, 2, 3] },
            3_000,
        )
        .signed(&keys[2]),
    ];
    let anchor_id = txs[1].id();
    let block = ledger.propose(keys[0].address(), 40, txs.clone());
    ledger.apply(&block).expect("golden block applies");
    let receipt = ledger.tx_receipt(&anchor_id).expect("committed");
    let proposal = PoaMsg::Proposal { block: block.clone(), sig: keys[0].sign(&block.id().0) };
    vec![
        ("tx_id", txs[0].id().to_hex()),
        ("tx_bytes", hex(&txs[0].encoded())),
        ("block_id", block.id().to_hex()),
        ("tx_root", block.header.tx_root.to_hex()),
        ("receipt", hex(&receipt.encoded())),
        ("wal_record", hex(&medchain_storage::frame_record(&block.encoded()).unwrap())),
        ("proposal", hex(&proposal.encoded())),
    ]
}

#[test]
fn ids_roots_receipts_wal_and_wire_bytes_match_the_recorded_vectors() {
    let golden = include_str!("golden/identity.txt");
    let recorded: Vec<(&str, &str)> =
        golden.lines().filter_map(|line| line.split_once(" = ")).collect();
    let now = vectors();
    assert_eq!(recorded.len(), now.len(), "one recorded line per vector");
    for ((name, value), (recorded_name, recorded_value)) in now.iter().zip(recorded) {
        assert_eq!(*name, recorded_name);
        assert_eq!(value, recorded_value, "{name} drifted from the recorded bytes");
    }
}

/// One committed block of `size` anchors, on `ledger`.
fn commit_block(ledger: &mut Ledger, key: &AuthorityKey, first_nonce: u64, size: u64, salt: u64) {
    let txs: Vec<Transaction> = (first_nonce..first_nonce + size)
        .map(|nonce| {
            let label = format!("oracle/{salt}/{nonce}");
            let root = Hash256::digest(label.as_bytes());
            Transaction::new(key.address(), nonce, TxPayload::Anchor { root, label }, 1_000)
                .signed(key)
        })
        .collect();
    let block = ledger.propose(key.address(), (ledger.height() + 1) * 20, txs);
    assert_eq!(block.transactions.len() as u64, size);
    ledger.apply(&block).expect("oracle block applies");
}

/// The receipt of the transaction at `index` of the block at `height`,
/// rebuilt from nothing but the block body and the execution outcome.
fn oracle_receipt(ledger: &Ledger, height: u64, index: usize) -> TxReceipt {
    let block = ledger.block(height).expect("retained");
    let leaves: Vec<Hash256> = block
        .transactions
        .iter()
        .map(|tx| Hash256::digest(&Transaction::signing_bytes(tx)))
        .collect();
    let tx_id = leaves[index];
    let exec = ledger.receipt(&tx_id).expect("executed");
    TxReceipt {
        tx_id,
        block_id: block.header.digest(),
        height,
        shard: block.header.shard,
        tx_index: index,
        tx_root: block.header.tx_root,
        proof: MerkleTree::from_leaves(leaves).prove(index).expect("in range"),
        ok: exec.ok,
        gas_used: exec.gas_used,
        output: exec.output.clone(),
        error: exec.error.clone(),
    }
}

#[test]
fn every_receipt_equals_the_per_receipt_rebuild_and_survives_a_restart() {
    let sizes = [1u64, 2, 3, 5, 31, 32, 33, 255, 256, 257];
    check("tx_receipt == independent rebuild", CheckConfig::cases(2), |g| {
        let salt = g.u64();
        let (keys, registry) = keys(1);
        let dir: PathBuf = std::env::temp_dir()
            .join(format!("medchain-identity-{}-{salt:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StorageConfig {
            fsync: FsyncPolicy::Never,
            snapshot_every: 0,
            ..StorageConfig::default()
        };
        let mut ledger = funded_ledger("oracle", &keys, &registry);
        let store = DiskStore::open(&dir, config).map_err(|e| e.to_string())?;
        ledger.attach_store(Box::new(store));
        let mut nonce = 0;
        for size in sizes {
            commit_block(&mut ledger, &keys[0], nonce, size, salt);
            nonce += size;
        }
        let mut before = Vec::new();
        for (height, size) in (1u64..).zip(sizes) {
            let block = ledger.block(height).expect("retained");
            ensure_eq!(block.transactions.len() as u64, size);
            for index in 0..size as usize {
                let expected = oracle_receipt(&ledger, height, index);
                let served = ledger.tx_receipt(&expected.tx_id);
                ensure!(served.as_ref() == Some(&expected), "height {height} index {index}");
                ensure!(expected.verify_against(&block.header.tx_root), "oracle proof verifies");
                before.push(expected);
            }
        }
        ensure!(ledger.tx_receipt(&Hash256::digest(&salt.to_le_bytes())).is_none(), "unknown id");
        drop(ledger);

        // Restart: replay the log into a fresh ledger funded the same way.
        let mut resumed = funded_ledger("oracle", &keys, &registry);
        let mut store = DiskStore::open(&dir, config).map_err(|e| e.to_string())?;
        let report = store.recover_into(&mut resumed).map_err(|e| e.to_string())?;
        ensure_eq!(report.height, sizes.len() as u64);
        for receipt in &before {
            ensure!(
                resumed.tx_receipt(&receipt.tx_id).as_ref() == Some(receipt),
                "receipt of {:?} changed across the restart",
                receipt.tx_id
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    });
}
