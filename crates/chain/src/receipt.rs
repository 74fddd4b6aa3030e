//! Client-facing transaction receipts with Merkle inclusion proofs.
//!
//! A [`TxReceipt`] is the public API for "your transaction committed"
//! (DESIGN.md §10): it names the committed block (id, height, shard),
//! carries the execution outcome, and includes a [`MerkleProof`] of the
//! transaction id under the block's `tx_root`. A client that knows the
//! committed header — or just its `tx_root` — verifies inclusion locally
//! with [`TxReceipt::verify_against`], without trusting the gateway that
//! relayed the receipt.

use crate::block::Block;
use crate::hash::Hash256;
use crate::ledger::Receipt;
use crate::merkle::MerkleProof;
use crate::shard::ShardId;

/// Proof-carrying commit receipt returned to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxReceipt {
    /// The committed transaction's id (the proven Merkle leaf).
    pub tx_id: Hash256,
    /// Id of the block that included the transaction.
    pub block_id: Hash256,
    /// Height of that block on its sub-chain.
    pub height: u64,
    /// Sub-chain the transaction committed on.
    pub shard: ShardId,
    /// Position of the transaction inside the block body.
    pub tx_index: usize,
    /// The block's transaction Merkle root, as committed in its header.
    pub tx_root: Hash256,
    /// Membership proof of `tx_id` under `tx_root`.
    pub proof: MerkleProof,
    /// Whether execution succeeded.
    pub ok: bool,
    /// Gas consumed.
    pub gas_used: u64,
    /// Execution return data (e.g. the 20-byte address of a deploy).
    pub output: Vec<u8>,
    /// Error description when `ok` is false.
    pub error: Option<String>,
}

impl TxReceipt {
    /// Builds the receipt of the transaction at `tx_index` of a
    /// committed `block`, pairing its execution outcome `exec` (moved in)
    /// with an inclusion proof cut from the tree the block body already
    /// holds.
    ///
    /// Returns `None` if the body has no transaction at that index.
    pub fn for_block(block: &Block, tx_index: usize, exec: Receipt) -> Option<TxReceipt> {
        let tx_id = block.transactions.get(tx_index)?.id();
        let proof = block.transactions.tree().prove(tx_index)?;
        Some(TxReceipt {
            tx_id,
            block_id: block.id(),
            height: block.header.height,
            shard: block.header.shard,
            tx_index,
            tx_root: block.header.tx_root,
            proof,
            ok: exec.ok,
            gas_used: exec.gas_used,
            output: exec.output,
            error: exec.error,
        })
    }

    /// Verifies the receipt's own inclusion proof against the `tx_root`
    /// it carries. This catches tampering anywhere in the (leaf, path,
    /// root) triple but still trusts the carried root; pair with
    /// [`TxReceipt::verify_against`] and an independently obtained
    /// header for a trustless check.
    pub fn verify(&self) -> bool {
        self.verify_against(&self.tx_root)
    }

    /// Verifies the inclusion proof against an **independently obtained**
    /// transaction root (e.g. from a header the client fetched or
    /// validated itself). This is the trustless client check: a gateway
    /// cannot fake it without breaking the hash function.
    pub fn verify_against(&self, tx_root: &Hash256) -> bool {
        self.proof.leaf_index == self.tx_index && self.proof.verify(&self.tx_id, tx_root)
    }
}

mod codec_impls {
    use super::TxReceipt;
    use medchain_runtime::impl_codec_struct;

    impl_codec_struct!(TxReceipt {
        tx_id,
        block_id,
        height,
        shard,
        tx_index,
        tx_root,
        proof,
        ok,
        gas_used,
        output,
        error
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::{Ledger, NullRuntime};
    use crate::sig::{AuthorityKey, KeyRegistry};
    use crate::tx::{Transaction, TxPayload};

    fn committed_block(n_txs: u64) -> (Ledger, Block) {
        let key = AuthorityKey::from_seed(1);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let mut ledger = Ledger::new("receipt-test", registry, Box::new(NullRuntime));
        let txs: Vec<Transaction> = (0..n_txs)
            .map(|nonce| {
                Transaction::new(
                    key.address(),
                    nonce,
                    TxPayload::Anchor {
                        root: Hash256::digest(&nonce.to_le_bytes()),
                        label: format!("ds/{nonce}"),
                    },
                    1_000,
                )
                .signed(&key)
            })
            .collect();
        let block = ledger.propose(key.address(), 10, txs);
        ledger.apply(&block).expect("block applies");
        (ledger, block)
    }

    #[test]
    fn receipt_verifies_against_committed_root() {
        let (ledger, block) = committed_block(5);
        for (index, tx) in block.transactions.iter().enumerate() {
            let exec = ledger.receipt(&tx.id()).expect("executed");
            let receipt = TxReceipt::for_block(&block, index, exec).expect("included");
            assert_eq!(receipt.tx_id, tx.id());
            assert!(receipt.verify());
            assert!(receipt.verify_against(&block.header.tx_root));
            assert_eq!(receipt.block_id, block.id());
            assert_eq!(receipt.height, block.header.height);
            assert!(receipt.ok);
        }
    }

    #[test]
    fn missing_tx_yields_no_receipt() {
        let (ledger, block) = committed_block(3);
        let exec = ledger.receipt(&block.transactions[0].id()).unwrap();
        assert!(TxReceipt::for_block(&block, 3, exec).is_none());
        assert!(ledger.tx_receipt(&Hash256::digest(b"absent")).is_none());
    }

    #[test]
    fn receipt_round_trips_through_codec() {
        use medchain_runtime::codec::{Decode, Encode};
        let (ledger, block) = committed_block(4);
        let tx = &block.transactions[2];
        let exec = ledger.receipt(&tx.id()).unwrap();
        let receipt = TxReceipt::for_block(&block, 2, exec).unwrap();
        let bytes = receipt.encoded();
        let decoded = TxReceipt::decoded(&bytes).expect("decodes");
        assert_eq!(decoded, receipt);
        assert!(decoded.verify_against(&block.header.tx_root));
    }

    #[test]
    fn mismatched_root_fails() {
        let (ledger, block) = committed_block(4);
        let tx = &block.transactions[0];
        let exec = ledger.receipt(&tx.id()).unwrap();
        let receipt = TxReceipt::for_block(&block, 0, exec).unwrap();
        assert!(!receipt.verify_against(&Hash256::digest(b"other root")));
    }
}
