//! Blocks and block headers.

use crate::hash::Hash256;
use crate::merkle::MerkleTree;
use crate::shard::ShardId;
use crate::sig::{Address, AuthoritySignature};
use crate::tx::SealedTx;
use std::sync::{Arc, OnceLock};

/// How a block was sealed by its consensus engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seal {
    /// Genesis block has no seal.
    Genesis,
    /// Proof-of-authority: proposer signature plus validator vote
    /// signatures (a quorum: > 2/3 of the validator set).
    Authority {
        /// The round-robin proposer's signature over the header digest.
        proposer: AuthoritySignature,
        /// Validator votes over the header digest.
        votes: Vec<AuthoritySignature>,
    },
    /// PBFT: the commit-phase quorum certificate.
    Pbft {
        /// View in which the block committed.
        view: u64,
        /// Commit signatures from a quorum of replicas
        /// ([`two_thirds_quorum`](crate::consensus::two_thirds_quorum)).
        commits: Vec<AuthoritySignature>,
    },
    /// Proof-of-work: nonce achieving the difficulty target.
    Work {
        /// Winning nonce.
        nonce: u64,
        /// Required leading zero bits.
        difficulty_bits: u32,
    },
    /// Proof-of-stake: the lottery winner's signature and stake weight.
    Stake {
        /// Winner's signature over the header digest.
        winner: AuthoritySignature,
        /// Winner's stake at selection time.
        stake: u64,
    },
}

/// Block header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Parent header digest.
    pub parent: Hash256,
    /// Merkle root of the block's transactions.
    pub tx_root: Hash256,
    /// World-state root after executing this block.
    pub state_root: Hash256,
    /// Logical timestamp (simulation milliseconds).
    pub timestamp_ms: u64,
    /// Address of the proposer / miner.
    pub proposer: Address,
    /// Which sub-chain this block belongs to: `ShardId(0)` on an
    /// unsharded chain, `0..k` for data shards,
    /// [`ShardId::COORDINATOR`] for the cross-link chain (DESIGN.md §9).
    pub shard: ShardId,
}

impl Header {
    /// Digest of the header fields (excluding the seal).
    pub fn digest(&self) -> Hash256 {
        let mut bytes = Vec::with_capacity(118);
        bytes.extend_from_slice(&self.height.to_le_bytes());
        bytes.extend_from_slice(&self.parent.0);
        bytes.extend_from_slice(&self.tx_root.0);
        bytes.extend_from_slice(&self.state_root.0);
        bytes.extend_from_slice(&self.timestamp_ms.to_le_bytes());
        bytes.extend_from_slice(&self.proposer.0);
        bytes.extend_from_slice(&self.shard.0.to_le_bytes());
        Hash256::digest(&bytes)
    }

    /// Digest including a proof-of-work nonce.
    pub fn pow_digest(&self, nonce: u64) -> Hash256 {
        let mut bytes = self.digest().0.to_vec();
        bytes.extend_from_slice(&nonce.to_le_bytes());
        Hash256::digest(&bytes)
    }
}

/// A block's header with its digest kept once computed, shared: every
/// copy of a block in the process — the proposal, votes in flight, each
/// in-process replica's history — points at one allocation, as [`Body`]
/// does. Reads go through `Deref`; taking the header mutably copies it
/// if it is shared and forgets the kept digest, so [`Block::id`] is
/// memoised and can still never be stale.
#[derive(Debug, Clone)]
pub struct KeptHeader(Arc<(Header, OnceLock<Hash256>)>);

impl KeptHeader {
    /// [`Header::digest`], computed on first use.
    pub fn digest(&self) -> Hash256 {
        *self.0 .1.get_or_init(|| self.0 .0.digest())
    }
}

impl From<Header> for KeptHeader {
    fn from(header: Header) -> KeptHeader {
        KeptHeader(Arc::new((header, OnceLock::new())))
    }
}

impl std::ops::Deref for KeptHeader {
    type Target = Header;
    fn deref(&self) -> &Header {
        &self.0 .0
    }
}

impl std::ops::DerefMut for KeptHeader {
    fn deref_mut(&mut self) -> &mut Header {
        let (header, digest) = Arc::make_mut(&mut self.0);
        *digest = OnceLock::new();
        header
    }
}

impl PartialEq for KeptHeader {
    fn eq(&self, other: &KeptHeader) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 .0 == other.0 .0
    }
}

impl Eq for KeptHeader {}

/// A block's ordered transactions together with the Merkle tree over
/// their ids. The tree is built once, when the body is assembled, and
/// the whole is shared: every copy of a block in the process — pooled
/// proposals, votes in flight, each in-process replica's ledger — holds
/// the same allocation, and receipts are cut from this tree rather than
/// from a rebuilt one. Reads as a slice of [`SealedTx`].
#[derive(Debug, Clone)]
pub struct Body(Arc<(Vec<SealedTx>, MerkleTree)>);

impl Body {
    /// The Merkle tree over the transaction ids, in body order.
    pub fn tree(&self) -> &MerkleTree {
        &self.0 .1
    }
}

impl<T: Into<SealedTx>> From<Vec<T>> for Body {
    fn from(txs: Vec<T>) -> Body {
        let txs: Vec<SealedTx> = txs.into_iter().map(Into::into).collect();
        let tree = MerkleTree::from_leaves(txs.iter().map(SealedTx::id).collect());
        Body(Arc::new((txs, tree)))
    }
}

impl std::ops::Deref for Body {
    type Target = [SealedTx];
    fn deref(&self) -> &[SealedTx] {
        &self.0 .0
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self[..] == other[..]
    }
}

impl Eq for Body {}

/// A sealed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Header (with its memoised digest, the block id).
    pub header: KeptHeader,
    /// Ordered transactions (shared, with their Merkle tree).
    pub transactions: Body,
    /// Consensus seal.
    pub seal: Seal,
}

impl Block {
    /// The genesis block of a chain identified by `chain_id`.
    pub fn genesis(chain_id: &str) -> Block {
        Block::genesis_sharded(chain_id, ShardId::default())
    }

    /// The genesis block of sub-chain `shard` in a sharded topology.
    /// Distinct shards get distinct genesis ids even under one
    /// `chain_id`, because the header commits to the shard.
    pub fn genesis_sharded(chain_id: &str, shard: ShardId) -> Block {
        let transactions: Body = Vec::<SealedTx>::new().into();
        let header = Header {
            height: 0,
            parent: Hash256::ZERO,
            tx_root: transactions.tree().root(),
            state_root: Hash256::digest(chain_id.as_bytes()),
            timestamp_ms: 0,
            proposer: Address::from_seed(0),
            shard,
        };
        Block { header: header.into(), transactions, seal: Seal::Genesis }
    }

    /// Block id: the header digest.
    pub fn id(&self) -> Hash256 {
        self.header.digest()
    }

    /// Checks internal consistency: the header's `tx_root` must commit to
    /// the body.
    pub fn is_body_consistent(&self) -> bool {
        self.header.tx_root == self.transactions.tree().root()
    }

    /// Exact wire size for network accounting: the canonical encoded
    /// length, which is what a socket transport actually frames.
    pub fn wire_size(&self) -> usize {
        use medchain_runtime::codec::Encode;
        // Header and seal are small; the body is summed from the lengths
        // its transactions were sealed with (4 = the count prefix).
        let body: usize = self.transactions.iter().map(SealedTx::wire_size).sum();
        self.header.encoded().len() + 4 + body + self.seal.encoded().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::AuthorityKey;
    use crate::tx::{Transaction, TxPayload};

    fn sample_block() -> Block {
        let key = AuthorityKey::from_seed(1);
        let txs: Vec<Transaction> = (0..3)
            .map(|n| {
                Transaction::new(
                    key.address(),
                    n,
                    TxPayload::Transfer { to: Address::from_seed(2), amount: n + 1 },
                    1_000,
                )
                .signed(&key)
            })
            .collect();
        let header = Header {
            height: 1,
            parent: Block::genesis("med").id(),
            tx_root: MerkleTree::from_leaves(txs.iter().map(Transaction::id).collect()).root(),
            state_root: Hash256::digest(b"state"),
            timestamp_ms: 1_000,
            proposer: key.address(),
            shard: ShardId::default(),
        };
        Block { header: header.into(), transactions: txs.into(), seal: Seal::Genesis }
    }

    #[test]
    fn genesis_is_deterministic_per_chain_id() {
        assert_eq!(Block::genesis("med").id(), Block::genesis("med").id());
        assert_ne!(Block::genesis("med").id(), Block::genesis("other").id());
    }

    #[test]
    fn sharded_genesis_differs_per_shard() {
        let a = Block::genesis_sharded("med", ShardId(0));
        let b = Block::genesis_sharded("med", ShardId(1));
        assert_ne!(a.id(), b.id());
        // The unsharded genesis is shard 0 of a one-shard topology.
        assert_eq!(Block::genesis("med").id(), a.id());
        assert_eq!(b.header.shard, ShardId(1));
    }

    #[test]
    fn body_consistency_detects_tampering() {
        let mut block = sample_block();
        assert!(block.is_body_consistent());
        let mut txs: Vec<Transaction> = block.transactions.iter().map(|tx| (**tx).clone()).collect();
        txs[1].payload = TxPayload::Transfer { to: Address::from_seed(2), amount: 9_999 };
        block.transactions = txs.into();
        assert!(!block.is_body_consistent());
    }

    #[test]
    fn id_is_kept_but_follows_a_header_mutation() {
        let mut block = sample_block();
        let id = block.id();
        let copy = block.clone();
        assert_eq!(copy.id(), id);
        block.header.timestamp_ms += 1;
        assert_ne!(block.id(), id, "a mutable borrow of the header forgets the kept digest");
        assert_eq!(block.id(), block.header.clone().digest());
        let untouched = (copy.id(), copy.header.timestamp_ms);
        assert_eq!(untouched, (id, 1_000), "a shared header is copied before it changes");
    }

    /// A block is three handles: the shared header, the shared body and
    /// the seal, which each replica keeps its own of.
    #[test]
    fn a_block_shares_its_header_and_body() {
        let block = sample_block();
        let copy = block.clone();
        assert!(std::ptr::eq(&*block.header, &*copy.header));
        assert!(std::ptr::eq(&block.transactions[..], &copy.transactions[..]));
        assert_eq!(std::mem::size_of::<Block>(), 16 + std::mem::size_of::<Seal>());
    }

    #[test]
    fn wire_size_and_tree_come_from_the_sealed_body() {
        use medchain_runtime::codec::{Decode, Encode};
        let block = sample_block();
        assert_eq!(block.wire_size(), block.encoded().len());
        let ids: Vec<Hash256> = block.transactions.iter().map(|tx| tx.id()).collect();
        assert_eq!(block.transactions.tree(), &MerkleTree::from_leaves(ids));
        let decoded = Block::decoded(&block.encoded()).unwrap();
        assert_eq!(decoded, block);
        assert!(decoded.is_body_consistent());
        assert_eq!(Block::genesis("med").wire_size(), Block::genesis("med").encoded().len());
    }

    #[test]
    fn header_digest_covers_every_field() {
        let base = sample_block().header;
        let mut variants = Vec::new();
        let mut h = base.clone();
        h.height += 1;
        variants.push(h);
        let mut h = base.clone();
        h.parent = Hash256::digest(b"x");
        variants.push(h);
        let mut h = base.clone();
        h.state_root = Hash256::digest(b"y");
        variants.push(h);
        let mut h = base.clone();
        h.timestamp_ms += 1;
        variants.push(h);
        let mut h = base.clone();
        h.proposer = Address::from_seed(42);
        variants.push(h);
        let mut h = base.clone();
        h.shard = ShardId(7);
        variants.push(h);
        for v in variants {
            assert_ne!(v.digest(), base.digest());
        }
    }

    #[test]
    fn pow_digest_depends_on_nonce() {
        let header = sample_block().header;
        assert_ne!(header.pow_digest(0), header.pow_digest(1));
    }
}

mod codec_impls {
    use super::{Block, Body, Header, KeptHeader, Seal};
    use crate::tx::SealedTx;
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};
    use medchain_runtime::{impl_codec_enum, impl_codec_struct};

    impl Encode for KeptHeader {
        fn encode(&self, out: &mut Vec<u8>) {
            Header::encode(self, out);
        }
    }

    impl Decode for KeptHeader {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Header::decode(r)?.into())
        }
    }

    impl Encode for Body {
        fn encode(&self, out: &mut Vec<u8>) {
            self[..].encode(out);
        }
    }

    impl Decode for Body {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Vec::<SealedTx>::decode(r)?.into())
        }
    }

    impl_codec_enum!(Seal {
        0 => Genesis,
        1 => Authority { proposer, votes },
        2 => Pbft { view, commits },
        3 => Work { nonce, difficulty_bits },
        4 => Stake { winner, stake },
    });
    impl_codec_struct!(Header {
        height,
        parent,
        tx_root,
        state_root,
        timestamp_ms,
        proposer,
        shard
    });
    impl_codec_struct!(Block { header, transactions, seal });
}
