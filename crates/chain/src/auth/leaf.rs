//! Canonical leaf vocabulary and hashing of the authenticated state tree.
//!
//! Every entry of [`WorldState`](crate::ledger::WorldState) maps to exactly
//! one [`LeafKey`], and every leaf key has exactly one canonical value
//! encoding (see [`WorldState::leaf_value`](crate::ledger::WorldState::leaf_value)).
//! The sparse Merkle tree in [`super::smt`], the monolithic
//! `state_root()` reference path, and the incremental per-block update in
//! `Ledger::apply` all hash through the helpers in this module, so the
//! byte layout is written down once and cannot drift between them.
//!
//! `LeafKey` refines the coarser `StateKey` vocabulary used by the
//! parallel-execution scheduler (`exec::StateKey`): the scheduler only
//! needs contract-level conflict granularity, while proofs need one leaf
//! per slot. [`LeafKey::scheduling_key`] gives the mapping.

use crate::exec::StateKey;
use crate::hash::{digest_tagged_pair, Hash256, Sha256};
use crate::shard::{shard_for_key, ShardId};
use crate::sig::Address;
use medchain_runtime::codec::Encode;
use medchain_runtime::impl_codec_enum;

/// Domain tag mixed into every key hash.
const KEY_TAG: &[u8] = b"medchain/smt/key/v1";
/// Domain tag mixed into every value hash.
const VALUE_TAG: &[u8] = b"medchain/smt/value/v1";
/// First byte of a leaf-node preimage (domain-separates leaves from
/// internal nodes so a proof cannot present one as the other).
const LEAF_TAG: u8 = 0x00;
/// First byte of an internal-node preimage.
const NODE_TAG: u8 = 0x01;
/// Domain tag of the versioned block-header root. `v1` was the flat
/// sequential rehash of the whole state; `v2` commits to the sparse
/// Merkle tree root. Bumping the version changes every header root, so
/// mixed-version replicas cannot silently agree.
const ROOT_TAG: &[u8] = b"medchain/state-root/v2";

/// Hash of an empty subtree. A real node can never hash to all-zeroes
/// without a preimage break, so the sentinel is unambiguous.
pub const EMPTY_SUBTREE: Hash256 = Hash256::ZERO;

/// Identifies one provable entry of the committed world state.
///
/// The variant payloads reuse the exact types the state maps are keyed
/// by, so a light client can name any entry a transaction can touch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LeafKey {
    /// Balance + nonce record of `Address`.
    Account(Address),
    /// One storage slot (`key`) of contract `Address`.
    Storage(Address, Vec<u8>),
    /// Deployed code of contract `Address`.
    Code(Address),
    /// Dataset anchor registered under a label.
    Anchor(String),
    /// Cross-link record for sub-chain `u16` (coordinator state).
    CrossLink(u16),
    /// Cross-shard escrow lock held against `Address`.
    Lock(Address),
    /// Cross-shard commit/abort decision for transfer `Hash256`.
    XsDecision(Hash256),
}

impl_codec_enum!(LeafKey {
    0 => Account(addr),
    1 => Storage(contract, key),
    2 => Code(contract),
    3 => Anchor(label),
    4 => CrossLink(shard),
    5 => Lock(addr),
    6 => XsDecision(xid),
});

impl LeafKey {
    /// The shard whose state tree holds this key, mirroring
    /// `shard_for_key` transaction routing: account-rooted keys live on
    /// the owner's shard, anchors hash their label, and cross-shard
    /// bookkeeping lives on the coordinator chain.
    pub fn home_shard(&self, shard_count: u16) -> ShardId {
        match self {
            LeafKey::Account(addr)
            | LeafKey::Storage(addr, _)
            | LeafKey::Code(addr)
            | LeafKey::Lock(addr) => shard_for_key(&addr.0, shard_count),
            LeafKey::Anchor(label) => shard_for_key(label.as_bytes(), shard_count),
            LeafKey::CrossLink(_) | LeafKey::XsDecision(_) => ShardId::COORDINATOR,
        }
    }

    /// The coarse conflict key the parallel-execution scheduler uses for
    /// this leaf (`StateKey` has contract-level granularity only).
    pub fn scheduling_key(&self) -> StateKey {
        match self {
            LeafKey::Account(addr) | LeafKey::Lock(addr) => StateKey::Account(*addr),
            LeafKey::Storage(addr, _) | LeafKey::Code(addr) => StateKey::Contract(*addr),
            LeafKey::Anchor(label) => StateKey::Anchor(label.clone()),
            LeafKey::CrossLink(shard) => StateKey::CrossLink(*shard),
            LeafKey::XsDecision(xid) => StateKey::XsDecision(*xid),
        }
    }
}

/// Position-defining hash of a leaf key. The 256 bits, consumed
/// MSB-first, are the leaf's path from the root.
pub fn key_hash(key: &LeafKey) -> Hash256 {
    let mut hasher = Sha256::new();
    hasher.update(KEY_TAG);
    hasher.update(&key.encoded());
    hasher.finalize()
}

/// Hash of a leaf's canonical value bytes.
pub fn value_hash(value: &[u8]) -> Hash256 {
    let mut hasher = Sha256::new();
    hasher.update(VALUE_TAG);
    hasher.update(value);
    hasher.finalize()
}

/// Hash of a leaf node: `H(0x00 ‖ key_hash ‖ value_hash)`.
pub fn leaf_hash(key_hash: &Hash256, value_hash: &Hash256) -> Hash256 {
    digest_tagged_pair(LEAF_TAG, key_hash, value_hash)
}

/// Hash of an internal node: `H(0x01 ‖ left ‖ right)`.
pub fn node_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    digest_tagged_pair(NODE_TAG, left, right)
}

/// The root that goes into `Header.state_root`: the tree root wrapped in
/// a version tag, so the header stays a plain `Hash256` while the
/// commitment scheme stays upgradeable.
pub fn versioned_root(smt_root: &Hash256) -> Hash256 {
    let mut hasher = Sha256::new();
    hasher.update(ROOT_TAG);
    hasher.update(&smt_root.0);
    hasher.finalize()
}

/// Bit `depth` of a key hash, MSB-first (`depth` 0 is the top bit of
/// byte 0). `true` routes right.
pub fn key_bit(hash: &Hash256, depth: usize) -> bool {
    (hash.0[depth / 8] >> (7 - depth % 8)) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::codec::Decode;

    #[test]
    fn leaf_key_codec_round_trips() {
        let keys = [
            LeafKey::Account(Address::from_seed(1)),
            LeafKey::Storage(Address::from_seed(2), b"slot".to_vec()),
            LeafKey::Code(Address::from_seed(2)),
            LeafKey::Anchor("trial-1".into()),
            LeafKey::CrossLink(3),
            LeafKey::Lock(Address::from_seed(3)),
            LeafKey::XsDecision(Hash256::digest(b"x")),
        ];
        for key in &keys {
            assert_eq!(&LeafKey::decoded(&key.encoded()).unwrap(), key);
        }
    }

    #[test]
    fn key_hashes_are_domain_separated() {
        let addr = Address::from_seed(1);
        assert_ne!(
            key_hash(&LeafKey::Account(addr)),
            key_hash(&LeafKey::Code(addr))
        );
        assert_ne!(key_hash(&LeafKey::Account(addr)), Hash256::digest(&addr.0));
        let kh = key_hash(&LeafKey::Anchor("x".into()));
        let vh = value_hash(b"v");
        assert_ne!(leaf_hash(&kh, &vh), node_hash(&kh, &vh));
    }

    #[test]
    fn key_bit_walks_msb_first() {
        let mut h = Hash256::ZERO;
        h.0[0] = 0b1000_0001;
        assert!(key_bit(&h, 0));
        assert!(!key_bit(&h, 1));
        assert!(key_bit(&h, 7));
        h.0[31] = 1;
        assert!(key_bit(&h, 255));
    }

    #[test]
    fn coordinator_keys_route_to_coordinator() {
        assert_eq!(LeafKey::CrossLink(1).home_shard(4), ShardId::COORDINATOR);
        assert_eq!(
            LeafKey::XsDecision(Hash256::ZERO).home_shard(4),
            ShardId::COORDINATOR
        );
        let addr = Address::from_seed(4);
        assert_eq!(
            LeafKey::Account(addr).home_shard(4),
            shard_for_key(&addr.0, 4)
        );
        assert_eq!(
            LeafKey::Account(addr).home_shard(4),
            LeafKey::Lock(addr).home_shard(4)
        );
    }
}
