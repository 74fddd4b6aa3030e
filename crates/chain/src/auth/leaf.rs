//! Canonical leaf vocabulary and hashing of the authenticated state tree.
//!
//! Every entry of [`WorldState`](crate::state::WorldState) maps to exactly
//! one [`LeafKey`], and every leaf key has exactly one canonical value
//! encoding (see [`WorldState::leaf_value`](crate::state::WorldState::leaf_value)).
//! The sparse Merkle tree in [`super::smt`], the monolithic
//! `state_root()` reference path, and the incremental per-block update in
//! `Ledger::apply` all hash through the helpers in this module, so the
//! byte layout is written down once and cannot drift between them.

use crate::exec::StateDelta;
use crate::hash::{digest_tagged_pair, digest_tagged_pairs, digest_two, Hash256, Sha256};
use crate::state::WorldState;
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

}

/// A [`LeafKey`] borrowed from the state or the delta that holds its
/// parts, so naming and hashing a key copies nothing to the heap. It
/// encodes to the owned key's codec bytes exactly (unit-tested), which
/// is what its hash is taken over.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KeyRef<'a> {
    Account(&'a Address),
    Storage(&'a Address, &'a [u8]),
    Code(&'a Address),
    Anchor(&'a str),
    CrossLink(u16),
    Lock(&'a Address),
    XsDecision(&'a Hash256),
}

impl KeyRef<'_> {
    /// Appends the bytes `LeafKey`'s codec writes for this key.
    fn encode(self, out: &mut Vec<u8>) {
        match self {
            KeyRef::Account(addr) => (0u8, addr).encode(out),
            KeyRef::Storage(contract, slot) => {
                (1u8, contract).encode(out);
                slot.encode(out);
            }
            KeyRef::Code(addr) => (2u8, addr).encode(out),
            KeyRef::Anchor(label) => {
                out.push(3);
                label.encode(out);
            }
            KeyRef::CrossLink(shard) => (4u8, shard).encode(out),
            KeyRef::Lock(addr) => (5u8, addr).encode(out),
            KeyRef::XsDecision(xid) => (6u8, xid).encode(out),
        }
    }
}

impl LeafKey {
    /// This key, borrowed.
    pub(crate) fn borrowed(&self) -> KeyRef<'_> {
        match self {
            LeafKey::Account(addr) => KeyRef::Account(addr),
            LeafKey::Storage(contract, slot) => KeyRef::Storage(contract, slot),
            LeafKey::Code(addr) => KeyRef::Code(addr),
            LeafKey::Anchor(label) => KeyRef::Anchor(label),
            LeafKey::CrossLink(shard) => KeyRef::CrossLink(*shard),
            LeafKey::Lock(addr) => KeyRef::Lock(addr),
            LeafKey::XsDecision(xid) => KeyRef::XsDecision(xid),
        }
    }
}

/// One pending leaf write, by key hash: `Some(value_hash)` upserts,
/// `None` deletes.
pub(crate) type LeafUpdate = (Hash256, Option<Hash256>);

/// The one place leaves are hashed: every build, merge and single update
/// of the tree turns its `(key, value)` writes into [`LeafUpdate`]s
/// here. Two scratch buffers, each its domain tag followed by the key's
/// or the value's bytes, are reused for a whole pass, so a leaf costs no
/// allocation, and a write's key and value hash side by side.
pub(crate) struct LeafHasher {
    key: Vec<u8>,
    value: Vec<u8>,
}

impl LeafHasher {
    pub(crate) fn new() -> LeafHasher {
        LeafHasher { key: KEY_TAG.to_vec(), value: VALUE_TAG.to_vec() }
    }

    /// `key`'s hash and, unless the write deletes, `value`'s.
    pub(crate) fn hash(&mut self, key: KeyRef<'_>, value: Option<&[u8]>) -> LeafUpdate {
        self.key.truncate(KEY_TAG.len());
        key.encode(&mut self.key);
        let Some(value) = value else {
            return (Hash256::digest(&self.key), None);
        };
        self.value.truncate(VALUE_TAG.len());
        self.value.extend_from_slice(value);
        let [key_hash, value_hash] = digest_two(&self.key, &self.value);
        (key_hash, Some(value_hash))
    }
}

/// Feeds every write of a committed [`StateDelta`] to `emit` as its
/// leaf key and new value bytes, `None` deleting the leaf. This is the
/// single bridge between the execution layer's delta vocabulary and the
/// tree: storage tombstones and cleared locks delete, every other
/// component upserts (accounts, code, anchors, cross-links, and
/// decisions are never removed from state).
fn for_each_write(delta: &StateDelta, emit: &mut dyn FnMut(KeyRef<'_>, Option<&[u8]>)) {
    let mut scratch = Vec::new();
    for (addr, account) in &delta.accounts {
        scratch.clear();
        account.encode(&mut scratch);
        emit(KeyRef::Account(addr), Some(&scratch));
    }
    for ((contract, slot), value) in &delta.storage {
        emit(KeyRef::Storage(contract, slot), value.as_deref());
    }
    for (contract, code) in &delta.code {
        emit(KeyRef::Code(contract), Some(code));
    }
    for (label, root) in &delta.anchors {
        emit(KeyRef::Anchor(label), Some(&root.0));
    }
    for (shard, link) in &delta.crosslinks {
        scratch.clear();
        link.encode(&mut scratch);
        emit(KeyRef::CrossLink(*shard), Some(&scratch));
    }
    for (addr, lock) in &delta.locks {
        match lock {
            Some(lock) => {
                scratch.clear();
                lock.encode(&mut scratch);
                emit(KeyRef::Lock(addr), Some(&scratch));
            }
            None => emit(KeyRef::Lock(addr), None),
        }
    }
    for (xid, decision) in &delta.xs_decisions {
        scratch.clear();
        decision.encode(&mut scratch);
        emit(KeyRef::XsDecision(xid), Some(&scratch));
    }
}

/// Every write of `delta` hashed to a [`LeafUpdate`], sorted by key hash:
/// the batch a merge descends with.
pub(crate) fn hashed_writes(delta: &StateDelta) -> Vec<LeafUpdate> {
    let mut hasher = LeafHasher::new();
    let mut batch = Vec::with_capacity(delta.len());
    for_each_write(delta, &mut |key, value| batch.push(hasher.hash(key, value)));
    batch.sort_unstable_by_key(|(key_hash, _)| *key_hash);
    debug_assert!(batch.windows(2).all(|w| w[0].0 < w[1].0), "a leaf key written twice");
    batch
}

/// The batch that pulls a merge of `delta` back out of a tree: every
/// key `delta` writes, hashed with the value `committed` holds for it,
/// `None` (deleting the leaf) where it holds none. Merged into a tree
/// that `delta` was merged into, it leaves exactly the tree of
/// `committed`, since a root does not depend on the order of writes.
/// Keys stay borrowed and values are read through a reused scratch
/// buffer, so a leaf costs no allocation here either.
pub(crate) fn committed_writes(delta: &StateDelta, committed: &WorldState) -> Vec<LeafUpdate> {
    let mut hasher = LeafHasher::new();
    let mut scratch = Vec::new();
    let mut batch = Vec::with_capacity(delta.len());
    for_each_write(delta, &mut |key, _| {
        let value = committed.leaf_bytes(key, &mut scratch);
        batch.push(hasher.hash(key, value));
    });
    batch.sort_unstable_by_key(|(key_hash, _)| *key_hash);
    batch
}

/// Position-defining hash of a leaf key. The 256 bits, consumed
/// MSB-first, are the leaf's path from the root.
pub fn key_hash(key: &LeafKey) -> Hash256 {
    LeafHasher::new().hash(key.borrowed(), None).0
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

/// What a tree node's hash is taken over: a leaf's key and value hashes
/// ([`leaf_hash`]), or an internal node's children's hashes
/// ([`node_hash`]).
#[derive(Clone, Copy)]
pub(crate) enum Preimage<'a> {
    Leaf(&'a Hash256, &'a Hash256),
    Node(&'a Hash256, &'a Hash256),
}

impl<'a> Preimage<'a> {
    fn tagged(self) -> (u8, &'a Hash256, &'a Hash256) {
        match self {
            Preimage::Leaf(key_hash, value_hash) => (LEAF_TAG, key_hash, value_hash),
            Preimage::Node(left, right) => (NODE_TAG, left, right),
        }
    }

    pub(crate) fn hash(self) -> Hash256 {
        let (tag, left, right) = self.tagged();
        digest_tagged_pair(tag, left, right)
    }

    /// Two independent nodes' hashes, computed side by side.
    pub(crate) fn hash_pair(a: Self, b: Self) -> [Hash256; 2] {
        digest_tagged_pairs([a.tagged(), b.tagged()])
    }
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

    /// One key of every family.
    fn sample_keys() -> [LeafKey; 7] {
        [
            LeafKey::Account(Address::from_seed(1)),
            LeafKey::Storage(Address::from_seed(2), b"slot".to_vec()),
            LeafKey::Code(Address::from_seed(2)),
            LeafKey::Anchor("trial-1".into()),
            LeafKey::CrossLink(3),
            LeafKey::Lock(Address::from_seed(3)),
            LeafKey::XsDecision(Hash256::digest(b"x")),
        ]
    }

    #[test]
    fn leaf_key_codec_round_trips() {
        for key in &sample_keys() {
            assert_eq!(&LeafKey::decoded(&key.encoded()).unwrap(), key);
        }
    }

    /// Key hashes are taken over the borrowed key's bytes: they must be
    /// the owned key's codec bytes, or every root would move.
    #[test]
    fn borrowed_keys_encode_like_owned_keys() {
        for key in &sample_keys() {
            let mut bytes = Vec::new();
            key.borrowed().encode(&mut bytes);
            assert_eq!(bytes, key.encoded(), "{key:?}");
            let mut hasher = Sha256::new();
            hasher.update(KEY_TAG);
            hasher.update(&key.encoded());
            assert_eq!(key_hash(key), hasher.finalize(), "{key:?}");
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
