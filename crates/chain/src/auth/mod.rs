//! Authenticated world state: sparse Merkle commitments over every state
//! entry, incremental per-block root maintenance, and proof-carrying
//! reads for light clients (DESIGN.md §13).
//!
//! The subsystem has three layers:
//!
//! * [`leaf`] — the canonical [`LeafKey`] vocabulary and the one hashing
//!   scheme shared by every root computation in the codebase;
//! * [`smt`] — the persistent [`StateTree`] the ledger maintains
//!   incrementally from committed `StateDelta`s;
//! * this module — the wire-level proof objects. [`SmtProof`] is the bare
//!   Merkle path; [`StateProof`] packages it with the claimed value and
//!   the block coordinates it verifies against, mirroring the
//!   tx-inclusion `TxReceipt`.
//!
//! Trust boundary: `StateProof::verify()` checks internal consistency
//! against the root *carried in the proof* — sufficient when the
//! responder is trusted to name real blocks. A fully trustless client
//! calls `verify_against(&root)` with a root it fetched independently
//! (e.g. from a block header it validated), exactly like
//! `TxReceipt::verify_against`.

pub mod leaf;
pub mod smt;

pub use leaf::{delta_updates, key_hash, value_hash, versioned_root, LeafKey, EMPTY_SUBTREE};
pub use smt::{NodePager, StateTree};

use crate::hash::Hash256;
use crate::shard::ShardId;
use medchain_runtime::codec::Encode;
use medchain_runtime::{impl_codec_enum, impl_codec_struct};

/// What the prover found at the end of the Merkle path for a queried
/// key. Inclusion ends at the key's own leaf; absence ends at an empty
/// subtree or at a *different* leaf occupying the key's path prefix
/// (the compact-SMT encoding of "nothing else hangs below here").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofTerminal {
    /// The queried key's leaf, committing to this value hash.
    Leaf {
        /// Hash of the leaf's canonical value bytes.
        value_hash: Hash256,
    },
    /// An empty subtree: nothing is stored under this path.
    Empty,
    /// A single-leaf subtree holding some other key: the queried key is
    /// absent, because a compact SMT stores a lone leaf at the highest
    /// point of its unique path prefix.
    OtherLeaf {
        /// Key hash of the occupying leaf (must differ from the query's
        /// yet share its first `siblings.len()` path bits).
        key_hash: Hash256,
        /// Value hash of the occupying leaf.
        value_hash: Hash256,
    },
}

impl_codec_enum!(ProofTerminal {
    0 => Leaf { value_hash },
    1 => Empty,
    2 => OtherLeaf { key_hash, value_hash },
});

/// A Merkle path through the state tree: sibling hashes from the root
/// down to the [`ProofTerminal`]. ~`log₂(leaves)` siblings of 32 bytes
/// each, so proofs stay a few hundred bytes at millions of keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtProof {
    /// Sibling hash at each level, root-down; `siblings[d]` is the hash
    /// of the subtree *not* taken at depth `d`.
    pub siblings: Vec<Hash256>,
    /// What sits at the end of the path.
    pub terminal: ProofTerminal,
}

impl_codec_struct!(SmtProof { siblings, terminal });

impl SmtProof {
    /// Verifies this path against a version-tagged root for the claim
    /// "`key` maps to `value`" (`Some`) or "`key` is absent" (`None`).
    ///
    /// Any mismatch — wrong terminal kind for the claim, value-hash
    /// mismatch, an `OtherLeaf` that is really the queried key or does
    /// not share the path prefix, or a fold that misses the root —
    /// returns `false`.
    pub fn verify(
        &self,
        key: &LeafKey,
        value: Option<&[u8]>,
        expected_versioned_root: &Hash256,
    ) -> bool {
        // Key hashes are 256 bits; a longer path cannot be honest.
        if self.siblings.len() > 256 {
            return false;
        }
        let kh = key_hash(key);
        let mut acc = match (&self.terminal, value) {
            (ProofTerminal::Leaf { value_hash: vh }, Some(value)) => {
                if leaf::value_hash(value) != *vh {
                    return false;
                }
                leaf::leaf_hash(&kh, vh)
            }
            (ProofTerminal::Empty, None) => EMPTY_SUBTREE,
            (ProofTerminal::OtherLeaf {
                key_hash: other_kh,
                value_hash: other_vh,
            }, None) => {
                if *other_kh == kh {
                    return false;
                }
                // The occupying leaf must genuinely live on the queried
                // key's path: its key hash shares every bit consumed by
                // the fold below. Without this check a prover could
                // recycle an arbitrary leaf from elsewhere in the tree.
                for depth in 0..self.siblings.len() {
                    if leaf::key_bit(other_kh, depth) != leaf::key_bit(&kh, depth) {
                        return false;
                    }
                }
                leaf::leaf_hash(other_kh, other_vh)
            }
            // Terminal kind contradicts the presence claim.
            _ => return false,
        };
        for depth in (0..self.siblings.len()).rev() {
            let sibling = &self.siblings[depth];
            acc = if leaf::key_bit(&kh, depth) {
                leaf::node_hash(sibling, &acc)
            } else {
                leaf::node_hash(&acc, sibling)
            };
        }
        versioned_root(&acc) == *expected_versioned_root
    }

    /// Encoded size in bytes (what travels over the gateway wire).
    pub fn size_bytes(&self) -> usize {
        self.encoded().len()
    }
}

/// A complete proof-carrying state read: the queried key, the value the
/// responder claims (or `None` for absence), the Merkle path, and the
/// coordinates of the block whose header root the proof folds up to.
///
/// The shape mirrors `TxReceipt`: `verify()` for a trusted responder,
/// [`verify_against`](StateProof::verify_against) with an independently
/// obtained header root for a trustless one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateProof {
    /// The state entry this proof speaks about.
    pub key: LeafKey,
    /// Canonical value bytes at `key`, or `None` if absent.
    pub value: Option<Vec<u8>>,
    /// Merkle path from `state_root` down to the key's position.
    pub proof: SmtProof,
    /// The versioned state root the path folds up to (copied from the
    /// block header by the prover).
    pub state_root: Hash256,
    /// Id of the block whose header carries `state_root`.
    pub block_id: Hash256,
    /// Height of that block on its chain.
    pub height: u64,
    /// The shard whose chain committed that block — proofs only verify
    /// against the key's home shard's root.
    pub shard: ShardId,
}

impl_codec_struct!(StateProof {
    key,
    value,
    proof,
    state_root,
    block_id,
    height,
    shard
});

impl StateProof {
    /// Verifies the path against the root carried in the proof itself.
    pub fn verify(&self) -> bool {
        self.verify_against(&self.state_root)
    }

    /// Verifies the path against an independently obtained header root
    /// (also re-checks the carried root, so a proof that passes here
    /// also passes [`verify`](StateProof::verify)).
    pub fn verify_against(&self, expected_root: &Hash256) -> bool {
        self.state_root == *expected_root
            && self
                .proof
                .verify(&self.key, self.value.as_deref(), expected_root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Address;
    use medchain_runtime::codec::Decode;

    fn sample_tree() -> (StateTree, Vec<LeafKey>) {
        let mut tree = StateTree::new();
        let mut keys = Vec::new();
        for seed in 0..24u64 {
            let key = LeafKey::Account(Address::from_seed(seed));
            tree.update(&key, Some(&seed.to_le_bytes()));
            keys.push(key);
        }
        for label in ["alpha", "beta", "gamma"] {
            let key = LeafKey::Anchor(label.into());
            tree.update(&key, Some(label.as_bytes()));
            keys.push(key);
        }
        assert!(tree.audit());
        (tree, keys)
    }

    #[test]
    fn inclusion_proofs_verify_for_every_leaf() {
        let (tree, keys) = sample_tree();
        let root = tree.versioned_root();
        for (i, key) in keys.iter().enumerate() {
            let proof = tree.prove(key);
            let value: Vec<u8> = match key {
                LeafKey::Account(_) => (i as u64).to_le_bytes().to_vec(),
                LeafKey::Anchor(label) => label.as_bytes().to_vec(),
                _ => unreachable!(),
            };
            assert!(proof.verify(key, Some(&value), &root), "leaf {i}");
            // Inclusion proof must not double as absence proof.
            assert!(!proof.verify(key, None, &root));
            // Nor verify a different value.
            assert!(!proof.verify(key, Some(b"not the value"), &root));
        }
    }

    #[test]
    fn absence_proofs_verify_for_missing_keys() {
        let (tree, _) = sample_tree();
        let root = tree.versioned_root();
        for seed in 100..140u64 {
            let key = LeafKey::Account(Address::from_seed(seed));
            let proof = tree.prove(&key);
            assert!(proof.verify(&key, None, &root), "absent {seed}");
            assert!(!proof.verify(&key, Some(b"phantom"), &root));
        }
        // The empty tree proves absence of everything.
        let empty = StateTree::new();
        let key = LeafKey::Anchor("nothing".into());
        assert!(empty
            .prove(&key)
            .verify(&key, None, &empty.versioned_root()));
    }

    #[test]
    fn absence_proof_rejects_foreign_other_leaf() {
        let (tree, keys) = sample_tree();
        let root = tree.versioned_root();
        let missing = LeafKey::Account(Address::from_seed(999));
        let mut proof = tree.prove(&missing);
        if let ProofTerminal::OtherLeaf { .. } = proof.terminal {
            // Swap in a real leaf from elsewhere in the tree: same
            // hashes, wrong path — the prefix check must catch it.
            let foreign = key_hash(&keys[0]);
            let shares_path = (0..proof.siblings.len())
                .all(|d| leaf::key_bit(&foreign, d) == leaf::key_bit(&key_hash(&missing), d));
            if !shares_path {
                proof.terminal = ProofTerminal::OtherLeaf {
                    key_hash: foreign,
                    value_hash: value_hash(b"whatever"),
                };
                assert!(!proof.verify(&missing, None, &root));
            }
        }
        // Claiming the queried key itself as the "other" leaf is invalid.
        let self_leaf = ProofTerminal::OtherLeaf {
            key_hash: key_hash(&missing),
            value_hash: value_hash(b"v"),
        };
        let forged = SmtProof {
            siblings: Vec::new(),
            terminal: self_leaf,
        };
        assert!(!forged.verify(&missing, None, &versioned_root(&leaf::leaf_hash(
            &key_hash(&missing),
            &value_hash(b"v"),
        ))));
    }

    #[test]
    fn oversized_paths_are_rejected() {
        let key = LeafKey::Anchor("x".into());
        let proof = SmtProof {
            siblings: vec![Hash256::ZERO; 257],
            terminal: ProofTerminal::Empty,
        };
        assert!(!proof.verify(&key, None, &Hash256::ZERO));
    }

    #[test]
    fn proof_types_round_trip_codec() {
        let (tree, keys) = sample_tree();
        let proof = StateProof {
            key: keys[3].clone(),
            value: Some(b"payload".to_vec()),
            proof: tree.prove(&keys[3]),
            state_root: tree.versioned_root(),
            block_id: Hash256::digest(b"block"),
            height: 7,
            shard: ShardId(1),
        };
        assert_eq!(StateProof::decoded(&proof.encoded()).unwrap(), proof);
        let absent = tree.prove(&LeafKey::Anchor("missing".into()));
        assert_eq!(SmtProof::decoded(&absent.encoded()).unwrap(), absent);
    }

    #[test]
    fn delete_restores_prior_root_and_canonical_form() {
        let (mut tree, _) = sample_tree();
        let before = tree.root();
        let len_before = tree.len();
        let key = LeafKey::Anchor("transient".into());
        tree.update(&key, Some(b"here"));
        assert_eq!(tree.len(), len_before + 1);
        assert_ne!(tree.root(), before);
        assert!(tree.audit());
        tree.update(&key, None);
        assert_eq!(tree.len(), len_before);
        assert_eq!(tree.root(), before, "delete must restore canonical root");
        assert!(tree.audit());
        // Deleting a key that was never present is a no-op.
        tree.update(&LeafKey::Anchor("ghost".into()), None);
        assert_eq!(tree.root(), before);
        assert_eq!(tree.len(), len_before);
    }

    #[test]
    fn tree_codec_round_trips_without_rehashing() {
        let (tree, keys) = sample_tree();
        let decoded = StateTree::decoded(&tree.encoded()).unwrap();
        assert_eq!(decoded, tree);
        assert_eq!(decoded.len(), tree.len());
        assert!(decoded.audit());
        let root = decoded.versioned_root();
        let proof = decoded.prove(&keys[0]);
        assert!(proof.verify(&keys[0], Some(&0u64.to_le_bytes()), &root));
    }

    #[test]
    fn clones_are_independent_snapshots() {
        let (mut tree, _) = sample_tree();
        let snapshot = tree.clone();
        let root = snapshot.root();
        tree.update(&LeafKey::Anchor("new".into()), Some(b"v"));
        assert_ne!(tree.root(), root);
        assert_eq!(snapshot.root(), root);
    }
}
