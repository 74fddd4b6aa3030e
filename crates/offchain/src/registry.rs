//! Hash-anchored registration of off-chain artifacts (Irving–Holden).
//!
//! "They proposed to create a hash for the raw data set and create a
//! transaction in the public … blockchain distributed ledger to store
//! the hash value … As such, the data modification can be easily
//! detected by any peer" (§III-A). We strengthen the cited scheme with a
//! Merkle root, so single-record membership proofs are possible without
//! revealing the rest of the dataset.

use medchain_chain::{
    AuthorityKey, Hash256, MerkleProof, MerkleTree, Transaction, TxPayload, WorldState,
};
use std::fmt;

/// Canonical anchor label for a site-owned artifact.
pub fn anchor_label(site: &str, artifact: &str) -> String {
    format!("{site}/{artifact}")
}

/// A dataset (or code bundle) prepared for anchoring: the Merkle tree of
/// its serialized records.
#[derive(Debug, Clone)]
pub struct AnchoredArtifact {
    label: String,
    tree: MerkleTree,
}

impl AnchoredArtifact {
    /// Builds the anchor tree over serialized records.
    pub fn new<I, T>(label: &str, records: I) -> AnchoredArtifact
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u8]>,
    {
        AnchoredArtifact { label: label.to_string(), tree: MerkleTree::from_items(records) }
    }

    /// The anchor label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The Merkle root committed on-chain.
    pub fn root(&self) -> Hash256 {
        self.tree.root()
    }

    /// Number of records committed.
    pub fn record_count(&self) -> usize {
        self.tree.leaf_count()
    }

    /// Builds the signed anchor transaction.
    pub fn anchor_tx(&self, key: &AuthorityKey, nonce: u64) -> Transaction {
        Transaction::new(
            key.address(),
            nonce,
            TxPayload::Anchor { root: self.root(), label: self.label.clone() },
            100,
        )
        .signed(key)
    }

    /// Proves membership of the record at `index`.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        self.tree.prove(index)
    }
}

/// Result of verifying off-chain data against its on-chain anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityVerdict {
    /// Recomputed root matches the anchor.
    Intact,
    /// Roots differ — the off-chain data was modified.
    Tampered {
        /// Root recorded on-chain.
        anchored: Hash256,
        /// Root recomputed from the presented data.
        computed: Hash256,
    },
    /// No anchor exists for the label.
    NotAnchored,
}

impl fmt::Display for IntegrityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityVerdict::Intact => f.write_str("intact"),
            IntegrityVerdict::Tampered { .. } => f.write_str("tampered"),
            IntegrityVerdict::NotAnchored => f.write_str("not anchored"),
        }
    }
}

/// Verifies presented records against the on-chain anchor for `label`.
pub fn verify_against_chain<I, T>(state: &WorldState, label: &str, records: I) -> IntegrityVerdict
where
    I: IntoIterator<Item = T>,
    T: AsRef<[u8]>,
{
    let Some(anchored) = state.anchor(label) else {
        return IntegrityVerdict::NotAnchored;
    };
    let computed = MerkleTree::from_items(records).root();
    if computed == anchored {
        IntegrityVerdict::Intact
    } else {
        IntegrityVerdict::Tampered { anchored, computed }
    }
}

/// Verifies a single record's membership proof against the anchor —
/// the low-cost peer verification Irving & Holden describe.
pub fn verify_record(
    state: &WorldState,
    label: &str,
    record: &[u8],
    proof: &MerkleProof,
) -> IntegrityVerdict {
    let Some(anchored) = state.anchor(label) else {
        return IntegrityVerdict::NotAnchored;
    };
    if proof.verify(&Hash256::digest(record), &anchored) {
        IntegrityVerdict::Intact
    } else {
        IntegrityVerdict::Tampered { anchored, computed: Hash256::digest(record) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_chain::ledger::{Ledger, NullRuntime};
    use medchain_chain::KeyRegistry;

    fn ledger_with(key: &AuthorityKey) -> Ledger {
        let mut registry = KeyRegistry::new();
        registry.enroll(key);
        Ledger::new("anchor-test", registry, Box::new(NullRuntime))
    }

    fn records() -> Vec<Vec<u8>> {
        (0..10u8).map(|i| format!("patient-record-{i}").into_bytes()).collect()
    }

    #[test]
    fn anchor_and_verify_intact() {
        let key = AuthorityKey::from_seed(1);
        let mut ledger = ledger_with(&key);
        let artifact = AnchoredArtifact::new("hospital-1/emr", records());
        let block = ledger.propose(key.address(), 10, vec![artifact.anchor_tx(&key, 0)]);
        ledger.apply(&block).unwrap();
        assert_eq!(
            verify_against_chain(ledger.state(), "hospital-1/emr", records()),
            IntegrityVerdict::Intact
        );
    }

    #[test]
    fn tampering_is_detected() {
        let key = AuthorityKey::from_seed(1);
        let mut ledger = ledger_with(&key);
        let artifact = AnchoredArtifact::new("hospital-1/emr", records());
        let block = ledger.propose(key.address(), 10, vec![artifact.anchor_tx(&key, 0)]);
        ledger.apply(&block).unwrap();

        let mut tampered = records();
        tampered[3] = b"patient-record-3-with-falsified-outcome".to_vec();
        let verdict = verify_against_chain(ledger.state(), "hospital-1/emr", tampered);
        assert!(matches!(verdict, IntegrityVerdict::Tampered { .. }));
    }

    #[test]
    fn missing_anchor_is_reported() {
        let key = AuthorityKey::from_seed(1);
        let ledger = ledger_with(&key);
        assert_eq!(
            verify_against_chain(ledger.state(), "nobody/nothing", records()),
            IntegrityVerdict::NotAnchored
        );
    }

    #[test]
    fn single_record_proof_verifies() {
        let key = AuthorityKey::from_seed(1);
        let mut ledger = ledger_with(&key);
        let artifact = AnchoredArtifact::new("hospital-1/emr", records());
        let block = ledger.propose(key.address(), 10, vec![artifact.anchor_tx(&key, 0)]);
        ledger.apply(&block).unwrap();

        let proof = artifact.prove(4).unwrap();
        assert_eq!(
            verify_record(ledger.state(), "hospital-1/emr", &records()[4], &proof),
            IntegrityVerdict::Intact
        );
        // Wrong record with the same proof fails.
        assert_ne!(
            verify_record(ledger.state(), "hospital-1/emr", b"forged", &proof),
            IntegrityVerdict::Intact
        );
    }

    #[test]
    fn anchor_counts_records() {
        let artifact = AnchoredArtifact::new("x/y", records());
        assert_eq!(artifact.record_count(), 10);
        assert_eq!(artifact.label(), "x/y");
    }
}
