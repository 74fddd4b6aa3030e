//! Hash-chained audit trail with blame assignment.
//!
//! The paper's §III-B complaint: current HIE IT "is both opaque and
//! un-auditable … USA government cannot decide which involved parties to
//! blame due to the complexity of the process". This module is the
//! blockchain answer: every exchange step is an [`AuditEntry`] in a hash
//! chain whose head can be anchored on-chain, and
//! [`AuditTrail::assign_blame`] reconstructs exactly which party stalled
//! a disputed exchange.

use medchain_chain::{Address, Hash256};
use std::fmt;

/// The exchange-protocol steps an audit entry can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditAction {
    /// Requester asked for a dataset.
    Requested,
    /// Owner approved the request.
    Approved,
    /// Owner denied the request.
    Denied,
    /// Owner delivered the encrypted payload.
    Delivered,
    /// Requester acknowledged receipt and successful decryption.
    Acknowledged,
    /// Requester reported a failed or missing delivery.
    Disputed,
}

impl fmt::Display for AuditAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AuditAction::Requested => "requested",
            AuditAction::Approved => "approved",
            AuditAction::Denied => "denied",
            AuditAction::Delivered => "delivered",
            AuditAction::Acknowledged => "acknowledged",
            AuditAction::Disputed => "disputed",
        };
        f.write_str(name)
    }
}

/// One immutable audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Position in the chain.
    pub seq: u64,
    /// Exchange this entry belongs to.
    pub exchange_id: u64,
    /// Acting party.
    pub actor: Address,
    /// What happened.
    pub action: AuditAction,
    /// Logical timestamp.
    pub at_ms: u64,
    /// Hash of the previous entry (chain link).
    pub prev: Hash256,
    /// Hash of this entry.
    pub hash: Hash256,
}

impl AuditEntry {
    fn compute_hash(
        seq: u64,
        exchange_id: u64,
        actor: &Address,
        action: AuditAction,
        at_ms: u64,
        prev: &Hash256,
    ) -> Hash256 {
        let mut bytes = Vec::with_capacity(80);
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&exchange_id.to_le_bytes());
        bytes.extend_from_slice(&actor.0);
        bytes.push(match action {
            AuditAction::Requested => 0,
            AuditAction::Approved => 1,
            AuditAction::Denied => 2,
            AuditAction::Delivered => 3,
            AuditAction::Acknowledged => 4,
            AuditAction::Disputed => 5,
        });
        bytes.extend_from_slice(&at_ms.to_le_bytes());
        bytes.extend_from_slice(&prev.0);
        Hash256::digest(&bytes)
    }
}

/// Verdict of a blame analysis for one exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlameVerdict {
    /// Exchange completed; nothing to blame.
    Completed,
    /// Request was never approved or denied: the data owner stalled.
    OwnerUnresponsive(Address),
    /// Request was denied — legitimate refusal, no blame.
    DeniedByOwner(Address),
    /// Approved but never delivered: the owner site failed to serve.
    OwnerFailedToDeliver(Address),
    /// Delivered but never acknowledged nor disputed: requester stalled.
    RequesterUnresponsive(Address),
    /// Delivery disputed after a recorded delivery: conflict — both
    /// parties' claims are on record for arbitration.
    DisputedDelivery {
        /// Party that recorded the delivery.
        owner: Address,
        /// Party disputing it.
        requester: Address,
    },
    /// Disputed with *no* recorded delivery: owner is at fault.
    ConfirmedNonDelivery(Address),
    /// No audit records exist (the opaque-email situation the paper
    /// criticizes — blame cannot be assigned).
    Unknown,
}

/// An append-only, hash-chained audit trail.
#[derive(Debug, Clone, Default)]
pub struct AuditTrail {
    entries: Vec<AuditEntry>,
}

impl AuditTrail {
    /// Creates an empty trail.
    pub fn new() -> AuditTrail {
        AuditTrail::default()
    }

    /// Appends an entry, extending the hash chain.
    pub fn record(
        &mut self,
        exchange_id: u64,
        actor: Address,
        action: AuditAction,
        at_ms: u64,
    ) -> &AuditEntry {
        let seq = self.entries.len() as u64;
        let prev = self.entries.last().map_or(Hash256::ZERO, |e| e.hash);
        let hash = AuditEntry::compute_hash(seq, exchange_id, &actor, action, at_ms, &prev);
        self.entries.push(AuditEntry { seq, exchange_id, actor, action, at_ms, prev, hash });
        self.entries.last().expect("just pushed")
    }

    /// All entries in order.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Entries for one exchange.
    fn for_exchange(&self, exchange_id: u64) -> Vec<&AuditEntry> {
        self.entries.iter().filter(|e| e.exchange_id == exchange_id).collect()
    }

    /// Head hash to anchor on-chain (`None` for an empty trail).
    pub fn head(&self) -> Option<Hash256> {
        self.entries.last().map(|e| e.hash)
    }

    /// Verifies the whole hash chain; returns the first bad sequence
    /// number, or `None` if intact.
    pub fn verify(&self) -> Option<u64> {
        let mut prev = Hash256::ZERO;
        for entry in &self.entries {
            let expected = AuditEntry::compute_hash(
                entry.seq,
                entry.exchange_id,
                &entry.actor,
                entry.action,
                entry.at_ms,
                &prev,
            );
            if entry.prev != prev || entry.hash != expected {
                return Some(entry.seq);
            }
            prev = entry.hash;
        }
        None
    }

    /// Reconstructs responsibility for a disputed or stalled exchange —
    /// the analysis the paper says the government cannot perform today.
    pub fn assign_blame(&self, exchange_id: u64, owner: Address) -> BlameVerdict {
        let entries = self.for_exchange(exchange_id);
        if entries.is_empty() {
            return BlameVerdict::Unknown;
        }
        let find = |action: AuditAction| entries.iter().find(|e| e.action == action);
        let requester = entries
            .iter()
            .find(|e| e.action == AuditAction::Requested)
            .map(|e| e.actor);

        if find(AuditAction::Acknowledged).is_some() {
            return BlameVerdict::Completed;
        }
        if let Some(denied) = find(AuditAction::Denied) {
            return BlameVerdict::DeniedByOwner(denied.actor);
        }
        let delivered = find(AuditAction::Delivered);
        let disputed = find(AuditAction::Disputed);
        match (delivered, disputed) {
            (Some(d), Some(_)) => BlameVerdict::DisputedDelivery {
                owner: d.actor,
                requester: requester.unwrap_or(owner),
            },
            (None, Some(_)) => BlameVerdict::ConfirmedNonDelivery(owner),
            (Some(_), None) => {
                BlameVerdict::RequesterUnresponsive(requester.unwrap_or(owner))
            }
            (None, None) => {
                if find(AuditAction::Approved).is_some() {
                    BlameVerdict::OwnerFailedToDeliver(owner)
                } else {
                    BlameVerdict::OwnerUnresponsive(owner)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner() -> Address {
        Address::from_seed(1)
    }

    fn requester() -> Address {
        Address::from_seed(2)
    }

    #[test]
    fn chain_verifies_when_intact() {
        let mut trail = AuditTrail::new();
        trail.record(1, requester(), AuditAction::Requested, 10);
        trail.record(1, owner(), AuditAction::Approved, 20);
        trail.record(1, owner(), AuditAction::Delivered, 30);
        trail.record(1, requester(), AuditAction::Acknowledged, 40);
        assert_eq!(trail.verify(), None);
        assert!(trail.head().is_some());
    }

    #[test]
    fn tampering_any_entry_breaks_the_chain() {
        let mut trail = AuditTrail::new();
        for i in 0..5 {
            trail.record(1, owner(), AuditAction::Delivered, i * 10);
        }
        let mut tampered = trail.clone();
        tampered.entries[2].at_ms = 999_999; // rewrite history
        assert_eq!(tampered.verify(), Some(2));
        let mut relinked = trail.clone();
        relinked.entries[3].prev = Hash256::digest(b"forged");
        assert_eq!(relinked.verify(), Some(3));
    }

    #[test]
    fn blame_completed_exchange() {
        let mut trail = AuditTrail::new();
        trail.record(7, requester(), AuditAction::Requested, 1);
        trail.record(7, owner(), AuditAction::Approved, 2);
        trail.record(7, owner(), AuditAction::Delivered, 3);
        trail.record(7, requester(), AuditAction::Acknowledged, 4);
        assert_eq!(trail.assign_blame(7, owner()), BlameVerdict::Completed);
    }

    #[test]
    fn blame_owner_unresponsive() {
        let mut trail = AuditTrail::new();
        trail.record(7, requester(), AuditAction::Requested, 1);
        assert_eq!(trail.assign_blame(7, owner()), BlameVerdict::OwnerUnresponsive(owner()));
    }

    #[test]
    fn blame_owner_failed_to_deliver() {
        let mut trail = AuditTrail::new();
        trail.record(7, requester(), AuditAction::Requested, 1);
        trail.record(7, owner(), AuditAction::Approved, 2);
        assert_eq!(
            trail.assign_blame(7, owner()),
            BlameVerdict::OwnerFailedToDeliver(owner())
        );
    }

    #[test]
    fn blame_requester_unresponsive() {
        let mut trail = AuditTrail::new();
        trail.record(7, requester(), AuditAction::Requested, 1);
        trail.record(7, owner(), AuditAction::Approved, 2);
        trail.record(7, owner(), AuditAction::Delivered, 3);
        assert_eq!(
            trail.assign_blame(7, owner()),
            BlameVerdict::RequesterUnresponsive(requester())
        );
    }

    #[test]
    fn blame_confirmed_non_delivery() {
        let mut trail = AuditTrail::new();
        trail.record(7, requester(), AuditAction::Requested, 1);
        trail.record(7, owner(), AuditAction::Approved, 2);
        trail.record(7, requester(), AuditAction::Disputed, 9);
        assert_eq!(
            trail.assign_blame(7, owner()),
            BlameVerdict::ConfirmedNonDelivery(owner())
        );
    }

    #[test]
    fn denial_is_not_blame() {
        let mut trail = AuditTrail::new();
        trail.record(7, requester(), AuditAction::Requested, 1);
        trail.record(7, owner(), AuditAction::Denied, 2);
        assert_eq!(trail.assign_blame(7, owner()), BlameVerdict::DeniedByOwner(owner()));
    }

    #[test]
    fn no_records_means_unknown() {
        let trail = AuditTrail::new();
        assert_eq!(trail.assign_blame(42, owner()), BlameVerdict::Unknown);
    }

    #[test]
    fn exchanges_are_separated() {
        let mut trail = AuditTrail::new();
        trail.record(1, requester(), AuditAction::Requested, 1);
        trail.record(2, requester(), AuditAction::Requested, 2);
        trail.record(2, owner(), AuditAction::Approved, 3);
        assert_eq!(trail.for_exchange(1).len(), 1);
        assert_eq!(trail.for_exchange(2).len(), 2);
    }
}

mod codec_impls {
    use super::{AuditAction, AuditEntry};
    use medchain_runtime::{impl_codec_struct, impl_codec_unit_enum};

    impl_codec_unit_enum!(AuditAction {
        Requested,
        Approved,
        Denied,
        Delivered,
        Acknowledged,
        Disputed,
    });
    impl_codec_struct!(AuditEntry { seq, exchange_id, actor, action, at_ms, prev, hash });
}
