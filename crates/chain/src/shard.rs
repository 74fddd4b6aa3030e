//! Consensus-level sharding: shard identities, deterministic
//! transaction→shard assignment, and cross-link records.
//!
//! The paper's §I notes that sharding only *partially* fixes duplicated
//! computing: each shard still re-executes its whole slice. This module
//! supplies the chain-layer vocabulary for doing that honestly — every
//! block header carries a [`ShardId`], transactions are assigned to
//! shards by a deterministic key rule, and a coordinator chain
//! periodically commits a [`CrossLink`] (tip hash + height) for every
//! shard so a shard cannot fork past its last cross-link unnoticed.
//! The full topology and invariants are specified in `DESIGN.md` §9.
//!
//! ## Assignment rule
//!
//! * `Invoke { contract, .. }` → [`shard_for_key`]`(contract)` — a
//!   contract pins all its invocations to one shard.
//! * `Deploy`, `Transfer`, `Anchor` → keyed by the *site key* (sender
//!   address) or anchor label.
//! * `CrossLink` → never routed to a data shard; it executes only on the
//!   coordinator chain ([`ShardId::COORDINATOR`]).
//! * `XsPrepare` → the shard named by its leg; `XsFinalize` → the locked
//!   account's home shard; `XsDecide` → the coordinator chain, like
//!   `CrossLink` (two-phase commit, DESIGN.md §12).
//!
//! Contract addresses on a data shard are derived by
//! [`sharded_contract_address`], which grinds a salt until the address
//! maps back (under [`shard_for_key`]) to the shard the deploy executed
//! on — the Elrond-style trick that keeps the invoke routing rule a pure
//! function of the address. The coordinator derives them as a flat chain
//! does: it hosts the standard contracts, and the network routes their
//! invokes to it by address.

use crate::hash::Hash256;
use crate::sig::Address;
use crate::tx::{Transaction, TxPayload};
use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};

/// Identity of a shard sub-chain. Data shards are numbered `0..k`; the
/// coordinator chain that commits cross-links is
/// [`ShardId::COORDINATOR`]. An unsharded chain is shard 0 of a
/// one-shard topology, so every pre-sharding chain remains valid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl ShardId {
    /// The coordinator chain: holds cross-links, never data
    /// transactions.
    pub const COORDINATOR: ShardId = ShardId(u16::MAX);

    /// Whether this is the coordinator chain.
    pub fn is_coordinator(&self) -> bool {
        *self == ShardId::COORDINATOR
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_coordinator() {
            f.write_str("coordinator")
        } else {
            write!(f, "shard-{}", self.0)
        }
    }
}

impl Encode for ShardId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for ShardId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ShardId(u16::decode(r)?))
    }
}

/// Deterministic key→shard assignment: the first eight digest bytes of
/// `key`, reduced modulo `shard_count`. Every honest node computes the
/// same shard for the same key, with no routing table to distribute.
///
/// # Panics
///
/// Panics if `shard_count` is zero.
pub fn shard_for_key(key: &[u8], shard_count: u16) -> ShardId {
    assert!(shard_count > 0, "shard_count must be at least 1");
    let digest = Hash256::digest(key);
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&digest.0[..8]);
    ShardId((u64::from_le_bytes(bytes) % u64::from(shard_count)) as u16)
}

/// Deterministic transaction→shard assignment (the rule in the module
/// docs): invokes route by contract key, everything else by site key
/// (sender) or anchor label; cross-links belong to the coordinator.
pub fn shard_for_tx(tx: &Transaction, shard_count: u16) -> ShardId {
    match &tx.payload {
        TxPayload::Invoke { contract, .. } => shard_for_key(&contract.0, shard_count),
        TxPayload::Anchor { label, .. } => shard_for_key(label.as_bytes(), shard_count),
        TxPayload::CrossLink { .. } | TxPayload::XsDecide { .. } => ShardId::COORDINATOR,
        TxPayload::XsPrepare { leg, .. } => leg.shard,
        TxPayload::XsFinalize { account, .. } => shard_for_key(&account.0, shard_count),
        TxPayload::Transfer { .. } | TxPayload::Deploy { .. } => {
            shard_for_key(&tx.sender.0, shard_count)
        }
    }
}

/// Contract address derivation on a sharded ledger: grinds a salt into
/// `H(sender ‖ nonce ‖ salt ‖ "shard")` until the derived address maps
/// back to `shard` under [`shard_for_key`]. The result is a pure
/// function of `(sender, nonce, shard, shard_count)`, so every replica
/// of the hosting shard derives the same address, and the invoke
/// routing rule (`shard_for_key(contract)`) lands on the chain that
/// actually holds the code. Expected `shard_count` digest attempts.
///
/// # Panics
///
/// Panics if `shard` is the coordinator (which derives flat addresses)
/// or out of range.
pub fn sharded_contract_address(
    sender: &Address,
    nonce: u64,
    shard: ShardId,
    shard_count: u16,
) -> Address {
    assert!(!shard.is_coordinator(), "the coordinator derives flat contract addresses");
    assert!(shard.0 < shard_count, "shard {} out of range (k = {shard_count})", shard.0);
    let mut material = sender.0.to_vec();
    material.extend_from_slice(&nonce.to_le_bytes());
    material.extend_from_slice(b"shard");
    material.extend_from_slice(&[0u8; 8]);
    let salt_at = material.len() - 8;
    for salt in 0u64.. {
        material[salt_at..].copy_from_slice(&salt.to_le_bytes());
        let addr = Address::from_key_material(&material);
        if shard_for_key(&addr.0, shard_count) == shard {
            return addr;
        }
    }
    unreachable!("some salt always lands in the target shard")
}

/// One shard's committed tip as recorded on the coordinator chain: the
/// payload of a [`TxPayload::CrossLink`] transaction. The coordinator's
/// world state keeps the newest record per shard; recovery checks every
/// shard sub-chain against it (DESIGN.md §9 invariants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossLink {
    /// The shard whose tip is being committed.
    pub shard: ShardId,
    /// Height of the shard's tip block.
    pub height: u64,
    /// Digest of the shard's tip block header.
    pub tip: Hash256,
}

impl std::fmt::Display for CrossLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cross-link: {} height {} tip {:?}", self.shard, self.height, self.tip)
    }
}

mod codec_impls {
    use super::CrossLink;
    use medchain_runtime::impl_codec_struct;

    impl_codec_struct!(CrossLink { shard, height, tip });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::AuthorityKey;
    use medchain_runtime::codec::{Decode, Encode};

    #[test]
    fn shard_for_key_is_deterministic_and_in_range() {
        for k in [1u16, 2, 3, 7] {
            for i in 0..64u64 {
                let key = i.to_le_bytes();
                let a = shard_for_key(&key, k);
                assert_eq!(a, shard_for_key(&key, k));
                assert!(a.0 < k);
            }
        }
    }

    #[test]
    fn shard_for_key_spreads_keys() {
        let k = 4u16;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            seen.insert(shard_for_key(&i.to_le_bytes(), k).0);
        }
        assert_eq!(seen.len(), k as usize, "64 keys should hit all {k} shards");
    }

    #[test]
    fn tx_assignment_follows_the_rule() {
        let key = AuthorityKey::from_seed(1);
        let k = 4u16;
        let mk = |payload| Transaction::new(key.address(), 0, payload, 100);
        let contract = Address::from_seed(9);
        let invoke = mk(TxPayload::Invoke { contract, input: vec![] });
        assert_eq!(shard_for_tx(&invoke, k), shard_for_key(&contract.0, k));
        let transfer = mk(TxPayload::Transfer { to: Address::from_seed(2), amount: 1 });
        assert_eq!(shard_for_tx(&transfer, k), shard_for_key(&key.address().0, k));
        let anchor = mk(TxPayload::Anchor { root: Hash256::ZERO, label: "h/emr".into() });
        assert_eq!(shard_for_tx(&anchor, k), shard_for_key(b"h/emr", k));
        let link = mk(TxPayload::CrossLink {
            shard: ShardId(0),
            height: 1,
            tip: Hash256::ZERO,
        });
        assert_eq!(shard_for_tx(&link, k), ShardId::COORDINATOR);
        let account = Address::from_seed(5);
        let prepare = mk(TxPayload::XsPrepare {
            xid: Hash256::digest(b"xfer"),
            leg: crate::tx::XsLeg { shard: ShardId(3), account, amount: 5, debit: true },
            deadline_ms: 1_000,
        });
        assert_eq!(shard_for_tx(&prepare, k), ShardId(3), "prepare runs on its leg's shard");
        let decide = mk(TxPayload::XsDecide { xid: Hash256::digest(b"xfer"), commit: true });
        assert_eq!(shard_for_tx(&decide, k), ShardId::COORDINATOR);
        let finalize =
            mk(TxPayload::XsFinalize { xid: Hash256::digest(b"xfer"), account, commit: true });
        assert_eq!(shard_for_tx(&finalize, k), shard_for_key(&account.0, k));
    }

    #[test]
    fn sharded_contract_address_lands_in_its_shard() {
        let sender = Address::from_seed(3);
        for k in [2u16, 3, 5] {
            for s in 0..k {
                let addr = sharded_contract_address(&sender, 0, ShardId(s), k);
                assert_eq!(shard_for_key(&addr.0, k), ShardId(s));
                // Deterministic and nonce-sensitive.
                assert_eq!(addr, sharded_contract_address(&sender, 0, ShardId(s), k));
                assert_ne!(addr, sharded_contract_address(&sender, 1, ShardId(s), k));
            }
        }
    }

    #[test]
    fn shard_id_codec_and_display() {
        for id in [ShardId(0), ShardId(41), ShardId::COORDINATOR] {
            let bytes = id.encoded();
            assert_eq!(ShardId::decoded(&bytes).unwrap(), id);
        }
        assert_eq!(ShardId(2).to_string(), "shard-2");
        assert_eq!(ShardId::COORDINATOR.to_string(), "coordinator");
        assert!(ShardId::COORDINATOR.is_coordinator());
        assert!(!ShardId(0).is_coordinator());
    }
}
