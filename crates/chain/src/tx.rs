//! Transactions of the permissioned medical blockchain.
//!
//! The chain layer is deliberately execution-agnostic: contract deployment
//! and invocation payloads carry opaque bytes that the execution layer
//! (`medchain-contracts`) interprets. This keeps the substrate compatible
//! with the paper's requirement that the *same* on-chain protocol carry
//! arbitrary user-defined smart-contract code.

use crate::hash::Hash256;
use crate::sig::{Address, AuthorityKey, AuthoritySignature, KeyRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What a transaction asks the chain to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxPayload {
    /// Transfer of the consortium accounting token (used for incentive
    /// and cost accounting, not speculation).
    Transfer {
        /// Recipient.
        to: Address,
        /// Amount in base units.
        amount: u64,
    },
    /// Deploy a smart contract; `code` is execution-layer bytecode.
    Deploy {
        /// Contract bytecode.
        code: Vec<u8>,
        /// Constructor argument blob.
        init: Vec<u8>,
    },
    /// Invoke a deployed contract.
    Invoke {
        /// Address the contract was deployed at.
        contract: Address,
        /// ABI-encoded call data (interpreted by the execution layer).
        input: Vec<u8>,
    },
    /// Anchor the Merkle root of an off-chain dataset or code artifact
    /// (Irving–Holden integrity pattern, paper §III-A).
    Anchor {
        /// Merkle root of the off-chain artifact.
        root: Hash256,
        /// Human-readable label, e.g. `"hospital-3/emr/2018-q2"`.
        label: String,
    },
    /// Commit one shard sub-chain's tip onto the coordinator chain
    /// (consensus-level sharding, DESIGN.md §9). Only valid on a
    /// coordinator ledger; the apply-time checks enforce monotonic
    /// heights per shard so a shard cannot silently rewind.
    CrossLink {
        /// The shard whose tip is being committed.
        shard: crate::shard::ShardId,
        /// Height of the shard's tip block.
        height: u64,
        /// Digest of the shard's tip block header.
        tip: Hash256,
    },
    /// Phase one of a cross-shard atomic transfer (DESIGN.md §12):
    /// lock one leg's account on the participant shard named by the
    /// leg. A debit leg escrows the amount at prepare time; a credit
    /// leg only records the pending credit. The lock receipt is the
    /// ordinary transaction receipt committed on that shard's
    /// sub-chain.
    XsPrepare {
        /// Cross-shard transaction id shared by every leg.
        xid: Hash256,
        /// The leg this prepare locks.
        leg: XsLeg,
        /// Chain-time deadline after which the coordinator may
        /// record an abort for `xid` (timeout-abort path).
        deadline_ms: u64,
    },
    /// Coordinator-chain decision for a cross-shard transaction:
    /// commit or abort. Only valid on the coordinator ledger; at most
    /// one decision per `xid` is ever recorded, and participants
    /// resolve interrupted 2PC rounds against it on restart.
    XsDecide {
        /// The cross-shard transaction being decided.
        xid: Hash256,
        /// `true` to commit, `false` to abort.
        commit: bool,
    },
    /// Phase two on a participant shard: apply the coordinator's
    /// decision to the lock held for `account`, paying out a credit
    /// leg / refunding an aborted debit leg, and releasing the lock.
    XsFinalize {
        /// The cross-shard transaction being finalized.
        xid: Hash256,
        /// The locked account this finalize releases.
        account: Address,
        /// The coordinator's decision being applied.
        commit: bool,
    },
}

/// One leg of a cross-shard transfer: which shard it executes on,
/// which account it touches, and whether it debits (escrow at
/// prepare) or credits (pay out at commit-finalize).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsLeg {
    /// The shard this leg must execute on.
    pub shard: crate::shard::ShardId,
    /// The account locked by this leg.
    pub account: Address,
    /// Amount moved by this leg, in base units.
    pub amount: u64,
    /// `true` for the debit (escrow) side, `false` for the credit
    /// side.
    pub debit: bool,
}

impl TxPayload {
    /// Approximate serialized size in bytes, for network accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            TxPayload::Transfer { .. } => 28,
            TxPayload::Deploy { code, init } => 8 + code.len() + init.len(),
            TxPayload::Invoke { input, .. } => 20 + input.len(),
            TxPayload::Anchor { label, .. } => 32 + label.len(),
            TxPayload::CrossLink { .. } => 42,
            TxPayload::XsPrepare { .. } => 71,
            TxPayload::XsDecide { .. } => 33,
            TxPayload::XsFinalize { .. } => 53,
        }
    }
}

/// A signed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sender address.
    pub sender: Address,
    /// Sender's account nonce (replay protection).
    pub nonce: u64,
    /// Requested operation.
    pub payload: TxPayload,
    /// Gas the sender is willing to spend on execution.
    pub gas_limit: u64,
    /// Membership-service signature over [`Transaction::signing_bytes`].
    pub signature: Option<AuthoritySignature>,
}

impl Transaction {
    /// Creates an unsigned transaction.
    pub fn new(sender: Address, nonce: u64, payload: TxPayload, gas_limit: u64) -> Transaction {
        Transaction { sender, nonce, payload, gas_limit, signature: None }
    }

    /// Canonical bytes covered by the signature and the transaction id.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.payload.wire_size());
        out.extend_from_slice(&self.sender.0);
        out.extend_from_slice(&self.nonce.to_le_bytes());
        out.extend_from_slice(&self.gas_limit.to_le_bytes());
        match &self.payload {
            TxPayload::Transfer { to, amount } => {
                out.push(0);
                out.extend_from_slice(&to.0);
                out.extend_from_slice(&amount.to_le_bytes());
            }
            TxPayload::Deploy { code, init } => {
                out.push(1);
                out.extend_from_slice(&(code.len() as u64).to_le_bytes());
                out.extend_from_slice(code);
                out.extend_from_slice(init);
            }
            TxPayload::Invoke { contract, input } => {
                out.push(2);
                out.extend_from_slice(&contract.0);
                out.extend_from_slice(input);
            }
            TxPayload::Anchor { root, label } => {
                out.push(3);
                out.extend_from_slice(&root.0);
                out.extend_from_slice(label.as_bytes());
            }
            TxPayload::CrossLink { shard, height, tip } => {
                out.push(4);
                out.extend_from_slice(&shard.0.to_le_bytes());
                out.extend_from_slice(&height.to_le_bytes());
                out.extend_from_slice(&tip.0);
            }
            TxPayload::XsPrepare { xid, leg, deadline_ms } => {
                out.push(5);
                out.extend_from_slice(&xid.0);
                out.extend_from_slice(&leg.shard.0.to_le_bytes());
                out.extend_from_slice(&leg.account.0);
                out.extend_from_slice(&leg.amount.to_le_bytes());
                out.push(u8::from(leg.debit));
                out.extend_from_slice(&deadline_ms.to_le_bytes());
            }
            TxPayload::XsDecide { xid, commit } => {
                out.push(6);
                out.extend_from_slice(&xid.0);
                out.push(u8::from(*commit));
            }
            TxPayload::XsFinalize { xid, account, commit } => {
                out.push(7);
                out.extend_from_slice(&xid.0);
                out.extend_from_slice(&account.0);
                out.push(u8::from(*commit));
            }
        }
        out
    }

    /// Transaction id: the digest of the signing bytes.
    pub fn id(&self) -> Hash256 {
        Hash256::digest(&self.signing_bytes())
    }

    /// Signs the transaction with `key`, returning it for chaining.
    pub fn signed(mut self, key: &AuthorityKey) -> Transaction {
        self.signature = Some(key.sign(&self.signing_bytes()));
        self
    }

    /// Verifies signature presence, signer match, and MAC validity
    /// against the consortium registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        match &self.signature {
            Some(sig) => sig.signer == self.sender && registry.verify(&self.signing_bytes(), sig),
            None => false,
        }
    }

    /// Exact wire size for network accounting: the canonical encoded
    /// length, which is what a socket transport actually frames.
    pub fn wire_size(&self) -> usize {
        use medchain_runtime::codec::Encode;
        self.encoded().len()
    }
}

/// A transaction in its immutable, shared form: hashed once when it is
/// decoded or first admitted, and carried as one allocation through
/// every pool, proposal, block and ledger of the process (DESIGN.md
/// §10). Cloning bumps a reference count; the fields read through
/// `Deref`; `id` and `wire_size` are the kept values.
#[derive(Debug, Clone)]
pub struct SealedTx(Arc<Sealed>);

#[derive(Debug)]
struct Sealed {
    tx: Transaction,
    id: Hash256,
    wire_size: usize,
    /// Set once [`Transaction::verify`] has accepted these exact bytes.
    verified: AtomicBool,
}

impl SealedTx {
    fn seal(tx: Transaction, wire_size: usize) -> SealedTx {
        let id = tx.id();
        SealedTx(Arc::new(Sealed { tx, id, wire_size, verified: AtomicBool::new(false) }))
    }

    /// The transaction id, as computed when the transaction was sealed.
    pub fn id(&self) -> Hash256 {
        self.0.id
    }

    /// The canonical encoded length, as measured at sealing.
    pub fn wire_size(&self) -> usize {
        self.0.wire_size
    }

    /// [`Transaction::verify`], run at most once per allocation that
    /// passes it. The MAC is a function of bytes that can no longer
    /// change and of the sender's secret, which the sender's address
    /// commits to (an address is the hash of its secret) — so a later
    /// check, against this or any other registry of the process, could
    /// differ only in whether the sender is enrolled, and that is
    /// still looked up every time. A transaction decoded from a peer,
    /// a log or a client is a fresh allocation and is checked in full,
    /// whatever its id.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        if self.0.verified.load(Ordering::Relaxed) {
            return registry.is_enrolled(&self.sender);
        }
        let ok = self.0.tx.verify(registry);
        if ok {
            // A statistic-grade flag: it publishes no other data.
            self.0.verified.store(true, Ordering::Relaxed);
        }
        ok
    }
}

impl From<Transaction> for SealedTx {
    fn from(tx: Transaction) -> SealedTx {
        let wire_size = tx.wire_size();
        SealedTx::seal(tx, wire_size)
    }
}

impl std::ops::Deref for SealedTx {
    type Target = Transaction;
    fn deref(&self) -> &Transaction {
        &self.0.tx
    }
}

impl PartialEq for SealedTx {
    fn eq(&self, other: &SealedTx) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.tx == other.0.tx
    }
}

impl Eq for SealedTx {}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(key: &AuthorityKey) -> KeyRegistry {
        let mut r = KeyRegistry::new();
        r.enroll(key);
        r
    }

    #[test]
    fn sign_and_verify() {
        let key = AuthorityKey::from_seed(1);
        let tx = Transaction::new(
            key.address(),
            0,
            TxPayload::Transfer { to: Address::from_seed(9), amount: 10 },
            1_000,
        )
        .signed(&key);
        assert!(tx.verify(&registry_with(&key)));
    }

    #[test]
    fn unsigned_tx_fails_verification() {
        let key = AuthorityKey::from_seed(1);
        let tx = Transaction::new(
            key.address(),
            0,
            TxPayload::Anchor { root: Hash256::ZERO, label: "x".into() },
            0,
        );
        assert!(!tx.verify(&registry_with(&key)));
    }

    #[test]
    fn signature_does_not_transfer_to_modified_tx() {
        let key = AuthorityKey::from_seed(1);
        let mut tx = Transaction::new(
            key.address(),
            0,
            TxPayload::Transfer { to: Address::from_seed(9), amount: 10 },
            1_000,
        )
        .signed(&key);
        tx.payload = TxPayload::Transfer { to: Address::from_seed(9), amount: 10_000 };
        assert!(!tx.verify(&registry_with(&key)));
    }

    #[test]
    fn sender_spoofing_is_rejected() {
        let key = AuthorityKey::from_seed(1);
        let victim = AuthorityKey::from_seed(2);
        let mut registry = registry_with(&key);
        registry.enroll(&victim);
        let mut tx = Transaction::new(
            key.address(),
            0,
            TxPayload::Transfer { to: Address::from_seed(9), amount: 10 },
            1_000,
        )
        .signed(&key);
        tx.sender = victim.address();
        assert!(!tx.verify(&registry));
    }

    #[test]
    fn id_is_stable_and_payload_sensitive() {
        let key = AuthorityKey::from_seed(1);
        let mk = |amount| {
            Transaction::new(
                key.address(),
                7,
                TxPayload::Transfer { to: Address::from_seed(3), amount },
                500,
            )
        };
        assert_eq!(mk(5).id(), mk(5).id());
        assert_ne!(mk(5).id(), mk(6).id());
    }

    #[test]
    fn cross_shard_payloads_round_trip_and_have_distinct_ids() {
        use crate::shard::ShardId;
        use medchain_runtime::codec::{Decode, Encode};
        let key = AuthorityKey::from_seed(4);
        let leg = XsLeg {
            shard: ShardId(1),
            account: Address::from_seed(7),
            amount: 25,
            debit: true,
        };
        let payloads = [
            TxPayload::XsPrepare { xid: Hash256::digest(b"x"), leg, deadline_ms: 9_000 },
            TxPayload::XsDecide { xid: Hash256::digest(b"x"), commit: true },
            TxPayload::XsDecide { xid: Hash256::digest(b"x"), commit: false },
            TxPayload::XsFinalize {
                xid: Hash256::digest(b"x"),
                account: Address::from_seed(7),
                commit: true,
            },
        ];
        let mut ids = std::collections::BTreeSet::new();
        for payload in payloads {
            let tx = Transaction::new(key.address(), 0, payload.clone(), 100).signed(&key);
            assert!(tx.verify(&registry_with(&key)));
            assert_eq!(TxPayload::decoded(&payload.encoded()).unwrap(), payload);
            ids.insert(tx.id());
        }
        assert_eq!(ids.len(), 4, "each payload shape must hash distinctly");
    }

    #[test]
    fn sealed_keeps_id_and_length_and_verifies_each_allocation_once() {
        use medchain_runtime::codec::{Decode, Encode};
        let key = AuthorityKey::from_seed(1);
        let registry = registry_with(&key);
        let tx = Transaction::new(
            key.address(),
            3,
            TxPayload::Anchor { root: Hash256::digest(b"r"), label: "site/emr".into() },
            1_000,
        )
        .signed(&key);
        let sealed = SealedTx::from(tx.clone());
        assert_eq!((sealed.id(), sealed.wire_size()), (tx.id(), tx.encoded().len()));
        assert_eq!(sealed.encoded(), tx.encoded());
        let decoded = SealedTx::decoded(&tx.encoded()).unwrap();
        assert_eq!((decoded.id(), decoded.wire_size()), (tx.id(), tx.encoded().len()));
        assert_eq!(decoded, sealed);

        let before = crate::sig::registry_verifications();
        assert!(sealed.verify(&registry) && sealed.clone().verify(&registry));
        // Other tests verify concurrently, so only a lower bound holds
        // here; `tests/hash_once.rs` counts exactly.
        assert!(crate::sig::registry_verifications() > before);
        // Enrollment is still looked up on every call...
        assert!(!sealed.verify(&KeyRegistry::new()));
        // ...and a twin with the same id is its own allocation: the
        // original's check never covers it.
        let mut twin = tx.clone();
        twin.signature = None;
        assert_eq!(twin.id(), sealed.id());
        assert!(!SealedTx::from(twin).verify(&registry));
        assert!(decoded.verify(&registry), "fresh bytes are checked, and pass on their own");
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = TxPayload::Invoke { contract: Address::from_seed(0), input: vec![0; 4] };
        let large = TxPayload::Invoke { contract: Address::from_seed(0), input: vec![0; 400] };
        assert!(large.wire_size() > small.wire_size());
    }
}

mod codec_impls {
    use super::{SealedTx, Transaction, TxPayload, XsLeg};
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};
    use medchain_runtime::{impl_codec_enum, impl_codec_struct};

    impl Encode for SealedTx {
        fn encode(&self, out: &mut Vec<u8>) {
            Transaction::encode(self, out);
        }
    }

    impl Decode for SealedTx {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            let before = r.remaining();
            let tx = Transaction::decode(r)?;
            Ok(SealedTx::seal(tx, before - r.remaining()))
        }
    }

    impl_codec_enum!(TxPayload {
        0 => Transfer { to, amount },
        1 => Deploy { code, init },
        2 => Invoke { contract, input },
        3 => Anchor { root, label },
        4 => CrossLink { shard, height, tip },
        5 => XsPrepare { xid, leg, deadline_ms },
        6 => XsDecide { xid, commit },
        7 => XsFinalize { xid, account, commit },
    });
    impl_codec_struct!(XsLeg { shard, account, amount, debit });
    impl_codec_struct!(Transaction { sender, nonce, payload, gas_limit, signature });
}
