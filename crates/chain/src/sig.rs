//! Signatures for the permissioned medical blockchain.
//!
//! [`AuthorityKey`] signs with an HMAC verified against a shared
//! consortium [`KeyRegistry`]. This models the membership-service model
//! of permissioned chains (Hyperledger Fabric MSP): every consortium
//! member is enrolled, and verification is a registry lookup plus a MAC
//! check. Cheap enough to sign every transaction and block.

use crate::hash::{Hash256, HmacKey};
use medchain_runtime::DetRng;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of a participant (hospital, provider, patient, FDA node).
///
/// Addresses are derived from key material by hashing, as in account-model
/// blockchains.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Derives an address from arbitrary public key material.
    pub fn from_key_material(material: &[u8]) -> Address {
        let digest = Hash256::digest(material);
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.0[..20]);
        Address(out)
    }

    /// Deterministic address for tests and simulations.
    pub fn from_seed(seed: u64) -> Address {
        Self::from_key_material(&seed.to_le_bytes())
    }

    /// Hex rendering of the address.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({}..)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Enrolled authority key for consortium members.
///
/// Signing is `HMAC(secret, message)`; verification checks the MAC against
/// the secret held in the consortium [`KeyRegistry`] (the membership
/// service). This mirrors how permissioned deployments centralize identity
/// in an enrollment CA while keeping per-message costs trivial. Both sides
/// keep the secret as an [`HmacKey`], its pad blocks already absorbed.
#[derive(Clone)]
pub struct AuthorityKey {
    address: Address,
    mac_key: HmacKey,
}

impl fmt::Debug for AuthorityKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AuthorityKey({:?})", self.address)
    }
}

/// MAC-based signature produced by an [`AuthorityKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthoritySignature {
    /// Signer address (registry lookup key).
    pub signer: Address,
    /// The MAC tag.
    pub tag: Hash256,
}

impl AuthorityKey {
    /// Generates a key from `rng`.
    pub fn generate(rng: &mut DetRng) -> AuthorityKey {
        let mut secret = [0u8; 32];
        rng.fill_bytes(&mut secret);
        AuthorityKey::from_secret(&secret)
    }

    /// Deterministic key for tests and simulations.
    pub fn from_seed(seed: u64) -> AuthorityKey {
        AuthorityKey::from_secret(&Hash256::digest(&seed.to_le_bytes()).0)
    }

    fn from_secret(secret: &[u8; 32]) -> AuthorityKey {
        AuthorityKey { address: Address::from_key_material(secret), mac_key: HmacKey::new(secret) }
    }

    /// The address of this key.
    pub fn address(&self) -> Address {
        self.address
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> AuthoritySignature {
        AuthoritySignature { signer: self.address, tag: self.mac_key.mac(message) }
    }
}

/// Process-wide count of [`KeyRegistry::verify`] calls (a statistic,
/// hence `Relaxed`).
static VERIFICATIONS: AtomicU64 = AtomicU64::new(0);

/// Signature checks every registry in this process has run so far —
/// transactions, proposals, votes and seals alike.
pub fn registry_verifications() -> u64 {
    VERIFICATIONS.load(Ordering::Relaxed)
}

/// Consortium membership service: maps enrolled addresses to key material
/// so any node can verify any member's signature.
#[derive(Debug, Default, Clone)]
pub struct KeyRegistry {
    keys: HashMap<Address, HmacKey>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> KeyRegistry {
        KeyRegistry::default()
    }

    /// Enrolls a member key.
    pub fn enroll(&mut self, key: &AuthorityKey) {
        self.keys.insert(key.address, key.mac_key.clone());
    }

    /// Whether `address` is an enrolled member.
    pub fn is_enrolled(&self, address: &Address) -> bool {
        self.keys.contains_key(address)
    }

    /// Number of enrolled members.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the registry has no members.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verifies `sig` over `message` against the enrolled key material.
    pub fn verify(&self, message: &[u8], sig: &AuthoritySignature) -> bool {
        VERIFICATIONS.fetch_add(1, Ordering::Relaxed);
        match self.keys.get(&sig.signer) {
            Some(mac_key) => mac_key.mac(message) == sig.tag,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authority_sign_verify_via_registry() {
        let mut rng = DetRng::from_seed(10);
        let key = AuthorityKey::generate(&mut rng);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let sig = key.sign(b"block 42");
        assert!(registry.verify(b"block 42", &sig));
        assert!(!registry.verify(b"block 43", &sig));
    }

    #[test]
    fn registry_rejects_unenrolled_signer() {
        let mut rng = DetRng::from_seed(11);
        let key = AuthorityKey::generate(&mut rng);
        let registry = KeyRegistry::new();
        assert!(!registry.verify(b"m", &key.sign(b"m")));
    }

    #[test]
    fn registry_rejects_forged_tag() {
        let key = AuthorityKey::from_seed(1);
        let other = AuthorityKey::from_seed(2);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        registry.enroll(&other);
        // `other` tries to pass its MAC off as `key`'s.
        let mut sig = other.sign(b"m");
        sig.signer = key.address();
        assert!(!registry.verify(b"m", &sig));
    }

    #[test]
    fn seeded_keys_are_deterministic() {
        assert_eq!(AuthorityKey::from_seed(5).address(), AuthorityKey::from_seed(5).address());
        assert_ne!(AuthorityKey::from_seed(5).address(), AuthorityKey::from_seed(6).address());
        assert_eq!(Address::from_seed(3), Address::from_seed(3));
    }
}

mod codec_impls {
    use super::{Address, AuthoritySignature};
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};
    use medchain_runtime::impl_codec_struct;

    impl Encode for Address {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
    }

    impl Decode for Address {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Address(<[u8; 20]>::decode(r)?))
        }
    }

    impl_codec_struct!(AuthoritySignature { signer, tag });
}
