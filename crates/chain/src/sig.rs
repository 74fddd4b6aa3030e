//! Signature schemes for the permissioned medical blockchain.
//!
//! Two schemes are provided:
//!
//! * [`LamportKeypair`] — hash-based one-time signatures (Lamport 1979).
//!   Used where a node signs a single high-value artifact, e.g. a dataset
//!   registration anchor. Security reduces to preimage resistance of
//!   SHA-256, so no external crypto dependency is needed.
//! * [`AuthorityKey`] — HMAC-based signatures verified against a shared
//!   consortium [`KeyRegistry`]. This models the membership-service model
//!   of permissioned chains (Hyperledger Fabric MSP): every consortium
//!   member is enrolled, and verification is a registry lookup plus a MAC
//!   check. Cheap enough to sign every transaction and block.

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

/// A Lamport one-time signing key: 256 pairs of 32-byte secrets.
pub struct LamportKeypair {
    secret: Box<[[[u8; 32]; 2]; 256]>,
    public: LamportPublicKey,
    used: bool,
}

impl fmt::Debug for LamportKeypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LamportKeypair")
            .field("address", &self.public.address())
            .field("used", &self.used)
            .finish()
    }
}

/// The public half of a Lamport keypair: hashes of all 512 secrets.
#[derive(Clone, PartialEq, Eq)]
pub struct LamportPublicKey(Box<[[Hash256; 2]; 256]>);

impl fmt::Debug for LamportPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LamportPublicKey({:?})", self.address())
    }
}

/// A Lamport signature: one revealed secret per message bit.
#[derive(Clone, PartialEq, Eq)]
pub struct LamportSignature(Box<[[u8; 32]; 256]>);

impl fmt::Debug for LamportSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LamportSignature(..)")
    }
}

impl LamportKeypair {
    /// Generates a fresh one-time keypair from `rng`.
    pub fn generate(rng: &mut DetRng) -> LamportKeypair {
        let mut secret = Box::new([[[0u8; 32]; 2]; 256]);
        let mut public = Box::new([[Hash256::ZERO; 2]; 256]);
        for i in 0..256 {
            for j in 0..2 {
                rng.fill_bytes(&mut secret[i][j]);
                public[i][j] = Hash256::digest(&secret[i][j]);
            }
        }
        LamportKeypair { secret, public: LamportPublicKey(public), used: false }
    }

    /// Returns the public key.
    pub fn public(&self) -> &LamportPublicKey {
        &self.public
    }

    /// Whether [`LamportKeypair::sign`] has already been called.
    pub fn is_used(&self) -> bool {
        self.used
    }

    /// Signs the SHA-256 digest of `message`.
    ///
    /// # Errors
    ///
    /// Returns [`SignError::KeyAlreadyUsed`] on a second signing attempt —
    /// reusing a Lamport key leaks secret material.
    pub fn sign(&mut self, message: &[u8]) -> Result<LamportSignature, SignError> {
        if self.used {
            return Err(SignError::KeyAlreadyUsed);
        }
        self.used = true;
        let digest = Hash256::digest(message);
        let mut sig = Box::new([[0u8; 32]; 256]);
        for i in 0..256 {
            let bit = (digest.0[i / 8] >> (7 - i % 8)) & 1;
            sig[i] = self.secret[i][bit as usize];
        }
        Ok(LamportSignature(sig))
    }
}

impl LamportPublicKey {
    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &LamportSignature) -> bool {
        let digest = Hash256::digest(message);
        for i in 0..256 {
            let bit = (digest.0[i / 8] >> (7 - i % 8)) & 1;
            if Hash256::digest(&sig.0[i]) != self.0[i][bit as usize] {
                return false;
            }
        }
        true
    }

    /// The address bound to this key.
    pub fn address(&self) -> Address {
        let mut material = Vec::with_capacity(256 * 2 * 32);
        for pair in self.0.iter() {
            material.extend_from_slice(&pair[0].0);
            material.extend_from_slice(&pair[1].0);
        }
        Address::from_key_material(&material)
    }
}

/// Error returned by signing operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignError {
    /// A one-time key was asked to sign twice.
    KeyAlreadyUsed,
}

impl fmt::Display for SignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignError::KeyAlreadyUsed => f.write_str("one-time signing key already used"),
        }
    }
}

impl std::error::Error for SignError {}

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
    fn lamport_sign_verify() {
        let mut rng = DetRng::from_seed(7);
        let mut kp = LamportKeypair::generate(&mut rng);
        let public = kp.public().clone();
        let sig = kp.sign(b"anchor: dataset v1").unwrap();
        assert!(public.verify(b"anchor: dataset v1", &sig));
        assert!(!public.verify(b"anchor: dataset v2", &sig));
    }

    #[test]
    fn lamport_key_is_one_time() {
        let mut rng = DetRng::from_seed(8);
        let mut kp = LamportKeypair::generate(&mut rng);
        kp.sign(b"first").unwrap();
        assert_eq!(kp.sign(b"second"), Err(SignError::KeyAlreadyUsed));
    }

    #[test]
    fn lamport_rejects_bit_flip() {
        let mut rng = DetRng::from_seed(9);
        let mut kp = LamportKeypair::generate(&mut rng);
        let public = kp.public().clone();
        let mut sig = kp.sign(b"msg").unwrap();
        sig.0[17][3] ^= 0x40;
        assert!(!public.verify(b"msg", &sig));
    }

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
