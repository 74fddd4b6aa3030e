//! Cryptography for health-information exchange.
//!
//! * [`ChaCha20`] — the RFC 8439 stream cipher, implemented from scratch
//!   and checked against the RFC test vectors. Used to encrypt record
//!   payloads so "the system will return the encrypted data which only
//!   the requesting user can decrypt" (paper §IV).
//! * [`DhKeypair`] — Diffie–Hellman key agreement over the Mersenne
//!   prime 2⁶¹−1. **Simulation-grade**: the group is far too small for
//!   real confidentiality and stands in for X25519, which the allowed
//!   dependency set does not provide (see DESIGN.md §2). The protocol
//!   shape (exchange public keys on-chain, derive a session key, encrypt
//!   off-chain) is exactly what a production deployment would do.

use medchain_chain::hash::{hmac_sha256, Hash256};

/// The ChaCha20 stream cipher (RFC 8439).
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

impl ChaCha20 {
    /// Creates a cipher from a 256-bit key and 96-bit nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> ChaCha20 {
        let mut key_words = [0u32; 8];
        for (i, chunk) in key.chunks(4).enumerate() {
            key_words[i] = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        }
        let mut nonce_words = [0u32; 3];
        for (i, chunk) in nonce.chunks(4).enumerate() {
            nonce_words[i] = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        }
        ChaCha20 { key: key_words, nonce: nonce_words }
    }

    fn block(&self, counter: u32) -> [u8; 64] {
        const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter(&mut working, 0, 4, 8, 12);
            quarter(&mut working, 1, 5, 9, 13);
            quarter(&mut working, 2, 6, 10, 14);
            quarter(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter(&mut working, 0, 5, 10, 15);
            quarter(&mut working, 1, 6, 11, 12);
            quarter(&mut working, 2, 7, 8, 13);
            quarter(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Encrypts or decrypts `data` in place (XOR stream, starting at
    /// block counter 1 per RFC 8439 §2.4).
    pub fn apply(&self, data: &mut [u8]) {
        for (block_index, chunk) in data.chunks_mut(64).enumerate() {
            let keystream = self.block(block_index as u32 + 1);
            for (byte, k) in chunk.iter_mut().zip(&keystream) {
                *byte ^= k;
            }
        }
    }

    /// Convenience: encrypt a copy.
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.apply(&mut out);
        out
    }

    /// Convenience: decrypt a copy (same as encrypt for a stream cipher).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Vec<u8> {
        self.encrypt(ciphertext)
    }
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The Mersenne prime 2⁶¹ − 1 used as the simulation DH modulus.
const DH_PRIME: u64 = (1 << 61) - 1;
/// Generator of a large subgroup mod [`DH_PRIME`].
const DH_GENERATOR: u64 = 5;

fn mul_mod(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % DH_PRIME as u128) as u64
}

fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= DH_PRIME;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// A Diffie–Hellman keypair (simulation-grade; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhKeypair {
    secret: u64,
    /// The public value `g^secret mod p`, safe to publish on-chain.
    pub public: u64,
}

impl DhKeypair {
    /// Derives a keypair deterministically from seed material.
    pub fn from_seed(seed: &[u8]) -> DhKeypair {
        let digest = Hash256::digest(seed);
        let secret =
            u64::from_le_bytes(digest.0[..8].try_into().expect("8 bytes")) % (DH_PRIME - 2) + 1;
        DhKeypair { secret, public: pow_mod(DH_GENERATOR, secret) }
    }

    /// Computes the shared session key with a peer's public value:
    /// `HKDF-like(HMAC(context, g^(ab)))` → 32 bytes.
    pub fn session_key(&self, peer_public: u64, context: &[u8]) -> [u8; 32] {
        let shared = pow_mod(peer_public, self.secret);
        hmac_sha256(context, &shared.to_le_bytes()).0
    }
}

/// Derives a 96-bit nonce from an exchange identifier.
pub fn nonce_from(exchange_id: u64, sequence: u32) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&exchange_id.to_le_bytes());
    nonce[8..].copy_from_slice(&sequence.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.4.2 test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<u8>>().try_into().unwrap();
        let nonce: [u8; 12] =
            [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let cipher = ChaCha20::new(&key, &nonce);
        let ciphertext = cipher.encrypt(plaintext);
        let expected_start = [0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80];
        assert_eq!(&ciphertext[..8], &expected_start);
        let expected_end = [0x87, 0x4d];
        assert_eq!(&ciphertext[ciphertext.len() - 2..], &expected_end);
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let cipher = ChaCha20::new(&key, &nonce);
        let plaintext = b"patient 42: systolic 180, stroke risk HIGH".to_vec();
        let ciphertext = cipher.encrypt(&plaintext);
        assert_ne!(ciphertext, plaintext);
        assert_eq!(cipher.decrypt(&ciphertext), plaintext);
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let key = [9u8; 32];
        let a = ChaCha20::new(&key, &nonce_from(1, 0)).encrypt(b"same plaintext");
        let b = ChaCha20::new(&key, &nonce_from(2, 0)).encrypt(b"same plaintext");
        assert_ne!(a, b);
    }

    #[test]
    fn multi_block_messages_work() {
        let cipher = ChaCha20::new(&[1u8; 32], &[2u8; 12]);
        let plaintext = vec![0xabu8; 1000];
        assert_eq!(cipher.decrypt(&cipher.encrypt(&plaintext)), plaintext);
    }

    #[test]
    fn dh_agreement_matches() {
        let alice = DhKeypair::from_seed(b"hospital-a secret");
        let bob = DhKeypair::from_seed(b"hospital-b secret");
        let ka = alice.session_key(bob.public, b"exchange-7");
        let kb = bob.session_key(alice.public, b"exchange-7");
        assert_eq!(ka, kb);
        // Context separation.
        assert_ne!(ka, alice.session_key(bob.public, b"exchange-8"));
    }

    #[test]
    fn eavesdropper_with_wrong_secret_gets_wrong_key() {
        let alice = DhKeypair::from_seed(b"a");
        let bob = DhKeypair::from_seed(b"b");
        let eve = DhKeypair::from_seed(b"e");
        assert_ne!(
            eve.session_key(bob.public, b"ctx"),
            alice.session_key(bob.public, b"ctx")
        );
    }

    #[test]
    fn pow_mod_sanity() {
        assert_eq!(pow_mod(2, 10), 1024);
        assert_eq!(pow_mod(DH_GENERATOR, 0), 1);
        // Fermat: g^(p-1) ≡ 1 mod p.
        assert_eq!(pow_mod(DH_GENERATOR, DH_PRIME - 1), 1);
    }
}
