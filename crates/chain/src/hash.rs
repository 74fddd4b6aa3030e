//! SHA-256 implemented from scratch (FIPS 180-4), plus the [`Hash256`]
//! digest newtype used throughout the chain.
//!
//! The blockchain substrate needs a collision-resistant hash for block
//! headers, Merkle trees, transaction ids, Lamport signatures and
//! off-chain data anchoring. We implement SHA-256 in-repo rather than
//! pulling a crypto dependency (see DESIGN.md §2).
//!
//! Every block goes through one dispatched compression: the CPU's SHA
//! extensions when it has them (detected once), the portable
//! [`compress_scalar`] otherwise. Both produce the same bytes;
//! [`compress_scalar`] and [`digest_scalar`] are the oracle the
//! differential tests hold the fast path to.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use medchain_chain::hash::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Process-wide count of [`Sha256`] block compressions: a statistic,
/// never a synchronisation point, hence `Relaxed`.
static COMPRESSIONS: AtomicU64 = AtomicU64::new(0);

/// SHA-256 compressions this process has run so far — the unit every
/// id, Merkle node, state-tree node and MAC is paid in.
pub fn sha256_compressions() -> u64 {
    COMPRESSIONS.load(Ordering::Relaxed)
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 { state: H0, len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len += data.len() as u64;
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("chunks_exact yields 64 bytes"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Consumes the hasher, returning the 32-byte digest.
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // spilling into a second block when fewer than 8 bytes are left.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        state_bytes(&self.state)
    }
}

fn state_bytes(state: &[u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Hash256(out)
}

/// The one compression every [`Sha256`] block goes through, counted
/// once whichever path runs it.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    COMPRESSIONS.fetch_add(1, Ordering::Relaxed);
    compress_dispatched(state, block);
}

/// One block on the CPU's SHA extensions if it has them, else on the
/// scalar loop. Uncounted: callers count.
fn compress_dispatched(state: &mut [u32; 8], block: &[u8; 64]) {
    if !compress_accelerated(state, block) {
        compress_scalar(state, block);
    }
}

/// SHA-256 of the 65-byte message `tag ‖ left ‖ right`, the preimage of
/// every sparse-Merkle leaf and internal node. Its two padded blocks are
/// laid out on the stack and compressed directly — no streaming buffer,
/// one counter bump for both — so it equals [`Sha256`] over the same
/// bytes, two compressions counted, at less cost.
pub fn digest_tagged_pair(tag: u8, left: &Hash256, right: &Hash256) -> Hash256 {
    let mut first = [0u8; 64];
    first[0] = tag;
    first[1..33].copy_from_slice(&left.0);
    first[33..].copy_from_slice(&right.0[..31]);
    let mut second = [0u8; 64];
    second[0] = right.0[31];
    second[1] = 0x80;
    second[56..].copy_from_slice(&(65u64 * 8).to_be_bytes());
    COMPRESSIONS.fetch_add(2, Ordering::Relaxed);
    let mut state = H0;
    compress_dispatched(&mut state, &first);
    compress_dispatched(&mut state, &second);
    state_bytes(&state)
}

/// Runs one block on the CPU's SHA extensions and returns `true`, or
/// returns `false` with `state` untouched when this CPU (or
/// architecture) has none. Not counted by [`sha256_compressions`].
pub fn compress_accelerated(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        sha_ni::compress(state, block)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (state, block);
        false
    }
}

/// The portable FIPS 180-4 block function: the fallback on CPUs without
/// SHA extensions and the oracle the accelerated path is tested against.
/// Not counted by [`sha256_compressions`].
pub fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// SHA-256 of `data` by the textbook route: the whole message padded in
/// one buffer, every block through [`compress_scalar`]. The reference
/// [`Sha256`] is tested against; not counted by [`sha256_compressions`].
pub fn digest_scalar(data: &[u8]) -> Hash256 {
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
    let mut state = H0;
    for block in message.chunks_exact(64) {
        compress_scalar(&mut state, block.try_into().expect("padded to whole blocks"));
    }
    state_bytes(&state)
}

/// The SHA-NI block function — the only `unsafe` code in the workspace
/// (`scripts/verify.sh` holds it here). `block_fn` is reachable only
/// through `compress`, after runtime detection has confirmed every
/// feature it is compiled for.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::OnceLock;

    /// Whether this CPU runs `block_fn`: probed on first use, then read.
    fn detected() -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("sse4.1")
                && is_x86_feature_detected!("ssse3")
        })
    }

    /// Compresses `block` into `state` if the CPU has SHA-NI.
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` has just confirmed at run time that the
        // CPU supports `sha`, `sse4.1` and `ssse3` (and `sse2` is part of
        // the x86_64 baseline) — every feature `block_fn` enables.
        unsafe { block_fn(state, block) };
        true
    }

    /// Four rounds: `w` is the next four schedule words, `k` their
    /// round constants.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, k: __m128i) {
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let w7 = _mm_alignr_epi8(w3, w2, 4);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w3)
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn block_fn(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let state_at = state.as_mut_ptr().cast::<__m128i>();
        let block_at = block.as_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 bytes and `block` 64, so lanes 0..2 and
        // 0..4 are in bounds; `_mm_loadu_si128` needs no alignment.
        let (dcba, hgfe, mut w0, mut w1, mut w2, mut w3) = unsafe {
            (
                _mm_loadu_si128(state_at),
                _mm_loadu_si128(state_at.add(1)),
                _mm_shuffle_epi8(_mm_loadu_si128(block_at), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(block_at.add(1)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(block_at.add(2)), be_words),
                _mm_shuffle_epi8(_mm_loadu_si128(block_at.add(3)), be_words),
            )
        };
        // Round constants 4i..4i + 4, lowest lane first.
        let k = |i: usize| {
            let [k0, k1, k2, k3] = [K[4 * i], K[4 * i + 1], K[4 * i + 2], K[4 * i + 3]];
            _mm_set_epi32(k3 as i32, k2 as i32, k1 as i32, k0 as i32)
        };

        // The rounds instruction wants the state as (A,B,E,F), (C,D,G,H).
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        rounds4(&mut abef, &mut cdgh, w0, k(0));
        rounds4(&mut abef, &mut cdgh, w1, k(1));
        rounds4(&mut abef, &mut cdgh, w2, k(2));
        rounds4(&mut abef, &mut cdgh, w3, k(3));
        for i in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, k(i));
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, k(i + 1));
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, k(i + 2));
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, k(i + 3));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        // SAFETY: as for the loads — two 16-byte lanes of the 32-byte
        // `state`; `_mm_storeu_si128` needs no alignment.
        unsafe {
            _mm_storeu_si128(state_at, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(state_at.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// A 256-bit digest.
///
/// # Examples
///
/// ```
/// use medchain_chain::hash::Hash256;
///
/// let a = Hash256::digest(b"patient record");
/// let b = Hash256::digest(b"patient record");
/// assert_eq!(a, b);
/// assert_ne!(a, Hash256::digest(b"tampered record"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the parent of the genesis block.
    pub const ZERO: Hash256 = Hash256([0; 32]);

    /// Hashes `data` in one shot.
    pub fn digest(data: &[u8]) -> Hash256 {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of two digests (Merkle interior nodes).
    pub fn combine(left: &Hash256, right: &Hash256) -> Hash256 {
        let mut h = Sha256::new();
        h.update(&left.0);
        h.update(&right.0);
        h.finalize()
    }

    /// Returns the digest as a lowercase hex string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseHashError`] if the string is not exactly 64 hex digits.
    pub fn from_hex(s: &str) -> Result<Hash256, ParseHashError> {
        if s.len() != 64 {
            return Err(ParseHashError);
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = hex_val(chunk[0]).ok_or(ParseHashError)?;
            let lo = hex_val(chunk[1]).ok_or(ParseHashError)?;
            out[i] = (hi << 4) | lo;
        }
        Ok(Hash256(out))
    }

    /// Number of leading zero bits — the proof-of-work difficulty measure.
    pub fn leading_zero_bits(&self) -> u32 {
        let mut bits = 0;
        for b in &self.0 {
            if *b == 0 {
                bits += 8;
            } else {
                bits += b.leading_zeros();
                break;
            }
        }
        bits
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

/// Error returned when parsing a hex digest fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseHashError;

impl fmt::Display for ParseHashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid 256-bit hash hex syntax")
    }
}

impl std::error::Error for ParseHashError {}

/// HMAC-SHA256 (RFC 2104), used by authority signatures and key derivation.
///
/// # Examples
///
/// ```
/// use medchain_chain::hash::hmac_sha256;
///
/// let tag = hmac_sha256(b"node-secret", b"message");
/// assert_eq!(tag, hmac_sha256(b"node-secret", b"message"));
/// assert_ne!(tag, hmac_sha256(b"other-secret", b"message"));
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Hash256 {
    let (ipad, opad) = hmac_pads(key);
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest.0);
    outer.finalize()
}

/// The RFC 2104 inner and outer pad blocks of `key`.
fn hmac_pads(key: &[u8]) -> ([u8; 64], [u8; 64]) {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&Hash256::digest(key).0);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    (ipad, opad)
}

/// A key for [`hmac_sha256`] with its pad blocks already absorbed: the
/// hasher states after the ipad and after the opad block. Every MAC
/// then skips those two compressions — a 32-byte message costs 2, not 4.
///
/// # Examples
///
/// ```
/// use medchain_chain::hash::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"node-secret");
/// assert_eq!(key.mac(b"message"), hmac_sha256(b"node-secret", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorbs `key`'s two pad blocks.
    pub fn new(key: &[u8]) -> HmacKey {
        let (ipad, opad) = hmac_pads(key);
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// `hmac_sha256(key, message)`, byte for byte.
    pub fn mac(&self, message: &[u8]) -> Hash256 {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize().0);
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    // The midstates are as good as the key: never print them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::check::{check, CheckConfig};
    use medchain_runtime::{ensure, ensure_eq};

    #[test]
    fn hex_round_trip() {
        let h = Hash256::digest(b"round trip");
        assert_eq!(Hash256::from_hex(&h.to_hex()).unwrap(), h);
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert!(Hash256::from_hex("zz").is_err());
        assert!(Hash256::from_hex(&"g".repeat(64)).is_err());
        assert!(Hash256::from_hex(&"a".repeat(63)).is_err());
    }

    #[test]
    fn leading_zero_bits_counts_correctly() {
        assert_eq!(Hash256::ZERO.leading_zero_bits(), 256);
        let mut one = [0u8; 32];
        one[0] = 0x01;
        assert_eq!(Hash256(one).leading_zero_bits(), 7);
        let mut half = [0u8; 32];
        half[1] = 0x80;
        assert_eq!(Hash256(half).leading_zero_bits(), 8);
    }

    // Differential tests: the dispatched hasher (SHA-NI where the CPU has
    // it) against the scalar oracle. `tests/sha256_paths.rs` carries a
    // tier-1 copy.

    #[test]
    fn scalar_and_accelerated_compress_agree() {
        let mut state = [0u32; 8];
        if !compress_accelerated(&mut state, &[0; 64]) {
            eprintln!("no SHA extensions on this CPU: the scalar path is the only path");
            return;
        }
        check("sha-ni compress equals scalar", CheckConfig::cases(256), |g| {
            let state: [u32; 8] = std::array::from_fn(|_| g.u64() as u32);
            let block: [u8; 64] = g.byte_array();
            let (mut fast, mut slow) = (state, state);
            ensure!(compress_accelerated(&mut fast, &block));
            compress_scalar(&mut slow, &block);
            ensure_eq!(fast, slow);
            Ok(())
        });
    }

    #[test]
    fn hasher_equals_scalar_oracle_across_padding_edges() {
        check("sha256 equals the scalar oracle", CheckConfig::cases(8), |g| {
            // 0..=300 crosses every padding edge (55/56, 63/64, 119/120).
            for len in 0..=300 {
                let data = g.bytes(len, len + 1);
                let mut hasher = Sha256::new();
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(g.usize_in(0, rest.len() + 1));
                    hasher.update(chunk);
                    rest = tail;
                }
                ensure!(hasher.finalize() == digest_scalar(&data), "length {len}");
            }
            Ok(())
        });
    }

    #[test]
    fn cached_midstate_mac_equals_hmac() {
        check("HmacKey::mac equals hmac_sha256", CheckConfig::cases(4), |g| {
            for key_len in 0..=100 {
                let key = g.bytes(key_len, key_len + 1);
                let message = g.bytes(0, 200);
                ensure!(
                    HmacKey::new(&key).mac(&message) == hmac_sha256(&key, &message),
                    "key length {key_len}"
                );
            }
            Ok(())
        });
    }

    /// `hmac_sha256` with every block through the scalar oracle.
    fn hmac_scalar(key: &[u8], message: &[u8]) -> Hash256 {
        let (ipad, opad) = hmac_pads(key);
        let inner = digest_scalar(&[&ipad[..], message].concat());
        digest_scalar(&[&opad[..], &inner.0].concat())
    }

    #[test]
    fn published_vectors_hold_on_both_paths() {
        let million_a = vec![b'a'; 1_000_000];
        let digests: &[(&[u8], &str)] = &[
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (&million_a, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
        ];
        for (input, expected) in digests {
            assert_eq!(Hash256::digest(input).to_hex(), *expected);
            assert_eq!(digest_scalar(input).to_hex(), *expected);
        }
        // RFC 4231 §4 test cases 1–4, 6 and 7 (5 truncates its output).
        let long_key = [0xaa; 131];
        let key_4: Vec<u8> = (1..=25).collect();
        let macs: &[(&[u8], &[u8], &str)] = &[
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &key_4,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &long_key,
                b"This is a test using a larger than block-size key and a larger than \
                  block-size data. The key needs to be hashed before being used by the \
                  HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (key, message, expected) in macs {
            assert_eq!(hmac_sha256(key, message).to_hex(), *expected);
            assert_eq!(HmacKey::new(key).mac(message).to_hex(), *expected);
            assert_eq!(hmac_scalar(key, message).to_hex(), *expected);
        }
    }
}

mod codec_impls {
    use super::Hash256;
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};

    impl Encode for Hash256 {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
    }

    impl Decode for Hash256 {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Hash256(<[u8; 32]>::decode(r)?))
        }
    }
}
