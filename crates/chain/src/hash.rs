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
//!
//! The same file holds [`crc32`], the record checksum of every storage
//! format, on the same plan: a carry-less-multiply kernel when the CPU
//! has `pclmulqdq` (detected once), the portable [`crc32_scalar`]
//! otherwise and as its oracle.

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

/// Two independent blocks into two states, side by side on the CPU's SHA
/// extensions if it has them, else one after the other on the scalar
/// loop. Uncounted: callers count.
fn compress_pair_dispatched(
    a: &mut [u32; 8],
    block_a: &[u8; 64],
    b: &mut [u32; 8],
    block_b: &[u8; 64],
) {
    if !compress_accelerated_pair(a, block_a, b, block_b) {
        compress_scalar(a, block_a);
        compress_scalar(b, block_b);
    }
}

/// The two padded blocks of the 65-byte message `tag ‖ left ‖ right`.
fn tagged_pair_blocks(tag: u8, left: &Hash256, right: &Hash256) -> [[u8; 64]; 2] {
    let mut blocks = [[0u8; 64]; 2];
    blocks[0][0] = tag;
    blocks[0][1..33].copy_from_slice(&left.0);
    blocks[0][33..].copy_from_slice(&right.0[..31]);
    blocks[1][0] = right.0[31];
    blocks[1][1] = 0x80;
    blocks[1][56..].copy_from_slice(&(65u64 * 8).to_be_bytes());
    blocks
}

/// SHA-256 of the 65-byte message `tag ‖ left ‖ right`, the preimage of
/// every sparse-Merkle leaf and internal node. Its two padded blocks are
/// laid out on the stack and compressed directly — no streaming buffer,
/// one counter bump for both — so it equals [`Sha256`] over the same
/// bytes, two compressions counted, at less cost.
pub fn digest_tagged_pair(tag: u8, left: &Hash256, right: &Hash256) -> Hash256 {
    let [first, second] = tagged_pair_blocks(tag, left, right);
    COMPRESSIONS.fetch_add(2, Ordering::Relaxed);
    let mut state = H0;
    compress_dispatched(&mut state, &first);
    compress_dispatched(&mut state, &second);
    state_bytes(&state)
}

/// Two [`digest_tagged_pair`]s at once, each `(tag, left, right)`: the
/// two messages' blocks run side by side, four compressions counted.
pub fn digest_tagged_pairs(pairs: [(u8, &Hash256, &Hash256); 2]) -> [Hash256; 2] {
    let [(tag_a, left_a, right_a), (tag_b, left_b, right_b)] = pairs;
    let [a0, a1] = tagged_pair_blocks(tag_a, left_a, right_a);
    let [b0, b1] = tagged_pair_blocks(tag_b, left_b, right_b);
    COMPRESSIONS.fetch_add(4, Ordering::Relaxed);
    let (mut a, mut b) = (H0, H0);
    compress_pair_dispatched(&mut a, &a0, &mut b, &b0);
    compress_pair_dispatched(&mut a, &a1, &mut b, &b1);
    [state_bytes(&a), state_bytes(&b)]
}

/// A message cut into padded SHA-256 blocks without copying it: whole
/// blocks are read in place, and the padded tail (one block, or two when
/// fewer than 8 bytes are left for the length) sits on the stack.
struct Padded<'a> {
    whole: &'a [u8],
    tail: [u8; 128],
    tail_blocks: usize,
}

impl<'a> Padded<'a> {
    fn new(message: &'a [u8]) -> Padded<'a> {
        let (whole, rest) = message.split_at(message.len() - message.len() % 64);
        let mut tail = [0u8; 128];
        tail[..rest.len()].copy_from_slice(rest);
        tail[rest.len()] = 0x80;
        let tail_blocks = if rest.len() < 56 { 1 } else { 2 };
        let end = tail_blocks * 64;
        tail[end - 8..end].copy_from_slice(&(message.len() as u64).wrapping_mul(8).to_be_bytes());
        Padded { whole, tail, tail_blocks }
    }

    fn blocks(&self) -> usize {
        self.whole.len() / 64 + self.tail_blocks
    }

    fn block(&self, i: usize) -> &[u8; 64] {
        let (bytes, at) = match i.checked_sub(self.whole.len() / 64) {
            None => (self.whole, i * 64),
            Some(t) => (&self.tail[..], t * 64),
        };
        bytes[at..at + 64].try_into().expect("a 64-byte block")
    }
}

/// SHA-256 of two independent messages, equal to two [`Hash256::digest`]
/// calls and counted as theirs: while both have a block left the two run
/// side by side, then the longer one finishes alone.
pub fn digest_two(a: &[u8], b: &[u8]) -> [Hash256; 2] {
    let (a, b) = (Padded::new(a), Padded::new(b));
    COMPRESSIONS.fetch_add((a.blocks() + b.blocks()) as u64, Ordering::Relaxed);
    let (mut state_a, mut state_b) = (H0, H0);
    let both = a.blocks().min(b.blocks());
    for i in 0..both {
        compress_pair_dispatched(&mut state_a, a.block(i), &mut state_b, b.block(i));
    }
    for i in both..a.blocks() {
        compress_dispatched(&mut state_a, a.block(i));
    }
    for i in both..b.blocks() {
        compress_dispatched(&mut state_b, b.block(i));
    }
    [state_bytes(&state_a), state_bytes(&state_b)]
}

/// Runs one block on the CPU's SHA extensions and returns `true`, or
/// returns `false` with `state` untouched when this CPU (or
/// architecture) has none. Not counted by [`sha256_compressions`].
pub fn compress_accelerated(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        sha_ni::compress([state], [block])
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (state, block);
        false
    }
}

/// [`compress_accelerated`] on two independent blocks at once, their
/// rounds interleaved: `block_a` into `a` and `block_b` into `b`, or
/// `false` with both states untouched. Not counted by
/// [`sha256_compressions`].
pub fn compress_accelerated_pair(
    a: &mut [u32; 8],
    block_a: &[u8; 64],
    b: &mut [u32; 8],
    block_b: &[u8; 64],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        sha_ni::compress([a, b], [block_a, block_b])
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, block_a, b, block_b);
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

/// The SHA-NI block function — with [`clmul`], the only `unsafe` code in
/// the program (`scripts/verify.sh` holds it here). `block_fn` is
/// reachable only through `compress`, after runtime detection has
/// confirmed every feature it is compiled for.
///
/// It runs one block per lane, for one lane or two. Each round depends
/// on the one before, so a lone block leaves the SHA unit waiting out
/// every instruction's latency; two independent blocks interleaved fill
/// those waits with the other's rounds.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
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

    /// Compresses `blocks[i]` into `states[i]`, for every lane `i`, if
    /// the CPU has SHA-NI.
    pub(super) fn compress<const N: usize>(
        states: [&mut [u32; 8]; N],
        blocks: [&[u8; 64]; N],
    ) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` has just confirmed at run time that the
        // CPU supports `sha`, `sse4.1` and `ssse3` (and `sse2` is part of
        // the x86_64 baseline) — every feature `block_fn` enables.
        unsafe { block_fn(states, blocks) };
        true
    }

    /// Four rounds on every lane: `w` is each lane's next four schedule
    /// words, `k` their round constants.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4<const N: usize>(
        abef: &mut [__m128i; N],
        cdgh: &mut [__m128i; N],
        w: &[__m128i; N],
        k: __m128i,
    ) {
        for lane in 0..N {
            let wk = _mm_add_epi32(w[lane], k);
            cdgh[lane] = _mm_sha256rnds2_epu32(cdgh[lane], abef[lane], wk);
            abef[lane] = _mm_sha256rnds2_epu32(abef[lane], cdgh[lane], _mm_shuffle_epi32(wk, 0x0E));
        }
    }

    /// Replaces every lane's `w0` with its next four schedule words,
    /// computed from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule<const N: usize>(
        w0: &mut [__m128i; N],
        w1: &[__m128i; N],
        w2: &[__m128i; N],
        w3: &[__m128i; N],
    ) {
        for lane in 0..N {
            let sigma0 = _mm_sha256msg1_epu32(w0[lane], w1[lane]);
            let w7 = _mm_alignr_epi8(w3[lane], w2[lane], 4);
            w0[lane] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w3[lane]);
        }
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn block_fn<const N: usize>(states: [&mut [u32; 8]; N], blocks: [&[u8; 64]; N]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let zero = _mm_setzero_si128();
        let (mut abef, mut cdgh) = ([zero; N], [zero; N]);
        let mut w = [[zero; N]; 4];
        for lane in 0..N {
            let state_at = states[lane].as_ptr().cast::<__m128i>();
            let block_at = blocks[lane].as_ptr().cast::<__m128i>();
            // SAFETY: a state is 32 bytes and a block 64, so 16-byte
            // lanes 0..2 and 0..4 are in bounds; `_mm_loadu_si128` needs
            // no alignment.
            let (dcba, hgfe, words) = unsafe {
                (
                    _mm_loadu_si128(state_at),
                    _mm_loadu_si128(state_at.add(1)),
                    [0, 1, 2, 3].map(|i| _mm_loadu_si128(block_at.add(i))),
                )
            };
            for (i, word) in words.into_iter().enumerate() {
                w[i][lane] = _mm_shuffle_epi8(word, be_words);
            }
            // The rounds instruction wants the state as (A,B,E,F), (C,D,G,H).
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            abef[lane] = _mm_alignr_epi8(cdab, efgh, 8);
            cdgh[lane] = _mm_blend_epi16(efgh, cdab, 0xf0);
        }
        let [mut w0, mut w1, mut w2, mut w3] = w;
        // Round constants 4i..4i + 4, lowest lane first.
        let k = |i: usize| {
            let [k0, k1, k2, k3] = [K[4 * i], K[4 * i + 1], K[4 * i + 2], K[4 * i + 3]];
            _mm_set_epi32(k3 as i32, k2 as i32, k1 as i32, k0 as i32)
        };
        let (abef_in, cdgh_in) = (abef, cdgh);

        rounds4(&mut abef, &mut cdgh, &w0, k(0));
        rounds4(&mut abef, &mut cdgh, &w1, k(1));
        rounds4(&mut abef, &mut cdgh, &w2, k(2));
        rounds4(&mut abef, &mut cdgh, &w3, k(3));
        for i in (4..16).step_by(4) {
            schedule(&mut w0, &w1, &w2, &w3);
            rounds4(&mut abef, &mut cdgh, &w0, k(i));
            schedule(&mut w1, &w2, &w3, &w0);
            rounds4(&mut abef, &mut cdgh, &w1, k(i + 1));
            schedule(&mut w2, &w3, &w0, &w1);
            rounds4(&mut abef, &mut cdgh, &w2, k(i + 2));
            schedule(&mut w3, &w0, &w1, &w2);
            rounds4(&mut abef, &mut cdgh, &w3, k(i + 3));
        }

        for (lane, state) in states.into_iter().enumerate() {
            let abef = _mm_add_epi32(abef[lane], abef_in[lane]);
            let cdgh = _mm_add_epi32(cdgh[lane], cdgh_in[lane]);
            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            let state_at = state.as_mut_ptr().cast::<__m128i>();
            // SAFETY: as for the loads — two 16-byte lanes of the 32-byte
            // state; `_mm_storeu_si128` needs no alignment.
            unsafe {
                _mm_storeu_si128(state_at, _mm_blend_epi16(feba, dchg, 0xf0));
                _mm_storeu_si128(state_at.add(1), _mm_alignr_epi8(dchg, feba, 8));
            }
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

/// CRC32 (IEEE 802.3, bit-reflected polynomial `0xEDB88320`) of `data`:
/// the record checksum of the block log, snapshot files, page extents
/// and snapshot-stream chunks. Runs the carry-less-multiply kernel when
/// the CPU has `pclmulqdq` (detected once), [`crc32_scalar`] otherwise;
/// both give the same value.
///
/// # Examples
///
/// ```
/// use medchain_chain::hash::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_accelerated(data).unwrap_or_else(|| crc32_scalar(data))
}

/// [`crc32`] on the carry-less-multiply kernel, or `None` when this CPU
/// (or architecture) has no `pclmulqdq`.
pub fn crc32_accelerated(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    {
        clmul::update(!0, data).map(|c| !c)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = data;
        None
    }
}

/// [`crc32`] on the portable slicing-by-8 loop: the fallback on CPUs
/// without `pclmulqdq` and the oracle the kernel is tested against.
pub fn crc32_scalar(data: &[u8]) -> u32 {
    !crc32_sliced(!0, data)
}

/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC register `c` carried over `data` (no pre- or post-inversion),
/// eight bytes a step: the whole of [`crc32_scalar`] and the tail of the
/// kernel.
fn crc32_sliced(mut c: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        let lo = c ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][word[4] as usize]
            ^ CRC_TABLES[2][word[5] as usize]
            ^ CRC_TABLES[1][word[6] as usize]
            ^ CRC_TABLES[0][word[7] as usize];
    }
    for &byte in tail {
        c = CRC_TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The PCLMULQDQ CRC32 kernel, after Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
/// its bit-reflected form. With [`sha_ni`] it is the only `unsafe` code
/// in the program (`scripts/verify.sh` holds it here); `fold` is
/// reachable only through `update`, after runtime detection has
/// confirmed the one feature it is compiled for.
///
/// Four 128-bit lanes fold forward over 64-byte strides, then into one
/// lane, which folds over 16-byte blocks. The lane reduces 128 → 64
/// bits, and a Barrett step takes it to the 32-bit register. Fewer than
/// 16 bytes left over, and inputs under one stride, run through the
/// tables.
///
/// Every constant is a polynomial bit-reflected as a 33-bit value, the
/// form in which a carry-less product of reflected operands lines up
/// with its reflected input. All but the last two are a power of `x`
/// modulo `P`; `tests::crc_constants_are_powers_of_x_mod_p` recomputes
/// each one.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::OnceLock;

    /// `x^(4·128+32) mod P`: carries a lane's low half one 64-byte stride.
    pub(super) const K1: u64 = 0x1_5444_2bd4;
    /// `x^(4·128−32) mod P`: carries a lane's high half one 64-byte stride.
    pub(super) const K2: u64 = 0x1_c6e4_1596;
    /// `x^(128+32) mod P`: carries a lane's low half one 16-byte block.
    pub(super) const K3: u64 = 0x1_7519_97d0;
    /// `x^(128−32) mod P`: carries a lane's high half one 16-byte block,
    /// and reduces 128 bits to 96.
    pub(super) const K4: u64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: reduces 96 bits to 64.
    pub(super) const K5: u64 = 0x1_63cd_6124;
    /// `P` itself, its `x^32` term included: the Barrett divisor.
    pub(super) const P: u64 = 0x1_db71_0641;
    /// `⌊x^64 / P⌋`: the Barrett quotient.
    pub(super) const MU: u64 = 0x1_f701_1641;

    /// Whether this CPU runs `fold`: probed on first use, then read.
    fn detected() -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| is_x86_feature_detected!("pclmulqdq"))
    }

    /// The CRC register `crc` carried over `data`, if the CPU has
    /// `pclmulqdq`.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if !detected() {
            return None;
        }
        // SAFETY: `detected()` has just confirmed at run time that the
        // CPU supports `pclmulqdq` (and `sse2` is part of the x86_64
        // baseline) — every feature `fold` enables.
        Some(unsafe { fold(crc, data) })
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `_mm_loadu_si128`
        // needs no alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// The four 16-byte lanes of a stride.
    fn lanes(stride: &[u8; 64]) -> [__m128i; 4] {
        let (blocks, _) = stride.as_chunks::<16>();
        [load(&blocks[0]), load(&blocks[1]), load(&blocks[2]), load(&blocks[3])]
    }

    /// `acc` carried forward by `keys` (low half × low key, high half ×
    /// high key) and added to `next`, the data that distance ahead.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let low = _mm_clmulepi64_si128(acc, keys, 0x00);
        let high = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(low, high))
    }

    #[target_feature(enable = "pclmulqdq")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        let (strides, rest) = data.as_chunks::<64>();
        let Some((first, strides)) = strides.split_first() else {
            return super::crc32_sliced(crc, data);
        };
        let [mut x0, mut x1, mut x2, mut x3] = lanes(first);
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(crc as i32));
        let by_stride = _mm_set_epi64x(K2 as i64, K1 as i64);
        for stride in strides {
            let [n0, n1, n2, n3] = lanes(stride);
            x0 = fold_into(x0, n0, by_stride);
            x1 = fold_into(x1, n1, by_stride);
            x2 = fold_into(x2, n2, by_stride);
            x3 = fold_into(x3, n3, by_stride);
        }
        let by_block = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut x = fold_into(fold_into(fold_into(x0, x1, by_block), x2, by_block), x3, by_block);
        let (blocks, tail) = rest.as_chunks::<16>();
        for block in blocks {
            x = fold_into(x, load(block), by_block);
        }
        // 128 → 96 bits: the low half × K4, plus the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_block, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 × K5, plus the upper 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5 as i64);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett, 64 → 32 bits: T1 = (R mod x^32)·μ, T2 = (T1 mod
        // x^32)·P, and the register is the upper half of R + T2.
        let p_mu = _mm_set_epi64x(MU as i64, P as i64);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
        let c = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
        super::crc32_sliced(c, tail)
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
        check("sha-ni compress, one lane and two, equals scalar", CheckConfig::cases(256), |g| {
            let [a, b]: [[u32; 8]; 2] =
                std::array::from_fn(|_| std::array::from_fn(|_| g.u64() as u32));
            let [block_a, block_b]: [[u8; 64]; 2] = [g.byte_array(), g.byte_array()];
            let (mut fast, mut slow) = (a, a);
            ensure!(compress_accelerated(&mut fast, &block_a));
            compress_scalar(&mut slow, &block_a);
            ensure_eq!(fast, slow);
            let ([mut fast_a, mut fast_b], [mut slow_a, mut slow_b]) = ([a, b], [a, b]);
            ensure!(compress_accelerated_pair(&mut fast_a, &block_a, &mut fast_b, &block_b));
            compress_scalar(&mut slow_a, &block_a);
            compress_scalar(&mut slow_b, &block_b);
            ensure_eq!([fast_a, fast_b], [slow_a, slow_b]);
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
                let other = g.bytes(0, 300);
                let paired = digest_two(&data, &other);
                ensure!(paired == [digest_scalar(&data), digest_scalar(&other)], "length {len}");
            }
            let [left, right, other]: [Hash256; 3] =
                std::array::from_fn(|_| Hash256(g.byte_array()));
            ensure_eq!(
                digest_tagged_pairs([(0x00, &left, &right), (0x01, &other, &left)]),
                [digest_tagged_pair(0x00, &left, &right), digest_tagged_pair(0x01, &other, &left)]
            );
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc_constants_are_powers_of_x_mod_p() {
        use super::clmul::{K1, K2, K3, K4, K5, MU, P};
        /// `x^n mod P` in the reflected domain, built one multiplication
        /// by `x` at a time: multiplying by `x` is a right shift, and a
        /// bit falling off bit 0 is the `x^32` term, reduced by adding `P`.
        fn x_pow_mod_p(n: u32) -> u32 {
            let mut r = 0x8000_0000u32; // x^0
            for _ in 0..n {
                r = if r & 1 != 0 { (r >> 1) ^ 0xEDB8_8320 } else { r >> 1 };
            }
            r
        }
        /// A reflected 32-bit polynomial as the kernel's 33-bit constant.
        fn as_33_bits(reflected: u32) -> u64 {
            u64::from(reflected) << 1
        }
        assert_eq!(K1, as_33_bits(x_pow_mod_p(4 * 128 + 32)));
        assert_eq!(K2, as_33_bits(x_pow_mod_p(4 * 128 - 32)));
        assert_eq!(K3, as_33_bits(x_pow_mod_p(128 + 32)));
        assert_eq!(K4, as_33_bits(x_pow_mod_p(128 - 32)));
        assert_eq!(K5, as_33_bits(x_pow_mod_p(64)));
        // P reflected over 33 bits: the x^32 term lands on bit 0.
        assert_eq!(P, as_33_bits(0xEDB8_8320) | 1);
        // ⌊x^64 / P⌋ by long division in the normal domain (P =
        // 0x1_04C1_1DB7), then reflected over its 33 bits.
        let (divisor, mut rest, mut quotient) = (0x1_04C1_1DB7u128, 1u128 << 64, 0u64);
        for shift in (0..=32).rev() {
            if rest & (1 << (32 + shift)) != 0 {
                rest ^= divisor << shift;
                quotient |= 1 << shift;
            }
        }
        assert_eq!(MU, quotient.reverse_bits() >> (64 - 33));
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
