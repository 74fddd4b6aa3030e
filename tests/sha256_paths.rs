//! Scalar ≡ accelerated SHA-256, under tier-1.
//!
//! Every block `Sha256` hashes runs on the CPU's SHA extensions when it
//! has them and on the portable scalar loop otherwise, so on this box
//! the rest of the suite only ever sees one path. These properties hold
//! the dispatched hasher, the SHA-NI block function and the cached-key
//! MAC to the scalar oracle (`compress_scalar`, `digest_scalar`) and to
//! the published vectors. The same properties live beside the code in
//! `crates/chain/src/hash.rs`. The fixed-length two-block tree hash is
//! held to both the oracle and the streaming hasher, and to its count;
//! the two-lane block function and the digests that run two messages
//! side by side are held to the single-lane ones and to the same counts.

use medchain_chain::hash::{
    compress_accelerated, compress_accelerated_pair, compress_scalar, digest_scalar,
    digest_tagged_pair, digest_tagged_pairs, digest_two, hmac_sha256, Hash256, HmacKey, Sha256,
};
use medchain_chain::sha256_compressions;
use medchain_runtime::check::{check, CheckConfig};
use medchain_runtime::{ensure, ensure_eq};
use std::sync::{Mutex, MutexGuard};

/// `sha256_compressions` is process-wide and the tests of one binary
/// run in parallel: every test here that hashes through the counted
/// path holds this, so the counting test sees only its own blocks.
fn counted_section() -> MutexGuard<'static, ()> {
    static COUNTED: Mutex<()> = Mutex::new(());
    COUNTED.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn two_block_tree_hash_equals_the_oracle_and_counts_two_compressions() {
    let _counted = counted_section();
    check("tagged pair equals scalar and streaming", CheckConfig::cases(256), |g| {
        let (left, right) = (Hash256(g.byte_array()), Hash256(g.byte_array()));
        for tag in [0x00, 0x01] {
            let message = [&[tag][..], &left.0, &right.0].concat();
            let oracle = digest_scalar(&message);
            let mut streaming = Sha256::new();
            streaming.update(&message);
            ensure_eq!(streaming.finalize(), oracle);
            let before = sha256_compressions();
            let fixed = digest_tagged_pair(tag, &left, &right);
            ensure_eq!(sha256_compressions() - before, 2);
            ensure_eq!(fixed, oracle);
        }
        // Two tree hashes side by side: the same two digests, counted as
        // the same four compressions.
        let other = Hash256(g.byte_array());
        let singles =
            [digest_tagged_pair(0x00, &left, &right), digest_tagged_pair(0x01, &other, &left)];
        let before = sha256_compressions();
        let paired = digest_tagged_pairs([(0x00, &left, &right), (0x01, &other, &left)]);
        ensure_eq!(sha256_compressions() - before, 4);
        ensure_eq!(paired, singles);
        Ok(())
    });
}

#[test]
fn sha_ni_compress_equals_scalar_on_random_states_and_blocks() {
    if !compress_accelerated(&mut [0; 8], &[0; 64]) {
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
fn hasher_equals_scalar_oracle_over_every_length_and_chunking() {
    let _counted = counted_section();
    check("sha256 equals the scalar oracle", CheckConfig::cases(8), |g| {
        // 0..=300 crosses every padding edge (55/56, 63/64, 119/120)
        // several times over.
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
            // Two messages side by side, whatever their lengths: the
            // oracle's digests, and each one's padded blocks counted.
            let other = g.bytes(0, 300);
            let blocks = |bytes: &[u8]| (bytes.len() as u64 + 9).div_ceil(64);
            let before = sha256_compressions();
            let paired = digest_two(&data, &other);
            ensure_eq!(sha256_compressions() - before, blocks(&data) + blocks(&other));
            ensure!(paired == [digest_scalar(&data), digest_scalar(&other)], "length {len}");
        }
        Ok(())
    });
}

#[test]
fn cached_midstate_mac_equals_hmac_for_every_key_length() {
    let _counted = counted_section();
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

/// RFC 2104 spelled out over the scalar oracle.
fn hmac_scalar(key: &[u8], message: &[u8]) -> Hash256 {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&digest_scalar(key).0);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let pad = |byte: u8| key_block.iter().map(|k| k ^ byte).collect::<Vec<u8>>();
    let inner = digest_scalar(&[pad(0x36), message.to_vec()].concat());
    digest_scalar(&[pad(0x5c), inner.0.to_vec()].concat())
}

#[test]
fn nist_and_rfc4231_vectors_hold_on_both_paths() {
    let _counted = counted_section();
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
        (&key_4, &[0xcd; 50], "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
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
