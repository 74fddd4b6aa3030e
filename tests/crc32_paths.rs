//! Kernel ≡ sliced ≡ bytewise CRC32, under tier-1.
//!
//! Every durable record (block log, snapshot files and page extents,
//! all checked in `crates/storage/src/record.rs`) and every snapshot
//! stream chunk is checksummed by `crc32`, which runs the carry-less-
//! multiply kernel when the CPU has `pclmulqdq` and the slicing-by-8
//! loop otherwise, so on any one box the rest of the suite sees one
//! path. These properties hold both paths to the definition (one byte
//! at a time, one bit at a time) over every stride, block and tail
//! boundary, and to the standard check value. `tests/storage.rs` pins
//! the bytes on disk, and `crates/chain/src/hash.rs` recomputes the
//! kernel's folding constants from the polynomial.

use medchain_chain::hash::{crc32, crc32_accelerated, crc32_scalar};
use medchain_runtime::check::{check, CheckConfig};
use medchain_runtime::{ensure, ensure_eq};

/// CRC32 by its definition: the reflected register shifted one bit at a
/// time, the polynomial added whenever a one falls out.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &byte in data {
        c ^= u32::from(byte);
        for _ in 0..8 {
            c = if c & 1 != 0 { (c >> 1) ^ 0xEDB8_8320 } else { c >> 1 };
        }
    }
    !c
}

/// Whether the kernel runs here; prints why its half is skipped if not.
fn kernel_present() -> bool {
    let present = crc32_accelerated(b"").is_some();
    if !present {
        eprintln!("no pclmulqdq on this CPU: the sliced path is the only path");
    }
    present
}

/// `data` on every path: the dispatched value, the sliced loop and the
/// definition, and the kernel when `kernel` is set.
fn paths_agree(data: &[u8], kernel: bool) -> Result<(), String> {
    let expected = crc32_bytewise(data);
    ensure_eq!(crc32_scalar(data), expected);
    ensure_eq!(crc32(data), expected);
    if kernel {
        ensure_eq!(crc32_accelerated(data), Some(expected));
    }
    Ok(())
}

#[test]
fn the_check_value_holds_on_every_path() {
    let kernel = kernel_present();
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    paths_agree(b"123456789", kernel).unwrap();
    paths_agree(b"", kernel).unwrap();
    assert_eq!(crc32(b""), 0);
}

#[test]
fn paths_agree_on_every_length_to_320_at_every_offset_to_15() {
    let kernel = kernel_present();
    // Five strides: the fold-by-4 start, its loop, the fold-by-1 blocks
    // and every tail length, each from every offset within a lane.
    check("crc32 paths agree on short inputs", CheckConfig::cases(2), |g| {
        let buffer = g.bytes(320 + 15, 320 + 16);
        for offset in 0..=15 {
            for len in 0..=320 {
                paths_agree(&buffer[offset..offset + len], kernel)
                    .map_err(|e| format!("offset {offset}, length {len}: {e}"))?;
            }
        }
        Ok(())
    });
}

#[test]
fn paths_agree_on_256_random_lengths_to_64_kib() {
    let kernel = kernel_present();
    check("crc32 paths agree on long inputs", CheckConfig::cases(256), |g| {
        let (offset, len) = (g.usize_in(0, 64), g.usize_in(0, 64 * 1024 + 1));
        let buffer = g.bytes(offset + len, offset + len + 1);
        paths_agree(&buffer[offset..], kernel)
            .map_err(|e| format!("offset {offset}, length {len}: {e}"))
    });
}

#[test]
fn every_single_bit_flip_of_a_4_kib_buffer_changes_the_crc() {
    let kernel = kernel_present();
    check("a one-bit flip moves the crc", CheckConfig::cases(1), |g| {
        let mut data = g.bytes(4096, 4097);
        let clean = crc32_scalar(&data);
        ensure_eq!(crc32_accelerated(&data).unwrap_or(clean), clean);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            ensure!(crc32_scalar(&data) != clean, "sliced: flipping bit {bit} kept the crc");
            if kernel {
                ensure!(
                    crc32_accelerated(&data).is_some_and(|c| c != clean),
                    "kernel: flipping bit {bit} kept the crc"
                );
            }
            data[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(())
    });
}
