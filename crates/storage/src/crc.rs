//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the record
//! checksum used by the block log, snapshot files and page extents.
//! Implemented in-crate so the workspace stays dependency-free.
//!
//! Slicing-by-8: `TABLES[k][b]` is the CRC of byte `b` followed by `k`
//! zero bytes, so eight input bytes fold into the running value with
//! eight independent lookups instead of eight dependent ones.

const fn make_tables() -> [[u32; 256]; 8] {
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

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        c = TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::check::{check, CheckConfig};
    use medchain_runtime::ensure_eq;

    /// The one-lookup-per-byte definition: the oracle for the sliced loop.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &byte in data {
            c = TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn matches_check_value() {
        // The standard CRC32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_matches_bytewise_over_random_lengths_and_offsets() {
        check("crc32 sliced == bytewise", CheckConfig::cases(128), |g| {
            // Lengths 0..=4,099 from an unaligned start, so the 8-byte
            // groups and the tail fall anywhere.
            let (start, len) = (g.usize_in(0, 8), g.usize_in(0, 4_100));
            let buffer = g.bytes(start + len, start + len);
            let data = &buffer[start..];
            ensure_eq!(crc32(data), crc32_bytewise(data));
            Ok(())
        });
    }

    #[test]
    fn detects_single_byte_flip() {
        let mut data = b"medchain block payload".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}
