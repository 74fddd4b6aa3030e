//! The one durable record format. Every WAL record, snapshot file and
//! page extent this crate writes is one record (DESIGN.md §8):
//!
//! ```text
//! ┌───────────┬────────────────────┬──────────────────┐
//! │ len: u32  │ crc: u32           │ payload (len B)  │
//! │ LE        │ LE, CRC32(payload) │                  │
//! └───────────┴────────────────────┴──────────────────┘
//! ```
//!
//! This module is the only code in the crate that builds, parses,
//! length-bounds or CRC-checks a record header. A reader is told how
//! many bytes the record may occupy, header included — the rest of a
//! WAL segment, a snapshot file's length, an extent's slots — and
//! refuses a header that claims more before it allocates anything. The
//! writer refuses a payload the `u32` length field cannot describe.
//! Each caller maps a [`RecordError`] to its own policy: the WAL scan
//! stops and truncates at the first bad record, a bad snapshot or delta
//! file loads as `None`, and a bad page extent is an `InvalidData`
//! error.

use medchain_chain::hash::crc32;
use medchain_chain::store::StoreError;
use std::fmt;
use std::io::{self, Read, Write};

/// Bytes before each payload: the `u32` length, then the `u32` CRC.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Why a record could not be written or read.
#[derive(Debug)]
pub enum RecordError {
    /// Fewer bytes than a header, or than the header's length: a torn
    /// write.
    Torn,
    /// A length past its bound: on read, the payload bytes the caller
    /// says are available; on write, the `u32` length field.
    TooLong {
        /// The length claimed or asked for.
        len: u64,
        /// The most it may be.
        bound: u64,
    },
    /// The payload does not match the header's CRC.
    Crc,
    /// The underlying read or write failed.
    Io(io::Error),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Torn => write!(f, "torn record"),
            RecordError::TooLong { len, bound } => write!(f, "record length {len} over {bound}"),
            RecordError::Crc => write!(f, "record CRC mismatch"),
            RecordError::Io(e) => write!(f, "record I/O: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<io::Error> for RecordError {
    fn from(e: io::Error) -> RecordError {
        RecordError::Io(e)
    }
}

impl From<RecordError> for StoreError {
    fn from(e: RecordError) -> StoreError {
        match e {
            RecordError::Io(e) => e.into(),
            bad => StoreError::Io(bad.to_string()),
        }
    }
}

/// The bytes a record of a `payload_len`-byte payload takes, header
/// included.
///
/// # Errors
///
/// [`RecordError::TooLong`] past the `u32` length field.
pub(crate) fn record_bytes(payload_len: usize) -> Result<u64, RecordError> {
    let len = u32::try_from(payload_len)
        .map_err(|_| RecordError::TooLong { len: payload_len as u64, bound: u32::MAX.into() })?;
    Ok(RECORD_HEADER_BYTES as u64 + u64::from(len))
}

/// Writes `payload` as one record: the header in one `write_all`, then
/// the payload in another, so a file gets a multi-megabyte payload
/// without a copy and a `Vec` gets the whole record in one buffer.
/// Returns the record's bytes.
///
/// # Errors
///
/// [`RecordError::TooLong`] before anything is written if the payload
/// does not fit the length field; [`RecordError::Io`] on a failed write.
pub(crate) fn write_record<W: Write + ?Sized>(
    out: &mut W,
    payload: &[u8],
) -> Result<u64, RecordError> {
    let bytes = record_bytes(payload.len())?;
    let mut header = [0u8; RECORD_HEADER_BYTES];
    // In range: record_bytes refused a length past u32::MAX.
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    out.write_all(&header)?;
    out.write_all(payload)?;
    Ok(bytes)
}

/// `payload` framed as one record in one buffer, for a caller that
/// hands the whole record to one `write_all`.
///
/// # Errors
///
/// [`RecordError::TooLong`] if the payload does not fit the length
/// field.
pub fn frame_record(payload: &[u8]) -> Result<Vec<u8>, RecordError> {
    let mut record = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    write_record(&mut record, payload)?;
    Ok(record)
}

/// The length and CRC a header holds.
fn parse_header(header: [u8; RECORD_HEADER_BYTES]) -> (u32, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    (u32::from_le_bytes([l0, l1, l2, l3]), u32::from_le_bytes([c0, c1, c2, c3]))
}

/// `len` as a payload size, if it fits in the `room` bytes after the
/// header.
fn bounded(len: u32, room: u64) -> Result<usize, RecordError> {
    if u64::from(len) > room {
        return Err(RecordError::TooLong { len: len.into(), bound: room });
    }
    Ok(len as usize)
}

fn check_crc(payload: &[u8], crc: u32) -> Result<(), RecordError> {
    (crc32(payload) == crc).then_some(()).ok_or(RecordError::Crc)
}

/// Splits the record at the front of `bytes` into its CRC-checked
/// payload and the bytes after it, both borrowed from `bytes`.
///
/// # Errors
///
/// [`RecordError::Torn`] under a header's worth of bytes,
/// [`RecordError::TooLong`] if the header claims more than `bytes`
/// holds, [`RecordError::Crc`] on a CRC mismatch.
pub fn split_record(bytes: &[u8]) -> Result<(&[u8], &[u8]), RecordError> {
    let (header, rest) = bytes.split_first_chunk().ok_or(RecordError::Torn)?;
    let (len, crc) = parse_header(*header);
    let (payload, after) = rest.split_at(bounded(len, rest.len() as u64)?);
    check_crc(payload, crc)?;
    Ok((payload, after))
}

/// Fills `buf` from `input`; running out of bytes is a torn record.
fn fill<R: Read + ?Sized>(input: &mut R, buf: &mut [u8]) -> Result<(), RecordError> {
    input.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => RecordError::Torn,
        _ => RecordError::Io(e),
    })
}

/// Reads one record from `input`, which may hold at most `available`
/// bytes of it, header included. The header is read on its own and the
/// payload straight into its buffer, which is allocated only once the
/// length has been checked against `available`.
///
/// # Errors
///
/// [`RecordError::Torn`] if `available` or `input` runs out first,
/// [`RecordError::TooLong`] if the header claims more than `available`
/// leaves, [`RecordError::Crc`] on a CRC mismatch, [`RecordError::Io`]
/// on any other read failure.
pub(crate) fn read_record<R: Read + ?Sized>(
    input: &mut R,
    available: u64,
) -> Result<Vec<u8>, RecordError> {
    let room = available.checked_sub(RECORD_HEADER_BYTES as u64).ok_or(RecordError::Torn)?;
    let mut header = [0u8; RECORD_HEADER_BYTES];
    fill(input, &mut header)?;
    let (len, crc) = parse_header(header);
    let mut payload = vec![0u8; bounded(len, room)?];
    fill(input, &mut payload)?;
    check_crc(&payload, crc)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::check::{check, CheckConfig, Gen};
    use medchain_runtime::{ensure, ensure_eq};

    /// What a reader must make of `bytes` under `available`: the payload
    /// range when the header, the bound and the CRC all hold.
    fn model(bytes: &[u8], available: usize) -> Option<std::ops::Range<usize>> {
        let end = bytes.len().min(available);
        if end < 8 {
            return None;
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        (8 + len <= end && crc32(&bytes[8..8 + len]) == crc).then_some(8..8 + len)
    }

    /// Arbitrary bytes that are often nearly a record: a valid one, then
    /// maybe a flipped byte, a cut, or a length field pushed past it.
    fn hostile(g: &mut Gen) -> Vec<u8> {
        let mut bytes = frame_record(&g.bytes(0, 96)).unwrap();
        bytes.extend(g.bytes(0, 16));
        match g.usize_in(0, 5) {
            0 => g.bytes(0, 120),
            1 => {
                let at = g.usize_in(0, bytes.len());
                bytes[at] ^= 1 << g.usize_in(0, 8);
                bytes
            }
            2 => {
                bytes.truncate(g.usize_in(0, bytes.len()));
                bytes
            }
            3 => {
                let claimed = g.u64() as u32;
                bytes[..4].copy_from_slice(&claimed.to_le_bytes());
                bytes
            }
            _ => bytes,
        }
    }

    #[test]
    fn readers_never_panic_and_yield_a_payload_only_when_header_bound_and_crc_hold() {
        check("record readers on hostile bytes", CheckConfig::cases(512), |g| {
            let bytes = hostile(g);
            let available = g.usize_in(0, bytes.len() + 24);
            let want = model(&bytes, available);
            let (visible, _) = bytes.split_at(available.min(bytes.len()));
            match (split_record(visible), &want) {
                (Ok((payload, rest)), Some(range)) => {
                    ensure_eq!(payload, &bytes[range.clone()]);
                    ensure_eq!(rest, &visible[range.end..]);
                }
                (Err(_), None) => {}
                (got, _) => return Err(format!("split_record gave {got:?}, model {want:?}")),
            }

            // A header whose length passes the bound must be refused as
            // such, on the header alone: no payload byte is read.
            let claims_past = bytes.len() >= 8
                && available >= 8
                && u64::from(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
                    > available as u64 - 8;
            let mut input = &bytes[..];
            let got = read_record(&mut input, available as u64);
            match (&got, &want) {
                (Ok(payload), Some(range)) => ensure_eq!(payload[..], bytes[range.clone()]),
                (Err(RecordError::TooLong { .. }), None) if claims_past => {
                    ensure_eq!(bytes.len() - input.len(), RECORD_HEADER_BYTES);
                }
                (Err(RecordError::Torn | RecordError::Crc), None) if !claims_past => {}
                _ => return Err(format!("read_record gave {got:?}, model {want:?}")),
            }
            Ok(())
        });
    }

    #[test]
    fn every_written_record_reads_back_identically() {
        check("record round trip", CheckConfig::cases(128), |g| {
            let payload = g.bytes(0, 3 * 4096);
            let mut streamed = Vec::new();
            let written = write_record(&mut streamed, &payload).unwrap();
            let framed = frame_record(&payload).unwrap();
            ensure_eq!(streamed, framed);
            ensure_eq!(written, framed.len() as u64);
            ensure_eq!(record_bytes(payload.len()).unwrap(), written);

            let mut log = framed.clone();
            log.extend_from_slice(&framed);
            let (first, rest) = split_record(&log).unwrap();
            ensure!(first == payload.as_slice() && rest == framed.as_slice());
            let available = written + g.usize_in(0, 64) as u64;
            ensure_eq!(read_record(&mut &log[..], available).unwrap(), payload);
            Ok(())
        });
    }

    #[test]
    fn a_header_claiming_more_than_is_available_is_refused_before_the_payload() {
        let mut bytes = frame_record(b"payload").unwrap();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut input = &bytes[..];
        let err = read_record(&mut input, bytes.len() as u64).unwrap_err();
        let claimed = u64::from(u32::MAX);
        assert!(matches!(err, RecordError::TooLong { len, bound: 7 } if len == claimed));
        assert_eq!(input.len(), bytes.len() - RECORD_HEADER_BYTES, "read past the header");
        assert!(matches!(split_record(&bytes), Err(RecordError::TooLong { .. })));
        assert!(matches!(read_record(&mut &bytes[..], 7), Err(RecordError::Torn)));
    }

    #[test]
    fn the_writer_refuses_a_payload_past_the_length_field() {
        let max = u32::MAX as usize;
        assert_eq!(record_bytes(max).unwrap(), 8 + u64::from(u32::MAX));
        assert!(matches!(record_bytes(max + 1), Err(RecordError::TooLong { .. })));
    }
}
