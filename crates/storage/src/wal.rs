//! The append-only segmented block log.
//!
//! Records are CRC-framed canonical-codec [`Block`] bytes:
//!
//! ```text
//! ┌───────────┬───────────┬──────────────────┐
//! │ len: u32  │ crc: u32  │ payload (len B)  │
//! │ LE        │ LE, CRC32 │ canonical Block  │
//! └───────────┴───────────┴──────────────────┘
//! ```
//!
//! Segments are named `seg-<first-height, zero-padded>.wal` so a
//! lexicographic directory listing is also the height order. A scan on
//! open validates every record (frame complete, CRC, decode, height
//! contiguity) and truncates the file at the first invalid one — a torn
//! tail from a crash mid-append recovers to the last durable block.

use medchain_chain::hash::crc32;
use medchain_chain::store::StoreError;
use medchain_chain::Block;
use medchain_runtime::codec::{Decode, Reader};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Bytes of framing before each payload: `u32` length + `u32` CRC.
pub const RECORD_HEADER_BYTES: u64 = 8;

const SEG_PREFIX: &str = "seg-";
const SEG_SUFFIX: &str = ".wal";

/// Frames `payload` as one log record.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of scanning the log on open.
#[derive(Debug)]
pub struct ScanResult {
    /// Every valid block in height order.
    pub blocks: Vec<Block>,
    /// Corruption events cut from the tail (torn or corrupt records —
    /// scanning stops at the first one, so this is 0 or 1 per open).
    pub truncated_records: u64,
}

/// The segmented append-only log.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    segment_bytes: u64,
    /// Open tail segment: (path, handle, current byte size).
    current: Option<(PathBuf, File, u64)>,
    /// Height the next appended record must carry (`None` = empty log,
    /// first append pins it).
    next_height: Option<u64>,
}

fn segment_name(first_height: u64) -> String {
    format!("{SEG_PREFIX}{first_height:020}{SEG_SUFFIX}")
}

fn segment_height(name: &str) -> Option<u64> {
    name.strip_prefix(SEG_PREFIX)?.strip_suffix(SEG_SUFFIX)?.parse().ok()
}

impl SegmentedLog {
    /// Opens the log in `dir` (created if absent), scanning and
    /// repairing existing segments.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<(SegmentedLog, ScanResult), StoreError> {
        fs::create_dir_all(dir)?;
        let mut segments: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(h) = segment_height(name) {
                segments.push((h, entry.path()));
            }
        }
        segments.sort();

        let mut blocks: Vec<Block> = Vec::new();
        let mut truncated_records = 0u64;
        let mut tail: Option<(PathBuf, u64)> = None;
        for (i, (_, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path)?;
            let (seg_blocks, valid_end, bad) = scan_segment(&bytes, blocks.last())?;
            blocks.extend(seg_blocks);
            if bad {
                truncated_records += 1;
                repair(path, valid_end, &segments[i + 1..])?;
                if valid_end > 0 {
                    tail = Some((path.clone(), valid_end));
                }
                // else: the whole segment was cut — keep the previous
                // segment (if any) as the append tail.
                break;
            }
            tail = Some((path.clone(), valid_end));
        }

        let next_height = blocks.last().map(|b| b.header.height + 1);
        let current = match tail {
            Some((path, size)) => {
                let file = OpenOptions::new().append(true).open(&path)?;
                Some((path, file, size))
            }
            None => None,
        };
        let log = SegmentedLog { dir: dir.to_path_buf(), segment_bytes, current, next_height };
        Ok((log, ScanResult { blocks, truncated_records }))
    }

    /// Appends one block record, rolling to a new segment when the
    /// current one is full. Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::HeightGap`] if `height` does not extend the
    /// log, or [`StoreError::Io`] on write failure.
    pub fn append(&mut self, height: u64, payload: &[u8]) -> Result<u64, StoreError> {
        let record = frame(payload);
        let file = self.tail_for(height, record.len() as u64)?;
        file.write_all(&record)?;
        if let Some((_, _, size)) = self.current.as_mut() {
            *size += record.len() as u64;
        }
        self.next_height = Some(height + 1);
        Ok(record.len() as u64)
    }

    /// Fault injection: writes only the first half of the record — a
    /// torn append, as if the process died mid-`write`. The log's
    /// expected height is *not* advanced.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::HeightGap`] or [`StoreError::Io`] as
    /// [`SegmentedLog::append`] would.
    pub fn append_torn(&mut self, height: u64, payload: &[u8]) -> Result<(), StoreError> {
        let record = frame(payload);
        let half = record.len() / 2;
        let file = self.tail_for(height, record.len() as u64)?;
        file.write_all(&record[..half])?;
        file.sync_data()?;
        if let Some((_, _, size)) = self.current.as_mut() {
            *size += half as u64;
        }
        Ok(())
    }

    /// Fsyncs the tail segment.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some((_, file, _)) = self.current.as_mut() {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Checks height contiguity and returns the segment file to append
    /// `record_len` more bytes to, rolling first if needed.
    fn tail_for(&mut self, height: u64, record_len: u64) -> Result<&mut File, StoreError> {
        if let Some(expected) = self.next_height {
            if height != expected {
                return Err(StoreError::HeightGap { expected, got: height });
            }
        }
        let roll = match &self.current {
            Some((_, _, size)) => *size > 0 && *size + record_len > self.segment_bytes,
            None => true,
        };
        if roll {
            if let Some((_, file, _)) = self.current.as_mut() {
                file.sync_data()?;
            }
            let path = self.dir.join(segment_name(height));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            self.current = Some((path, file, 0));
        }
        Ok(&mut self.current.as_mut().expect("tail segment just ensured").1)
    }
}

/// Scans one segment's bytes. Returns the decoded blocks, the byte
/// offset after the last valid record, and whether an invalid record
/// stopped the scan.
fn scan_segment(
    bytes: &[u8],
    prev: Option<&Block>,
) -> Result<(Vec<Block>, u64, bool), StoreError> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut offset = 0usize;
    let header = RECORD_HEADER_BYTES as usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < header {
            return Ok((blocks, offset as u64, true)); // torn frame header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if rest.len() < header + len {
            return Ok((blocks, offset as u64, true)); // torn payload
        }
        let payload = &rest[header..header + len];
        if crc32(payload) != crc {
            return Ok((blocks, offset as u64, true)); // corrupt payload
        }
        let mut reader = Reader::new(payload);
        let Ok(block) = Block::decode(&mut reader) else {
            return Ok((blocks, offset as u64, true));
        };
        if reader.remaining() != 0 {
            return Ok((blocks, offset as u64, true));
        }
        let expected = blocks
            .last()
            .or(prev)
            .map(|b: &Block| b.header.height + 1);
        if let Some(expected) = expected {
            if block.header.height != expected {
                return Ok((blocks, offset as u64, true)); // discontinuity
            }
        }
        blocks.push(block);
        offset += header + len;
    }
    Ok((blocks, offset as u64, false))
}

/// Truncates `path` to `valid_end` (removing it entirely if empty) and
/// deletes every later segment — nothing after a corrupt record can be
/// trusted to be contiguous.
fn repair(path: &Path, valid_end: u64, later: &[(u64, PathBuf)]) -> Result<(), StoreError> {
    if valid_end == 0 {
        fs::remove_file(path)?;
    } else {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_end)?;
        file.sync_data()?;
    }
    for (_, later_path) in later {
        fs::remove_file(later_path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_dir;
    use medchain_runtime::codec::Encode;

    fn block_at(height: u64, parent: &Block) -> Block {
        let mut b = Block::genesis("wal-test");
        b.header.height = height;
        b.header.parent = parent.id();
        b
    }

    #[test]
    fn round_trips_across_segment_rolls() {
        let dir = test_dir("wal-roundtrip");
        let genesis = Block::genesis("wal-test");
        // Tiny segments force a roll every record.
        let (mut log, scan) = SegmentedLog::open(&dir, 64).unwrap();
        assert!(scan.blocks.is_empty());
        let mut parent = genesis;
        for h in 1..=5 {
            let b = block_at(h, &parent);
            log.append(h, &b.encoded()).unwrap();
            parent = b;
        }
        log.sync().unwrap();
        drop(log);

        let (log, scan) = SegmentedLog::open(&dir, 64).unwrap();
        assert_eq!(scan.truncated_records, 0);
        assert_eq!(scan.blocks.len(), 5);
        assert_eq!(scan.blocks.last().unwrap().header.height, 5);
        assert_eq!(log.next_height, Some(6));
        let segs = fs::read_dir(&dir).unwrap().count();
        assert!(segs > 1, "expected multiple segments, got {segs}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_valid_record() {
        let dir = test_dir("wal-torn");
        let genesis = Block::genesis("wal-test");
        let (mut log, _) = SegmentedLog::open(&dir, 1 << 20).unwrap();
        let b1 = block_at(1, &genesis);
        let b2 = block_at(2, &b1);
        log.append(1, &b1.encoded()).unwrap();
        log.append_torn(2, &b2.encoded()).unwrap();
        drop(log);

        let (log, scan) = SegmentedLog::open(&dir, 1 << 20).unwrap();
        assert_eq!(scan.truncated_records, 1);
        assert_eq!(scan.blocks.len(), 1);
        assert_eq!(log.next_height, Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn height_gap_is_rejected() {
        let dir = test_dir("wal-gap");
        let genesis = Block::genesis("wal-test");
        let (mut log, _) = SegmentedLog::open(&dir, 1 << 20).unwrap();
        let b1 = block_at(1, &genesis);
        log.append(1, &b1.encoded()).unwrap();
        let err = log.append(3, &b1.encoded()).unwrap_err();
        assert_eq!(err, StoreError::HeightGap { expected: 2, got: 3 });
        fs::remove_dir_all(&dir).unwrap();
    }
}
