//! The append-only segmented block log.
//!
//! Each record (the crate's one record format, `record.rs`) carries
//! one block's canonical-codec [`Block`] bytes. Segments are named
//! `seg-<first-height, zero-padded>.wal` so a lexicographic directory
//! listing is also the height order. A scan on open validates every
//! record (complete, CRC, decode, height contiguity) and truncates the
//! file at the first invalid one — a torn tail from a crash mid-append
//! recovers to the last durable block.

use crate::durable::{self, Disk, DurableFile, Mode};
use crate::record::{frame_record, split_record};
use medchain_chain::store::StoreError;
use medchain_chain::Block;
use medchain_runtime::codec::{Decode, Reader};
use medchain_runtime::metrics::Metrics;
use std::path::{Path, PathBuf};

const SEG_PREFIX: &str = "seg-";
const SEG_SUFFIX: &str = ".wal";

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
    disk: Disk,
    dir: PathBuf,
    segment_bytes: u64,
    /// Open tail segment and its current byte size.
    current: Option<(DurableFile, u64)>,
    /// Height the next appended record must carry (`None` = empty log,
    /// first append pins it).
    next_height: Option<u64>,
}

impl SegmentedLog {
    /// Opens the log in `dir` (created if absent), scanning and
    /// repairing existing segments.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<(SegmentedLog, ScanResult), StoreError> {
        SegmentedLog::open_in(Disk::os(Metrics::noop()), dir, segment_bytes)
    }

    /// [`SegmentedLog::open`] on `disk`.
    pub(crate) fn open_in(
        disk: Disk,
        dir: &Path,
        segment_bytes: u64,
    ) -> Result<(SegmentedLog, ScanResult), StoreError> {
        disk.create_dir(dir)?;
        let segments = disk.height_files(dir, SEG_PREFIX, SEG_SUFFIX)?;

        let mut blocks: Vec<Block> = Vec::new();
        let mut truncated_records = 0u64;
        let mut tail: Option<(&Path, u64)> = None;
        for (i, (_, path)) in segments.iter().enumerate() {
            let bytes = disk.read(path)?;
            let (seg_blocks, valid_end, bad) = scan_segment(&bytes, blocks.last());
            blocks.extend(seg_blocks);
            if bad {
                truncated_records += 1;
                repair(&disk, path, valid_end, &segments[i + 1..])?;
                if valid_end > 0 {
                    tail = Some((path, valid_end));
                }
                // else: the whole segment was cut — keep the previous
                // segment (if any) as the append tail.
                break;
            }
            tail = Some((path, valid_end));
        }

        let next_height = blocks.last().map(|b| b.header.height + 1);
        let current = match tail {
            Some((path, size)) => Some((disk.open(path, Mode::Append)?, size)),
            None => None,
        };
        let dir = dir.to_path_buf();
        let log = SegmentedLog { disk, dir, segment_bytes, current, next_height };
        Ok((log, ScanResult { blocks, truncated_records }))
    }

    /// Appends one block record in one write, rolling to a new segment
    /// when the current one is full. Returns the bytes written. A new
    /// segment's directory entry is synced before any record goes in,
    /// so a synced append survives a crash with its file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::HeightGap`] if `height` does not extend the
    /// log, or [`StoreError::Io`] on write failure or a payload too long
    /// for one record.
    pub fn append(&mut self, height: u64, payload: &[u8]) -> Result<u64, StoreError> {
        let record = frame_record(payload)?;
        if let Some(expected) = self.next_height {
            if height != expected {
                return Err(StoreError::HeightGap { expected, got: height });
            }
        }
        let roll = match &self.current {
            Some((_, size)) => *size > 0 && *size + record.len() as u64 > self.segment_bytes,
            None => true,
        };
        if roll {
            self.sync()?;
            let path = self.dir.join(durable::height_name(SEG_PREFIX, height, SEG_SUFFIX));
            self.current = Some((self.disk.create_segment(&path)?, 0));
        }
        let (file, size) = self.current.as_mut().expect("tail segment just ensured");
        file.append(&record)?;
        *size += record.len() as u64;
        self.next_height = Some(height + 1);
        Ok(record.len() as u64)
    }

    /// Fsyncs the tail segment, if one is open.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some((file, _)) = self.current.as_mut() {
            file.sync()?;
        }
        Ok(())
    }
}

/// Scans one segment's bytes. Returns the decoded blocks, the byte
/// offset after the last valid record, and whether an invalid record —
/// torn, overlong, corrupt, undecodable or out of height order —
/// stopped the scan. Each block decodes from the borrowed segment.
fn scan_segment(bytes: &[u8], prev: Option<&Block>) -> (Vec<Block>, u64, bool) {
    let mut blocks: Vec<Block> = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let expected = blocks.last().or(prev).map(|b: &Block| b.header.height + 1);
        let Some((block, after)) = next_block(rest, expected) else {
            return (blocks, (bytes.len() - rest.len()) as u64, true);
        };
        blocks.push(block);
        rest = after;
    }
    (blocks, bytes.len() as u64, false)
}

/// The block in the record at the front of `bytes` and the bytes after
/// it; `None` unless the record holds, its payload is exactly one block,
/// and that block is at `expected` height (when one is expected).
fn next_block(bytes: &[u8], expected: Option<u64>) -> Option<(Block, &[u8])> {
    let (payload, after) = split_record(bytes).ok()?;
    let mut reader = Reader::new(payload);
    let block = Block::decode(&mut reader).ok()?;
    let contiguous = expected.is_none_or(|h| block.header.height == h);
    (reader.remaining() == 0 && contiguous).then_some((block, after))
}

/// Truncates `path` to `valid_end` (removing it entirely if empty) and
/// deletes every later segment — nothing after a corrupt record can be
/// trusted to be contiguous.
fn repair(
    disk: &Disk,
    path: &Path,
    valid_end: u64,
    later: &[(u64, PathBuf)],
) -> Result<(), StoreError> {
    if valid_end == 0 {
        disk.remove(path)?;
    } else {
        let mut file = disk.open(path, Mode::Append)?;
        file.resize(valid_end)?;
        file.sync()?;
    }
    for (_, later_path) in later {
        disk.remove(later_path)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_dir;
    use medchain_runtime::codec::Encode;
    use std::fs;

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
