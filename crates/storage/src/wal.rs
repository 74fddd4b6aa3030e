//! The append-only segmented block log.
//!
//! Each record (the crate's one record format, `record.rs`) carries
//! one block's canonical-codec [`Block`] bytes. Segments are named
//! `seg-<first-height, zero-padded>.wal` so a lexicographic directory
//! listing is also the height order. A scan on open validates every
//! record (complete, CRC, decode, height contiguity) and truncates the
//! file at the first invalid one — a torn tail from a crash mid-append
//! recovers to the last durable block.
//!
//! The scan keeps no block. It keeps where each record starts — a
//! height → (segment, offset) index that every append extends — so
//! [`SegmentedLog::read_block`] reads any logged height back with one
//! seek and one record read.

use crate::durable::{self, Disk, DurableFile, Mode};
use crate::record::{frame_record, read_record, split_record};
use medchain_chain::store::StoreError;
use medchain_chain::Block;
use medchain_runtime::codec::{Decode, Reader};
use medchain_runtime::metrics::Metrics;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

const SEG_PREFIX: &str = "seg-";
const SEG_SUFFIX: &str = ".wal";

/// Outcome of scanning the log on open.
#[derive(Debug)]
pub struct ScanResult {
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
    /// Every segment, oldest first; appends go to the last.
    segments: Vec<Segment>,
    /// The last segment, open to append (`None` until a segment exists).
    tail: Option<DurableFile>,
    /// Height of the first record (`None` = empty log, the first append
    /// pins it).
    first_height: Option<u64>,
    /// The byte offset of each record in its segment, by height from
    /// `first_height`: 8 bytes a block.
    offsets: Vec<u64>,
    /// The segment the last read opened, by index, kept for the next.
    reader: Mutex<Option<(usize, DurableFile)>>,
}

/// One segment file of the log.
#[derive(Debug)]
struct Segment {
    /// Height of its first record, or of the first record it will take
    /// while it holds none.
    first: u64,
    path: PathBuf,
    /// Bytes of whole records it holds.
    len: u64,
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

    /// [`SegmentedLog::open`] on `disk`. Each segment is read whole,
    /// checked and indexed, then dropped before the next is read.
    pub(crate) fn open_in(
        disk: Disk,
        dir: &Path,
        segment_bytes: u64,
    ) -> Result<(SegmentedLog, ScanResult), StoreError> {
        disk.create_dir(dir)?;
        let files = disk.height_files(dir, SEG_PREFIX, SEG_SUFFIX)?;
        let dir = dir.to_path_buf();
        let reader = Mutex::new(None);
        let (segments, offsets) = (Vec::new(), Vec::new());
        let mut log = SegmentedLog {
            disk,
            dir,
            segment_bytes,
            segments,
            tail: None,
            first_height: None,
            offsets,
            reader,
        };
        let mut truncated_records = 0u64;
        for (i, (named, path)) in files.iter().enumerate() {
            let bytes = log.disk.read(path)?;
            let before = log.next_height();
            let (valid_end, bad) = log.scan_segment(&bytes);
            let first = before.or(log.first_height).unwrap_or(*named);
            // A segment cut whole leaves the one before it (if any) as
            // the append tail.
            if !bad || valid_end > 0 {
                log.segments.push(Segment { first, path: path.clone(), len: valid_end });
            }
            if bad {
                truncated_records += 1;
                repair(&log.disk, path, valid_end, &files[i + 1..])?;
                break;
            }
        }
        if let Some(last) = log.segments.last() {
            log.tail = Some(log.disk.open(&last.path, Mode::Append)?);
        }
        Ok((log, ScanResult { truncated_records }))
    }

    /// Indexes the records of one segment's bytes, the next segment of
    /// the log. Returns the byte offset after the last valid record, and
    /// whether an invalid record — torn, overlong, corrupt, undecodable
    /// or out of height order — stopped the scan.
    fn scan_segment(&mut self, bytes: &[u8]) -> (u64, bool) {
        let mut rest = bytes;
        while !rest.is_empty() {
            let Some((height, after)) = next_block(rest, self.next_height()) else {
                return ((bytes.len() - rest.len()) as u64, true);
            };
            self.first_height.get_or_insert(height);
            self.offsets.push((bytes.len() - rest.len()) as u64);
            rest = after;
        }
        (bytes.len() as u64, false)
    }

    /// The heights the log holds, oldest first (empty for an empty log).
    pub fn heights(&self) -> Range<u64> {
        let first = self.first_height.unwrap_or(0);
        first..first + self.offsets.len() as u64
    }

    /// Height the next appended record must carry (`None` = empty log).
    fn next_height(&self) -> Option<u64> {
        self.first_height.map(|first| first + self.offsets.len() as u64)
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
        if let Some(expected) = self.next_height() {
            if height != expected {
                return Err(StoreError::HeightGap { expected, got: height });
            }
        }
        let roll = match self.segments.last() {
            Some(segment) => segment.len > 0 && segment.len + record.len() as u64 > self.segment_bytes,
            None => true,
        };
        if roll {
            self.sync()?;
            let path = self.dir.join(durable::height_name(SEG_PREFIX, height, SEG_SUFFIX));
            self.tail = Some(self.disk.create_segment(&path)?);
            self.segments.push(Segment { first: height, path, len: 0 });
        }
        let segment = self.segments.last_mut().expect("tail segment just ensured");
        let file = self.tail.as_mut().expect("the last segment is open to append");
        file.append(&record)?;
        if segment.len == 0 {
            segment.first = height;
        }
        self.offsets.push(segment.len);
        segment.len += record.len() as u64;
        self.first_height.get_or_insert(height);
        Ok(record.len() as u64)
    }

    /// The block at `height`, read back through the index: one seek and
    /// one record read. `None` when the log holds no such height.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the read fails, and
    /// [`StoreError::Corrupt`] when the record no longer holds that
    /// block.
    pub fn read_block(&self, height: u64) -> Result<Option<Block>, StoreError> {
        let logged = self.heights();
        if !logged.contains(&height) {
            return Ok(None);
        }
        let offset = self.offsets[(height - logged.start) as usize];
        let at = self.segments.partition_point(|segment| segment.first <= height) - 1;
        let segment = &self.segments[at];
        let mut reader = self.reader.lock().unwrap_or_else(PoisonError::into_inner);
        if reader.as_ref().is_none_or(|(open, _)| *open != at) {
            *reader = Some((at, self.disk.open(&segment.path, Mode::Read)?));
        }
        let (_, file) = reader.as_mut().expect("opened above");
        let payload = read_record(&mut file.reader_at(offset), segment.len - offset)?;
        let block = decode_block(&payload, Some(height)).ok_or_else(|| StoreError::Corrupt {
            file: segment.path.display().to_string(),
            offset,
            reason: format!("the record is not the block at height {height}"),
        })?;
        Ok(Some(block))
    }

    /// Fsyncs the tail segment, if one is open.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(file) = self.tail.as_mut() {
            file.sync()?;
        }
        Ok(())
    }
}

/// The height of the block in the record at the front of `bytes` and
/// the bytes after it; `None` unless the record holds, its payload is
/// exactly one block, and that block is at `expected` height (when one
/// is expected).
fn next_block(bytes: &[u8], expected: Option<u64>) -> Option<(u64, &[u8])> {
    let (payload, after) = split_record(bytes).ok()?;
    let block = decode_block(payload, expected)?;
    Some((block.header.height, after))
}

/// The block `payload` holds; `None` unless it is exactly one block, at
/// `expected` height when one is expected.
fn decode_block(payload: &[u8], expected: Option<u64>) -> Option<Block> {
    let mut reader = Reader::new(payload);
    let block = Block::decode(&mut reader).ok()?;
    let contiguous = expected.is_none_or(|h| block.header.height == h);
    (reader.remaining() == 0 && contiguous).then_some(block)
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
        let (mut log, _) = SegmentedLog::open(&dir, 64).unwrap();
        assert!(log.heights().is_empty());
        let mut parent = genesis;
        let mut blocks = Vec::new();
        for h in 1..=5 {
            let b = block_at(h, &parent);
            log.append(h, &b.encoded()).unwrap();
            // Read back at once, from the segment the append wrote.
            assert_eq!(log.read_block(h).unwrap().as_ref(), Some(&b));
            parent = b.clone();
            blocks.push(b);
        }
        log.sync().unwrap();
        drop(log);

        let (log, scan) = SegmentedLog::open(&dir, 64).unwrap();
        assert_eq!(scan.truncated_records, 0);
        assert_eq!(log.heights(), 1..6);
        assert_eq!(log.next_height(), Some(6));
        // The index the scan rebuilt reads every height back, in any order.
        for h in [3, 1, 5, 2, 4] {
            assert_eq!(log.read_block(h).unwrap().as_ref(), Some(&blocks[h as usize - 1]));
        }
        assert_eq!(log.read_block(0).unwrap(), None);
        assert_eq!(log.read_block(6).unwrap(), None);
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
