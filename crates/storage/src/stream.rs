//! Chunked snapshot streaming: bootstrap a site from a peer, not from
//! its own disk.
//!
//! Local recovery (DESIGN.md §8) assumes the restarting site still owns
//! its WAL. A *new* site — or one whose disk was wiped — has nothing to
//! replay, and full block-by-block sync from genesis re-executes
//! history that a snapshot already summarizes. This module defines the
//! wire artifacts for the alternative (DESIGN.md §14): a peer serves
//! its newest snapshot as a [`SnapshotManifest`] plus CRC-framed
//! [`SnapshotChunk`]s over ordinary gateway frames, the joiner
//! reassembles them with [`SnapshotAssembler`], and catch-up finishes
//! with a WAL-tail of blocks applied through `Ledger::apply`.
//!
//! # Trust boundary
//!
//! A streamed snapshot is **untrusted bytes** until installed. The CRCs
//! here (per-chunk and whole-payload) catch transport truncation and
//! reordering — they are integrity against accident, not authenticity.
//! The manifest is untrusted too: [`SnapshotAssembler::new`] refuses one
//! whose chunk count does not match its length, and the assembler holds
//! only chunks that actually arrived, so a hostile manifest costs
//! nothing until the bytes it promises are delivered. The assembled
//! payload is then adopted as a local snapshot file and installed by
//! local recovery, whose checks are self-consistency only: the tree's
//! root must match the payload's *own* tip header and its leaf count
//! the decoded state. Nothing here checks that tip's seal, or that the
//! state values hash to the tree (DESIGN.md §14).
//!
//! # Resumability
//!
//! Chunks are self-describing (`height`, `index`, own CRC), so the
//! assembler accepts them in any order, ignores duplicates, and reports
//! [`missing`](SnapshotAssembler::missing) indices for re-request after
//! an interrupted transfer. A joiner that crashes mid-stream simply
//! re-requests: adopting is tmp + rename and a rejected payload is
//! removed again, so a torn install cannot exist.

use medchain_chain::hash::crc32;
use medchain_chain::hash::Hash256;
use medchain_chain::{Block, StateTree, WorldState};
use medchain_runtime::codec::Encode;
use medchain_runtime::impl_codec_struct;
use std::collections::BTreeMap;

/// Chunk payload size. Small enough that a chunk response fits the
/// gateway's 1 MiB frame cap with headroom; large enough that a
/// patient-scale snapshot streams in hundreds of round trips, not
/// millions.
pub const CHUNK_BYTES: usize = 256 * 1024;

/// Advertisement of one streamable snapshot: what the peer has, how it
/// is chunked, and the commitments the assembled bytes must satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// Snapshot height (the tip block it was taken after).
    pub height: u64,
    /// Id of that tip block — the joiner cross-checks it against the
    /// cohort's committed header chain before trusting the install.
    pub tip_id: Hash256,
    /// Authenticated state root the tip header commits to.
    pub state_root: Hash256,
    /// Number of chunks ([`CHUNK_BYTES`] each, last one short).
    pub chunk_count: u32,
    /// Total payload length in bytes.
    pub total_len: u64,
    /// CRC32 of the whole payload (accident-integrity; authenticity is
    /// the root check at install).
    pub crc: u32,
}

impl_codec_struct!(SnapshotManifest {
    height,
    tip_id,
    state_root,
    chunk_count,
    total_len,
    crc
});

/// One chunk of a streamed snapshot payload, self-describing and
/// individually CRC-framed so transfers are order-independent and
/// resumable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// Height of the snapshot this chunk belongs to.
    pub height: u64,
    /// Chunk index in `0..manifest.chunk_count`.
    pub index: u32,
    /// `CHUNK_BYTES` of payload (the final chunk carries the remainder).
    pub bytes: Vec<u8>,
    /// CRC32 of `bytes`.
    pub crc: u32,
}

impl_codec_struct!(SnapshotChunk { height, index, bytes, crc });

/// Builds the canonical snapshot payload a peer streams: tip block +
/// world state + authenticated tree, byte-identical to what
/// `SnapshotStore::write` frames to disk — so the receiving side can
/// adopt it as a local snapshot file and reuse the whole disk-snapshot
/// validation path.
pub fn snapshot_payload(tip: &Block, state: &WorldState, tree: &StateTree) -> Vec<u8> {
    let mut payload = tip.encoded();
    state.encode(&mut payload);
    tree.encode(&mut payload);
    payload
}

/// The manifest describing `payload` (as built by [`snapshot_payload`]
/// or read back from a snapshot file).
pub fn manifest_for(tip: &Block, payload: &[u8]) -> SnapshotManifest {
    let chunk_count = payload.len().div_ceil(CHUNK_BYTES).max(1);
    SnapshotManifest {
        height: tip.header.height,
        tip_id: tip.id(),
        state_root: tip.header.state_root,
        chunk_count: u32::try_from(chunk_count).expect("snapshot payload under 1 PiB"),
        total_len: payload.len() as u64,
        crc: crc32(payload),
    }
}

/// The `index`-th chunk of `payload`; `None` past the end.
pub fn chunk_at(height: u64, payload: &[u8], index: u32) -> Option<SnapshotChunk> {
    let start = (index as usize).checked_mul(CHUNK_BYTES)?;
    if start >= payload.len() && !(payload.is_empty() && index == 0) {
        return None;
    }
    let end = (start + CHUNK_BYTES).min(payload.len());
    let bytes = payload[start..end].to_vec();
    let crc = crc32(&bytes);
    Some(SnapshotChunk { height, index, bytes, crc })
}

/// Why an assembler rejected a chunk or refused to finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The manifest's chunk count does not match its total length.
    BadManifest,
    /// Chunk's height or index does not belong to the manifest.
    WrongChunk,
    /// Chunk bytes fail their own CRC, or have the wrong length for
    /// their position.
    CorruptChunk,
    /// Assembly finished but the payload fails the manifest's total
    /// length or CRC — the transfer must be re-requested.
    CorruptPayload,
    /// [`SnapshotAssembler::finish`] called with chunks still missing.
    Incomplete,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::BadManifest => write!(f, "manifest chunk count does not fit its length"),
            StreamError::WrongChunk => write!(f, "chunk does not belong to this manifest"),
            StreamError::CorruptChunk => write!(f, "chunk failed CRC or length check"),
            StreamError::CorruptPayload => write!(f, "assembled payload failed manifest check"),
            StreamError::Incomplete => write!(f, "chunks still missing"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Order-independent, resumable reassembly of a streamed snapshot.
///
/// Feed it the manifest, then chunks in any order (duplicates are
/// idempotent); ask [`missing`](Self::missing) what to re-request after
/// an interruption; [`finish`](Self::finish) yields the payload only if
/// every chunk arrived and the whole passes the manifest CRC.
#[derive(Debug)]
pub struct SnapshotAssembler {
    manifest: SnapshotManifest,
    /// Chunks received so far, by index: memory follows the bytes that
    /// arrived, never the count a manifest claims.
    chunks: BTreeMap<u32, Vec<u8>>,
}

impl SnapshotAssembler {
    /// Starts an empty assembly for `manifest`.
    ///
    /// # Errors
    ///
    /// [`StreamError::BadManifest`] unless `chunk_count` is the number
    /// of [`CHUNK_BYTES`] chunks `total_len` needs (one for an empty
    /// payload), as [`manifest_for`] computes it.
    pub fn new(manifest: SnapshotManifest) -> Result<SnapshotAssembler, StreamError> {
        let needed = manifest.total_len.div_ceil(CHUNK_BYTES as u64).max(1);
        if u64::from(manifest.chunk_count) != needed {
            return Err(StreamError::BadManifest);
        }
        Ok(SnapshotAssembler { manifest, chunks: BTreeMap::new() })
    }

    /// Accepts one chunk. Duplicates of an already-accepted index are
    /// ignored (idempotent re-request).
    ///
    /// # Errors
    ///
    /// [`StreamError::WrongChunk`] for a foreign height or
    /// out-of-range index; [`StreamError::CorruptChunk`] if the bytes
    /// fail their CRC or are mis-sized for the position.
    pub fn accept(&mut self, chunk: SnapshotChunk) -> Result<(), StreamError> {
        if chunk.height != self.manifest.height || chunk.index >= self.manifest.chunk_count {
            return Err(StreamError::WrongChunk);
        }
        if crc32(&chunk.bytes) != chunk.crc {
            return Err(StreamError::CorruptChunk);
        }
        // `new` checked the count against the length, so every index in
        // range starts inside the payload.
        let start = u64::from(chunk.index) * CHUNK_BYTES as u64;
        let expected_len = (self.manifest.total_len - start).min(CHUNK_BYTES as u64);
        if chunk.bytes.len() as u64 != expected_len {
            return Err(StreamError::CorruptChunk);
        }
        self.chunks.entry(chunk.index).or_insert(chunk.bytes);
        Ok(())
    }

    /// Indices not yet received, ascending — the resume set to
    /// re-request. Lazy: it allocates nothing.
    pub fn missing(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.manifest.chunk_count).filter(|index| !self.chunks.contains_key(index))
    }

    /// Whether every chunk has arrived.
    fn is_complete(&self) -> bool {
        self.chunks.len() == self.manifest.chunk_count as usize
    }

    /// Consumes the assembler, yielding the verified payload.
    ///
    /// # Errors
    ///
    /// [`StreamError::Incomplete`] if chunks are missing;
    /// [`StreamError::CorruptPayload`] if the concatenation fails the
    /// manifest's CRC commitment.
    pub fn finish(self) -> Result<Vec<u8>, StreamError> {
        if !self.is_complete() {
            return Err(StreamError::Incomplete);
        }
        // Every chunk was length-checked on arrival, so the pieces add
        // up to exactly `total_len`.
        let payload = self.chunks.into_values().collect::<Vec<_>>().concat();
        if crc32(&payload) != self.manifest.crc {
            return Err(StreamError::CorruptPayload);
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_and_tip(len: usize) -> (Block, Vec<u8>) {
        let mut tip = Block::genesis("stream-test");
        tip.header.height = 7;
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        (tip, payload)
    }

    #[test]
    fn chunks_reassemble_out_of_order_with_duplicates() {
        let (tip, payload) = payload_and_tip(CHUNK_BYTES * 2 + 1234);
        let manifest = manifest_for(&tip, &payload);
        assert_eq!(manifest.chunk_count, 3);
        let mut asm = SnapshotAssembler::new(manifest.clone()).unwrap();
        for index in [2u32, 0, 2, 1] {
            asm.accept(chunk_at(manifest.height, &payload, index).unwrap()).unwrap();
        }
        assert!(asm.is_complete());
        assert_eq!(asm.finish().unwrap(), payload);
    }

    #[test]
    fn interrupted_transfer_reports_missing_and_resumes() {
        let (tip, payload) = payload_and_tip(CHUNK_BYTES * 4);
        let manifest = manifest_for(&tip, &payload);
        let mut asm = SnapshotAssembler::new(manifest.clone()).unwrap();
        asm.accept(chunk_at(manifest.height, &payload, 1).unwrap()).unwrap();
        asm.accept(chunk_at(manifest.height, &payload, 3).unwrap()).unwrap();
        assert_eq!(asm.missing().collect::<Vec<_>>(), vec![0, 2]);
        for index in [0, 2] {
            asm.accept(chunk_at(manifest.height, &payload, index).unwrap()).unwrap();
        }
        assert_eq!(asm.finish().unwrap(), payload);
    }

    #[test]
    fn corrupt_and_foreign_chunks_are_rejected() {
        let (tip, payload) = payload_and_tip(CHUNK_BYTES + 9);
        let manifest = manifest_for(&tip, &payload);
        let mut asm = SnapshotAssembler::new(manifest.clone()).unwrap();
        let mut bad = chunk_at(manifest.height, &payload, 0).unwrap();
        bad.bytes[0] ^= 0xFF;
        assert_eq!(asm.accept(bad), Err(StreamError::CorruptChunk));
        let mut foreign = chunk_at(manifest.height, &payload, 0).unwrap();
        foreign.height = 99;
        assert_eq!(asm.accept(foreign), Err(StreamError::WrongChunk));
        let out_of_range = SnapshotChunk { height: manifest.height, index: 7, bytes: vec![], crc: crc32(&[]) };
        assert_eq!(asm.accept(out_of_range), Err(StreamError::WrongChunk));
        assert_eq!(asm.missing().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn truncated_last_chunk_is_rejected_not_installed() {
        let (tip, payload) = payload_and_tip(CHUNK_BYTES + 500);
        let manifest = manifest_for(&tip, &payload);
        let mut asm = SnapshotAssembler::new(manifest.clone()).unwrap();
        // A "last" chunk torn short of its declared remainder must be
        // refused even with a self-consistent CRC.
        let torn = &payload[CHUNK_BYTES..CHUNK_BYTES + 100];
        let chunk = SnapshotChunk {
            height: manifest.height,
            index: 1,
            bytes: torn.to_vec(),
            crc: crc32(torn),
        };
        assert_eq!(asm.accept(chunk), Err(StreamError::CorruptChunk));
        assert_eq!(asm.finish().unwrap_err(), StreamError::Incomplete);
    }

    /// A manifest is untrusted input: one whose chunk count does not fit
    /// its length is refused up front (a count too large for the length
    /// used to underflow the last chunk's expected size), and one that
    /// is consistent but enormous costs nothing until its chunks arrive.
    #[test]
    fn hostile_manifests_are_refused_or_cost_nothing() {
        let (tip, payload) = payload_and_tip(CHUNK_BYTES + 9);
        let honest = manifest_for(&tip, &payload);
        let full = honest.total_len;
        for (chunk_count, total_len) in
            [(0, full), (3, full), (2, 1), (2, 0), (u32::MAX, full), (2, u64::MAX)]
        {
            let manifest = SnapshotManifest { chunk_count, total_len, ..honest.clone() };
            let refused = SnapshotAssembler::new(manifest).unwrap_err();
            assert_eq!(refused, StreamError::BadManifest, "{chunk_count} chunks of {total_len}");
        }
        let huge = SnapshotManifest {
            chunk_count: u32::MAX,
            total_len: u64::from(u32::MAX) * CHUNK_BYTES as u64,
            ..honest.clone()
        };
        let mut asm = SnapshotAssembler::new(huge).unwrap();
        assert_eq!(asm.missing().next(), Some(0));
        // The honest payload's short tail is no full chunk of the huge one.
        let tail = chunk_at(honest.height, &payload, 1).unwrap();
        assert_eq!(asm.accept(tail), Err(StreamError::CorruptChunk));
        assert_eq!(asm.finish().unwrap_err(), StreamError::Incomplete);
    }
}
