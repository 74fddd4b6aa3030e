//! Fixed-size disk pages with an LRU cache: the spill floor under
//! world state (DESIGN.md §14).
//!
//! A [`PageStore`] is a single `pages.bin` file divided into
//! [`PAGE_BYTES`] slots. One stored record occupies a contiguous run of
//! slots (an *extent*) and carries the same `[len u32 LE][crc u32 LE]
//! [payload]` header as a WAL record, so a page read is integrity-
//! checked exactly like a log replay. Callers address a record by the
//! [`PageId`] returned from [`PageStore::write`].
//!
//! ## Contract — one store = one sub-chain's spill file
//!
//! - The page file is **derived data**, not authority: everything in it
//!   can be rebuilt from the snapshot + WAL (the durable pair). The
//!   file is therefore truncated on [`PageStore::open`] — a restart
//!   begins fully resident and re-spills under cache pressure.
//!   Consequently a page-file CRC mismatch *during a run* is not a
//!   recoverable condition (nothing else holds those bytes); it
//!   surfaces as an I/O error rather than being silently skipped.
//! - Writes are **write-back**: a freshly written record lives in the
//!   cache as a dirty entry and reaches disk when it is evicted past
//!   the cache cap or when [`PageStore::flush`] is called (the ledger
//!   calls it at snapshot boundaries). A crash loses only dirty pages,
//!   which is safe precisely because the file is derived.
//! - The cache holds decoded payloads, capped in *slots* (not records)
//!   so one large extent counts its true footprint. Eviction is LRU;
//!   the most recently touched record is never evicted by its own
//!   insertion.
//! - [`PageStore::free`] returns an extent to the free list for reuse
//!   by later writes. Freeing is the caller's business: the ledger's
//!   cold account set frees a page when its last member promotes; the
//!   state tree frees a page when the last tree version naming it
//!   drops. It runs from that `Drop`, so it never panics.
//! - The store holds opaque bytes: it is the ledger's one [`Pager`], and
//!   the ledger owns both formats written through it (packed account
//!   records, spilled subtrees).
//!
//! Metrics (under the owning store's `Metrics` scope):
//! `storage.page_hits`, `storage.page_misses`, `storage.page_evictions`,
//! `storage.page_flushes`, `storage.page_writes`, `storage.page_frees`,
//! and a `storage.page_file_slots` gauge for the file's high-water mark.

use medchain_chain::hash::crc32;
use medchain_chain::Pager;
use medchain_runtime::metrics::Metrics;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// On-disk slot size. Records smaller than one slot still occupy a full
/// slot; larger records span a contiguous extent of slots.
pub const PAGE_BYTES: usize = 4096;

/// Bytes of `[len][crc]` header at the start of every extent.
const EXTENT_HEADER: usize = 8;

/// Handle to one stored record: the index of its first slot.
pub type PageId = u64;

struct CacheEntry {
    bytes: Vec<u8>,
    slots: u64,
    dirty: bool,
    last_used: u64,
}

struct Inner {
    file: File,
    /// High-water mark: slots ever allocated, including freed ones.
    slots: u64,
    /// Freed extents `(start, slots)`, reused first-fit.
    free: Vec<(u64, u64)>,
    /// Live extents `start -> slots`, so `free`/`read` know run lengths
    /// without consulting the file.
    extents: HashMap<u64, u64>,
    cache: HashMap<u64, CacheEntry>,
    cached_slots: u64,
    clock: u64,
}

/// A slotted page file with an LRU write-back cache. All methods take
/// `&self` (interior mutability), so one `Arc<PageStore>` backs a
/// ledger's cold accounts and its state tree's spilled subtrees at once.
pub struct PageStore {
    inner: Mutex<Inner>,
    cache_slots: u64,
    metrics: Metrics,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("page store poisoned");
        f.debug_struct("PageStore")
            .field("slots", &inner.slots)
            .field("live", &inner.extents.len())
            .field("cache_slots", &self.cache_slots)
            .finish()
    }
}

fn slots_for(payload_len: usize) -> u64 {
    (((EXTENT_HEADER + payload_len) + PAGE_BYTES - 1) / PAGE_BYTES) as u64
}

impl PageStore {
    /// Opens (and truncates) the page file at `path`, with a cache cap
    /// of `cache_pages` slots. The file holds derived data only, so
    /// truncation loses nothing — see the module contract.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn open(path: &Path, cache_pages: usize, metrics: Metrics) -> io::Result<PageStore> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new().create(true).read(true).write(true).open(path)?;
        file.set_len(0)?;
        Ok(PageStore {
            inner: Mutex::new(Inner {
                file,
                slots: 0,
                free: Vec::new(),
                extents: HashMap::new(),
                cache: HashMap::new(),
                cached_slots: 0,
                clock: 0,
            }),
            cache_slots: cache_pages.max(1) as u64,
            metrics,
        })
    }

    /// Stores `payload`, returning its [`PageId`]. The record is cached
    /// dirty (write-back); disk sees it on eviction or [`flush`].
    ///
    /// [`flush`]: PageStore::flush
    ///
    /// # Errors
    ///
    /// Returns the I/O error if an eviction's write-back fails.
    pub fn write(&self, payload: &[u8]) -> io::Result<PageId> {
        let mut inner = self.inner.lock().expect("page store poisoned");
        let slots = slots_for(payload.len());
        let start = Self::allocate(&mut inner, slots);
        inner.extents.insert(start, slots);
        inner.clock += 1;
        let clock = inner.clock;
        inner.cache.insert(
            start,
            CacheEntry { bytes: payload.to_vec(), slots, dirty: true, last_used: clock },
        );
        inner.cached_slots += slots;
        self.metrics.counter("storage.page_writes", 1);
        self.metrics.gauge("storage.page_file_slots", inner.slots as i64);
        self.evict_to_cap(&mut inner)?;
        Ok(start)
    }

    /// Reads the record at `page`, from cache or disk (CRC-checked).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if `page` is not a live extent or its
    /// on-disk CRC does not match (derived data is gone — the caller
    /// must treat this as data loss, not skip it), or the underlying
    /// I/O error.
    pub fn read(&self, page: PageId) -> io::Result<Vec<u8>> {
        let mut inner = self.inner.lock().expect("page store poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.cache.get_mut(&page) {
            entry.last_used = clock;
            let bytes = entry.bytes.clone();
            self.metrics.counter("storage.page_hits", 1);
            return Ok(bytes);
        }
        self.metrics.counter("storage.page_misses", 1);
        let slots = *inner.extents.get(&page).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("page {page} is not live"))
        })?;
        let bytes = Self::read_extent(&mut inner, page, slots)?;
        inner.cache.insert(
            page,
            CacheEntry { bytes: bytes.clone(), slots, dirty: false, last_used: clock },
        );
        inner.cached_slots += slots;
        self.evict_to_cap(&mut inner)?;
        Ok(bytes)
    }

    /// Returns the extent at `page` to the free list and drops any
    /// cached copy (dirty or not — a freed record needs no write-back).
    /// Never panics, because a dropped tree page calls it from `Drop`: a
    /// poisoned lock is taken as is, since nothing that can panic under
    /// it runs between the halves of an update to the maps and counts.
    pub fn free(&self, page: PageId) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(slots) = inner.extents.remove(&page) else { return };
        if let Some(entry) = inner.cache.remove(&page) {
            inner.cached_slots -= entry.slots;
        }
        inner.free.push((page, slots));
        self.metrics.counter("storage.page_frees", 1);
    }

    /// Writes every dirty cached record to disk and syncs the file.
    /// The ledger calls this at snapshot boundaries so a snapshot's
    /// spill file is consistent with the state it was taken against.
    ///
    /// # Errors
    ///
    /// Returns the first write or sync error.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("page store poisoned");
        let Inner { file, cache, .. } = &mut *inner;
        let mut flushed = 0;
        for (&start, entry) in cache.iter_mut().filter(|(_, e)| e.dirty) {
            Self::write_extent(file, start, &entry.bytes)?;
            entry.dirty = false;
            flushed += 1;
        }
        if flushed > 0 {
            file.sync_data()?;
            self.metrics.counter("storage.page_flushes", flushed);
        }
        Ok(())
    }

    /// Number of live (allocated, unfreed) extents.
    pub fn live(&self) -> usize {
        self.inner.lock().expect("page store poisoned").extents.len()
    }

    fn allocate(inner: &mut Inner, slots: u64) -> u64 {
        // First fit; an oversized hole is split, keeping the remainder.
        for i in 0..inner.free.len() {
            let (start, have) = inner.free[i];
            if have >= slots {
                if have == slots {
                    inner.free.swap_remove(i);
                } else {
                    inner.free[i] = (start + slots, have - slots);
                }
                return start;
            }
        }
        let start = inner.slots;
        inner.slots += slots;
        start
    }

    fn evict_to_cap(&self, inner: &mut Inner) -> io::Result<()> {
        while inner.cached_slots > self.cache_slots && inner.cache.len() > 1 {
            let (&victim, _) = inner
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .expect("cache non-empty");
            let entry = inner.cache.remove(&victim).expect("present");
            inner.cached_slots -= entry.slots;
            if entry.dirty {
                Self::write_extent(&mut inner.file, victim, &entry.bytes)?;
                self.metrics.counter("storage.page_flushes", 1);
            }
            self.metrics.counter("storage.page_evictions", 1);
        }
        Ok(())
    }

    fn write_extent(file: &mut File, start: u64, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::with_capacity(EXTENT_HEADER + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);
        file.seek(SeekFrom::Start(start * PAGE_BYTES as u64))?;
        file.write_all(&record)
    }

    fn read_extent(inner: &mut Inner, start: u64, slots: u64) -> io::Result<Vec<u8>> {
        let mut header = [0u8; EXTENT_HEADER];
        inner.file.seek(SeekFrom::Start(start * PAGE_BYTES as u64))?;
        inner.file.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if slots_for(len) > slots {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("page {start}: length {len} exceeds its {slots}-slot extent"),
            ));
        }
        let mut payload = vec![0u8; len];
        inner.file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("page {start}: CRC mismatch (spill data lost)"),
            ));
        }
        Ok(payload)
    }
}

/// The page store is the ledger's [`Pager`]: cold account pages and
/// spilled subtrees are each one CRC-framed extent. A failed write or
/// read loses the only copy of cold state, so both panic with context.
///
/// A tree page comes back through `free` when no tree version can reach
/// it: structurally-shared clones (proof servers, in-flight `with_delta`
/// bases, a snapshot being encoded) keep a stub — and so its page —
/// alive after the live tree has replaced it, and the last of them to
/// drop frees it. The page file therefore holds about one tree's pages,
/// not one per commit.
impl Pager for PageStore {
    fn store(&self, bytes: &[u8]) -> u64 {
        self.write(bytes).unwrap_or_else(|e| {
            panic!("pager: page write failed ({e}); cold state would be lost")
        })
    }

    fn load(&self, page: u64) -> Vec<u8> {
        self.read(page).unwrap_or_else(|e| panic!("pager: lost page {page}: {e}"))
    }

    fn free(&self, page: u64) {
        PageStore::free(self, page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_dir;
    use medchain_runtime::metrics::Registry;

    fn open(tag: &str, cache_pages: usize) -> (PageStore, Registry, std::path::PathBuf) {
        let dir = test_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = Registry::new();
        let store =
            PageStore::open(&dir.join("pages.bin"), cache_pages, registry.handle()).unwrap();
        (store, registry, dir)
    }

    #[test]
    fn write_read_round_trips_through_cache_and_disk() {
        let (store, metrics, dir) = open("pages-roundtrip", 2);
        let a = store.write(b"alpha").unwrap();
        let b = store.write(b"beta").unwrap();
        // Third write evicts the LRU entry (a) past the 2-slot cap.
        let c = store.write(&vec![7u8; 10_000]).unwrap();
        assert_eq!(store.read(a).unwrap(), b"alpha");
        assert_eq!(store.read(b).unwrap(), b"beta");
        assert_eq!(store.read(c).unwrap(), vec![7u8; 10_000]);
        assert!(metrics.counter_value("storage.page_evictions") > 0);
        assert!(metrics.counter_value("storage.page_misses") > 0);
        assert_eq!(store.live(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_slot_extents_span_contiguously() {
        let (store, _metrics, dir) = open("pages-extent", 1);
        let big = vec![0xABu8; PAGE_BYTES * 3];
        let small = b"tiny".to_vec();
        let p_big = store.write(&big).unwrap();
        let p_small = store.write(&small).unwrap();
        // Both were evicted or written back by now; reads hit disk.
        assert_eq!(store.read(p_big).unwrap(), big);
        assert_eq!(store.read(p_small).unwrap(), small);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn freed_extents_are_reused() {
        let (store, metrics, dir) = open("pages-free", 8);
        let a = store.write(&vec![1u8; PAGE_BYTES * 2]).unwrap();
        store.free(a);
        let b = store.write(&vec![2u8; PAGE_BYTES * 2]).unwrap();
        assert_eq!(a, b, "freed 2-slot extent reused first-fit");
        assert_eq!(store.live(), 1);
        assert_eq!(metrics.counter_value("storage.page_frees"), 1);
        // A freed page is no longer readable.
        let c = store.write(b"live").unwrap();
        store.free(c);
        assert!(store.read(c).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_persists_dirty_pages_and_detects_corruption() {
        let (store, metrics, dir) = open("pages-flush", 64);
        let ids: Vec<PageId> =
            (0u8..5).map(|i| store.write(&[i; 100]).unwrap()).collect();
        store.flush().unwrap();
        assert_eq!(metrics.counter_value("storage.page_flushes"), 5);
        store.flush().unwrap(); // nothing dirty: no extra flushes
        assert_eq!(metrics.counter_value("storage.page_flushes"), 5);
        // Corrupt page 0 on disk, then force a disk read by reopening.
        drop(store);
        let path = dir.join("pages.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[EXTENT_HEADER] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // Reopen truncates: derived data never survives a restart.
        let store = PageStore::open(&path, 64, Registry::new().handle()).unwrap();
        assert_eq!(store.live(), 0);
        assert!(store.read(ids[0]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_keeps_hot_pages_resident() {
        let (store, metrics, dir) = open("pages-lru", 2);
        let hot = store.write(b"hot").unwrap();
        let cold = store.write(b"cold").unwrap();
        store.flush().unwrap();
        for _ in 0..10 {
            store.read(hot).unwrap(); // keep hot recent
            store.write(b"churn").unwrap(); // evicts LRU = cold or churn
        }
        let hits_before = metrics.counter_value("storage.page_hits");
        store.read(hot).unwrap();
        assert_eq!(metrics.counter_value("storage.page_hits"), hits_before + 1);
        let misses_before = metrics.counter_value("storage.page_misses");
        store.read(cold).unwrap();
        assert_eq!(metrics.counter_value("storage.page_misses"), misses_before + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pager_round_trips_with_tiny_cache() {
        let (store, registry, dir) = open("pages-pager", 1);
        let pager: &dyn Pager = &store;
        let blobs: Vec<Vec<u8>> =
            (0u8..8).map(|i| vec![i; 100 + i as usize * 997]).collect();
        let ids: Vec<u64> = blobs.iter().map(|b| pager.store(b)).collect();
        for (id, blob) in ids.iter().zip(&blobs) {
            assert_eq!(pager.load(*id), *blob);
        }
        // A one-page cache over multi-page extents forces misses.
        assert!(registry.counter_value("storage.page_misses") > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A spill stores one page per stub and nothing else — no page is
    /// written and then folded into a bigger one — a second spill of the
    /// unchanged tree writes nothing, and once the tree drops every page
    /// is back in the store.
    #[test]
    fn spill_leaves_no_page_the_tree_does_not_reference() {
        use medchain_chain::auth::leaf::{key_bit, key_hash};
        use medchain_chain::sig::Address;
        use medchain_chain::{LeafKey, StateTree, WorldState};
        use medchain_runtime::codec::Encode;
        use std::sync::Arc;
        let (store, registry, dir) = open("pages-spill", 2);
        let pages = Arc::new(store);
        let addrs: Vec<Address> = (0..500u64).map(Address::from_seed).collect();
        let mut state = WorldState::new();
        for (n, addr) in (1..).zip(&addrs) {
            state.credit(*addr, n);
        }
        let resident = StateTree::from_state(&state);
        let mut spilled = resident.clone();
        let pager = Arc::clone(&pages) as Arc<dyn Pager>;
        spilled.spill_to_budget(&pager, 16);

        // A 16-node budget cuts at depth 3: one stub stands at each 3-bit
        // key prefix that two or more accounts share.
        let mut per_prefix = [0usize; 8];
        for addr in &addrs {
            let kh = key_hash(&LeafKey::Account(*addr));
            per_prefix[(0..3).fold(0, |p, d| 2 * p + usize::from(key_bit(&kh, d)))] += 1;
        }
        let stubs = per_prefix.iter().filter(|&&n| n >= 2).count();
        assert_eq!(pages.live(), stubs);
        assert_eq!(registry.counter_value("storage.page_frees"), 0, "a page was folded");
        assert!(spilled.resident_nodes() <= 16, "{} resident", spilled.resident_nodes());

        let writes = registry.counter_value("storage.page_writes");
        spilled.spill_to_budget(&pager, 16);
        assert_eq!(registry.counter_value("storage.page_writes"), writes, "a re-spill wrote");
        assert!(spilled.audit());
        assert_eq!(spilled.encoded(), resident.encoded());
        drop(spilled);
        assert_eq!(pages.live(), 0, "pages outlived the only tree naming them");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
