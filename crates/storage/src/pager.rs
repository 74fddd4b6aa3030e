//! Disk-backed pagers: the bridge between the ledger's paged-state
//! traits and the [`PageStore`].
//!
//! `medchain-chain` defines *what* falls cold —
//! [`AccountPager`] for account records demoted out of the hot
//! `WorldState` map, [`NodePager`] for sparse-Merkle subtrees spilled
//! out of the resident tree — without saying *where* cold data
//! lives. This module supplies the disk-resident answer (DESIGN.md
//! §14): both pagers write CRC-framed extents through one shared
//! [`PageStore`], so the one `.state_cache(pages)` budget caps the hot
//! working set for accounts and tree nodes together.
//!
//! # Implementor rules (mirroring the `store.rs` precedent)
//!
//! - **One pager pair = one sub-chain's cold state.** Pagers are not
//!   shared across shards; each site opens its own page file under its
//!   shard directory.
//! - **Derived data only.** Everything a pager holds is recomputable
//!   from the authoritative snapshot + WAL. The page file is truncated
//!   on open and carries no crash-recovery obligations of its own —
//!   crash consistency is the WAL's job.
//! - **Loss is fatal, not absorbable.** Once an entry is paged out, the
//!   pager is the only copy in the process. A failed read (CRC
//!   mismatch, dead page) must panic with context — returning a default
//!   would silently fork the state root. Both pagers uphold this.
//! - **Disjointness is the caller's invariant.** The ledger guarantees
//!   an address is hot *or* cold, never both; [`PagedAccounts::store`]
//!   debug-asserts it.
//!
//! # Packing
//!
//! Account records are tiny (36 bytes framed) against a 4 KiB page, so
//! [`PagedAccounts`] stages demotions and packs up to
//! [`ACCOUNTS_PER_PAGE`] of them into one extent. The in-memory index
//! maps each cold address to its page; `take` drops the index entry and
//! frees the page once its last member is promoted (stale bytes on a
//! partially-evacuated page are unreachable — lookups only go through
//! the index). Tree nodes arrive pre-packed: a spilled subtree's
//! preorder encoding is written verbatim as one extent. [`PagedNodes`]
//! frees only what the tree hands back — pages one spill call stored
//! and folded into a larger page before any clone could see them; old
//! tree clones may still reference every other spilled page, so the
//! rest is reclaimed by truncate-on-open.

use crate::pages::{PageId, PageStore};
use medchain_chain::ledger::{Account, AccountPager};
use medchain_chain::sig::Address;
use medchain_chain::NodePager;
use medchain_runtime::codec::{Decode, Encode, Reader};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Demoted account records packed per page extent: `count(4) +
/// count · (addr 20 + balance 8 + nonce 8)` must fit one 4 KiB slot.
pub const ACCOUNTS_PER_PAGE: usize = 64;

/// Disk-backed [`AccountPager`]: cold account records packed into
/// CRC-framed page extents, with an in-memory address → page index.
///
/// Demotions stage in memory and flush to a shared page once
/// [`ACCOUNTS_PER_PAGE`] accumulate (or on [`flush`](Self::flush), the
/// snapshot-boundary write-back), so a block that demotes a thousand
/// accounts costs ~16 page writes, not a thousand.
pub struct PagedAccounts {
    pages: Arc<PageStore>,
    inner: Mutex<AccountsInner>,
}

#[derive(Default)]
struct AccountsInner {
    /// Demoted but not yet packed to a page.
    staged: BTreeMap<Address, Account>,
    /// Cold address → page holding its packed record.
    index: BTreeMap<Address, PageId>,
    /// Members still reachable on each page; 0 ⇒ the page is freed.
    members: HashMap<PageId, usize>,
}

impl PagedAccounts {
    /// Wraps a page store. The store must be freshly opened (empty):
    /// the index starts empty, so pre-existing extents would be leaked,
    /// never resurrected.
    pub fn new(pages: Arc<PageStore>) -> PagedAccounts {
        PagedAccounts { pages, inner: Mutex::new(AccountsInner::default()) }
    }

    /// Packs all staged records into page extents (normally they pack
    /// lazily in batches of [`ACCOUNTS_PER_PAGE`]).
    pub fn pack_staged(&self) {
        let mut inner = self.inner.lock().expect("account pager poisoned");
        Self::pack(&mut inner, &self.pages, 1);
    }

    /// Packs staged records into pages while at least `min` remain.
    fn pack(inner: &mut AccountsInner, pages: &PageStore, min: usize) {
        while inner.staged.len() >= min.max(1) {
            let batch: Vec<(Address, Account)> = {
                let keys: Vec<Address> =
                    inner.staged.keys().take(ACCOUNTS_PER_PAGE).copied().collect();
                keys.iter()
                    .map(|addr| (*addr, inner.staged.remove(addr).expect("key just listed")))
                    .collect()
            };
            let mut payload = Vec::with_capacity(4 + batch.len() * 36);
            u32::try_from(batch.len()).expect("batch bounded by ACCOUNTS_PER_PAGE").encode(
                &mut payload,
            );
            for (addr, account) in &batch {
                addr.encode(&mut payload);
                account.encode(&mut payload);
            }
            let page = pages.write(&payload).unwrap_or_else(|e| {
                panic!("account pager: page write failed ({e}); cold state would be lost")
            });
            inner.members.insert(page, batch.len());
            for (addr, _) in batch {
                inner.index.insert(addr, page);
            }
        }
    }

    /// Decodes one packed page and returns the record for `addr`
    /// (`addr` must be a live member of `page`).
    fn read_member(&self, page: PageId, addr: &Address) -> Account {
        let payload = self.pages.read(page).unwrap_or_else(|e| {
            panic!("account pager: lost page {page} holding {addr:?}: {e}")
        });
        let mut r = Reader::new(&payload);
        let count = u32::decode(&mut r).expect("packed page count");
        for _ in 0..count {
            let member = Address::decode(&mut r).expect("packed page address");
            let account = Account::decode(&mut r).expect("packed page account");
            if member == *addr {
                return account;
            }
        }
        panic!("account pager: page {page} is indexed for {addr:?} but does not contain it");
    }
}

impl AccountPager for PagedAccounts {
    fn load(&self, addr: &Address) -> Option<Account> {
        let page = {
            let inner = self.inner.lock().expect("account pager poisoned");
            if let Some(account) = inner.staged.get(addr) {
                return Some(*account);
            }
            *inner.index.get(addr)?
        };
        Some(self.read_member(page, addr))
    }

    fn take(&self, addr: &Address) -> Option<Account> {
        let page = {
            let mut inner = self.inner.lock().expect("account pager poisoned");
            if let Some(account) = inner.staged.remove(addr) {
                return Some(account);
            }
            inner.index.remove(addr)?
        };
        let account = self.read_member(page, addr);
        let mut inner = self.inner.lock().expect("account pager poisoned");
        let members = inner.members.get_mut(&page).expect("indexed page has a member count");
        *members -= 1;
        if *members == 0 {
            inner.members.remove(&page);
            self.pages.free(page);
        }
        Some(account)
    }

    fn store(&self, addr: &Address, account: &Account) {
        let mut inner = self.inner.lock().expect("account pager poisoned");
        debug_assert!(
            !inner.index.contains_key(addr),
            "ledger demoted an address that is already cold"
        );
        inner.staged.insert(*addr, *account);
        Self::pack(&mut inner, &self.pages, ACCOUNTS_PER_PAGE);
    }

    fn len(&self) -> usize {
        let inner = self.inner.lock().expect("account pager poisoned");
        inner.staged.len() + inner.index.len()
    }

    fn entries(&self) -> Vec<(Address, Account)> {
        let (staged, index) = {
            let inner = self.inner.lock().expect("account pager poisoned");
            (inner.staged.clone(), inner.index.clone())
        };
        // Ordered merge of the two disjoint sorted maps; pages are read
        // once each via the store's cache, not once per member.
        let mut out: Vec<(Address, Account)> = staged.into_iter().collect();
        for (addr, page) in index {
            out.push((addr, self.read_member(page, &addr)));
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn flush(&self) {
        self.pack_staged();
        self.pages.flush().unwrap_or_else(|e| {
            panic!("account pager: page flush failed ({e}); cold state would be lost")
        });
    }
}

/// Disk-backed [`NodePager`]: each spilled subtree's preorder encoding
/// is one CRC-framed extent.
///
/// Pages a tree came out of a spill holding are never freed mid-run —
/// structurally-shared tree clones (proof servers, in-flight
/// `with_delta` bases) may still reference a stub long after the live
/// tree re-spilled the region — so stale extents accumulate until the
/// next process start truncates the file. Pages a spill wrote and
/// folded away within the same call come back through `free_node`.
pub struct PagedNodes {
    pages: Arc<PageStore>,
}

impl PagedNodes {
    /// Wraps a page store (freshly opened, like [`PagedAccounts::new`]).
    pub fn new(pages: Arc<PageStore>) -> PagedNodes {
        PagedNodes { pages }
    }
}

impl NodePager for PagedNodes {
    fn store_node(&self, bytes: &[u8]) -> u64 {
        self.pages.write(bytes).unwrap_or_else(|e| {
            panic!("node pager: page write failed ({e}); spilled subtree would be lost")
        })
    }

    fn load_node(&self, page: u64) -> Vec<u8> {
        self.pages.read(page).unwrap_or_else(|e| {
            panic!("node pager: lost spilled subtree page {page}: {e}")
        })
    }

    fn free_node(&self, page: u64) {
        self.pages.free(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::metrics::{Metrics, Registry};

    fn store(tag: &str, cache_pages: usize) -> Arc<PageStore> {
        let dir = crate::testutil::test_dir(tag);
        Arc::new(PageStore::open(&dir.join("pages.bin"), cache_pages, Metrics::noop()).unwrap())
    }

    fn addr(n: u8) -> Address {
        Address([n; 20])
    }

    fn account(n: u64) -> Account {
        Account { balance: n * 10, nonce: n }
    }

    #[test]
    fn staged_records_round_trip_without_packing() {
        let pager = PagedAccounts::new(store("staged", 4));
        pager.store(&addr(1), &account(1));
        pager.store(&addr(2), &account(2));
        assert_eq!(pager.len(), 2);
        assert_eq!(pager.load(&addr(1)), Some(account(1)));
        assert_eq!(pager.take(&addr(2)), Some(account(2)));
        assert_eq!(pager.len(), 1);
        assert_eq!(pager.load(&addr(2)), None);
    }

    #[test]
    fn packed_pages_serve_loads_takes_and_entries() {
        let pages = store("packed", 2);
        let pager = PagedAccounts::new(Arc::clone(&pages));
        let n = ACCOUNTS_PER_PAGE as u64 * 2 + 7;
        for i in 0..n {
            pager.store(&addr(i as u8), &account(i));
        }
        // Two full batches packed, the remainder staged.
        assert_eq!(pages.live(), 2);
        assert_eq!(pager.len(), n as usize);
        for i in (0..n).step_by(13) {
            assert_eq!(pager.load(&addr(i as u8)), Some(account(i)), "load {i}");
        }
        let entries = pager.entries();
        assert_eq!(entries.len(), n as usize);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries sorted");
        for i in 0..n {
            assert_eq!(pager.take(&addr(i as u8)), Some(account(i)), "take {i}");
        }
        assert_eq!(pager.len(), 0);
        // Fully-evacuated pages were freed.
        assert_eq!(pages.live(), 0);
    }

    #[test]
    fn flush_packs_the_partial_batch() {
        let pages = store("flush", 2);
        let pager = PagedAccounts::new(Arc::clone(&pages));
        pager.store(&addr(9), &account(9));
        assert_eq!(pages.live(), 0);
        pager.flush();
        assert_eq!(pages.live(), 1);
        assert_eq!(pager.load(&addr(9)), Some(account(9)));
    }

    #[test]
    fn node_pager_round_trips_with_tiny_cache() {
        let registry = Registry::new();
        let dir = crate::testutil::test_dir("nodes");
        let pages = Arc::new(
            PageStore::open(&dir.join("pages.bin"), 1, registry.handle()).unwrap(),
        );
        let pager = PagedNodes::new(pages);
        let blobs: Vec<Vec<u8>> =
            (0u8..8).map(|i| vec![i; 100 + i as usize * 997]).collect();
        let ids: Vec<u64> = blobs.iter().map(|b| pager.store_node(b)).collect();
        for (id, blob) in ids.iter().zip(&blobs) {
            assert_eq!(pager.load_node(*id), *blob);
        }
        // A one-page cache over multi-page extents forces misses.
        assert!(registry.counter_value("storage.page_misses") > 0);
    }

    /// A spill folds the stubs it writes into ever larger pages; only the
    /// pages the spilled tree still points at may stay live, or the page
    /// file grows by the whole tree several times over on every commit.
    #[test]
    fn spill_leaves_no_page_the_tree_does_not_reference() {
        use medchain_chain::{StateTree, WorldState};
        let registry = Registry::new();
        let dir = crate::testutil::test_dir("nodes-spill");
        let pages = Arc::new(
            PageStore::open(&dir.join("pages.bin"), 2, registry.handle()).unwrap(),
        );
        let mut state = WorldState::new();
        for n in 0..500u64 {
            state.credit(Address::from_seed(n), n + 1);
        }
        let resident = StateTree::from_state(&state);
        let mut spilled = resident.clone();
        spilled.attach_pager(Arc::new(PagedNodes::new(Arc::clone(&pages))));
        spilled.spill_to_budget(16);
        assert!(registry.counter_value("storage.page_frees") > 0, "no stub was ever folded");
        // Every stub is one resident node holding one page.
        assert!(pages.live() >= 1);
        assert!(
            pages.live() <= spilled.resident_nodes(),
            "{} live pages under {} resident nodes",
            pages.live(),
            spilled.resident_nodes()
        );
        assert!(spilled.audit());
        assert_eq!(spilled.encoded(), resident.encoded());
    }
}
