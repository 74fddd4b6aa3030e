//! Paging cold state to disk (DESIGN.md §14): the one [`Pager`] trait
//! and the cold account set that packs demoted records onto its pages.
//!
//! The ledger owns both page formats. A spilled tree subtree is its
//! preorder encoding (`auth::smt`); a page of cold accounts is a count
//! and up to [`ACCOUNTS_PER_PAGE`] `(address, account)` records, packed
//! here. The pager below them stores opaque bytes, so one page store
//! under one budget holds a site's cold accounts and cold subtrees
//! together.
//!
//! # The cold account set
//!
//! With a pager attached, [`WorldState`](crate::WorldState) keeps only
//! its hot account records in memory, and its cold set holds the rest.
//! An address is hot *or* cold, never both: every write path promotes
//! (takes) the cold record first, and demotion moves records the other
//! way, so the merged view — reads, iteration, counts, equality and the
//! canonical encoding — is identical to a fully resident state. Paging
//! is representation, never semantics.
//!
//! Only accounts page out. `storage`/`code` reads hand back borrowed
//! slices, which a disk fall-through behind `&self` cannot produce, so
//! those components stay resident; accounts are the component the
//! paper's consortium grows by the million.
//!
//! Account records are tiny (36 bytes) against a 4 KiB page, so
//! demotions stage in memory and pack [`ACCOUNTS_PER_PAGE`] to a page:
//! a block that demotes a thousand accounts writes 16 pages, not a
//! thousand. An in-memory index maps each cold address to its page;
//! a page is freed once its last member is promoted (bytes left on a
//! partly evacuated page are unreachable, since lookups go through the
//! index).

use crate::state::Account;
use crate::sig::Address;
use medchain_runtime::codec::{Decode, Encode, Reader};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Disk backing for cold state — implemented by `medchain-storage`'s
/// page store.
///
/// Pages hold derived data: everything in them is recomputable from the
/// snapshot and the block log, so an implementor may discard them across
/// restarts. Once a record is paged out, though, the pager holds its only
/// copy in the process: a load failure **mid-run** is data loss, and an
/// implementor panics with context rather than return anything.
pub trait Pager: Send + Sync {
    /// Persists `bytes` as one page, returning its handle.
    fn store(&self, bytes: &[u8]) -> u64;
    /// Loads the bytes previously stored under `page`.
    fn load(&self, page: u64) -> Vec<u8>;
    /// Gives `page` back for reuse. A page's owner calls this once, when
    /// nothing can reach the page any more; the state tree does so from
    /// `Drop`, so it must not panic.
    fn free(&self, page: u64);
}

/// Demoted account records packed per page: `count(4) + count · (addr 20
/// + balance 8 + nonce 8)` fits one 4 KiB slot.
pub const ACCOUNTS_PER_PAGE: usize = 64;

/// The cold account records of one [`WorldState`](crate::WorldState):
/// staged ones in memory, packed ones on the pager's pages. Written only
/// through `&mut WorldState`, so it needs no lock of its own.
pub(crate) struct ColdAccounts {
    pager: Arc<dyn Pager>,
    /// Demoted but not yet packed to a page.
    staged: BTreeMap<Address, Account>,
    /// Cold address → page holding its packed record.
    index: BTreeMap<Address, u64>,
    /// Members still reachable on each page; 0 ⇒ the page is freed.
    members: BTreeMap<u64, usize>,
}

impl ColdAccounts {
    /// An empty cold set over `pager`.
    pub(crate) fn new(pager: Arc<dyn Pager>) -> ColdAccounts {
        ColdAccounts {
            pager,
            staged: BTreeMap::new(),
            index: BTreeMap::new(),
            members: BTreeMap::new(),
        }
    }

    /// Number of cold records.
    pub(crate) fn len(&self) -> usize {
        self.staged.len() + self.index.len()
    }

    /// Whether `addr` has a cold record.
    pub(crate) fn contains(&self, addr: &Address) -> bool {
        self.staged.contains_key(addr) || self.index.contains_key(addr)
    }

    /// Reads the cold record for `addr` without promoting it.
    pub(crate) fn load(&self, addr: &Address) -> Option<Account> {
        if let Some(account) = self.staged.get(addr) {
            return Some(*account);
        }
        let page = *self.index.get(addr)?;
        let mut found = None;
        self.scan(page, &mut |member, account| {
            found = (member == *addr).then_some(account);
            found.is_some()
        });
        Some(found.unwrap_or_else(|| {
            panic!("cold accounts: page {page} is indexed for {addr:?} but does not contain it")
        }))
    }

    /// Removes and returns the cold record for `addr` (promotion),
    /// freeing its page once the page's last member has left.
    pub(crate) fn take(&mut self, addr: &Address) -> Option<Account> {
        if let Some(account) = self.staged.remove(addr) {
            return Some(account);
        }
        let account = self.load(addr)?;
        let page = self.index.remove(addr).expect("a loaded record is indexed");
        let members = self.members.get_mut(&page).expect("indexed page has a member count");
        *members -= 1;
        if *members == 0 {
            self.members.remove(&page);
            self.pager.free(page);
        }
        Some(account)
    }

    /// Demotes one hot record; a full batch of staged records packs to
    /// a page.
    pub(crate) fn store(&mut self, addr: Address, account: Account) {
        debug_assert!(!self.index.contains_key(&addr), "demoted an address that is already cold");
        self.staged.insert(addr, account);
        if self.staged.len() >= ACCOUNTS_PER_PAGE {
            self.pack();
        }
    }

    /// Packs the lowest [`ACCOUNTS_PER_PAGE`] staged records onto one
    /// page.
    fn pack(&mut self) {
        let mut payload = Vec::with_capacity(4 + ACCOUNTS_PER_PAGE * 36);
        (ACCOUNTS_PER_PAGE as u32).encode(&mut payload);
        let mut batch = Vec::with_capacity(ACCOUNTS_PER_PAGE);
        for _ in 0..ACCOUNTS_PER_PAGE {
            let (addr, account) = self.staged.pop_first().expect("a full batch is staged");
            addr.encode(&mut payload);
            account.encode(&mut payload);
            batch.push(addr);
        }
        let page = self.pager.store(&payload);
        self.members.insert(page, batch.len());
        self.index.extend(batch.into_iter().map(|addr| (addr, page)));
    }

    /// Decodes the records packed on `page`, live or not, in address
    /// order until `visit` returns `true`.
    fn scan(&self, page: u64, visit: &mut dyn FnMut(Address, Account) -> bool) {
        let payload = self.pager.load(page);
        let mut r = Reader::new(&payload);
        let count = u32::decode(&mut r).expect("packed page count");
        for _ in 0..count {
            let addr = Address::decode(&mut r).expect("packed page address");
            if visit(addr, Account::decode(&mut r).expect("packed page account")) {
                return;
            }
        }
    }

    /// Every cold record in ascending address order — the merge feed for
    /// iteration and the canonical encoding. Each page is read once.
    pub(crate) fn entries(&self) -> Vec<(Address, Account)> {
        let mut out: Vec<(Address, Account)> =
            self.staged.iter().map(|(addr, account)| (*addr, *account)).collect();
        for &page in self.members.keys() {
            self.scan(page, &mut |addr, account| {
                if self.index.get(&addr) == Some(&page) {
                    out.push((addr, account));
                }
                false
            });
        }
        out.sort_unstable_by_key(|(addr, _)| *addr);
        out
    }
}

