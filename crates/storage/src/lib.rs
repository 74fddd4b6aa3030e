//! # medchain-storage — durable ledger persistence
//!
//! The paper's global medical blockchain (Fig. 2) assumes hospital and
//! provider nodes that survive restarts: an audit trail is only an
//! audit trail if it outlives the process. This crate gives a MedChain
//! node that durability with three std-only pieces:
//!
//! - **Segmented block log** ([`wal`]): append-only CRC32-framed
//!   records of canonical-codec `Block` bytes, rolled into
//!   `seg-<height>.wal` files, with a configurable fsync policy.
//! - **State snapshots** ([`snapshot`]): periodic `snap-<height>.bin`
//!   files carrying the tip block, the full canonical `WorldState` and
//!   the authenticated tree the commit at that height built (written
//!   as-is, never rehashed), atomically (tmp + rename), so recovery
//!   replays a bounded tail instead of the whole chain.
//! - **Crash recovery** ([`DiskStore::recover_into`]): truncate a torn
//!   tail record, restore from the newest snapshot that *agrees with
//!   the log*, re-execute the tail through `Ledger::apply`, and verify
//!   the replayed tip hash matches the stored one.
//!
//! [`DiskStore`] implements `medchain_chain::store::BlockStore`, so the
//! ledger persists every block write-ahead: a block is on disk and in
//! memory, or in neither; snapshots follow the commit
//! (`BlockStore::checkpoint`), so one that fails is counted and retried,
//! never a lost block. A [`StorageFault`] knob tears an append
//! mid-record so the recovery path is tested, not assumed.
//!
//! ```no_run
//! use medchain_chain::{KeyRegistry, Ledger};
//! use medchain_chain::ledger::NullRuntime;
//! use medchain_storage::{DiskStore, StorageConfig};
//!
//! let mut ledger = Ledger::new("demo", KeyRegistry::new(), Box::new(NullRuntime));
//! let mut store = DiskStore::open("/tmp/demo-node", StorageConfig::default()).unwrap();
//! let report = store.recover_into(&mut ledger).unwrap(); // replay what's on disk
//! ledger.attach_store(Box::new(store));                  // persist what comes next
//! println!("resumed at height {}", report.height);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod crc;
pub mod disk;
pub mod pager;
pub mod pages;
pub mod projection;
pub mod snapshot;
pub mod stream;
pub mod wal;

pub use crc::crc32;
pub use disk::{DiskStore, FsyncPolicy, RecoveryReport, StorageConfig, StorageFault};
pub use pager::{PagedAccounts, PagedNodes, ACCOUNTS_PER_PAGE};
pub use pages::{PageId, PageStore, PAGE_BYTES};
pub use projection::{LatestState, ProjectedEntry};
pub use snapshot::{Snapshot, SnapshotStore};
pub use stream::{SnapshotChunk, SnapshotManifest, CHUNK_BYTES};
pub use wal::{ScanResult, SegmentedLog};

// Re-export the trait and error the store implements, so callers can
// depend on this crate alone for persistence wiring.
pub use medchain_chain::store::{BlockStore, MemStore, StoreError};

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A fresh per-test scratch directory under the system temp dir,
    /// unique across tests and concurrent runs.
    pub fn test_dir(tag: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("medchain-storage-{}-{tag}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale test dir");
        }
        dir
    }
}
