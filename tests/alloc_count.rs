//! Heap allocations of one state-tree update, counted by a global
//! allocator that wraps `System`. The counters are process-wide, so this
//! binary holds this one test and nothing else.
//!
//! The delta is shaped like a `bulk_blocks` block: 64 senders, each
//! paying four of 256 seeded recipients, over a 20,000-account tree. Two
//! updates are pinned, with what each frees:
//! - `with_delta`, as `Ledger::propose` runs it: the touched paths are
//!   copied into a new version, and the version it replaced then drops;
//! - `merge_delta` on a tree its holder alone owns, as `Ledger::apply`
//!   runs it: the touched nodes are rewritten where they stand.
//!
//! Before the tree's nodes became 48-byte values in shared pairs, the
//! writes were hashed without a `Vec` apiece and the ledger merged in
//! place, one `with_delta` of this delta made 4,272 allocations and the
//! version it replaced freed 2,673 blocks when it dropped — and every
//! replica's commit paid both. Now `with_delta` makes 2,683 (one per
//! copied node, and ten for the batch, its hashing buffers and the
//! walk that reads ahead) and its replaced version frees 2,673, while a
//! commit's in-place merge makes 10 and frees 10: not one node.

use medchain_chain::ledger::WorldState;
use medchain_chain::{Address, StateAccess, StateTree, WorldStateOverlay};
use medchain_runtime::codec::{Decode, Encode};
use medchain_runtime::DetRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes unchanged to `System`, which meets the
// `GlobalAlloc` contract; counting touches nothing but two atomics.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's guarantees on `layout` are passed on as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above — `layout` is the caller's, unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's guarantees on `ptr` and `layout` are passed on.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc` above, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations, frees)` made while `work` runs.
fn counted<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, frees) = (ALLOCS.load(Ordering::Relaxed), FREES.load(Ordering::Relaxed));
    let out = work();
    (out, ALLOCS.load(Ordering::Relaxed) - allocs, FREES.load(Ordering::Relaxed) - frees)
}

#[test]
fn one_bulk_block_update_allocates_a_pinned_count() {
    let accounts = 20_000u64;
    let mut state = WorldState::new();
    for i in 0..accounts {
        state.credit(Address::from_seed(i), 1_000_000 + i);
    }
    let tree = StateTree::from_state(&state);

    let mut rng = DetRng::from_seed(256);
    let recipients: Vec<Address> =
        (0..256).map(|_| Address::from_seed(64 + rng.next_u64() % (accounts - 64))).collect();
    let mut overlay = WorldStateOverlay::new(&state);
    for (sender, paid) in (0..64).map(Address::from_seed).zip(recipients.chunks(4)) {
        for to in paid {
            overlay.debit(sender, 5).expect("funded sender");
            overlay.credit(*to, 5);
        }
        let mut account = overlay.account(&sender);
        account.nonce += paid.len() as u64;
        overlay.set_account(sender, account);
    }
    let delta = overlay.into_delta();

    // A second copy of the tree that shares no node with the first.
    let mut owned = StateTree::decoded(&tree.encoded()).expect("a tree decodes");

    let (copied, copy_allocs, _) = counted(|| tree.with_delta(&delta));
    let ((), _, replaced_frees) = counted(|| drop(tree));
    let ((), in_place_allocs, in_place_frees) = counted(|| owned.merge_delta(&delta));
    assert_eq!(owned.root(), copied.root());
    delta.apply_to(&mut state);
    assert_eq!(owned.root(), StateTree::from_state(&state).root());

    assert_eq!(
        (copy_allocs, replaced_frees, in_place_allocs, in_place_frees),
        (2_683, 2_673, 10, 10),
        "allocations of with_delta, frees of the version it replaced, \
         allocations and frees of merge_delta in place"
    );
}
