//! Persistent (copy-on-write) sparse Merkle tree over the state leaves.
//!
//! The tree is the compact variant: an empty subtree hashes to
//! [`EMPTY_SUBTREE`] and a subtree holding a
//! single leaf hashes to the leaf itself, so depth is O(log n) in the
//! number of leaves rather than a fixed 256. Nodes are `Arc`-shared: a
//! block's writes, sorted by key hash, are merged in one descent that
//! rebuilds (and hashes once) only the union of their root-to-leaf
//! paths, which is what makes per-block root maintenance O(keys changed)
//! while older tree versions stay readable for free.
//!
//! Canonical-form invariant: an internal node never has an empty child
//! paired with a leaf child (such a node collapses to the leaf) and never
//! has two empty children. Deleting a key therefore restores the exact
//! root the tree had before the key was inserted.
//!
//! ## Layout
//!
//! A node is its hash and a tagged pointer, 48 bytes, held by value in
//! its parent: an internal node's two children share one `Arc`'d pair,
//! and a leaf points at its key and value hashes. A pair holds both
//! children's hashes side by side, which is all its parent reads to hash
//! itself, and it fits the allocator's 128-byte class with its reference
//! counts.
//!
//! The merge rewrites nodes where they stand. A pair or leaf that no
//! other tree version shares is changed in place; one that is shared is
//! copied first (`Arc::make_mut`), so older versions never see a change.
//! A ledger that owns its tree alone therefore updates it without
//! allocating or freeing a node on the paths it touches, while
//! [`StateTree::with_delta`], merging into an O(1) clone, copies exactly
//! the touched paths. A changed node's hash is left stale for its
//! parent, which hashes both children at once, two digests side by side.
//!
//! ## Disk-resident cold subtrees (DESIGN.md §14)
//!
//! Handed a [`NodePager`], [`StateTree::spill_to_budget`] cuts the
//! tree at one depth fixed by the budget and swaps each resident subtree
//! at the cut for a single-node `Kind::Paged` stub holding only the
//! subtree hash and a page handle; the subtree's preorder bytes move to
//! disk. Every traversal resolves stubs on descent (mutating paths
//! promote them back into the rebuilt path; read-only paths decode
//! transiently), and the serialized form splices page bytes verbatim —
//! so roots, proofs, and snapshot bytes are identical whether the tree
//! is fully resident or mostly cold. Spilling is representation only,
//! never semantics.
//!
//! A stub is never folded into a bigger page, so a spill after a commit
//! writes only the subtrees that commit's merge resolved. Tree versions
//! share nodes by `Arc`, and a stub's page handle frees its page on
//! drop: a page goes back to the pager exactly when the last version
//! naming it — the live tree, a proof's clone, a `with_delta` base, a
//! snapshot being encoded — is gone.

use std::borrow::Cow;
use std::sync::Arc;

use super::leaf::{self, LeafHasher, LeafKey, LeafUpdate, Preimage, EMPTY_SUBTREE};
use super::{ProofTerminal, SmtProof};
use crate::exec::StateDelta;
use crate::hash::Hash256;
use crate::ledger::WorldState;
use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};

/// Hard ceiling on node depth: key hashes are 256 bits, so two distinct
/// keys must diverge by depth 256; anything deeper is corrupt data.
const MAX_DEPTH: usize = 256;

/// Disk backing for spilled (cold) subtrees — implemented by
/// `medchain-storage`'s page cache (DESIGN.md §14).
///
/// The stored bytes are the subtree's preorder encoding (the exact bytes
/// [`StateTree`]'s `Encode` impl would emit for it), which is what lets
/// the tree's snapshot encoding splice a spilled page verbatim: a tree
/// with cold subtrees serializes byte-identically to a fully resident
/// one.
///
/// Spill pages are *derived* data — everything in them is recomputable
/// from the snapshot + WAL — so implementors may discard them across
/// restarts, but a load failure **mid-run** is unrecoverable data loss
/// and implementors should panic with context rather than return
/// garbage.
pub trait NodePager: Send + Sync {
    /// Persists one encoded subtree, returning its page handle.
    fn store_node(&self, bytes: &[u8]) -> u64;
    /// Loads the bytes previously stored under `page`.
    fn load_node(&self, page: u64) -> Vec<u8>;
    /// Gives `page` back for reuse. The tree calls this once per stored
    /// page, when nothing can reach it any more: the last tree version
    /// holding its stub has dropped. It runs inside `Drop`, so it must
    /// not panic.
    fn free_node(&self, page: u64);
}

/// One stored page and the pager holding it. Stubs own their handle, so
/// reads need no pager of the tree's, and dropping the last stub that
/// names a page frees it.
struct Page {
    id: u64,
    pager: Arc<dyn NodePager>,
}

impl Page {
    fn load(&self) -> Vec<u8> {
        self.pager.load_node(self.id)
    }
}

impl Drop for Page {
    fn drop(&mut self) {
        self.pager.free_node(self.id);
    }
}

/// One node of the tree, held by value in its parent's pair: its hash
/// and what lies under it. Hashes are computed once, before a node is
/// built, and cached, so reads never hash.
#[derive(Clone)]
struct Node {
    hash: Hash256,
    kind: Kind,
}

#[derive(Clone)]
enum Kind {
    /// An empty subtree (hash [`EMPTY_SUBTREE`]).
    Empty,
    /// A subtree holding exactly one leaf; hashes as the leaf itself.
    Leaf(Arc<LeafKeys>),
    /// A subtree holding two or more leaves: its two children.
    Internal(Arc<[Node; 2]>),
    /// A cold subtree (two or more leaves) spilled to the node pager:
    /// only its hash and page handle stay resident. Never produced by
    /// `Decode` — it exists only in memory, as the residue of
    /// [`StateTree::spill_to_budget`].
    Paged(Arc<Page>),
}

/// What a leaf's hash is taken over.
#[derive(Clone)]
struct LeafKeys {
    key_hash: Hash256,
    value_hash: Hash256,
}

impl Node {
    const EMPTY: Node = Node { hash: EMPTY_SUBTREE, kind: Kind::Empty };

    /// A node whose hash is still to be computed from its [`preimage`].
    ///
    /// [`preimage`]: Node::preimage
    fn unhashed(kind: Kind) -> Node {
        Node { hash: Hash256::ZERO, kind }
    }

    /// What this leaf or internal node hashes. Empty subtrees and stubs
    /// carry their hash from the start and never need one.
    fn preimage(&self) -> Preimage<'_> {
        match &self.kind {
            Kind::Leaf(leaf) => Preimage::Leaf(&leaf.key_hash, &leaf.value_hash),
            Kind::Internal(kids) => Preimage::Node(&kids[0].hash, &kids[1].hash),
            Kind::Empty | Kind::Paged(_) => unreachable!("empties and stubs are never rehashed"),
        }
    }
}

/// Hashes whichever of two siblings is `stale`, side by side when both
/// are.
fn settle([left, right]: [&mut Node; 2], stale: [bool; 2]) {
    match stale {
        [true, true] => {
            let [l, r] = Preimage::hash_pair(left.preimage(), right.preimage());
            (left.hash, right.hash) = (l, r);
        }
        [true, false] => left.hash = left.preimage().hash(),
        [false, true] => right.hash = right.preimage().hash(),
        [false, false] => {}
    }
}

/// The authenticated index of a [`WorldState`]: one leaf per state
/// entry, rooted in the block header via
/// [`versioned_root`](StateTree::versioned_root).
///
/// Cloning is O(1) (an `Arc` bump); the clone is an immutable snapshot
/// unaffected by later [`update`](StateTree::update) calls on either
/// copy.
#[derive(Clone)]
pub struct StateTree {
    root: Node,
    len: usize,
}

impl Default for StateTree {
    fn default() -> Self {
        StateTree::new()
    }
}

impl std::fmt::Debug for StateTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateTree")
            .field("len", &self.len)
            .field("root", &self.root.hash)
            .finish()
    }
}

impl PartialEq for StateTree {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.root.hash == other.root.hash
    }
}

impl Eq for StateTree {}

impl StateTree {
    /// The empty tree (root commits to zero leaves).
    pub fn new() -> StateTree {
        StateTree {
            root: Node::EMPTY,
            len: 0,
        }
    }

    /// Builds the tree for an entire world state in one bottom-up pass:
    /// hash every leaf, sort by key hash (O(n log n) comparisons), then
    /// hash each internal node exactly once — about four SHA-256 calls a
    /// leaf. The ledger needs it only where it starts from a bare state
    /// (restore, or after [`Ledger::state_mut`]); per block it maintains
    /// the tree incrementally via [`with_delta`](StateTree::with_delta),
    /// which must land on the same nodes (property-tested).
    ///
    /// [`Ledger::state_mut`]: crate::ledger::Ledger::state_mut
    pub fn from_state(state: &WorldState) -> StateTree {
        StateTree::from_state_with(state, &StateDelta::default())
    }

    /// [`from_state`](StateTree::from_state) of `state` as if `delta`
    /// were already committed: the state's leaves overridden by the
    /// delta's upserts and deletions, built in the same single pass.
    pub(crate) fn from_state_with(state: &WorldState, delta: &StateDelta) -> StateTree {
        let overrides = leaf::hashed_writes(delta);
        let mut hasher = LeafHasher::new();
        let mut leaves = Vec::with_capacity(state.leaf_count() + overrides.len());
        state.for_each_leaf(&mut |key, value| {
            let (key_hash, value_hash) = if overrides.is_empty() {
                hasher.hash(key, Some(value))
            } else {
                // An overridden leaf's old value is never hashed.
                let (key_hash, _) = hasher.hash(key, None);
                if overrides.binary_search_by_key(&key_hash, |(k, _)| *k).is_ok() {
                    return;
                }
                (key_hash, Some(leaf::value_hash(value)))
            };
            leaves.push((key_hash, value_hash.expect("a state leaf has a value")));
        });
        leaves.extend(overrides.iter().filter_map(|(kh, vh)| Some((*kh, (*vh)?))));
        // Byte order of the key hash is its MSB-first path order.
        leaves.sort_unstable_by_key(|(key_hash, _)| *key_hash);
        let (mut root, stale) = build(&leaves, 0);
        if stale {
            root.hash = root.preimage().hash();
        }
        StateTree { root, len: leaves.len() }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw sparse-Merkle-tree root.
    pub fn root(&self) -> Hash256 {
        self.root.hash
    }

    /// The version-tagged root committed into `Header.state_root`.
    pub fn versioned_root(&self) -> Hash256 {
        leaf::versioned_root(&self.root())
    }

    /// Sets (`Some`) or deletes (`None`) one leaf: a batch of one,
    /// rebuilding only the root-to-leaf path.
    pub fn update(&mut self, key: &LeafKey, value: Option<&[u8]>) {
        self.merge_batch(&[LeafHasher::new().hash(key.borrowed(), value)]);
    }

    /// Applies a committed block's [`StateDelta`] in one descent:
    /// tombstoned storage slots and cleared locks become deletions,
    /// everything else an upsert, hashed straight from the delta and
    /// sorted by key hash, so every touched node is rewritten and hashed
    /// once however many of the batch's keys lie under it. Nodes this
    /// tree alone holds change in place; shared ones are copied first,
    /// so every clone keeps the version it had.
    pub fn merge_delta(&mut self, delta: &StateDelta) {
        self.merge_batch(&leaf::hashed_writes(delta));
    }

    /// The tree after applying `delta`, as [`merge_delta`] into an O(1)
    /// clone: the touched paths are copied, and the receiver is
    /// untouched.
    ///
    /// [`merge_delta`]: StateTree::merge_delta
    pub fn with_delta(&self, delta: &StateDelta) -> StateTree {
        let mut tree = self.clone();
        tree.merge_delta(delta);
        tree
    }

    /// Merges a sorted batch of distinct key hashes into the tree.
    fn merge_batch(&mut self, batch: &[LeafUpdate]) {
        warm(&self.root, batch);
        if merge(&mut self.root, 0, batch, &mut self.len) == Some(true) {
            self.root.hash = self.root.preimage().hash();
        }
    }

    /// Merkle path for `key` against the current root, usable both to
    /// prove inclusion (the stored value) and absence (no leaf under
    /// this key). Pair it with the leaf's canonical value bytes in a
    /// [`StateProof`](super::StateProof).
    pub fn prove(&self, key: &LeafKey) -> SmtProof {
        let key_hash = leaf::key_hash(key);
        let mut siblings = Vec::new();
        // Owned cursor: descending into a spilled subtree resolves a
        // transient copy without touching the tree (`&self`); siblings
        // that stay cold contribute only their resident hash.
        let mut node = resolve(&self.root).into_owned();
        let mut depth = 0;
        loop {
            let next = match &node.kind {
                Kind::Empty => {
                    return SmtProof {
                        siblings,
                        terminal: ProofTerminal::Empty,
                    }
                }
                Kind::Leaf(leaf) => {
                    let terminal = if leaf.key_hash == key_hash {
                        ProofTerminal::Leaf {
                            value_hash: leaf.value_hash,
                        }
                    } else {
                        // A different leaf occupies the queried key's
                        // path prefix: proof of absence.
                        ProofTerminal::OtherLeaf {
                            key_hash: leaf.key_hash,
                            value_hash: leaf.value_hash,
                        }
                    };
                    return SmtProof { siblings, terminal };
                }
                Kind::Internal(kids) => {
                    let bit = usize::from(leaf::key_bit(&key_hash, depth));
                    siblings.push(kids[1 - bit].hash);
                    resolve(&kids[bit]).into_owned()
                }
                Kind::Paged(_) => unreachable!("cursor is always resolved"),
            };
            node = next;
            depth += 1;
        }
    }

    /// Full structural self-check (recomputes every hash, verifies the
    /// canonical-form invariant, leaf paths, and the leaf count).
    /// Spilled subtrees are resolved transiently and checked against
    /// their resident hash. O(total state) — test and debugging aid
    /// only.
    pub fn audit(&self) -> bool {
        let mut leaves = 0usize;
        audit_node(&self.root, 0, &mut Vec::new(), &mut leaves) && leaves == self.len
    }

    /// Nodes currently held in memory, counting each spilled subtree as
    /// the single `Kind::Paged` stub that represents it.
    pub fn resident_nodes(&self) -> usize {
        fn count(node: &Node) -> usize {
            match &node.kind {
                Kind::Internal(kids) => 1 + count(&kids[0]) + count(&kids[1]),
                _ => 1,
            }
        }
        count(&self.root)
    }

    /// Spills cold subtrees to `pager` so that at most `budget` nodes
    /// stay resident. The tree holds no pager of its own: each stub
    /// keeps the handle of the pager that stored it, so later reads and
    /// frees need none, and the caller names the pager at every spill.
    /// The tree is cut at depth `cut =
    /// ⌊log₂(budget + 1)⌋ − 1`: the spine above it (at most 2^cut − 1
    /// nodes) stays resident, and every resident internal node at the
    /// cut becomes a stub over one newly stored page, so the 2^cut
    /// positions there fit the rest of the budget. Stubs, leaves and
    /// empties pass through, so a page is written once and never folded
    /// into a bigger one; after a commit only the subtrees its merge
    /// resolved are written again. No hash is recomputed, so the root
    /// is bit-identical before and after.
    ///
    /// The cut is fixed by the budget alone, so a page covers about
    /// `len / 2^cut` leaves: with a fixed budget the number of pages
    /// stays put and each page grows with the state.
    ///
    /// No-op when the tree already fits. Subtrees the next block touches
    /// are resolved (promoted) back on demand by `update`/`with_delta`;
    /// the ledger re-spills after each commit.
    pub fn spill_to_budget(&mut self, pager: &Arc<dyn NodePager>, budget: usize) {
        if self.resident_nodes() <= budget {
            return;
        }
        let cut = (budget.max(1) + 1).ilog2() as usize - 1;
        if let Some(root) = spill(&self.root, cut, pager) {
            self.root = root;
        }
    }
}

/// Materializes a [`Kind::Paged`] stub by decoding its page; any other
/// node is borrowed as it is. Mutating paths call this before
/// descending, so a touched cold subtree is naturally promoted into the
/// rebuilt path while untouched siblings stay spilled.
///
/// Panics on an undecodable page or a hash mismatch: spill pages are
/// derived data with no second copy, so both are unrecoverable data
/// loss (see [`NodePager`]).
fn resolve(node: &Node) -> Cow<'_, Node> {
    let Kind::Paged(page) = &node.kind else {
        return Cow::Borrowed(node);
    };
    let bytes = page.load();
    let mut r = Reader::new(&bytes);
    let resolved =
        decode_node(&mut r, 0).expect("spilled subtree page holds a valid node encoding");
    assert_eq!(r.remaining(), 0, "spilled subtree page has trailing bytes");
    assert_eq!(resolved.hash, node.hash, "spilled subtree page hash mismatch (data loss)");
    Cow::Owned(resolved)
}

/// Replaces each resident internal node `depth` levels below `node` with
/// a stub over one stored page. Hashes are carried, never recomputed;
/// `None` when nothing under `node` was spilled.
fn spill(node: &Node, depth: usize, pager: &Arc<dyn NodePager>) -> Option<Node> {
    let Kind::Internal(kids) = &node.kind else {
        return None;
    };
    if depth == 0 {
        let mut bytes = Vec::new();
        encode_node(node, &mut bytes);
        let page = Page { id: pager.store_node(&bytes), pager: Arc::clone(pager) };
        return Some(Node { hash: node.hash, kind: Kind::Paged(Arc::new(page)) });
    }
    let left = spill(&kids[0], depth - 1, pager);
    let right = spill(&kids[1], depth - 1, pager);
    if left.is_none() && right.is_none() {
        return None;
    }
    let kids = [left.unwrap_or_else(|| kids[0].clone()), right.unwrap_or_else(|| kids[1].clone())];
    Some(Node { hash: node.hash, kind: Kind::Internal(Arc::new(kids)) })
}

/// Reads, one depth at a time, what [`merge`] will touch for `batch`:
/// the reference counts of the pairs and leaves on its paths, which the
/// merge's uniqueness check takes exclusively, and both children's
/// hashes in each pair, which it hashes. Here the loads of different
/// paths are independent, so their cache misses overlap; the
/// depth-first merge would wait out each one in turn. Spilled subtrees
/// are left to the merge to resolve.
fn warm(root: &Node, batch: &[LeafUpdate]) {
    // Each node a level holds has its own non-empty slice of the batch.
    let (mut level, mut next) = (Vec::with_capacity(batch.len()), Vec::with_capacity(batch.len()));
    level.push((root, batch));
    let mut depth = 0;
    let mut read = 0usize;
    while !level.is_empty() {
        for (node, batch) in level.drain(..) {
            match &node.kind {
                Kind::Internal(kids) => {
                    read ^= Arc::strong_count(kids)
                        ^ usize::from(kids[0].hash.0[0] ^ kids[1].hash.0[31]);
                    let split =
                        batch.partition_point(|(key_hash, _)| !leaf::key_bit(key_hash, depth));
                    let (left, right) = batch.split_at(split);
                    next.extend(
                        kids.iter().zip([left, right]).filter(|(_, part)| !part.is_empty()),
                    );
                }
                Kind::Leaf(leaf) => {
                    read ^= Arc::strong_count(leaf) ^ usize::from(leaf.key_hash.0[0]);
                }
                Kind::Empty | Kind::Paged(_) => {}
            }
        }
        std::mem::swap(&mut level, &mut next);
        depth += 1;
    }
    // Keeps the loads: nothing else uses what they read.
    std::hint::black_box(read);
}

/// The canonical subtree over `leaves` — distinct `(key_hash,
/// value_hash)` pairs sorted by key hash, all sharing their first
/// `depth` path bits — with every node hashed once, and whether its
/// root's hash is still stale: that one is left to the caller, to hash
/// beside its sibling. [`merge`] hands it every position where a batch
/// meets an empty or single-leaf subtree.
fn build(leaves: &[(Hash256, Hash256)], depth: usize) -> (Node, bool) {
    match leaves {
        [] => (Node::EMPTY, false),
        [(key_hash, value_hash)] => {
            let leaf = LeafKeys { key_hash: *key_hash, value_hash: *value_hash };
            (Node::unhashed(Kind::Leaf(Arc::new(leaf))), true)
        }
        _ => {
            assert!(depth < MAX_DEPTH, "distinct leaf keys share all 256 path bits");
            let split = leaves.partition_point(|(key_hash, _)| !leaf::key_bit(key_hash, depth));
            let (left, right) = leaves.split_at(split);
            let ((mut left, left_stale), (mut right, right_stale)) =
                (build(left, depth + 1), build(right, depth + 1));
            settle([&mut left, &mut right], [left_stale, right_stale]);
            (Node::unhashed(Kind::Internal(Arc::new([left, right]))), true)
        }
    }
}

/// Merges `batch` — distinct key hashes, sorted, all sharing `node`'s
/// first `depth` path bits — into `node` where it stands, adjusting
/// `len` by the leaves gained or lost. A pair or leaf another tree
/// version shares is copied before it changes; one this tree alone holds
/// changes in place. `None` means nothing changed (an empty sub-batch, or
/// writes that change nothing): the node is untouched, unhashed and, if
/// spilled, still a stub. Otherwise `Some(stale)` says whether the node's
/// hash must still be computed — left to the caller, which hashes two
/// changed siblings at once. Deletions restore canonical form on the way
/// back up: an internal node left with a single leaf child collapses to
/// that leaf, one left with two empty children to the empty subtree.
fn merge(node: &mut Node, depth: usize, batch: &[LeafUpdate], len: &mut usize) -> Option<bool> {
    if batch.is_empty() {
        return None;
    }
    if let Kind::Paged(_) = node.kind {
        // A touched cold subtree is promoted into the tree; an untouched
        // one stays a stub.
        let mut resolved = resolve(node).into_owned();
        let stale = merge(&mut resolved, depth, batch, len)?;
        *node = resolved;
        return Some(stale);
    }
    let existing = match &mut node.kind {
        Kind::Internal(kids) => {
            let split = batch.partition_point(|(key_hash, _)| !leaf::key_bit(key_hash, depth));
            let (left_batch, right_batch) = batch.split_at(split);
            let [left, right] = Arc::make_mut(kids);
            let left_merged = merge(left, depth + 1, left_batch, len);
            let right_merged = merge(right, depth + 1, right_batch, len);
            if left_merged.is_none() && right_merged.is_none() {
                return None;
            }
            let stale = [left_merged == Some(true), right_merged == Some(true)];
            // A `Paged` child stands for an internal node, so it holds
            // ≥ 2 leaves and can only land in the no-collapse arm.
            let (survivor, survivor_stale) = match (&left.kind, &right.kind) {
                (Kind::Empty, Kind::Empty | Kind::Leaf(_)) => (right, stale[1]),
                (Kind::Leaf(_), Kind::Empty) => (left, stale[0]),
                _ => {
                    settle([left, right], stale);
                    return Some(true);
                }
            };
            *node = std::mem::replace(survivor, Node::EMPTY);
            return Some(survivor_stale);
        }
        Kind::Empty => None,
        Kind::Leaf(leaf) => Some((leaf.key_hash, leaf.value_hash)),
        Kind::Paged(_) => unreachable!("resolved above"),
    };
    // An empty or single-leaf position: the existing leaf, unless the
    // batch writes its key, interleaved with the batch's upserts. Up to
    // two leaves — one upsert over an empty or a same-key leaf, or two
    // leaves side by side — are gathered on the stack.
    let upsert = |(key_hash, value_hash): &LeafUpdate| Some((*key_hash, (*value_hash)?));
    let at = existing.map_or(0, |(key_hash, _)| batch.partition_point(|(k, _)| *k < key_hash));
    let kept = existing.filter(|(key_hash, _)| batch.get(at).is_none_or(|(k, _)| k != key_hash));
    let (below, above) = batch.split_at(at);
    let mut merged =
        below.iter().filter_map(upsert).chain(kept).chain(above.iter().filter_map(upsert));
    let mut few = [(Hash256::ZERO, Hash256::ZERO); 2];
    let many: Vec<(Hash256, Hash256)>;
    let leaves = if batch.len() + usize::from(existing.is_some()) <= few.len() {
        let mut count = 0;
        for (slot, leaf) in few.iter_mut().zip(&mut merged) {
            *slot = leaf;
            count += 1;
        }
        &few[..count]
    } else {
        many = merged.collect();
        &many[..]
    };
    if leaves == existing.as_slice() {
        return None;
    }
    *len = *len + leaves.len() - usize::from(existing.is_some());
    // The common write, a new value under the leaf's own key, rewrites
    // the leaf where it is.
    if let (Kind::Leaf(leaf), [(key_hash, value_hash)]) = (&mut node.kind, leaves) {
        if leaf.key_hash == *key_hash {
            Arc::make_mut(leaf).value_hash = *value_hash;
            return Some(true);
        }
    }
    let (built, stale) = build(leaves, depth);
    *node = built;
    Some(stale)
}

fn audit_node(node: &Node, depth: usize, path: &mut Vec<u8>, leaves: &mut usize) -> bool {
    if depth > MAX_DEPTH {
        return false;
    }
    // Resolve a spilled subtree transiently; `resolve` itself asserts
    // the decoded subtree hashes to the resident stub's hash.
    let node = resolve(node);
    match &node.kind {
        Kind::Paged(_) => unreachable!("resolved above"),
        // Non-root empties violate canonical form.
        Kind::Empty => depth == 0 && node.hash == EMPTY_SUBTREE,
        Kind::Leaf(leaf) => {
            // Hash integrity + the leaf actually lives under its path.
            if node.hash != leaf::leaf_hash(&leaf.key_hash, &leaf.value_hash) {
                return false;
            }
            for (level, bit) in path.iter().enumerate() {
                if leaf::key_bit(&leaf.key_hash, level) != (*bit == 1) {
                    return false;
                }
            }
            *leaves += 1;
            true
        }
        Kind::Internal(kids) => {
            let [left, right] = &**kids;
            if node.hash != leaf::node_hash(&left.hash, &right.hash) {
                return false;
            }
            // Canonical form: no empty+leaf pairs, no empty+empty.
            match (&left.kind, &right.kind) {
                (Kind::Empty, Kind::Empty)
                | (Kind::Empty, Kind::Leaf(_))
                | (Kind::Leaf(_), Kind::Empty) => return false,
                _ => {}
            }
            let mut ok = true;
            for (bit, child) in [left, right].into_iter().enumerate() {
                path.push(bit as u8);
                ok &= match child.kind {
                    Kind::Empty => child.hash == EMPTY_SUBTREE,
                    _ => audit_node(child, depth + 1, path, leaves),
                };
                path.pop();
            }
            ok
        }
    }
}

// Snapshot persistence: the tree serializes preorder with its cached
// hashes, so decoding rebuilds the root without a single hash
// computation — that is what lets recovery skip the full state rehash.
const TAG_EMPTY: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

fn encode_node(node: &Node, out: &mut Vec<u8>) {
    match &node.kind {
        Kind::Empty => out.push(TAG_EMPTY),
        Kind::Leaf(leaf) => {
            out.push(TAG_LEAF);
            node.hash.encode(out);
            leaf.key_hash.encode(out);
            leaf.value_hash.encode(out);
        }
        Kind::Internal(kids) => {
            out.push(TAG_INTERNAL);
            node.hash.encode(out);
            encode_node(&kids[0], out);
            encode_node(&kids[1], out);
        }
        // A spilled page *is* the subtree's preorder encoding: splice it
        // verbatim, so a paged tree serializes byte-identically to a
        // fully resident one (there is no on-disk `Paged` tag).
        Kind::Paged(page) => out.extend_from_slice(&page.load()),
    }
}

fn decode_node(r: &mut Reader<'_>, depth: usize) -> Result<Node, CodecError> {
    match u8::decode(r)? {
        TAG_EMPTY => Ok(Node::EMPTY),
        TAG_LEAF => {
            let hash = Hash256::decode(r)?;
            let leaf = LeafKeys { key_hash: Hash256::decode(r)?, value_hash: Hash256::decode(r)? };
            Ok(Node { hash, kind: Kind::Leaf(Arc::new(leaf)) })
        }
        // Deeper than the key width means corrupt input; erroring here
        // also bounds decode recursion against hostile bytes.
        TAG_INTERNAL if depth >= MAX_DEPTH => Err(CodecError::InvalidTag {
            ty: "StateTree (node deeper than key width)",
            tag: TAG_INTERNAL,
        }),
        TAG_INTERNAL => {
            let hash = Hash256::decode(r)?;
            let left = decode_node(r, depth + 1)?;
            let right = decode_node(r, depth + 1)?;
            Ok(Node { hash, kind: Kind::Internal(Arc::new([left, right])) })
        }
        tag => Err(CodecError::InvalidTag {
            ty: "StateTree",
            tag,
        }),
    }
}

impl Encode for StateTree {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len as u64).encode(out);
        encode_node(&self.root, out);
    }
}

impl Decode for StateTree {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)? as usize;
        let root = decode_node(r, 0)?;
        // Decoded trees start fully resident; a paged ledger re-spills
        // after install.
        Ok(StateTree { root, len })
    }
}
