//! Persistent (copy-on-write) sparse Merkle tree over the state leaves.
//!
//! The tree is the compact variant: an empty subtree hashes to
//! [`EMPTY_SUBTREE`] and a subtree holding a
//! single leaf hashes to the leaf itself, so depth is O(log n) in the
//! number of leaves rather than a fixed 256. Nodes are `Arc`-shared:
//! updating one leaf clones only the path from the root to that leaf
//! (~log n allocations), which is what makes per-block root maintenance
//! O(keys changed) while older tree versions stay readable for free.
//!
//! Canonical-form invariant: an internal node never has an empty child
//! paired with a leaf child (such a node collapses to the leaf) and never
//! has two empty children. Deleting a key therefore restores the exact
//! root the tree had before the key was inserted.
//!
//! ## Disk-resident cold subtrees (DESIGN.md §14)
//!
//! With a [`NodePager`] attached, [`StateTree::spill_to_budget`] swaps
//! cold subtrees for single-node `Node::Paged` stubs holding only the
//! subtree hash, leaf count, and page id; the subtree's preorder bytes
//! move to disk. Every traversal resolves stubs on descent (mutating
//! paths promote them back into the rebuilt path; read-only paths decode
//! transiently), and the serialized form splices page bytes verbatim —
//! so roots, proofs, and snapshot bytes are identical whether the tree
//! is fully resident or mostly cold. Spilling is representation only,
//! never semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use super::leaf::{self, LeafKey, EMPTY_SUBTREE};
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
    /// Gives `page` back for reuse. The tree calls this only for a page
    /// no tree version can reach: one a [`StateTree::spill_to_budget`]
    /// call stored and then folded into a larger page before returning.
    fn free_node(&self, page: u64);
}

/// One node of the tree. Hashes are computed eagerly on construction and
/// cached, so reads never hash.
enum Node {
    /// An empty subtree (hash [`EMPTY_SUBTREE`]).
    Empty,
    /// A subtree holding exactly one leaf; hashes as the leaf itself.
    Leaf {
        hash: Hash256,
        key_hash: Hash256,
        value_hash: Hash256,
    },
    /// A subtree holding two or more leaves.
    Internal {
        hash: Hash256,
        left: Arc<Node>,
        right: Arc<Node>,
    },
    /// A cold subtree spilled to the node pager: only its hash and leaf
    /// count stay resident. Never produced by `Decode` — it exists only
    /// in memory, as the residue of [`StateTree::spill_to_budget`].
    Paged {
        hash: Hash256,
        leaves: u64,
        page: u64,
    },
}

impl Node {
    /// The empty subtree: one allocation for the whole process. Nodes
    /// are immutable, so every empty child of every tree version can be
    /// this one (≈0.44 empty children per leaf of a random-key tree).
    fn empty() -> Arc<Node> {
        static EMPTY: OnceLock<Arc<Node>> = OnceLock::new();
        Arc::clone(EMPTY.get_or_init(|| Arc::new(Node::Empty)))
    }

    fn hash(&self) -> Hash256 {
        match self {
            Node::Empty => EMPTY_SUBTREE,
            Node::Leaf { hash, .. } | Node::Internal { hash, .. } | Node::Paged { hash, .. } => {
                *hash
            }
        }
    }

    fn leaf(key_hash: Hash256, value_hash: Hash256) -> Node {
        Node::Leaf {
            hash: leaf::leaf_hash(&key_hash, &value_hash),
            key_hash,
            value_hash,
        }
    }

    fn internal(left: Arc<Node>, right: Arc<Node>) -> Node {
        Node::Internal {
            hash: leaf::node_hash(&left.hash(), &right.hash()),
            left,
            right,
        }
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
    root: Arc<Node>,
    len: usize,
    /// Backing store for [`Node::Paged`] subtrees. `None` means the tree
    /// is (and stays) fully resident. Clones share the pager; a page a
    /// tree was ever returned holding is never freed mid-run precisely
    /// because an older clone may still reference it (see [`NodePager`]).
    pager: Option<Arc<dyn NodePager>>,
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
            .field("root", &self.root.hash())
            .finish()
    }
}

impl PartialEq for StateTree {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.root.hash() == other.root.hash()
    }
}

impl Eq for StateTree {}

impl StateTree {
    /// The empty tree (root commits to zero leaves).
    pub fn new() -> StateTree {
        StateTree {
            root: Node::empty(),
            len: 0,
            pager: None,
        }
    }

    /// Attaches the disk pager cold subtrees spill to. Attaching never
    /// moves anything by itself — spilling happens only at explicit
    /// [`spill_to_budget`](StateTree::spill_to_budget) calls.
    pub fn attach_pager(&mut self, pager: Arc<dyn NodePager>) {
        self.pager = Some(pager);
    }

    /// The attached node pager, if any.
    pub fn pager(&self) -> Option<Arc<dyn NodePager>> {
        self.pager.clone()
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
        let overrides: BTreeMap<Hash256, Option<Hash256>> = delta_updates(delta)
            .iter()
            .map(|(key, value)| (leaf::key_hash(key), value.as_deref().map(leaf::value_hash)))
            .collect();
        let mut leaves = Vec::with_capacity(state.leaf_count() + overrides.len());
        state.for_each_leaf(&mut |key, value| {
            let key_hash = leaf::key_hash(&key);
            if !overrides.contains_key(&key_hash) {
                leaves.push((key_hash, leaf::value_hash(value)));
            }
        });
        leaves.extend(overrides.into_iter().filter_map(|(kh, vh)| Some((kh, vh?))));
        // Byte order of the key hash is its MSB-first path order.
        leaves.sort_unstable_by_key(|(key_hash, _)| *key_hash);
        StateTree {
            root: build(&leaves, 0),
            len: leaves.len(),
            pager: None,
        }
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
        self.root.hash()
    }

    /// The version-tagged root committed into `Header.state_root`.
    pub fn versioned_root(&self) -> Hash256 {
        leaf::versioned_root(&self.root())
    }

    /// Sets (`Some`) or deletes (`None`) one leaf, rebuilding only the
    /// root-to-leaf path.
    pub fn update(&mut self, key: &LeafKey, value: Option<&[u8]>) {
        let key_hash = leaf::key_hash(key);
        let pager = self.pager.as_deref();
        match value {
            Some(value) => {
                let value_hash = leaf::value_hash(value);
                let (root, was_present) = insert_at(&self.root, 0, key_hash, value_hash, pager);
                self.root = root;
                if !was_present {
                    self.len += 1;
                }
            }
            None => {
                let (root, removed) = remove_at(&self.root, 0, &key_hash, pager);
                self.root = root;
                if removed {
                    self.len -= 1;
                }
            }
        }
    }

    /// The tree after applying a committed block's [`StateDelta`]:
    /// tombstoned storage slots and cleared locks become deletions,
    /// everything else an upsert. Cost is O(keys changed · log n); the
    /// receiver is untouched.
    pub fn with_delta(&self, delta: &StateDelta) -> StateTree {
        let mut tree = self.clone();
        for (key, value) in delta_updates(delta) {
            tree.update(&key, value.as_deref());
        }
        tree
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
        let mut node = resolve(&self.root, self.pager.as_deref());
        let mut depth = 0;
        loop {
            let next = match &*node {
                Node::Empty => {
                    return SmtProof {
                        siblings,
                        terminal: ProofTerminal::Empty,
                    }
                }
                Node::Leaf {
                    key_hash: leaf_kh,
                    value_hash,
                    ..
                } => {
                    let terminal = if *leaf_kh == key_hash {
                        ProofTerminal::Leaf {
                            value_hash: *value_hash,
                        }
                    } else {
                        // A different leaf occupies the queried key's
                        // path prefix: proof of absence.
                        ProofTerminal::OtherLeaf {
                            key_hash: *leaf_kh,
                            value_hash: *value_hash,
                        }
                    };
                    return SmtProof { siblings, terminal };
                }
                Node::Internal { left, right, .. } => {
                    if leaf::key_bit(&key_hash, depth) {
                        siblings.push(left.hash());
                        resolve(right, self.pager.as_deref())
                    } else {
                        siblings.push(right.hash());
                        resolve(left, self.pager.as_deref())
                    }
                }
                Node::Paged { .. } => unreachable!("cursor is always resolved"),
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
        audit_node(&self.root, 0, &mut Vec::new(), &mut leaves, self.pager.as_deref())
            && leaves == self.len
    }

    /// Nodes currently held in memory, counting each spilled subtree as
    /// the single `Node::Paged` stub that represents it.
    pub fn resident_nodes(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Internal { left, right, .. } => 1 + count(left) + count(right),
                _ => 1,
            }
        }
        count(&self.root)
    }

    /// Spills cold subtrees to the attached pager until at most `budget`
    /// nodes stay resident (best effort: the root-to-spill paths
    /// themselves stay resident, so very small budgets floor out at the
    /// tree's spine). No hash is recomputed — a spilled subtree is
    /// replaced by a stub carrying the hash it already had — so the root
    /// is bit-identical before and after.
    ///
    /// No-op without a pager. Subtrees the next block touches are
    /// resolved (promoted) back on demand by `update`/`with_delta`;
    /// the ledger re-spills after each commit.
    pub fn spill_to_budget(&mut self, budget: usize) {
        let Some(pager) = self.pager.clone() else { return };
        let budget = budget.max(1);
        // Grow the spill unit until the tree fits: larger units collapse
        // bigger subtrees into one stub each, trading colder reads for
        // a smaller resident spine. A pass folds the stubs of the pass
        // before it into its own pages; `fresh` holds the pages this call
        // stored, so the folded ones go back to the pager instead of
        // piling up in the page file (no clone of the tree can have seen
        // them).
        let mut unit = 8usize;
        let mut fresh = BTreeSet::new();
        while self.resident_nodes() > budget {
            let (root, _, _) = spill_node(&self.root, unit, pager.as_ref(), &mut fresh);
            self.root = root;
            if unit > self.len.saturating_mul(2).max(8) {
                break; // spine alone exceeds the budget; nothing left to spill
            }
            unit = unit.saturating_mul(4);
        }
    }
}

/// Materializes a [`Node::Paged`] stub by decoding its page; any other
/// node passes through untouched. Mutating paths call this before
/// descending, so a touched cold subtree is naturally promoted into the
/// rebuilt path while untouched siblings stay spilled.
///
/// Panics on a missing pager, an undecodable page, or a hash mismatch:
/// spill pages are derived data with no second copy, so all three are
/// unrecoverable data loss (see [`NodePager`]).
fn resolve(node: &Arc<Node>, pager: Option<&dyn NodePager>) -> Arc<Node> {
    let Node::Paged { hash, page, .. } = &**node else {
        return node.clone();
    };
    let pager = pager.expect("paged subtree reached without an attached node pager");
    let bytes = pager.load_node(*page);
    let mut r = Reader::new(&bytes);
    let resolved =
        decode_node(&mut r, 0).expect("spilled subtree page holds a valid node encoding");
    assert_eq!(r.remaining(), 0, "spilled subtree page has trailing bytes");
    assert_eq!(resolved.hash(), *hash, "spilled subtree page hash mismatch (data loss)");
    resolved
}

/// Post-order spill pass: replaces every maximal subtree whose resident
/// footprint is ≤ `unit` nodes (and which holds ≥ 2 leaves — single
/// leaves are cheaper resident than paged) with a [`Node::Paged`] stub.
/// Returns the rebuilt node, its resident node count, and its leaf
/// count. Hashes are carried, never recomputed. `fresh` is the set of
/// pages stored since [`StateTree::spill_to_budget`] was entered.
fn spill_node(
    node: &Arc<Node>,
    unit: usize,
    pager: &dyn NodePager,
    fresh: &mut BTreeSet<u64>,
) -> (Arc<Node>, usize, u64) {
    match &**node {
        Node::Empty => (node.clone(), 1, 0),
        Node::Leaf { .. } => (node.clone(), 1, 1),
        Node::Paged { leaves, .. } => (node.clone(), 1, *leaves),
        Node::Internal { hash, left, right } => {
            let (left, l_res, l_leaves) = spill_node(left, unit, pager, fresh);
            let (right, r_res, r_leaves) = spill_node(right, unit, pager, fresh);
            let resident = 1 + l_res + r_res;
            let leaves = l_leaves + r_leaves;
            if resident <= unit && leaves >= 2 {
                // Encode the whole subtree (splicing any already-spilled
                // children) and push it down to one page.
                let rebuilt = Node::Internal { hash: *hash, left, right };
                let mut bytes = Vec::new();
                encode_node(&rebuilt, &mut bytes, Some(pager));
                free_fresh_stubs(&rebuilt, pager, fresh);
                let page = pager.store_node(&bytes);
                fresh.insert(page);
                (Arc::new(Node::Paged { hash: *hash, leaves, page }), 1, leaves)
            } else {
                (Arc::new(Node::Internal { hash: *hash, left, right }), resident, leaves)
            }
        }
    }
}

/// Frees the pages of the stubs under `node` that are in `fresh`: their
/// bytes were just spliced into the page that replaces `node`.
fn free_fresh_stubs(node: &Node, pager: &dyn NodePager, fresh: &mut BTreeSet<u64>) {
    match node {
        Node::Internal { left, right, .. } => {
            free_fresh_stubs(left, pager, fresh);
            free_fresh_stubs(right, pager, fresh);
        }
        Node::Paged { page, .. } => {
            if fresh.remove(page) {
                pager.free_node(*page);
            }
        }
        Node::Empty | Node::Leaf { .. } => {}
    }
}

/// The canonical subtree over `leaves` — distinct `(key_hash,
/// value_hash)` pairs sorted by key hash, all sharing their first
/// `depth` path bits: the shape `insert_at`/`split_leaves`/`remove_at`
/// maintain, with every node hashed once.
fn build(leaves: &[(Hash256, Hash256)], depth: usize) -> Arc<Node> {
    match leaves {
        [] => Node::empty(),
        [(key_hash, value_hash)] => Arc::new(Node::leaf(*key_hash, *value_hash)),
        _ => {
            assert!(depth < MAX_DEPTH, "distinct leaf keys share all 256 path bits");
            let split = leaves.partition_point(|(key_hash, _)| !leaf::key_bit(key_hash, depth));
            let (left, right) = leaves.split_at(split);
            Arc::new(Node::internal(build(left, depth + 1), build(right, depth + 1)))
        }
    }
}

/// Returns the updated subtree and whether the key was already present.
fn insert_at(
    node: &Arc<Node>,
    depth: usize,
    key_hash: Hash256,
    value_hash: Hash256,
    pager: Option<&dyn NodePager>,
) -> (Arc<Node>, bool) {
    let node = resolve(node, pager);
    match &*node {
        Node::Empty => (Arc::new(Node::leaf(key_hash, value_hash)), false),
        Node::Leaf {
            key_hash: leaf_kh,
            value_hash: leaf_vh,
            ..
        } => {
            if *leaf_kh == key_hash {
                if *leaf_vh == value_hash {
                    (node.clone(), true)
                } else {
                    (Arc::new(Node::leaf(key_hash, value_hash)), true)
                }
            } else {
                (
                    split_leaves(depth, node.clone(), *leaf_kh, key_hash, value_hash),
                    false,
                )
            }
        }
        Node::Internal { left, right, .. } => {
            if leaf::key_bit(&key_hash, depth) {
                let (new_right, present) =
                    insert_at(right, depth + 1, key_hash, value_hash, pager);
                (
                    Arc::new(Node::internal(left.clone(), new_right)),
                    present,
                )
            } else {
                let (new_left, present) =
                    insert_at(left, depth + 1, key_hash, value_hash, pager);
                (
                    Arc::new(Node::internal(new_left, right.clone())),
                    present,
                )
            }
        }
        Node::Paged { .. } => unreachable!("resolved above"),
    }
}

/// Replaces a single-leaf subtree at `depth` with the minimal internal
/// chain separating the existing leaf from a new one: internals with an
/// empty sibling down to the first differing key-hash bit, then a node
/// with both leaves as children.
fn split_leaves(
    depth: usize,
    existing: Arc<Node>,
    existing_kh: Hash256,
    key_hash: Hash256,
    value_hash: Hash256,
) -> Arc<Node> {
    let mut fork = depth;
    while leaf::key_bit(&existing_kh, fork) == leaf::key_bit(&key_hash, fork) {
        fork += 1;
        assert!(fork < MAX_DEPTH, "distinct leaf keys share all 256 path bits");
    }
    let new_leaf = Arc::new(Node::leaf(key_hash, value_hash));
    let (left, right) = if leaf::key_bit(&key_hash, fork) {
        (existing, new_leaf)
    } else {
        (new_leaf, existing)
    };
    let mut node = Arc::new(Node::internal(left, right));
    for level in (depth..fork).rev() {
        node = Arc::new(if leaf::key_bit(&key_hash, level) {
            Node::internal(Node::empty(), node)
        } else {
            Node::internal(node, Node::empty())
        });
    }
    node
}

/// Returns the updated subtree and whether a leaf was removed. Restores
/// canonical form on the way back up: an internal node left with a
/// single leaf child collapses to that leaf.
fn remove_at(
    node: &Arc<Node>,
    depth: usize,
    key_hash: &Hash256,
    pager: Option<&dyn NodePager>,
) -> (Arc<Node>, bool) {
    let node = resolve(node, pager);
    match &*node {
        Node::Empty => (node.clone(), false),
        Node::Leaf { key_hash: leaf_kh, .. } => {
            if leaf_kh == key_hash {
                (Node::empty(), true)
            } else {
                (node.clone(), false)
            }
        }
        Node::Internal { left, right, .. } => {
            let (new_left, new_right, removed) = if leaf::key_bit(key_hash, depth) {
                let (nr, removed) = remove_at(right, depth + 1, key_hash, pager);
                (left.clone(), nr, removed)
            } else {
                let (nl, removed) = remove_at(left, depth + 1, key_hash, pager);
                (nl, right.clone(), removed)
            };
            if !removed {
                return (node.clone(), false);
            }
            // A `Paged` sibling always holds ≥ 2 leaves (spill policy),
            // so it can only appear in the no-collapse arm — same as the
            // internal node it stands for.
            let collapsed = match (&*new_left, &*new_right) {
                (Node::Empty, Node::Leaf { .. }) => new_right,
                (Node::Leaf { .. }, Node::Empty) => new_left,
                (Node::Empty, Node::Empty) => Node::empty(),
                _ => Arc::new(Node::internal(new_left, new_right)),
            };
            (collapsed, true)
        }
        Node::Paged { .. } => unreachable!("resolved above"),
    }
}

/// Flattens a committed [`StateDelta`] into `(leaf key, new value)`
/// updates, where `None` deletes the leaf. This is the single bridge
/// between the execution layer's delta vocabulary and the tree: storage
/// tombstones and cleared locks delete, every other component upserts
/// (accounts, code, anchors, cross-links, and decisions are never
/// removed from state).
pub fn delta_updates(delta: &StateDelta) -> Vec<(LeafKey, Option<Vec<u8>>)> {
    let mut updates = Vec::new();
    for (addr, account) in &delta.accounts {
        updates.push((LeafKey::Account(*addr), Some(account.encoded())));
    }
    for ((contract, key), value) in &delta.storage {
        updates.push((LeafKey::Storage(*contract, key.clone()), value.clone()));
    }
    for (contract, code) in &delta.code {
        updates.push((LeafKey::Code(*contract), Some(code.clone())));
    }
    for (label, root) in &delta.anchors {
        updates.push((LeafKey::Anchor(label.clone()), Some(root.0.to_vec())));
    }
    for (shard, link) in &delta.crosslinks {
        updates.push((LeafKey::CrossLink(*shard), Some(link.encoded())));
    }
    for (addr, lock) in &delta.locks {
        updates.push((LeafKey::Lock(*addr), lock.as_ref().map(|l| l.encoded())));
    }
    for (xid, decision) in &delta.xs_decisions {
        updates.push((LeafKey::XsDecision(*xid), Some(decision.encoded())));
    }
    updates
}

fn audit_node(
    node: &Arc<Node>,
    depth: usize,
    path: &mut Vec<u8>,
    leaves: &mut usize,
    pager: Option<&dyn NodePager>,
) -> bool {
    if depth > MAX_DEPTH {
        return false;
    }
    // Resolve a spilled subtree transiently; `resolve` itself asserts
    // the decoded subtree hashes to the resident stub's hash.
    let node = resolve(node, pager);
    match &*node {
        Node::Paged { .. } => unreachable!("resolved above"),
        Node::Empty => depth == 0, // non-root empties violate canonical form
        Node::Leaf {
            hash,
            key_hash,
            value_hash,
        } => {
            // Hash integrity + the leaf actually lives under its path.
            if *hash != leaf::leaf_hash(key_hash, value_hash) {
                return false;
            }
            for (level, bit) in path.iter().enumerate() {
                if leaf::key_bit(key_hash, level) != (*bit == 1) {
                    return false;
                }
            }
            *leaves += 1;
            true
        }
        Node::Internal { hash, left, right } => {
            if *hash != leaf::node_hash(&left.hash(), &right.hash()) {
                return false;
            }
            // Canonical form: no empty+leaf pairs, no empty+empty.
            match (&**left, &**right) {
                (Node::Empty, Node::Empty)
                | (Node::Empty, Node::Leaf { .. })
                | (Node::Leaf { .. }, Node::Empty) => return false,
                _ => {}
            }
            let ok_left = {
                path.push(0);
                let ok = matches!(&**left, Node::Empty)
                    || audit_node(left, depth + 1, path, leaves, pager);
                path.pop();
                ok
            };
            let ok_right = {
                path.push(1);
                let ok = matches!(&**right, Node::Empty)
                    || audit_node(right, depth + 1, path, leaves, pager);
                path.pop();
                ok
            };
            ok_left && ok_right
        }
    }
}

// Snapshot persistence: the tree serializes preorder with its cached
// hashes, so decoding rebuilds the root without a single hash
// computation — that is what lets recovery skip the full state rehash.
const TAG_EMPTY: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_INTERNAL: u8 = 2;

fn encode_node(node: &Node, out: &mut Vec<u8>, pager: Option<&dyn NodePager>) {
    match node {
        Node::Empty => out.push(TAG_EMPTY),
        Node::Leaf {
            hash,
            key_hash,
            value_hash,
        } => {
            out.push(TAG_LEAF);
            hash.encode(out);
            key_hash.encode(out);
            value_hash.encode(out);
        }
        Node::Internal { hash, left, right } => {
            out.push(TAG_INTERNAL);
            hash.encode(out);
            encode_node(left, out, pager);
            encode_node(right, out, pager);
        }
        // A spilled page *is* the subtree's preorder encoding: splice it
        // verbatim, so a paged tree serializes byte-identically to a
        // fully resident one (there is no on-disk `Paged` tag).
        Node::Paged { page, .. } => {
            let pager = pager.expect("paged subtree encoded without an attached node pager");
            out.extend_from_slice(&pager.load_node(*page));
        }
    }
}

fn decode_node(r: &mut Reader<'_>, depth: usize) -> Result<Arc<Node>, CodecError> {
    match u8::decode(r)? {
        TAG_EMPTY => Ok(Node::empty()),
        TAG_LEAF => Ok(Arc::new(Node::Leaf {
            hash: Hash256::decode(r)?,
            key_hash: Hash256::decode(r)?,
            value_hash: Hash256::decode(r)?,
        })),
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
            Ok(Arc::new(Node::Internal { hash, left, right }))
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
        encode_node(&self.root, out, self.pager.as_deref());
    }
}

impl Decode for StateTree {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u64::decode(r)? as usize;
        let root = decode_node(r, 0)?;
        // Decoded trees start fully resident and unpaged; recovery
        // re-attaches a pager (and re-spills) after install.
        Ok(StateTree { root, len, pager: None })
    }
}
