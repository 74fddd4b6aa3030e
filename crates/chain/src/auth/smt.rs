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
//! ## Disk-resident cold subtrees (DESIGN.md §14)
//!
//! Handed a [`NodePager`], [`StateTree::spill_to_budget`] cuts the
//! tree at one depth fixed by the budget and swaps each resident subtree
//! at the cut for a single-node `Node::Paged` stub holding only the
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

use std::collections::BTreeMap;
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
    /// A cold subtree (two or more leaves) spilled to the node pager:
    /// only its hash and page handle stay resident. Never produced by
    /// `Decode` — it exists only in memory, as the residue of
    /// [`StateTree::spill_to_budget`].
    Paged { hash: Hash256, page: Page },
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

    /// Sets (`Some`) or deletes (`None`) one leaf: a batch of one,
    /// rebuilding only the root-to-leaf path.
    pub fn update(&mut self, key: &LeafKey, value: Option<&[u8]>) {
        let batch = [(leaf::key_hash(key), value.map(leaf::value_hash))];
        self.root = merge(&self.root, 0, &batch, &mut self.len);
    }

    /// The tree after applying a committed block's [`StateDelta`]:
    /// tombstoned storage slots and cleared locks become deletions,
    /// everything else an upsert. The receiver is untouched.
    pub fn with_delta(&self, delta: &StateDelta) -> StateTree {
        self.with_updates(&delta_updates(delta))
    }

    /// The tree after applying already-flattened
    /// [`delta_updates`] (each leaf key at most once), in one descent:
    /// the batch is sorted by key hash and merged into the tree, so every
    /// touched node is rebuilt and hashed once however many of the
    /// batch's keys lie under it.
    pub(crate) fn with_updates(&self, updates: &[(LeafKey, Option<Vec<u8>>)]) -> StateTree {
        let mut batch: Vec<LeafUpdate> = updates
            .iter()
            .map(|(key, value)| (leaf::key_hash(key), value.as_deref().map(leaf::value_hash)))
            .collect();
        batch.sort_unstable_by_key(|(key_hash, _)| *key_hash);
        debug_assert!(batch.windows(2).all(|w| w[0].0 < w[1].0), "a leaf key written twice");
        let mut tree = self.clone();
        tree.root = merge(&self.root, 0, &batch, &mut tree.len);
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
        let mut node = resolve(&self.root);
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
                        resolve(right)
                    } else {
                        siblings.push(right.hash());
                        resolve(left)
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
        audit_node(&self.root, 0, &mut Vec::new(), &mut leaves) && leaves == self.len
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

    /// Spills cold subtrees to `pager` so that at most `budget` nodes
    /// stay resident. The tree holds no pager of its own: each stub
    /// keeps the handle of the pager that stored it, so later reads and
    /// frees need none, and the caller names the pager at every spill.
    /// The tree is cut at depth `cut =
    /// ⌊log₂(budget + 1)⌋ − 1`: the spine above it (at most 2^cut − 1
    /// nodes) stays resident, and every resident internal node at the
    /// cut becomes a stub over one freshly stored page, so the 2^cut
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
        self.root = spill(&self.root, cut, pager);
    }
}

/// Materializes a [`Node::Paged`] stub by decoding its page; any other
/// node passes through untouched. Mutating paths call this before
/// descending, so a touched cold subtree is naturally promoted into the
/// rebuilt path while untouched siblings stay spilled.
///
/// Panics on an undecodable page or a hash mismatch: spill pages are
/// derived data with no second copy, so both are unrecoverable data
/// loss (see [`NodePager`]).
fn resolve(node: &Arc<Node>) -> Arc<Node> {
    let Node::Paged { hash, page } = &**node else {
        return node.clone();
    };
    let bytes = page.load();
    let mut r = Reader::new(&bytes);
    let resolved =
        decode_node(&mut r, 0).expect("spilled subtree page holds a valid node encoding");
    assert_eq!(r.remaining(), 0, "spilled subtree page has trailing bytes");
    assert_eq!(resolved.hash(), *hash, "spilled subtree page hash mismatch (data loss)");
    resolved
}

/// Replaces each resident internal node `depth` levels below `node` with
/// a stub over one stored page. Hashes are carried, never recomputed; a
/// subtree with nothing to spill comes back as the very same `Arc`.
fn spill(node: &Arc<Node>, depth: usize, pager: &Arc<dyn NodePager>) -> Arc<Node> {
    let Node::Internal { hash, left, right } = &**node else {
        return node.clone();
    };
    if depth == 0 {
        let mut bytes = Vec::new();
        encode_node(node, &mut bytes);
        let page = Page { id: pager.store_node(&bytes), pager: Arc::clone(pager) };
        return Arc::new(Node::Paged { hash: *hash, page });
    }
    let new_left = spill(left, depth - 1, pager);
    let new_right = spill(right, depth - 1, pager);
    if Arc::ptr_eq(&new_left, left) && Arc::ptr_eq(&new_right, right) {
        return node.clone();
    }
    Arc::new(Node::Internal { hash: *hash, left: new_left, right: new_right })
}

/// The canonical subtree over `leaves` — distinct `(key_hash,
/// value_hash)` pairs sorted by key hash, all sharing their first
/// `depth` path bits — with every node hashed once. [`merge`] hands it
/// every position where a batch meets an empty or single-leaf subtree.
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

/// One pending leaf write, by key hash: `Some(value_hash)` upserts,
/// `None` deletes.
type LeafUpdate = (Hash256, Option<Hash256>);

/// Merges `batch` — distinct key hashes, sorted, all sharing `node`'s
/// first `depth` path bits — into `node`, adjusting `len` by the leaves
/// gained or lost. An untouched subtree (empty sub-batch, or writes that
/// change nothing) comes back as the very same `Arc`, unhashed and, if
/// spilled, still a stub; a touched internal node is hashed once, after
/// both children. Deletions restore canonical form on the way back up:
/// an internal node left with a single leaf child collapses to that
/// leaf, one left with two empty children to the empty subtree.
fn merge(node: &Arc<Node>, depth: usize, batch: &[LeafUpdate], len: &mut usize) -> Arc<Node> {
    if batch.is_empty() {
        return node.clone();
    }
    let resolved = resolve(node);
    let existing = match &*resolved {
        Node::Internal { left, right, .. } => {
            let split = batch.partition_point(|(key_hash, _)| !leaf::key_bit(key_hash, depth));
            let (left_batch, right_batch) = batch.split_at(split);
            let new_left = merge(left, depth + 1, left_batch, len);
            let new_right = merge(right, depth + 1, right_batch, len);
            if Arc::ptr_eq(&new_left, left) && Arc::ptr_eq(&new_right, right) {
                return node.clone();
            }
            // A `Paged` child stands for an internal node, so it holds
            // ≥ 2 leaves and can only land in the no-collapse arm.
            return match (&*new_left, &*new_right) {
                (Node::Empty, Node::Leaf { .. }) => new_right,
                (Node::Leaf { .. }, Node::Empty) => new_left,
                (Node::Empty, Node::Empty) => Node::empty(),
                _ => Arc::new(Node::internal(new_left, new_right)),
            };
        }
        Node::Empty => None,
        Node::Leaf { key_hash, value_hash, .. } => Some((*key_hash, *value_hash)),
        Node::Paged { .. } => unreachable!("resolve never returns a stub"),
    };
    // An empty or single-leaf position: the existing leaf, unless the
    // batch writes its key, interleaved with the batch's upserts.
    let upsert = |(key_hash, value_hash): &LeafUpdate| Some((*key_hash, (*value_hash)?));
    let at = existing.map_or(0, |(key_hash, _)| batch.partition_point(|(k, _)| *k < key_hash));
    let kept = existing.filter(|(key_hash, _)| batch.get(at).is_none_or(|(k, _)| k != key_hash));
    let (below, above) = batch.split_at(at);
    let leaves: Vec<(Hash256, Hash256)> = below
        .iter()
        .filter_map(upsert)
        .chain(kept)
        .chain(above.iter().filter_map(upsert))
        .collect();
    if leaves.as_slice() == existing.as_slice() {
        return node.clone();
    }
    *len = *len + leaves.len() - usize::from(existing.is_some());
    build(&leaves, depth)
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

fn audit_node(node: &Arc<Node>, depth: usize, path: &mut Vec<u8>, leaves: &mut usize) -> bool {
    if depth > MAX_DEPTH {
        return false;
    }
    // Resolve a spilled subtree transiently; `resolve` itself asserts
    // the decoded subtree hashes to the resident stub's hash.
    let node = resolve(node);
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
                let ok =
                    matches!(&**left, Node::Empty) || audit_node(left, depth + 1, path, leaves);
                path.pop();
                ok
            };
            let ok_right = {
                path.push(1);
                let ok =
                    matches!(&**right, Node::Empty) || audit_node(right, depth + 1, path, leaves);
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

fn encode_node(node: &Node, out: &mut Vec<u8>) {
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
            encode_node(left, out);
            encode_node(right, out);
        }
        // A spilled page *is* the subtree's preorder encoding: splice it
        // verbatim, so a paged tree serializes byte-identically to a
        // fully resident one (there is no on-disk `Paged` tag).
        Node::Paged { page, .. } => out.extend_from_slice(&page.load()),
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
