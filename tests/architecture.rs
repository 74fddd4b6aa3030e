//! Architecture checks over the source tree. DESIGN.md gives most subsystems
//! one way to do their job: one apply path, one pager, one record format, one
//! socket layer, one off-chain job path. Each design is a row of [`RULES`]:
//! text that must not appear (or appear exactly `count` times) in a set of
//! files, what may hold it, and why; the few checks that are no needle are
//! functions the row runs. Every row carries mutants, edits that bring back
//! what it was written against, and each must trip its row and no other.
//!
//! A line is a comment when it starts with `//` after indentation. A test
//! region starts at a column-0 `#[cfg(test)]` and covers the item under it:
//! through its column-0 closing brace, or its one line when that ends in `;`.
//! `cargo test -q --test architecture -- --nocapture --exact census` prints
//! the line censuses.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Bound;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use Allow::{Body, File, Line, With};
use Needle::{End, Numbered, Start, Sub, Word};
use Scan::{All, Code, NoComments};

// ------------------------------------------------------------------ rules

const SRC: &[&str] = &["crates/*/src/", "src/", "tests/", "examples/"];
const ALL_RS: &[&str] = &["crates/", "src/", "tests/", "examples/"];
const APPLY: &str = "pub fn apply(&mut self, block: &Block)";
const ROOT_WITH: &str = "pub fn state_root_with(";
const GATEWAY: &str = "crates/core/src/gateway.rs";
const LEDGER: &str = "crates/chain/src/ledger.rs";
const STATE: &str = "crates/chain/src/state.rs";
const DISK: &str = "crates/storage/src/disk.rs";
const NETWORK: &str = "crates/core/src/network.rs";
const BOOTSTRAP: &str = "crates/core/src/bootstrap.rs";
const HASH: &str = "crates/chain/src/hash.rs";
const STREAM: &str = "crates/storage/src/stream.rs";
const PAGES: &str = "crates/storage/src/pages.rs";
const COMMITTEE: &str = "crates/core/src/committee.rs";
const POA: &str = "crates/chain/src/consensus/poa.rs";
const PBFT: &str = "crates/chain/src/consensus/pbft.rs";
const VOTE: &str = "fn vote(&self, d: &[u8], s: &Signature) -> bool { self.registry.verify(d, s) }";

const RULES: &[Row] = &[
    Row { name: "faults live in FaultyTransport", paths: &["crates/transport/src/"],
        needles: &[Sub("fail_node"), Sub("heal_node"), Sub("fail_link"), Sub("heal_link"), Sub("set_drop_rate"),
            Sub("failed_nodes")],
        allow: &[File("crates/transport/src/fault.rs")], why: "wrap the transport in FaultyTransport (DESIGN.md §6)",
        mutants: &[m("crates/transport/src/sim.rs", "", "fn fail_node(&mut self) {}")], ..ROW },
    Row { name: "no has_pending", needles: &[Sub("has_pending")],
        paths: &["crates/transport/", "crates/chain/", "crates/transport/Cargo.toml", "crates/chain/Cargo.toml"],
        why: "a transport is quiet when next() returns None (DESIGN.md §6)",
        mutants: &[m("crates/transport/src/lib.rs", "", "// has_pending")], ..ROW },
    Row { name: "no chain::net shim", needles: &[End("chain::net", ""), Sub("crate::net::")],
        paths: &["crates/", "tests/", "examples/"], why: "import medchain_transport directly (DESIGN.md §6)",
        mutants: &[m("tests/transport.rs", "", "use medchain_chain::net::SimTransport;")], ..ROW },
    Row { name: "mempool admission boundary", paths: SRC, allow: &[File("crates/chain/src/")],
        needles: &[Sub("try_insert_in("), Sub("mempool.insert("), Sub(".try_insert(")],
        why: "direct mempool insertion outside crates/chain; use ChainApp::submit* (DESIGN.md §10)",
        mutants: &[m(NETWORK, "", "fn sneak(app: &mut App) { app.mempool.insert(tx); }")], ..ROW },
    Row { name: "one apply path", needles: &[Sub("scoped_map"), Sub("thread::")], scan: Code,
        paths: &["crates/chain/src/exec/", LEDGER], why: "blocks execute in order, on the calling thread (DESIGN.md §11)",
        mutants: &[m(LEDGER, APPLY, "std::thread::scope(|_| {});"),
            m("crates/chain/src/exec/mod.rs", "WorldStateOverlay::new(base);", "let _ = scoped_map(2, txs, |_, tx| tx.id());")], ..ROW },
    Row { name: "set_parallel_exec has no caller", needles: &[Sub("set_parallel_exec(")], paths: ALL_RS,
        allow: &[Line(LEDGER, "pub fn set_parallel_exec(&mut self, threads: usize) {")],
        why: "the no-op stays only for medbench's exec_probe (DESIGN.md §11)",
        mutants: &[m("tests/exec.rs", "", "fn lanes(ledger: &mut Ledger) { ledger.set_parallel_exec(2); }")], ..ROW },
    Row { name: "overlay commit path", needles: &[Sub(".into_delta("), Sub(".apply_to(")], paths: &["crates/*/src/"],
        allow: &[File("crates/chain/src/exec/"), File(LEDGER), File(STATE),
            Line("crates/bench/src/e22_light_client.rs", "let delta = overlay.into_delta();"),
            Line("crates/storage/src/snapshot.rs", "self.writes.apply_to(&mut state);")],
        why: "a StateDelta is materialized or applied outside the exec commit path (DESIGN.md §11, §13)",
        mutants: &[m(DISK, "", "fn redo(d: &StateDelta, s: &mut WorldState) { d.apply_to(s); }")], ..ROW },
    Row { name: "state.rs commits deltas only in tests", paths: &[STATE], scan: Code,
        needles: &[Sub(".into_delta("), Sub(".apply_to("), Sub(".apply_delta(")],
        why: "outside its tests, state.rs neither builds nor applies a delta (DESIGN.md §11, §13)",
        mutants: &[m(STATE, ROOT_WITH, "let _ = overlay.into_delta();"),
            m(STATE, ROOT_WITH, "self.clone().apply_delta(delta);")], ..ROW },
    Row { name: "state_mut only funds genesis", needles: &[Sub("state_mut().")], paths: &["crates/*/src/"],
        allow: &[With("state_mut().credit(")], why: "direct WorldState mutation; go through the overlay (DESIGN.md §11, §13)",
        mutants: &[m(COMMITTEE, "", "fn burn(l: &mut Ledger, a: Address) { l.state_mut().debit(a, 1); }")], ..ROW },
    Row { name: "account map walked in address order", paths: &[STATE], scan: Code,
        needles: &[Sub("accounts.iter("), Sub("accounts.iter_mut("), Sub("accounts.keys("), Sub("accounts.values("),
            Sub("accounts.values_mut("), Sub("accounts.into_iter("), Sub("accounts.into_keys("), Sub("accounts.into_values("),
            Sub("accounts.drain("), Sub("accounts.retain("), Sub("accounts).iter("), Sub("accounts).iter_mut("),
            Sub("accounts).keys("), Sub("accounts).values("), Sub("accounts).values_mut("), Sub("accounts).into_iter("),
            Sub("accounts).into_keys("), Sub("accounts).into_values("), Sub("accounts).drain("), Sub("accounts).retain("),
            End("&self.accounts", "."), End("&mut self.accounts", "."), End("in self.accounts", ".")],
        allow: &[Body(STATE, "hot_sorted"), Body(STATE, "demote_accounts")],
        why: "the account hash map is walked outside hot_sorted/demote_accounts; its order would reach bytes (DESIGN.md §11, §13)",
        mutants: &[m(STATE, "count.encode(out);", "for (addr, _) in &self.accounts { addr.encode(out); }"),
            m(STATE, "count.encode(out);", "self.accounts.iter().for_each(|(a, _)| a.encode(out));")], ..ROW },
    Row { name: "apply_delta only on the commit path", needles: &[Sub(".apply_delta(")], paths: SRC,
        allow: &[File(LEDGER), File(STATE)], why: "WorldState::apply_delta called outside the ledger commit path (DESIGN.md §11, §13)",
        mutants: &[m(NETWORK, "", "fn skip(s: &mut WorldState, d: &StateDelta) { s.apply_delta(d); }")], ..ROW },
    Row { name: "no undo path", paths: SRC,
        needles: &[Sub("StateUndo"), End("fn revert", ""), Sub("MemStore"), Sub("attach_pager"), Sub("tree cache poisoned")],
        why: "an undo path, MemStore, the tree's pager handle or the tree mutex is back (DESIGN.md §8)",
        mutants: &[m(LEDGER, "", "fn revert(&mut self) {}")], ..ROW },
    Row { name: "one snapshot install", needles: &[Sub("restore_with_tree(")], paths: SRC,
        allow: &[File(LEDGER), File(DISK), File("crates/chain/src/history.rs")],
        why: "snapshot state installed outside local recovery (DESIGN.md §14)",
        mutants: &[m(BOOTSTRAP, "", "fn put(l: &mut Ledger) { l.restore_with_tree(tip, state, tree); }")], ..ROW },
    Row { name: "history.rs restores only in tests", needles: &[Sub("restore_with_tree(")], scan: Code,
        paths: &["crates/chain/src/history.rs"], why: "history.rs's tests restore a ledger; its code does not (DESIGN.md §14)",
        mutants: &[m("crates/chain/src/history.rs", "pub(crate) fn reset_to(", "ledger.restore_with_tree(tip, state, tree);")], ..ROW },
    Row { name: "payloads adopted by bootstrap", needles: &[Sub("adopt_payload(")], paths: SRC,
        allow: &[File("crates/storage/src/snapshot.rs"), File(BOOTSTRAP),
            Line(DISK, "store.snapshots().adopt_payload(ADOPTED, &payload).expect(\"snapshot adopted\");"),
            Line(DISK, "store.snapshots().adopt_payload(REFUSED, REFUSED_PAYLOAD).expect(\"payload adopted\");")],
        why: "a raw snapshot payload adopted outside the streamed-bootstrap path and the crash points (DESIGN.md §8, §14)",
        mutants: &[m(COMMITTEE, "", "fn take(s: &mut SnapshotStore, p: &[u8]) { s.adopt_payload(p); }")], ..ROW },
    Row { name: "bootstrap only streams in", paths: &[BOOTSTRAP],
        needles: &[Sub("SnapshotPeer"), Sub("TcpListener"), Sub("attach_store("), Sub("run_until_height(")],
        why: "the gateway is the one snapshot server; attaching and advancing are the committee's (DESIGN.md §14)",
        mutants: &[m(BOOTSTRAP, "", "struct SnapshotPeer;"),
            m(BOOTSTRAP, "", "fn attach(a: &mut ChainApp, s: DiskStore) { a.attach_store(s); }")], ..ROW },
    Row { name: "client has no snapshot calls", needles: &[End("fn snapshot_manifest", ""), End("fn snapshot_chunk", "")],
        paths: &["crates/core/src/client.rs"], why: "stream_into matches the replies once (DESIGN.md §14)",
        mutants: &[m("crates/core/src/client.rs", "", "fn snapshot_chunk(&mut self) {}")], ..ROW },
    Row { name: "no full rehash", needles: &[Sub("from_state(")], scan: Code,
        paths: &["crates/chain/src/", "crates/storage/src/", "crates/core/src/"], allow: &[File("crates/chain/src/auth/smt.rs"),
            Line(STATE, "StateTree::from_state(self).versioned_root()"),
            Line(LEDGER, "let mut tree = StateTree::from_state(&self.state);")],
        why: "a new full-state tree build; maintain the tree with the delta merge (DESIGN.md §8, §13)",
        mutants: &[m(STATE, ROOT_WITH, "let _ = StateTree::from_state(self);")], ..ROW },
    Row { name: "spill at one cut, no fold", needles: &[Word("spill_node"), Word("free_fresh_stubs"), Word("fresh")],
        paths: &["crates/chain/src/auth/smt.rs"], why: "the folding spill or its fresh page set is back (DESIGN.md §8, §13)",
        mutants: &[m("crates/chain/src/auth/smt.rs", "", "fn spill_node() {}")], ..ROW },
    Row { name: "leaves hashed from scratch buffers", needles: &[Sub(".encoded()")], scan: Code,
        paths: &["crates/chain/src/auth/smt.rs"], why: "the state tree encodes an owned buffer; use LeafHasher (DESIGN.md §8, §13)",
        mutants: &[m("crates/chain/src/auth/smt.rs", "", "fn leaf(a: &Account) -> Vec<u8> { a.encoded() }")], ..ROW },
    Row { name: "one pager", paths: ALL_RS, allow: &[Line(PAGES, "impl Pager for PageStore {")],
        needles: &[Sub("AccountPager"), Sub("PagedAccounts"), Sub("LatestState"), Sub("set_commit_observer"), Sub("impl Pager for")],
        why: "the page store is the one Pager; storage's account pager and the commit observer are gone (DESIGN.md §14)",
        mutants: &[m(PAGES, "", "// PagedAccounts"), m("crates/chain/src/pager.rs", "", "impl Pager for Mem {}"),
            m(DISK, "", "impl Pager for DiskStore {}"), m(PAGES, "", "impl Pager for Arc<PageStore> {}")], ..ROW },
    Row { name: "ledger merges in place", needles: &[Sub("with_delta(")], scan: Code,
        paths: &[LEDGER], why: "ledger.rs merges a delta into a copy of its tree (DESIGN.md §8, §13)",
        mutants: &[m(LEDGER, APPLY, "let tree = self.tree.with_delta(&delta);")], ..ROW },
    Row { name: "receipts stored once", scan: NoComments,
        needles: &[Sub("receipt.clone()"), Sub("receipts.clone()"), Sub("output.clone()"), Sub("events.clone()"),
            Sub("error.clone()")],
        paths: &["crates/chain/src/ledger.rs::apply", "crates/chain/src/history.rs::push", "crates/chain/src/history.rs::kept"],
        why: "Ledger::apply, History::push or Outcome::kept clones a receipt or its parts; move them into the history \
            (DESIGN.md §8, §10, §13)",
        mutants: &[m("crates/chain/src/history.rs", "pub(crate) fn push(", "let kept = receipts.clone();"),
            m(LEDGER, APPLY, "let copy = receipts.clone();"),
            m("crates/chain/src/history.rs", "fn kept(receipt: Receipt)", "let output = output.clone();")], ..ROW },
    Row { name: "one owner of history", paths: &["crates/chain/src/"], scan: Code,
        needles: &[End(".blocks", "(\""), End(".base_height", "(\""), End(".receipts", "(\""), End(".outcomes", "(\""),
            End(".starts", "(\""), End(".tx_index", "(\"")],
        allow: &[File("crates/chain/src/history.rs"), Line("crates/chain/src/receipt.rs",
            "self.proof.leaf_index == self.tx_index && self.proof.verify(&self.tx_id, tx_root)")],
        why: "a History field is named outside history.rs; go through History's methods (DESIGN.md §3)",
        mutants: &[swap(LEDGER, "self.history.tip().header.height", "self.history.blocks.len() as u64"),
            m(LEDGER, APPLY, "let kept = self.history.outcomes.len();")], ..ROW },
    Row { name: "one snapshot store", scan: Code,
        needles: &[Sub("SnapshotStore::open("), Sub("SnapshotStore::open_in("), Sub("snapshots().write")],
        paths: &["crates/*/src/", "src/", "examples/"], allow: &[Line(DISK, "let snaps = SnapshotStore::open_in(disk, dir)?;"),
            Line("crates/storage/src/snapshot.rs", "SnapshotStore::open_in(Disk::os(Metrics::noop()), dir)")],
        why: "DiskStore owns the one snapshot store; bootstrap adopts and discards there, never writes (DESIGN.md §8)",
        mutants: &[m(BOOTSTRAP, "", "fn side(d: &Path) { let _ = SnapshotStore::open(d); }"),
            m(BOOTSTRAP, "", "fn side(s: &mut DiskStore) { s.snapshots().write(tip, state, tree); }")], ..ROW },
    Row { name: "disk.rs writes once", needles: &[Sub(".write(")], scan: Code, count: 1,
        paths: &[DISK], why: "disk.rs's one `.write(` is its boundary policy's full snapshot (DESIGN.md §8)",
        mutants: &[m(DISK, "let every = self.config.snapshot_every;", "self.snaps.write(tip, state, tree)?;")], ..ROW },
    Row { name: "the boundary policy writes the full snapshot", needles: &[Sub("snaps.write(")], scan: Code, count: 1,
        paths: &["crates/storage/src/disk.rs::snapshot"], why: "DiskStore::snapshot is the one full-snapshot writer (DESIGN.md §8)",
        mutants: &[swap(DISK, "let bytes = self.snaps.write(", "let bytes = self.store.write(tip, state, tree)?;")], ..ROW },
    Row { name: "durable renames", needles: &[Sub("fs::rename(")], paths: &["crates/storage/src/"], scan: NoComments,
        allow: &[Body("crates/storage/src/durable.rs", "rename_into_place")],
        why: "fs::rename outside durable::rename_into_place; a rename must sync its directory (DESIGN.md §8)",
        mutants: &[m("crates/storage/src/snapshot.rs", "mod tests {", "fn swap(a: &Path, b: &Path) { std::fs::rename(a, b).unwrap(); }")],
        ..ROW },
    Row { name: "one filesystem seam", paths: &["crates/storage/src/"], scan: Code,
        needles: &[Word("fs"), Word("File"), Sub("OpenOptions"), Sub("sync_data"), Sub("sync_all"), Word("set_len"), Word("seek")],
        allow: &[File("crates/storage/src/durable.rs")],
        why: "a file operation in crates/storage/src outside durable.rs; go through its Disk handle, which syncs what a crash \
            could lose and counts every sync (DESIGN.md §8)",
        mutants: &[m("crates/storage/src/snapshot.rs", "", "fn drop_file(p: &Path) { std::fs::remove_file(p).unwrap(); }"),
            m(PAGES, "fn write_extent(", "file.sync_data()?;")], ..ROW },
    Row { name: "one record format", needles: &[Sub("from_le_bytes("), Sub("crc32(")], paths: &["crates/storage/src/"], scan: Code,
        allow: &[File("crates/storage/src/record.rs"), Line(STREAM, "crc: crc32(payload),"),
            Line(STREAM, "let crc = crc32(&bytes);"),
            Line(STREAM, "if crc32(&chunk.bytes) != chunk.crc {"),
            Line(STREAM, "if crc32(&payload) != self.manifest.crc {")],
        why: "a record header parsed or a CRC computed outside crates/storage/src/record.rs (DESIGN.md §8)",
        mutants: &[m("crates/storage/src/wal.rs", "fn next_block(", "let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);"),
            m(PAGES, "fn read_extent(", "let _ = crc32(&[]);")], ..ROW },
    Row { name: "one transaction id hash", needles: &[Sub("Hash256::digest(&self.signing_bytes())")], paths: &["crates/chain/src/"],
        allow: &[Line("crates/chain/src/tx.rs", "Hash256::digest(&self.signing_bytes())")],
        why: "the transaction id is computed in one place, Transaction::id (DESIGN.md §10)",
        mutants: &[m("crates/chain/src/tx.rs", "", "fn again(&self) -> Hash256 { Hash256::digest(&self.signing_bytes()) }")], ..ROW },
    Row { name: "one block-tree build", needles: &[Sub("MerkleTree::from_leaves(")], scan: Code,
        paths: &["crates/chain/src/", "crates/core/src/", "crates/storage/src/"],
        allow: &[Line("crates/chain/src/block.rs", "let tree = MerkleTree::from_leaves(txs.iter().map(SealedTx::id).collect());")],
        why: "a block's transaction tree is built once, in Body::from; cut proofs from Body::tree() (DESIGN.md §10)",
        mutants: &[m("crates/chain/src/receipt.rs", "", "fn again(ids: Vec<Hash256>) -> MerkleTree { MerkleTree::from_leaves(ids) }")],
        ..ROW },
    Row { name: "one network type", paths: &["crates/core/src/"], why: "extend Network, its one backend and builder (DESIGN.md §9)",
        needles: &[Sub("impl GatewayBackend for"), Start("impl NetworkBuilder"), End("pub struct MedicalNetwork", ""),
            End("pub struct ShardedNetwork", ""), End("fn submit_as", ""), End("fn invoke_as", "")],
        allow: &[Line(NETWORK, "impl GatewayBackend for Network {"), Line(NETWORK, "impl NetworkBuilder {")],
        mutants: &[m(NETWORK, "", "fn submit_as(&mut self) {}"), m("crates/core/src/sharded.rs", "", "impl GatewayBackend for Shards {}"),
            m("crates/core/src/sharded.rs", "", "impl NetworkBuilder {}")], ..ROW },
    Row { name: "one serve loop", needles: &[Word("fn(")], paths: &[COMMITTEE],
        why: "committee.rs takes a function pointer again; the serve loop is Network::serve_until (DESIGN.md §9)",
        mutants: &[m(COMMITTEE, "", "type Step = fn(&mut Committee);")], ..ROW },
    Row { name: "engines check signatures through Quorum", needles: &[Sub("fn verify_seal"), Sub("registry.verify(")],
        paths: &[POA, PBFT], why: "an engine checks signatures itself; go through Quorum::admits/certifies (DESIGN.md §6)",
        mutants: &[m(POA, "", "fn verify_seal(&self, block: &Block) -> bool { true }"), m(PBFT, "", VOTE), m(POA, "", VOTE)], ..ROW },
    Row { name: "one threshold", needles: &[Sub("fn quorum")], paths: &[PBFT],
        why: "PBFT has its own quorum rule again; use Quorum::threshold (DESIGN.md §6)",
        mutants: &[m(PBFT, "", "fn quorum(n: usize) -> usize { 2 * n / 3 + 1 }")], ..ROW },
    Row { name: "the gateway keeps no memory", paths: &[GATEWAY],
        needles: &[Sub("HashSet<Hash256>"), Sub("HashMap<Hash256"), Sub("VecDeque<Hash256>"), Sub("scoped_map")],
        why: "gateway.rs keeps its own tx-id store or fans verification out (DESIGN.md §10)",
        mutants: &[m(GATEWAY, "", "struct Seen { ids: HashSet<Hash256> }"), m(GATEWAY, "", "struct Window { order: VecDeque<Hash256> }"),
            m(GATEWAY, "", "struct Cache { txs: HashMap<Hash256, SealedTx> }"),
            m(GATEWAY, "", "fn check(txs: &[SealedTx]) { scoped_map(2, txs, |_, tx| tx.verify()); }")], ..ROW },
    Row { name: "one acceptor", needles: &[Sub("TcpListener"), Sub(".accept()"), Sub(".incoming()")], paths: &["crates/"],
        allow: &[File("crates/transport/src/frame.rs")], why: "socket code outside frame.rs listens or accepts (DESIGN.md §6, §10)",
        mutants: &[m(GATEWAY, "", "fn second(l: &std::net::TcpListener) { let _ = l.accept(); }")], ..ROW },
    Row { name: "one frame parser", needles: &[Word("u32::from_le_bytes")],
        paths: &["crates/transport/src/", "crates/core/src/", "crates/ naming TcpStream"],
        allow: &[File("crates/transport/src/frame.rs")], why: "socket code outside frame.rs parses a length prefix (DESIGN.md §6, §10)",
        mutants: &[m("crates/core/src/client.rs", "", "fn prefix(h: [u8; 4]) -> usize { u32::from_le_bytes(h) as usize }")], ..ROW },
    Row { name: "post_result only from control_cycle", needles: &[Sub("\"post_result\"")],
        paths: &["crates/*/src/", "src/", "tests/", "examples/", "benchmark/src/"],
        allow: &[File("crates/contracts/src/standard.rs"), Body(NETWORK, "control_cycle")],
        why: "post_result invoked outside Network::control_cycle (DESIGN.md §4, Fig. 1)",
        mutants: &[m("crates/core/src/modes.rs", "", "fn post(n: &mut Network) { n.invoke(s, a, \"post_result\", &x, 1); }")], ..ROW },
    Row { name: "control_cycle posts once", needles: &[Sub("\"post_result\"")], count: 1,
        paths: &["crates/core/src/network.rs::control_cycle"], why: "post_result is invoked once, in control_cycle (DESIGN.md §4)",
        mutants: &[m(NETWORK, "\"post_result\"", "ids.push(self.invoke(site, analytics, \"post_result\", &args, 1)?.tx_id);")],
        ..ROW },
    Row { name: "modes run no executor", needles: &[Word("TaskExecutor"), Word("run_parallel")],
        paths: &["crates/core/src/modes.rs"], why: "modes.rs runs executors itself; drive control_cycle (DESIGN.md §4, Fig. 1)",
        mutants: &[m("crates/core/src/modes.rs", "", "use medchain_offchain::TaskExecutor;")], ..ROW },
    Row { name: "no site task execution", needles: &[Sub("execute_task")], paths: &["crates/core/src/"],
        why: "core runs a task against site records outside the job path (DESIGN.md §4, Fig. 1)",
        mutants: &[m("crates/core/src/site.rs", "impl Site {", "fn execute_task(&self) {}")], ..ROW },
    Row { name: "queries run as jobs of the query tool", needles: &[Sub("execute_local("), Sub("map_site(")],
        paths: &["crates/core/src/"], allow: &[Body("crates/core/src/site.rs", "query_tool")],
        why: "core queries site records outside site.rs's query_tool; go through Network::run_job (DESIGN.md §4, Fig. 1)",
        mutants: &[m("crates/core/src/pipeline.rs", "", "fn local(q: &QueryVector, r: &[PatientRecord]) { execute_local(q, r, None); }")],
        ..ROW },
    Row { name: "one committee life cycle", paths: &["crates/core/src/"],
        needles: &[Sub("recover_into("), Sub("stream_into("), Sub("attach_store("), Sub("run_until_height(")],
        allow: &[File(COMMITTEE), File(BOOTSTRAP)], why: "a committee life-cycle call outside committee.rs (DESIGN.md §3, §14)",
        mutants: &[m(NETWORK, "", "fn drive(c: &mut Cluster) { c.run_until_height(3, 1_000); }")], ..ROW },
    Row { name: "committees start in one place", needles: &[Sub("self.start(")], count: 1, paths: &[NETWORK],
        why: "NetworkBuilder::build starts every shape's committees; a second build path is back (DESIGN.md §3, §9)",
        mutants: &[m(NETWORK, "pub fn build_sharded(self)", "let network = self.start(shards, Some(coordinator))?;")], ..ROW },
    Row { name: "no Network accessor expects a shape", needles: &[Sub("\"a flat network has no"), Sub("\"a sharded network")],
        paths: &["crates/core/src/"], why: "both shapes have a home chain with the standard contracts (DESIGN.md §9)",
        mutants: &[m("crates/core/src/sharded.rs", "", "fn c(n: &Network) -> &Committee { n.coordinator.as_ref().expect(\"a flat network has no coordinator chain\") }"),
            m(NETWORK, "", "fn contracts(&self) -> ContractAddresses { self.contracts.expect(\"a sharded network deploys no standard contracts\") }")], ..ROW },
    // One clock, one harness: medbench.
    Row { name: "no twins",
        needles: &[Numbered("fn run_e", "_metered"), Sub("run_experiment_metered"), Sub("run_sharded_metered"),
            Sub("fn run_sharded("), Sub("MEDCHAIN_REAL_WALL"), Sub("experiments_full")],
        paths: &["crates/", "crates/*/Cargo.toml", "src/", "examples/", "README.md", "DESIGN.md", "EXPERIMENTS.md"],
        why: "a metered twin, the modeled sharded mode or the measured/modeled switch is back",
        mutants: &[m("crates/bench/src/lib.rs", "", "fn run_e1_metered() {}")], ..ROW },
    Row { name: "medbench is the only stopwatch", needles: &[Sub("Instant"), Sub("SystemTime")],
        paths: &["crates/bench/", "crates/bench/Cargo.toml", "crates/core/src/paradigms.rs"],
        why: "a clock outside medbench; count it, or measure it in benchmark/",
        mutants: &[m("crates/core/src/paradigms.rs", "", "use std::time::Instant;")], ..ROW },
    Row { name: "no bench targets", needles: &[Start("[[bench]]")], why: "a bench harness outside medbench",
        paths: &["Cargo.toml", "crates/*/Cargo.toml", "benchmark/Cargo.toml"],
        mutants: &[m("crates/chain/Cargo.toml", "", "[[bench]]")], ..ROW },
    Row { name: "no runtime timing module", needles: &[Sub("mod timing")], why: "the runtime's micro-bench timer is back",
        paths: &["crates/runtime/", "crates/runtime/Cargo.toml"],
        mutants: &[m("crates/runtime/src/lib.rs", "", "pub mod timing;")], ..ROW },
    Row { name: "unsafe only in the kernels and the counting allocators", needles: &[Word("unsafe")], scan: NoComments,
        paths: &["crates/", "src/", "examples/", "tests/", "benchmark/src/"],
        allow: &[File(HASH), File("tests/alloc_count.rs"), File("tests/history_bytes.rs")],
        why: "unsafe code outside the SHA-NI and CRC32 kernels and the two counting allocators (DESIGN.md §2)",
        mutants: &[m(PAGES, "", "fn peek(p: *const u8) -> u8 { unsafe { *p } }")], ..ROW },
    Row { name: "feature detection only in hash.rs", needles: &[Sub("is_x86_feature_detected"), Sub("target_feature")],
        paths: &["crates/", "src/", "examples/", "tests/", "benchmark/src/"], scan: NoComments,
        allow: &[File(HASH)], why: "CPU-feature detection or target_feature outside hash.rs (DESIGN.md §2)",
        mutants: &[m("tests/crc32_paths.rs", "", "fn fast() -> bool { is_x86_feature_detected!(\"avx2\") }")], ..ROW },
    Row { name: "one crc32", needles: &[Word("fn crc32")], paths: ALL_RS,
        allow: &[Line(HASH, "pub fn crc32(data: &[u8]) -> u32 {")],
        why: "`fn crc32` is defined once, in crates/chain/src/hash.rs (DESIGN.md §2)",
        mutants: &[m("crates/storage/src/wal.rs", "mod tests {", "fn crc32(b: &[u8]) -> u32 { b.len() as u32 }"),
            m(HASH, "", "fn crc32(b: &[u8]) -> u32 { 0 }")], ..ROW },
    // Every environment variable is an option tests and benchmarks must cover.
    Row { name: "environment knobs", needles: &[Sub("env::var")], paths: &["crates/", "src/", "examples/"],
        allow: &[File("crates/bench/src/bin/experiments.rs"), File(NETWORK), File("crates/runtime/src/check.rs"),
            File("crates/transport/src/tcp.rs"), File("examples/restart_node.rs"), File("examples/socket_cluster.rs")],
        why: "a new environment knob; list its file here and cover the option in tests and benchmarks",
        mutants: &[m("crates/storage/src/wal.rs", "", "fn knob() -> bool { std::env::var(\"MEDCHAIN_FSYNC\").is_ok() }")], ..ROW },
    Row { name: "test code at column 0", needles: &[Sub(" #[cfg(test)]")], paths: ALL_RS, scan: NoComments,
        why: "an indented #[cfg(test)] is no test region, so the rules read its item as product code; \
            move it into a column-0 #[cfg(test)] impl or the tests module",
        mutants: &[m("crates/chain/src/mempool.rs", "impl Mempool {", "    #[cfg(test)]")], ..ROW },
    // Checks that are no needle; each is a function below.
    Row { name: "workspace dependencies only", run: Some(manifests), why: "every crate builds offline (DESIGN.md §2, §8)",
        mutants: &[m("crates/chain/Cargo.toml", "[dependencies]", "rand = \"0.8\""),
            m("crates/storage/Cargo.toml", "[dependencies]", "medchain-transport.workspace = true")], ..ROW },
    Row { name: "DESIGN.md documents sharding", run: Some(sharding_documented), why: "DESIGN.md §9 covers ShardId",
        mutants: &[swap("DESIGN.md", "## 9. Consensus-level sharding", "## 9. Sharding")], ..ROW },
    Row { name: "deleted paths stay deleted", run: Some(deleted_paths), why: "a second path growing back",
        mutants: &[m("crates/query/src/service.rs", "", ""), m("crates/chain/src/net.rs", "", "pub use medchain_transport::*;"),
            m("crates/chain/benches/hash.rs", "", "fn main() {}")], ..ROW },
    Row { name: "Ledger::apply logs before it changes state", run: Some(append_before_apply_delta), why: "write-ahead (DESIGN.md §8)",
        mutants: &[m(LEDGER, APPLY, "self.state.apply_delta(&delta);")], ..ROW },
    Row { name: "every unsafe site has a SAFETY note", run: Some(|tree| unsafe_sites(tree).1), why: "DESIGN.md §2",
        mutants: &[swap(HASH, "// SAFETY: a state is 32 bytes", ""),
            m(HASH, "the x86_64 baseline) — every feature `block_fn` enables.", ""),
            m(HASH, "", "fn raw(p: *const u8) -> u8 { unsafe { *p } }")], ..ROW },
    Row { name: "dead public surface", run: Some(|tree| public_surface(tree).2), why: "public for no reader (ROADMAP aim 2)",
        mutants: &[m(LEDGER, "impl Ledger {", "pub fn unread_helper(&self) {}")], ..ROW },
];

// ---------------------------------------------------- checks beside the table

/// Every dependency is a workspace path dependency, so the workspace builds
/// offline; storage, which owns the on-disk format, depends on the runtime
/// and chain crates alone.
fn manifests(tree: &Tree) -> Vec<String> {
    let mut problems = Vec::new();
    for manifest in [tree.matching("Cargo.toml"), tree.matching("crates/*/Cargo.toml")].concat() {
        let mut table = "";
        for l in tree.files[manifest].lines.iter().map(|l| l.text.as_str()) {
            table = if l.starts_with('[') { l.trim_end() } else { table };
            let key = &l[..l.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-')).unwrap_or(l.len())];
            let (dep, rest) = (table.ends_with("dependencies]") && !key.is_empty(), l[key.len()..].trim_start());
            let quoted = l.match_indices('"').any(|(i, _)| l[i + 1..].starts_with(|c| "0123456789^~=<>*".contains(c)));
            let version = l.match_indices("version").any(|(i, _)| l[i + 7..].trim_start().starts_with('='));
            let storage = manifest == "crates/storage/Cargo.toml" && table == "[dependencies]";
            let foreign = storage && rest.starts_with(['=', '.']) && !["medchain-runtime", "medchain-chain"].contains(&key);
            match (dep && rest.starts_with('=') && (quoted || version), dep && foreign) {
                (true, _) => problems.push(format!("{manifest}: {l}: a registry dependency; this workspace builds offline-only")),
                (_, true) => problems.push(format!("{manifest}: {l}: storage depends on medchain-runtime and medchain-chain only")),
                _ => {}
            }
        }
    }
    problems
}

fn sharding_documented(tree: &Tree) -> Vec<String> {
    let holds = |pattern, needle| tree.matching(pattern).iter().any(|f| !tree.files[*f].holding(needle).is_empty());
    let documented = holds("DESIGN.md", Sub("ShardId")) && holds("DESIGN.md", Start("## 9. Consensus-level sharding"));
    let drift = holds("crates/*/src/", Sub("ShardId")) && !documented;
    drift.then(|| "ShardId is in the code but DESIGN.md §9 does not document it".to_string()).into_iter().collect()
}

fn deleted_paths(tree: &Tree) -> Vec<String> {
    let gone = [("crates/chain/src/net.rs", "the chain::net re-export shim; import medchain_transport directly"),
        ("crates/query/src/service.rs", "the second query service; run_query is the global one")];
    let back = gone.iter().filter(|(path, _)| tree.files.contains_key(*path)).map(|(p, why)| format!("{p} is back: {why}"));
    let benches = tree.dirs.iter().filter(|d| d.ends_with("/benches"));
    back.chain(benches.map(|d| format!("{d}: a bench harness outside medbench"))).collect()
}

/// Write-ahead, literally: `Ledger::apply` logs the block before the state
/// changes, so a failed append leaves nothing to undo.
fn append_before_apply_delta(tree: &Tree) -> Vec<String> {
    let ledger = &tree.files["crates/chain/src/ledger.rs"];
    let code: Vec<&SrcLine> = ledger.lines.iter().filter(|l| !l.comment && !l.test && ledger.fn_of(l) == Some("apply")).collect();
    let first = |needle: &str| code.iter().position(|l| l.text.contains(needle));
    match (first(".append("), first(".apply_delta(")) {
        (Some(append), Some(delta)) if append < delta => Vec::new(),
        found => vec![format!("fn apply has (.append(, .apply_delta() at {found:?}; the append comes first")],
    }
}

/// The `unsafe` sites of the three files allowed them, and each one not
/// directly under a comment block holding `// SAFETY:`.
fn unsafe_sites(tree: &Tree) -> (usize, Vec<String>) {
    let (mut sites, mut problems) = (0, Vec::new());
    for file in ["crates/chain/src/hash.rs", "tests/alloc_count.rs", "tests/history_bytes.rs"] {
        let mut noted = false;
        for (n, line) in tree.files[file].lines.iter().enumerate() {
            if !line.comment && Word("unsafe").hit(&line.text) {
                sites += 1;
                if !noted {
                    problems.push(format!("{file}:{}: unsafe without a // SAFETY: note directly above", n + 1));
                }
            }
            noted = line.comment && (noted || line.text.contains("SAFETY:"));
        }
    }
    (sites, problems)
}

/// Public items no other file names, kept on purpose (ROADMAP aim 2).
const SURFACE_KEPT: &[(&str, &str)] = &[
    ("certifies", "read by ROADMAP Commit certificates (a block's certificate check)"),
    ("PosMsg", "the PoS engine's Engine::Msg type"),
    ("PowMsg", "the PoW engine's Engine::Msg type"),
    ("ParseHashError", "error type of the public Hash256::from_hex"),
    ("ProofStep", "element type of the public MerkleProof::path"),
    ("AsmError", "error type of the public asm::assemble"),
    ("DecodeError", "error type of the public opcode::decode_program"),
    ("DenyReason", "payload of the public policy::Decision::Deny"),
    ("PolicyError", "error type of the public Purpose::from_code and AccessPolicy::from_values"),
    ("FedRound", "element type of the public FederatedPipelineReport::rounds"),
    ("PipelineError", "error type of the public run_query, run_gwas and federated pipeline"),
    ("FormatTally", "value type of the public IntegrationReport::by_format"),
    ("JsonError", "error type of the public json::parse"),
    ("RoundStats", "element type of the public FedReport::history"),
    ("take_byte", "called by the exported codec macros wherever they expand"),
    ("EventRecord", "return type of the public metrics Registry::events"),
    ("HistogramSummary", "return type of the public metrics Registry::histogram"),
    ("SampleRange", "trait bound of the public DetRng::gen_range"),
    ("SafetySignal", "return type of the public RweMonitor::observe and signal"),
    ("SiteScreening", "return type of the public screen_site, argument of recruit"),
];
const SURFACE_CEILING: usize = 20;

/// An item declared `pub fn|struct|enum|trait|type|const` at the start of a
/// line (but in crates/bench or benchmark/) is unread when no other `.rs` file
/// names it as a word. Returns how many are unread, the kept ones to print,
/// and what is wrong.
fn public_surface(tree: &Tree) -> (usize, Vec<String>, Vec<String>) {
    let readers = word_counter(tree);
    let (mut kept, mut problems, mut unread) = (Vec::new(), Vec::new(), Vec::new());
    let files = ROOTS.iter().flat_map(|r| tree.matching(r));
    for file in files.filter(|f| !f.starts_with("benchmark/") && !f.starts_with("crates/bench/")) {
        for name in tree.files[file].decls.iter().filter(|name| readers(name) < 2) {
            unread.push(name.as_str());
            match SURFACE_KEPT.iter().find(|(kept, _)| kept == name) {
                Some((_, why)) => kept.push(format!("kept: {name} ({file}): {why}")),
                None => problems.push(format!("{file} declares pub {name} and no other file reads it")),
            }
        }
    }
    let read = SURFACE_KEPT.iter().filter(|(name, _)| !unread.contains(name));
    problems.extend(read.map(|(name, _)| format!("kept {name} has a reader or is gone; drop it from the list")));
    if unread.len() > SURFACE_CEILING {
        problems.push(format!("{} unread public items, ceiling {SURFACE_CEILING}", unread.len()));
    }
    (unread.len(), kept, problems)
}

/// How many Rust files hold a word: counted once over the real tree, then
/// corrected for the files a tree holds in place of the real ones.
fn word_counter(tree: &Tree) -> impl Fn(&str) -> usize + '_ {
    static COUNTS: OnceLock<HashMap<&str, usize, BuildHasherDefault<Fnv>>> = OnceLock::new();
    let real = real_tree();
    let counts = COUNTS.get_or_init(|| {
        real.files.values().flat_map(|src| &src.words).fold(HashMap::default(), |mut counts, w| {
            *counts.entry(&**w).or_default() += 1;
            counts
        })
    });
    let differs = |a: &Tree, b: &Tree| -> Vec<Arc<Source>> {
        let same = |path: &String, src: &Arc<Source>| b.files.get(path).is_some_and(|other| Arc::ptr_eq(other, src));
        a.files.iter().filter(|(path, src)| !same(path, src)).map(|(_, src)| src.clone()).collect()
    };
    let (old, new) = (differs(real, tree), differs(tree, real));
    move |word| {
        let holding = |sources: &[Arc<Source>]| sources.iter().filter(|s| s.words.contains(word)).count();
        counts.get(word).copied().unwrap_or(0) + holding(&new) - holding(&old)
    }
}

// ----------------------------------------------------------------- engine

#[derive(Clone, Copy)]
enum Needle {
    /// The text anywhere in the line.
    Sub(&'static str),
    /// The text, with a word boundary at each end that is a word character.
    Word(&'static str),
    /// The text, not followed by a word character or one of the given ones.
    End(&'static str, &'static str),
    /// The text at column 0.
    Start(&'static str),
    /// The first text, one or more digits, then the second text.
    Numbered(&'static str, &'static str),
}

/// Which lines of a Rust file a row reads: all, all but comments, or code
/// (neither comments nor test regions).
#[derive(Clone, Copy)]
enum Scan { All, NoComments, Code }

/// What may hold a row's needle. Each allowance must excuse a line, so none
/// outlives the code it was written for.
#[derive(Debug)]
enum Allow {
    /// Any line of the files the pattern names.
    File(&'static str),
    /// Any line in the body of the named `fn` of this file.
    Body(&'static str, &'static str),
    /// One line of this file whose trimmed text is exactly this.
    Line(&'static str, &'static str),
    /// Any line that also holds this text.
    With(&'static str),
}

struct Row {
    name: &'static str,
    needles: &'static [Needle],
    /// Patterns as [`Tree::matching`] reads them; `file::name` scans only the
    /// body of `fn name`.
    paths: &'static [&'static str],
    scan: Scan,
    allow: &'static [Allow],
    /// How many unexcused lines must match.
    count: usize,
    why: &'static str,
    mutants: &'static [Mutant],
    /// A check that is no needle, in place of `needles` and `paths`.
    run: Option<fn(&Tree) -> Vec<String>>,
}

const ROW: Row = Row { name: "", needles: &[], paths: &[], scan: All, allow: &[], count: 0, why: "", mutants: &[], run: None };

/// An edit of one file: insert `line` after the first line holding `anchor`
/// (last when `anchor` is empty, making the file), or put it in its place.
struct Mutant {
    file: &'static str,
    anchor: &'static str,
    line: &'static str,
    swap: bool,
}

const fn m(file: &'static str, anchor: &'static str, line: &'static str) -> Mutant {
    Mutant { file, anchor, line, swap: false }
}

const fn swap(file: &'static str, anchor: &'static str, line: &'static str) -> Mutant {
    Mutant { file, anchor, line, swap: true }
}

impl Mutant {
    fn apply(&self, tree: &Tree) -> Tree {
        let mut lines: Vec<&str> = tree.files.get(self.file).map_or(Vec::new(), |s| s.text.lines().collect());
        let at = match self.anchor {
            "" => lines.len(),
            anchor => 1 + lines.iter().position(|l| l.contains(anchor)).expect("mutant anchor in its file"),
        };
        match self.swap {
            true => lines[at - 1] = self.line,
            false => lines.insert(at, self.line),
        }
        let mut out = tree.clone();
        out.put(self.file, &lines.join("\n"));
        out
    }
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

impl Needle {
    /// Text every line the needle is in holds.
    fn literal(self) -> &'static str {
        match self {
            Sub(s) | Word(s) | End(s, _) | Start(s) | Numbered(s, _) => s,
        }
    }

    fn hit(self, line: &str) -> bool {
        let at = |s: &'static str| line.match_indices(s).map(|(i, _)| (i, i + s.len()));
        let after = |i: usize| line[i..].chars().next();
        match self {
            Sub(s) => line.contains(s),
            Start(s) => line.starts_with(s),
            Word(s) => at(s).any(|(i, j)| {
                let open = !s.starts_with(is_word) || !line[..i].ends_with(is_word);
                open && (!s.ends_with(is_word) || !after(j).is_some_and(is_word))
            }),
            End(s, also) => at(s).any(|(_, j)| !after(j).is_some_and(|c| is_word(c) || also.contains(c))),
            Numbered(pre, post) => at(pre).any(|(_, j)| {
                let digits = line[j..].len() - line[j..].trim_start_matches(|c: char| c.is_ascii_digit()).len();
                digits > 0 && line[j + digits..].starts_with(post)
            }),
        }
    }
}

/// What a row found in one file: the lines it does not excuse, and which of
/// its allowances excused one.
struct Scanned {
    hits: Vec<String>,
    used: Vec<bool>,
}

impl Row {
    /// What is wrong with the tree by this row; empty when it holds.
    fn check(&self, tree: &Tree) -> Vec<String> {
        if let Some(run) = self.run {
            return run(tree);
        }
        let mut problems = Vec::new();
        // Each file the row reads, and the fns it is limited to, if any.
        let mut bodies: BTreeMap<&str, Option<Vec<&str>>> = BTreeMap::new();
        for pattern in self.paths {
            let (path, body) = pattern.split_once("::").map_or((*pattern, None), |(p, f)| (p, Some(f)));
            let files = tree.matching(path);
            if files.is_empty() {
                problems.push(format!("scan path {pattern} names no file"));
            }
            for file in files {
                match body {
                    Some(f) if !tree.files[file].fns.iter().any(|name| name == f) => problems.push(format!("{file} has no fn {f}")),
                    Some(f) => bodies.entry(file).or_insert(Some(Vec::new())).iter_mut().for_each(|fns| fns.push(f)),
                    None => drop(bodies.insert(file, None)),
                }
            }
        }
        let slot = RULES.iter().position(|row| std::ptr::eq(row, self)).expect("a row of RULES");
        let (mut hits, mut used) = (Vec::new(), vec![false; self.allow.len()]);
        for (file, fns) in bodies {
            let src = &tree.files[file];
            let found = src.memo[slot].get_or_init(|| self.scan(file, src, fns.as_deref()));
            hits.extend(found.hits.iter().cloned());
            used.iter_mut().zip(&found.used).for_each(|(u, f)| *u |= f);
        }
        if hits.len() != self.count {
            problems.push(format!("{} lines match, {} allowed:\n    {}", hits.len(), self.count, hits.join("\n    ")));
        }
        let stale = self.allow.iter().zip(used).filter(|(_, used)| !used);
        problems.extend(stale.map(|(allow, _)| format!("allowed {allow:?} excuses no line")));
        problems
    }

    fn scan(&self, file: &str, src: &Source, fns: Option<&[&str]>) -> Scanned {
        let mut found = Scanned { hits: Vec::new(), used: vec![false; self.allow.len()] };
        let mut held: Vec<usize> = self.needles.iter().flat_map(|needle| src.holding(*needle)).collect();
        held.sort_unstable();
        held.dedup();
        for (n, line) in held.into_iter().map(|n| (n + 1, &src.lines[n])) {
            let skip = match self.scan {
                All => false,
                NoComments => line.comment,
                Code => line.comment || line.test,
            };
            if skip || fns.is_some_and(|fns| !src.fn_of(line).is_some_and(|f| fns.contains(&f))) {
                continue;
            }
            let excused = self.allow.iter().zip(&mut found.used).any(|(allow, used)| {
                let ok = match *allow {
                    File(p) => covers(p, file),
                    Body(f, name) => f == file && src.fn_of(line) == Some(name),
                    Line(f, text) => f == file && line.text.trim() == text && !*used,
                    With(text) => line.text.contains(text),
                };
                *used |= ok;
                ok
            });
            if !excused {
                found.hits.push(format!("{file}:{n}: {}", line.text.trim()));
            }
        }
        found
    }

    /// Whether the row can find anything in this file: it reads the file, or
    /// names it in an allowance, or it is a check that reads everything.
    fn sees(&self, file: &str) -> bool {
        let names = |allow: &Allow| match *allow {
            File(p) => covers(p, file),
            Body(f, _) | Line(f, _) => f == file,
            With(_) => false,
        };
        self.run.is_some() || self.paths.iter().any(|p| covers(p.split("::").next().unwrap_or(p), file)) || self.allow.iter().any(names)
    }
}

/// Every rule that fails on the tree, with what is wrong. Given the one file
/// that differs from the real tree, rows that cannot see it are left out:
/// they hold as they do on the real tree.
fn failures(tree: &Tree, changed: Option<&str>) -> BTreeMap<&'static str, Vec<String>> {
    let rows = RULES.iter().filter(|row| changed.is_none_or(|f| row.sees(f)));
    rows.map(|row| (row.name, row.check(tree))).filter(|(_, problems)| !problems.is_empty()).collect()
}

// ------------------------------------------------------------------- tree

struct SrcLine {
    text: String,
    comment: bool,
    test: bool,
    /// Index into `Source::fns` of the innermost `fn` whose body holds it.
    func: Option<usize>,
}

struct Source {
    text: String,
    lines: Vec<SrcLine>,
    /// Each line's byte pairs hashed into 128 bits: a needle can be in a line
    /// only if all of its own pairs are.
    pairs: Vec<u128>,
    fns: Vec<String>,
    /// The identifiers of a Rust file, each once.
    words: HashSet<Box<str>, BuildHasherDefault<Fnv>>,
    /// The names a Rust file declares `pub fn|struct|enum|trait|type|const`.
    decls: BTreeSet<String>,
    /// What each row of [`RULES`] found in it, for every tree that holds it.
    memo: Vec<OnceLock<Scanned>>,
}

fn pairs(text: &str) -> u128 {
    let (bytes, mut mask) = (text.as_bytes(), 0u128);
    for i in 1..bytes.len() {
        mask |= 1 << ((bytes[i - 1] as u32 * 31 + bytes[i] as u32) % 128);
    }
    mask
}

/// The runs of ASCII letters, digits and `_` in a text.
fn words(text: &str) -> Vec<&str> {
    let (mut out, mut start) = (Vec::new(), 0);
    for (i, b) in text.bytes().chain([b' ']).enumerate() {
        if !(b.is_ascii_alphanumeric() || b == b'_') {
            if start < i {
                out.push(&text[start..i]);
            }
            start = i + 1;
        }
    }
    out
}

/// FNV-1a: every word of every file is hashed, and std's hasher costs several
/// times more.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3));
    }
}

/// The name a line declares `pub fn|struct|enum|trait|type|const`.
fn pub_decl(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let kind = ["fn ", "struct ", "enum ", "trait ", "type ", "const "].into_iter().find(|k| rest.starts_with(k))?;
    let name = words(&rest[kind.len()..]).into_iter().next()?;
    (rest[kind.len()..].starts_with(name) && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// The name a line declares with `fn`.
fn fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    for prefix in ["pub(crate) ", "pub(super) ", "pub ", "const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(prefix).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    words(rest).into_iter().next().filter(|name| rest.starts_with(name))
}

impl Source {
    fn parse(path: &str, text: &str) -> Source {
        let raw: Vec<&str> = text.lines().collect();
        let rust = path.ends_with(".rs");
        let (mut test, mut func, mut fns) = (vec![false; raw.len()], vec![None; raw.len()], Vec::new());
        let last = raw.len().saturating_sub(1);
        let indent = |l: &str| l.len() - l.trim_start().len();
        for (i, line) in raw.iter().enumerate().filter(|_| rust) {
            if line.starts_with("#[cfg(test)]") {
                let item = (i + 1..raw.len()).find(|&j| !raw[j].starts_with("#[")).unwrap_or(last);
                let end = match raw[item].trim_end().ends_with(';') {
                    true => item,
                    false => (item + 1..raw.len()).find(|&j| raw[j].starts_with('}')).unwrap_or(last),
                };
                test[i..=end].iter_mut().for_each(|t| *t = true);
            }
            let Some(name) = fn_name(line).filter(|_| !line.trim_start().starts_with("//")) else { continue };
            let opens = |t: &str| t.ends_with('{') || t.ends_with(';') || t.ends_with('}');
            let Some(open) = (i..raw.len()).find(|&j| opens(raw[j].trim_end())) else { continue };
            let closes = |j: &usize| indent(raw[*j]) == indent(line) && raw[*j].trim_start().starts_with('}');
            let end = match raw[open].trim_end().ends_with('{') {
                true => (open + 1..raw.len()).find(closes).unwrap_or(last),
                false => open,
            };
            fns.push(name.to_string());
            func[i..=end].iter_mut().for_each(|f| *f = Some(fns.len() - 1));
        }
        let lines = raw.iter().enumerate().map(|(i, l)| {
            let comment = rust && l.trim_start().starts_with("//");
            SrcLine { text: l.to_string(), comment, test: test[i], func: func[i] }
        });
        let words: HashSet<&str, BuildHasherDefault<Fnv>> = words(if rust { text } else { "" }).into_iter().collect();
        Source {
            text: text.to_string(),
            lines: lines.collect(),
            pairs: raw.iter().map(|l| pairs(l)).collect(),
            fns,
            words: words.into_iter().map(Box::from).collect(),
            decls: raw.iter().filter(|_| rust).filter_map(|l| pub_decl(l)).map(str::to_string).collect(),
            memo: RULES.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    /// The indexes of the lines a needle is in.
    fn holding(&self, needle: Needle) -> Vec<usize> {
        let mask = pairs(needle.literal());
        let held = |i: &usize| self.pairs[*i] & mask == mask && needle.hit(&self.lines[*i].text);
        (0..self.lines.len()).filter(held).collect()
    }

    fn fn_of(&self, line: &SrcLine) -> Option<&str> {
        line.func.map(|f| self.fns[f].as_str())
    }
}

/// Every `.rs` file under the roots but this one, which names every needle,
/// every Cargo.toml, and the three design documents.
#[derive(Clone, Default)]
struct Tree {
    files: BTreeMap<String, Arc<Source>>,
    dirs: BTreeSet<String>,
}

const ROOTS: [&str; 5] = ["crates/", "src/", "tests/", "examples/", "benchmark/src/"];
const DOCS: [&str; 5] = ["Cargo.toml", "benchmark/Cargo.toml", "README.md", "DESIGN.md", "EXPERIMENTS.md"];

impl Tree {
    fn load() -> Tree {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |path: &str| std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (mut tree, mut stack) = (Tree::default(), ROOTS.map(|r| r.trim_end_matches('/').to_string()).to_vec());
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(root.join(&dir)).unwrap_or_else(|e| panic!("{dir}: {e}")) {
                let entry = entry.expect("directory entry");
                let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
                if entry.file_type().expect("file type").is_dir() {
                    stack.push(path);
                } else if (path.ends_with(".rs") || path.ends_with("/Cargo.toml")) && path != "tests/architecture.rs" {
                    tree.put(&path, &read(&path));
                }
            }
            tree.dirs.insert(dir);
        }
        DOCS.iter().for_each(|doc| tree.put(doc, &read(doc)));
        tree
    }

    fn put(&mut self, path: &str, text: &str) {
        self.dirs.extend(path.match_indices('/').map(|(i, _)| path[..i].to_string()));
        self.files.insert(path.to_string(), Arc::new(Source::parse(path, text)));
    }

    /// The files a pattern names, as [`covers`] reads it; `<pattern> naming
    /// <identifier>` keeps those that hold the identifier.
    fn matching(&self, pattern: &str) -> Vec<&str> {
        let (pattern, word) = pattern.split_once(" naming ").unwrap_or((pattern, ""));
        let prefix = &pattern[..pattern.find('*').unwrap_or(pattern.len())];
        let under = self.files.range::<str, _>((Bound::Included(prefix), Bound::Unbounded));
        let under = under.take_while(|(path, _)| path.starts_with(prefix));
        let named = |src: &Source| word.is_empty() || src.words.contains(word);
        under.filter(|(path, src)| covers(pattern, path) && named(src)).map(|(path, _)| path.as_str()).collect()
    }
}

/// Whether a pattern names a path: a file names itself, a directory (ending
/// in `/`) every `.rs` file under it, `dir/*.rs` the `.rs` files directly in
/// it, and `*` any one path segment.
fn covers(pattern: &str, path: &str) -> bool {
    let pattern = pattern.split_once(" naming ").map_or(pattern, |(dir, _)| dir);
    if let Some(star) = pattern.find('*').filter(|&i| !pattern[i..].starts_with("*.rs")) {
        let Some(rest) = path.strip_prefix(&pattern[..star]) else { return false };
        return rest.split_once('/').is_some_and(|(_, rest)| covers(&pattern[star + 2..], rest));
    }
    if let Some(dir) = pattern.strip_suffix("*.rs") {
        return path.strip_prefix(dir).is_some_and(|name| !name.contains('/') && name.ends_with(".rs"));
    }
    path == pattern || pattern.ends_with('/') && path.starts_with(pattern) && path.ends_with(".rs")
}

fn real_tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    TREE.get_or_init(Tree::load)
}

// ------------------------------------------------------------------ tests

#[test]
fn the_tree_keeps_every_rule() {
    assert_eq!(RULES.iter().map(|r| r.name).collect::<BTreeSet<_>>().len(), RULES.len(), "rule names are unique");
    let failed = failures(real_tree(), None);
    let why = |name: &str| RULES.iter().find(|r| r.name == name).map_or("", |r| r.why);
    let report: Vec<String> = failed.iter().map(|(name, p)| format!("rule `{name}` ({}):\n  {}", why(name), p.join("\n  "))).collect();
    assert!(report.is_empty(), "{}", report.join("\n"));
}

#[test]
fn every_mutant_trips_its_rule_and_no_other() {
    let tree = real_tree();
    failures(tree, None);
    let cases: Vec<(&str, &Mutant)> = RULES.iter().flat_map(|row| row.mutants.iter().map(|m| (row.name, m))).collect();
    let empty: Vec<&str> = RULES.iter().filter(|row| row.mutants.is_empty()).map(|row| row.name).collect();
    assert!(empty.is_empty(), "rules without a mutant: {empty:?}");
    let trip = |(name, mutant): &(&str, &Mutant)| {
        let tripped: Vec<&str> = failures(&mutant.apply(tree), Some(mutant.file)).into_keys().collect();
        assert_eq!(tripped, [*name], "mutant of {}: `{}` at `{}`", mutant.file, mutant.line, mutant.anchor);
    };
    std::thread::scope(|s| {
        let (odd, even): (Vec<_>, Vec<_>) = cases.iter().enumerate().partition(|(i, _)| i % 2 == 1);
        let odd = s.spawn(move || odd.into_iter().for_each(|(_, case)| trip(case)));
        even.into_iter().for_each(|(_, case)| trip(case));
        odd.join().expect("mutant thread");
    });
}

#[test]
fn a_stale_path_or_exception_fails_its_row() {
    let tree = real_tree();
    let mut renamed = Tree { files: BTreeMap::new(), dirs: tree.dirs.clone() };
    for (path, src) in &tree.files {
        match path.strip_prefix("crates/chain/src/exec/") {
            Some(rest) => renamed.put(&format!("crates/chain/src/execution/{rest}"), &src.text),
            None => drop(renamed.files.insert(path.clone(), src.clone())),
        }
    }
    let says = |failed: &BTreeMap<&str, Vec<String>>, row, text| failed[row].iter().any(|p| p.contains(text));
    let failed = failures(&renamed, None);
    assert_eq!(failed.keys().copied().collect::<Vec<_>>(), ["one apply path", "overlay commit path"]);
    assert!(says(&failed, "one apply path", "scan path crates/chain/src/exec/ names no file"));
    assert!(says(&failed, "overlay commit path", "File(\"crates/chain/src/exec/\") excuses no line"));
    let renamed_fn = swap("crates/core/src/network.rs", "pub fn control_cycle(", "pub fn run_cycle(&mut self) {");
    let failed = failures(&renamed_fn.apply(tree), None);
    assert!(says(&failed, "control_cycle posts once", "has no fn control_cycle"));
    assert!(says(&failed, "post_result only from control_cycle", "\"control_cycle\") excuses no line"));

    let excused = [
        (STREAM, "crc: crc32(payload),", "one record format"), (STREAM, "let crc = crc32(&bytes);", "one record format"),
        (STREAM, "if crc32(&chunk.bytes) != chunk.crc {", "one record format"),
        (STREAM, "if crc32(&payload) != self.manifest.crc {", "one record format"),
        ("crates/storage/src/snapshot.rs", "self.writes.apply_to(&mut state);", "overlay commit path"),
        ("crates/bench/src/e22_light_client.rs", "let delta = overlay.into_delta();", "overlay commit path"),
        (LEDGER, "pub fn set_parallel_exec(&mut self, threads: usize) {", "set_parallel_exec has no caller"),
    ];
    for (file, text, row) in excused {
        let failed = failures(&swap(file, text, "").apply(tree), Some(file));
        assert_eq!(failed.keys().copied().collect::<Vec<_>>(), [row], "deleting `{text}` from {file}");
        assert!(says(&failed, row, "excuses no line"), "{:?}", failed[row]);
    }
}

#[test]
fn a_test_region_is_the_item_under_cfg_test() {
    let text = "fn live() { needle(); }\n// needle();\n#[cfg(test)]\npub(crate) use tests::helper;\n#[cfg(test)]\n\
        pub(crate) mod testutil {\n    fn helper() { needle(); }\n}\n\
        mod codec_impls {\n    impl Encode for X {\n        fn encode(&self) {\n            needle();\n        }\n    }\n}\n";
    let src = Source::parse("x.rs", text);
    let flags: Vec<(bool, bool, Option<&str>)> = src.lines.iter().map(|l| (l.comment, l.test, src.fn_of(l))).collect();
    assert_eq!(flags[0], (false, false, Some("live")));
    assert_eq!(flags[1], (true, false, None), "a // line is a comment");
    assert!(flags[2..8].iter().all(|f| f.1), "both #[cfg(test)] items are test regions: {flags:?}");
    assert_eq!(flags[8], (false, false, None), "code after a test module is scanned");
    assert_eq!(flags[11], (false, false, Some("encode")));
    let row = Row { needles: &[Sub("needle(")], scan: Code, ..ROW };
    let found = row.scan("x.rs", &src, None).hits;
    assert_eq!(found, ["x.rs:1: fn live() { needle(); }", "x.rs:12: needle();"], "the comment and test items do not match");
}

/// Line censuses: non-blank lines that are neither comments nor in a test
/// region, over each set of files.
const CENSUS: &[(&str, &[&str])] = &[
    ("in crates/chain/src/exec", &["crates/chain/src/exec/*.rs"]),
    ("in crates/storage/src/snapshot.rs", &["crates/storage/src/snapshot.rs"]),
    ("in crates/storage/src/disk.rs", &["crates/storage/src/disk.rs"]), ("in crates/storage/src", &["crates/storage/src/*.rs"]),
    ("in crates/storage/src/durable.rs", &["crates/storage/src/durable.rs"]),
    ("in crates/chain/src/ledger.rs", &["crates/chain/src/ledger.rs"]),
    ("in crates/chain/src/state.rs", &["crates/chain/src/state.rs"]),
    ("in crates/chain/src/history.rs", &["crates/chain/src/history.rs"]), ("in crates/chain/src", &["crates/chain/src/"]),
    ("non-comment lines outside tests in crates/core/src", &["crates/core/src/*.rs"]),
    ("in crates/{core,offchain,contracts}/src", &["crates/core/src/*.rs", "crates/offchain/src/*.rs", "crates/contracts/src/*.rs"]),
    ("in crates/{chain,storage}/src", &["crates/chain/src/", "crates/storage/src/"]),
    ("in crates/chain/src/consensus", &["crates/chain/src/consensus/*.rs"]),
    ("in crates/core/src/gateway.rs", &["crates/core/src/gateway.rs"]), ("in crates/transport/src", &["crates/transport/src/*.rs"]),
    ("in crates/core/src/{gateway,client}.rs", &["crates/core/src/gateway.rs", "crates/core/src/client.rs"]),
    ("in tcp.rs + gateway.rs + client.rs", &["crates/transport/src/tcp.rs", "crates/core/src/gateway.rs", "crates/core/src/client.rs"]),
    ("in crates/offchain/src", &["crates/offchain/src/*.rs"]),
    ("in crates/{core,offchain,contracts,query,data,learning}/src", &["crates/core/src/", "crates/offchain/src/",
        "crates/contracts/src/", "crates/query/src/", "crates/data/src/", "crates/learning/src/"]),
];

#[test]
fn census() {
    let tree = real_tree();
    for (label, paths) in CENSUS {
        let files: BTreeSet<&str> = paths.iter().flat_map(|p| tree.matching(p)).collect();
        assert!(!files.is_empty(), "census {label} names no file");
        let lines = files.iter().flat_map(|f| &tree.files[*f].lines);
        let n = lines.filter(|l| !l.comment && !l.test && !l.text.trim().is_empty()).count();
        println!("census: {n} {label}");
    }
    let ids = ["crates/chain/src/", "crates/core/src/", "crates/storage/src/"].iter().flat_map(|p| tree.matching(p));
    let ids: usize = ids.map(|f| tree.files[f].holding(Sub(".id()")).len()).sum();
    println!("census: {ids} .id() call sites in crates/{{chain,core,storage}}/src");
    println!("census: {} unsafe sites in crates/chain/src/hash.rs and tests/{{alloc_count,history_bytes}}.rs", unsafe_sites(tree).0);
    let (unread, kept, _) = public_surface(tree);
    kept.iter().for_each(|line| println!("{line}"));
    println!("census: {unread} public items no other file reads (ceiling {SURFACE_CEILING})");
}
