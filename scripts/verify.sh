#!/usr/bin/env bash
# Tier-1 verification gate plus the hermetic-build guard.
#
# 1. Grep guard: no crates/*/Cargo.toml (or the root manifest) may declare
#    a registry dependency — every dependency must be a workspace path dep.
# 2. cargo build --release && cargo test -q (the ROADMAP tier-1 gate).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== hermetic guard: no registry dependencies =="
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # A registry dep is a dependency line with a version requirement, i.e.
    # `foo = "1"` or `foo = { version = "1", ... }`, inside a deps table.
    # Workspace deps use `foo.workspace = true` / `{ workspace = true }`
    # or `{ path = "..." }`; the [package] `version.workspace` line and
    # [workspace.package] metadata are fine.
    if awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && /^[A-Za-z0-9_-]+[[:space:]]*=/ {
            if ($0 ~ /"[0-9^~=<>*]/ || $0 ~ /version[[:space:]]*=/) {
                print FILENAME ": " $0
                found = 1
            }
        }
        END { exit !found }
    ' "$manifest"; then
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "ERROR: registry dependency declared; this workspace builds offline-only." >&2
    exit 1
fi
echo "ok: all dependencies are workspace path deps"

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

# tier-1 runs only the root package's integration suites; the unit and
# property tests inside crates/* and medbench's own contract tests are
# gated here. Wall-clock guarded like every suite that opens sockets.
echo "== workspace: every crate's tests (wall-clock guarded) =="
timeout 600 cargo test -q --workspace --offline

echo "== medbench: the benchmark's own tests (wall-clock guarded) =="
timeout 300 cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The transport suites involve real sockets and wall-clock waits, so they
# get an explicit wall-clock ceiling: a hung listener/reader thread must
# fail the gate instead of wedging it.
echo "== transport: unit tests (wall-clock guarded) =="
timeout 180 cargo test -q -p medchain-transport

echo "== transport: loopback TCP integration tests (wall-clock guarded) =="
timeout 240 cargo test -q --test transport

# Metrics spine: run one quick experiment with the TSV exporter and check
# the required counter keys landed in the dump (DESIGN.md §Observability).
echo "== metrics: E1 quick run with TSV exporter =="
metrics_tsv="$(mktemp)"
trap 'rm -f "$metrics_tsv"' EXIT
MEDCHAIN_METRICS_TSV="$metrics_tsv" \
    cargo run --release -q -p medchain-bench --bin experiments -- --quick e1 > /dev/null
for key in consensus.rounds mempool.inserted transport.bytes chain.blocks_committed; do
    if ! grep -q "^counter	${key}	" "$metrics_tsv"; then
        echo "ERROR: metrics TSV missing counter ${key}" >&2
        cat "$metrics_tsv" >&2
        exit 1
    fi
done
echo "ok: metrics TSV carries the required counters"

# Storage crate purity: the durable-persistence crate must stay std-only
# on top of the runtime codec and chain types — no other dependencies,
# so the on-disk format never grows an external decoder.
echo "== storage: dependency guard =="
if awk '
    /^\[/ { in_deps = ($0 ~ /^\[dependencies\]$/) }
    in_deps && /^[A-Za-z0-9_-]+[.[:space:]]*[=.]/ {
        if ($0 !~ /^medchain-(runtime|chain)[.[:space:]]/) {
            print "crates/storage/Cargo.toml: " $0
            found = 1
        }
    }
    END { exit !found }
' crates/storage/Cargo.toml; then
    echo "ERROR: crates/storage may depend only on medchain-runtime and medchain-chain." >&2
    exit 1
fi
echo "ok: medchain-storage depends only on medchain-runtime + medchain-chain"

# Crash recovery: run the restart example twice against one data dir.
# The first life bootstraps and commits; the second must resume from
# disk at the persisted height instead of re-bootstrapping. Wall-clock
# guarded — a recovery loop that wedges must fail the gate.
echo "== storage: kill-and-restart round trip (wall-clock guarded) =="
restart_dir="$(mktemp -d)"
restart_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log"; rm -rf "$restart_dir"' EXIT
timeout 120 cargo run --release -q --example restart_node "$restart_dir" > "$restart_log"
if grep -q "resumed at height" "$restart_log"; then
    echo "ERROR: first life of restart_node claims to have resumed" >&2
    cat "$restart_log" >&2
    exit 1
fi
timeout 120 cargo run --release -q --example restart_node "$restart_dir" > "$restart_log"
if ! grep -q "resumed at height" "$restart_log"; then
    echo "ERROR: second life of restart_node did not resume from disk" >&2
    cat "$restart_log" >&2
    exit 1
fi
echo "ok: restart_node resumed from its write-ahead log"

# Consensus-level sharding (DESIGN.md §9): run the sharded variant of the
# restart example across two process lives. The first must commit
# cross-links on the coordinator chain; the second must recover every
# sub-chain and pass the cross-link audit. Wall-clock guarded.
echo "== sharding: sharded kill-and-restart with cross-links (wall-clock guarded) =="
shard_dir="$(mktemp -d)"
shard_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log"; rm -rf "$restart_dir" "$shard_dir"' EXIT
MEDCHAIN_SHARDS=2 timeout 120 \
    cargo run --release -q --example restart_node "$shard_dir" > "$shard_log"
if ! grep -q "committed cross-link: shard-" "$shard_log"; then
    echo "ERROR: first sharded life committed no cross-links" >&2
    cat "$shard_log" >&2
    exit 1
fi
MEDCHAIN_SHARDS=2 timeout 120 \
    cargo run --release -q --example restart_node "$shard_dir" > "$shard_log"
if ! grep -q "resumed 2 sub-chains" "$shard_log"; then
    echo "ERROR: second sharded life did not resume its sub-chains" >&2
    cat "$shard_log" >&2
    exit 1
fi
if ! grep -q "committed cross-link: shard-" "$shard_log"; then
    echo "ERROR: second sharded life committed no new cross-links" >&2
    cat "$shard_log" >&2
    exit 1
fi
echo "ok: sharded consortium cross-linked, restarted, and passed the recovery audit"

# Ingress gateway (DESIGN.md §10): a sharded cluster fronted by the TCP
# gateway, driven by the open-loop load generator, with every receipt's
# Merkle proof verified client-side. Wall-clock guarded — a wedged
# accept/read/serve loop must fail the gate.
echo "== gateway: TCP round trip with client-verified receipts (wall-clock guarded) =="
gateway_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log"; rm -rf "$restart_dir" "$shard_dir"' EXIT
timeout 120 cargo run --release -q --example gateway_load > "$gateway_log"
if ! grep -q "gateway round-trip OK" "$gateway_log"; then
    echo "ERROR: gateway_load did not complete a verified round trip" >&2
    cat "$gateway_log" >&2
    exit 1
fi
if ! grep -q "0 proof failures" "$gateway_log"; then
    echo "ERROR: gateway_load reported client-side proof failures" >&2
    cat "$gateway_log" >&2
    exit 1
fi
echo "ok: gateway served open-loop load and every receipt proof verified client-side"

# Cross-shard atomicity (DESIGN.md §12): two-phase commit over the
# coordinator chain. The example runs a committed transfer spanning both
# shards of a 2-shard consortium, then kills a participant mid-prepare
# and restarts the whole consortium from disk — the recovered lock must
# timeout-abort and refund its escrow. Wall-clock guarded.
echo "== 2pc: cross-shard transfer + crash-mid-prepare timeout-abort (wall-clock guarded) =="
xs_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$xs_log"; rm -rf "$restart_dir" "$shard_dir"' EXIT
timeout 120 cargo run --release -q --example cross_shard_transfer > "$xs_log"
if ! grep -q "cross-shard transfer committed atomically" "$xs_log"; then
    echo "ERROR: cross_shard_transfer did not commit a transfer atomically" >&2
    cat "$xs_log" >&2
    exit 1
fi
if ! grep -q "timeout-abort released all locks" "$xs_log"; then
    echo "ERROR: cross_shard_transfer did not timeout-abort the crashed participant's lock" >&2
    cat "$xs_log" >&2
    exit 1
fi
echo "ok: 2PC committed across shards and timeout-aborted across a restart"

# Scheduler-coverage guard: every TxPayload variant must have an
# inferred read/write set — a variant missing from read_write_set.rs
# would fall through to a conservative (or worse, wrong) schedule and
# break parallel/sequential equivalence silently.
echo "== exec: TxPayload read/write-set coverage guard =="
variants="$(awk '
    /^pub enum TxPayload \{/ { in_enum = 1; next }
    in_enum && /^\}/ { exit }
    in_enum && /^    [A-Za-z0-9_]+ \{/ { print $1 }
' crates/chain/src/tx.rs)"
if [ -z "$variants" ]; then
    echo "ERROR: could not extract TxPayload variants from crates/chain/src/tx.rs" >&2
    exit 1
fi
for variant in $variants; do
    if ! grep -q "TxPayload::${variant}" crates/chain/src/exec/read_write_set.rs; then
        echo "ERROR: TxPayload::${variant} has no rw-set arm in crates/chain/src/exec/read_write_set.rs" >&2
        exit 1
    fi
done
echo "ok: every TxPayload variant ($(echo "$variants" | wc -l)) has a read/write-set arm"

# Admission-boundary guard: mempool insertion is the chain layer's job.
# Everything outside crates/chain must go through the ChainApp submit
# API (submit / submit_in / submit_verified), which runs dedup-before-
# signature and admission checks — never call the mempool directly.
echo "== ingress: mempool admission-boundary guard =="
if grep -rn "try_insert_in(\|mempool\.insert(\|\.try_insert(" \
    crates/*/src src examples tests --include="*.rs" \
    | grep -v "^crates/chain/src"; then
    echo "ERROR: direct mempool insertion outside crates/chain — use ChainApp::submit*." >&2
    exit 1
fi
echo "ok: all mempool admission goes through the chain layer"

# Doc-drift guard: the sharding layer is documented end to end in
# DESIGN.md §9 — if ShardId exists in code, the design doc must cover it
# (and the section must actually exist).
echo "== docs: sharding doc-drift guard =="
if grep -rq "ShardId" crates/*/src; then
    if ! grep -q "ShardId" DESIGN.md || ! grep -q "^## 9\. Consensus-level sharding" DESIGN.md; then
        echo "ERROR: ShardId is in the code but DESIGN.md §9 does not document it" >&2
        exit 1
    fi
fi
echo "ok: DESIGN.md documents the sharding layer"

# Parallel execution engine (DESIGN.md §11): apply one mixed block
# sequentially and across 2- and 4-lane wave schedules; the example
# asserts state-root equality against the sequential header and prints
# one OK line per lane count. Wall-clock guarded.
echo "== exec: parallel-vs-sequential state-root round trip (wall-clock guarded) =="
exec_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$exec_log"; rm -rf "$restart_dir" "$shard_dir"' EXIT
timeout 120 cargo run --release -q --example parallel_apply > "$exec_log"
for lanes in 2 4; do
    if ! grep -q "parallel apply OK at ${lanes} thread(s)" "$exec_log"; then
        echo "ERROR: parallel_apply did not commit the sequential state root at ${lanes} threads" >&2
        cat "$exec_log" >&2
        exit 1
    fi
done
echo "ok: 2- and 4-lane wave schedules committed byte-identical state roots"

# Overlay commit discipline: during block application, every state
# mutation must flow through WorldStateOverlay and commit via its
# StateDelta — only the ledger apply path and the exec subsystem itself
# may materialize or apply deltas.
echo "== exec: overlay commit-path guard =="
if grep -rn "\.into_delta(\|\.apply_to(" crates/*/src --include="*.rs" \
    | grep -v "^crates/chain/src/exec/\|^crates/chain/src/ledger.rs"; then
    echo "ERROR: StateDelta materialized/applied outside the exec commit path." >&2
    exit 1
fi
# Direct WorldState mutation in the crates is reserved for genesis
# funding (state_mut().credit); anything else bypasses the overlay and
# would break parallel/sequential equivalence.
if grep -rn "state_mut()\." crates/*/src --include="*.rs" \
    | grep -v "state_mut()\.credit("; then
    echo "ERROR: direct WorldState mutation outside genesis funding — go through the overlay." >&2
    exit 1
fi
echo "ok: all block-application state flows through the overlay commit path"

# Authenticated state (DESIGN.md §13): committed deltas are the ONLY
# thing allowed to move the world state's maps, because the sparse-
# Merkle root is maintained incrementally from the same delta — a
# mutation that bypasses WorldState::apply_delta (outside the ledger
# commit path) would silently desynchronize state and root.
echo "== auth: delta/tree commit-path guard =="
if grep -rn "\.apply_delta(" crates/*/src src examples tests --include="*.rs" \
    | grep -v "^crates/chain/src/ledger.rs"; then
    echo "ERROR: WorldState::apply_delta called outside the ledger commit path." >&2
    exit 1
fi
echo "ok: every state mutation flows through the ledger's delta/tree path"

# Root-verified snapshot install (DESIGN.md §14): a snapshot — local or
# streamed from a peer — may enter a ledger ONLY through
# Ledger::restore_with_tree, which rejects any state whose tree root
# does not match the committed header. A second install path would let
# unauthenticated bytes become world state.
echo "== snapshot: root-verified install-path guard =="
if grep -rn "restore_with_tree(" crates/*/src src examples tests --include="*.rs" \
    | grep -v "^crates/chain/src/ledger.rs\|^crates/storage/src/disk.rs\|^crates/core/src/bootstrap.rs"; then
    echo "ERROR: snapshot state installed outside the root-verified restore path." >&2
    exit 1
fi
# A streamed payload is untrusted bytes until SnapshotStore::load
# revalidates it; adopting raw payloads is the bootstrap path's job.
if grep -rn "adopt_payload(" crates/*/src src examples tests --include="*.rs" \
    | grep -v "^crates/storage/src/snapshot.rs\|^crates/core/src/bootstrap.rs"; then
    echo "ERROR: raw snapshot payload adopted outside the streamed-bootstrap path." >&2
    exit 1
fi
echo "ok: snapshots install only through the root-verified restore path"

# No hot path rehashes the whole state (DESIGN.md §8, §13): snapshots
# are written from the tree the commit built (BlockStore::checkpoint),
# so outside test modules nothing in the storage or core crates builds a
# tree from a bare state, and the chain crate does so only where it
# really starts from one: the builder itself (auth/smt.rs) and the
# ledger's state_root, restore and lazy rebuild after state_mut.
echo "== auth: no-full-rehash guard =="
# Lines containing the literal text $1 outside comments and trailing
# test modules, in the *.rs files under the remaining arguments.
uses_outside_tests() {
    local needle="$1"
    shift
    find "$@" -name "*.rs" -print0 | xargs -0 awk -v needle="$needle" '
        FNR == 1 { in_test = 0; prev = "" }
        prev ~ /^#\[cfg\(test\)\]/ && /^mod [a-z_]+ \{/ { in_test = 1 }
        { prev = $0 }
        !in_test && index($0, needle) && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }
    '
}
if uses_outside_tests "from_state(" crates/storage/src crates/core/src | grep .; then
    echo "ERROR: StateTree::from_state outside tests in crates/storage or crates/core — use the ledger's tree." >&2
    exit 1
fi
if uses_outside_tests "from_state(" crates/chain/src \
    | grep -v "^crates/chain/src/auth/smt.rs:" \
    | grep -v "^crates/chain/src/ledger.rs:[0-9]*: *StateTree::from_state(self).versioned_root()$" \
    | grep -v "^crates/chain/src/ledger.rs:[0-9]*: *let tree = StateTree::from_state(&state);$" \
    | grep -v "^crates/chain/src/ledger.rs:[0-9]*: *let mut tree = StateTree::from_state(&self.state);$"; then
    echo "ERROR: a new full-state tree build in crates/chain — maintain the tree with with_delta." >&2
    exit 1
fi
echo "ok: only state_root, restore and the post-state_mut rebuild build a tree from a bare state"

# Hash once (DESIGN.md §10): a transaction's id is computed in one
# function — `Transaction::id`, which `SealedTx` calls when it seals —
# and a block's transaction tree is built in one place, when its body is
# assembled; receipts, `tx_locations`, `computed_tx_root` and the wire
# accounting all read the kept values. A second hashing site is how the
# 414 id hashes per committed transaction grew the first time.
echo "== chain: hash-once guard =="
id_sites="$(grep -rn 'Hash256::digest(&self.signing_bytes())' crates/chain/src --include="*.rs" || true)"
echo "$id_sites"
if [ "$(echo "$id_sites" | grep -c .)" -ne 1 ]; then
    echo "ERROR: the transaction id must be computed in exactly one place (Transaction::id)." >&2
    exit 1
fi
tree_sites="$(uses_outside_tests "MerkleTree::from_leaves(" crates/chain/src crates/core/src crates/storage/src \
    | grep -v "^crates/chain/src/merkle.rs:" || true)"
echo "$tree_sites"
if [ "$(echo "$tree_sites" | grep -c .)" -ne 1 ] \
    || ! echo "$tree_sites" | grep -q "^crates/chain/src/block.rs:[0-9]*: *let tree = MerkleTree::from_leaves(txs.iter().map(SealedTx::id).collect());$"; then
    echo "ERROR: a block's transaction tree is built once, in Body::from — cut proofs from Body::tree()." >&2
    exit 1
fi
echo "ok: one id hash site, one block-tree build site"
# Trend line for the next reviewer (105 at PR 23, most of them then a
# fresh encode + SHA-256; a call on a SealedTx or a Block is now a read).
echo "census: $(grep -rn '\.id()' crates/chain/src crates/core/src crates/storage/src --include="*.rs" | wc -l) .id() call sites in crates/{chain,core,storage}/src"

# One committee life cycle (DESIGN.md §3, §14): recovering a store,
# streaming into a lagging member, attaching a store and driving
# consensus to a height are decisions `core::committee` makes once for
# the flat network and every shard. A second caller in the core crate is
# a second copy of the build/rejoin/advance path growing back.
# (`bootstrap.rs` defines `stream_into` and unit-tests it against
# `recover_into`.)
echo "== core: one-copy committee guard =="
if grep -rn "recover_into(\|stream_into(\|attach_store(\|run_until_height(" \
    crates/core/src --include="*.rs" \
    | grep -v "^crates/core/src/committee.rs\|^crates/core/src/bootstrap.rs"; then
    echo "ERROR: committee life-cycle call outside crates/core/src/committee.rs." >&2
    exit 1
fi
if grep -n "attach_store(\|run_until_height(" crates/core/src/bootstrap.rs; then
    echo "ERROR: bootstrap.rs streams into a ledger; attaching and advancing are the committee's." >&2
    exit 1
fi
echo "ok: recover, stream-in, attach and advance are called from the committee only"

# One clock, one harness: medbench owns wall-clock time, so the
# experiment crate has one function per experiment and one sharded mode,
# and nothing offers a second answer behind a switch. A twin or the
# switch growing back fails here.
echo "== bench: no-twins guard =="
if grep -rnE 'fn run_e[0-9]+_metered|run_experiment_metered|run_sharded_metered|fn run_sharded\(|MEDCHAIN_REAL_WALL|experiments_full' \
    crates src examples README.md DESIGN.md EXPERIMENTS.md; then
    echo "ERROR: a metered twin, the modeled sharded mode or the measured/modeled switch is back." >&2
    exit 1
fi
echo "ok: one run_eN per experiment, one sharded mode, no measured/modeled switch"

# Unsafe census (DESIGN.md §2): the SHA-NI block function in
# crates/chain/src/hash.rs is the only `unsafe` code in the workspace,
# each occurrence directly under a comment holding `// SAFETY:`, and it
# is the only code that detects CPU features or enables them, so the
# `#[target_feature]` function stays reachable only through detection.
echo "== unsafe: census =="
rust_sources=(crates src examples tests benchmark/src)
code_lines() {
    grep -rnE --include='*.rs' "$1" "${rust_sources[@]}" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true
}
if code_lines '\bunsafe\b' | grep -v "^crates/chain/src/hash.rs:"; then
    echo "ERROR: unsafe code outside the SHA-NI module in crates/chain/src/hash.rs." >&2
    exit 1
fi
if code_lines 'is_x86_feature_detected|target_feature' | grep -v "^crates/chain/src/hash.rs:"; then
    echo "ERROR: CPU-feature detection or target_feature outside crates/chain/src/hash.rs." >&2
    exit 1
fi
if ! awk '
    /^[[:space:]]*\/\// { if ($0 ~ /SAFETY:/) safety = 1; next }
    /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ {
        sites++
        if (!safety) { print FILENAME ":" FNR ": " $0; bad = 1 }
    }
    { safety = 0 }
    END { print "census: " sites " unsafe sites in crates/chain/src/hash.rs"; exit bad }
' crates/chain/src/hash.rs; then
    echo "ERROR: an unsafe site without a // SAFETY: comment directly above it." >&2
    exit 1
fi
echo "ok: unsafe, feature detection and target_feature live in the SHA-NI module only"

# Every environment variable is an option tests and benchmarks must
# cover. The files that read one are listed here, so a new knob has to
# edit this list to land.
echo "== options: environment-knob census =="
env_readers="$(grep -rln 'env::var' --include='*.rs' crates src examples | LC_ALL=C sort)"
env_allowed="crates/bench/src/bin/experiments.rs
crates/core/src/network.rs
crates/runtime/src/check.rs
crates/runtime/src/timing.rs
crates/transport/src/tcp.rs
examples/restart_node.rs
examples/socket_cluster.rs"
if [ "$env_readers" != "$env_allowed" ]; then
    echo "ERROR: the set of files reading env::var changed:" >&2
    diff <(echo "$env_allowed") <(echo "$env_readers") >&2 || true
    exit 1
fi
echo "ok: env::var is read in the 7 listed files only"

# Light-client query path (DESIGN.md §13): anchor a record over the TCP
# gateway, read it back with a sparse-Merkle proof, verify client-side,
# and re-verify against an independently read committed header root —
# plus a provable absence for a never-written key. Wall-clock guarded.
echo "== auth: light-client verified state reads (wall-clock guarded) =="
light_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$exec_log" "$light_log"; rm -rf "$restart_dir" "$shard_dir"' EXIT
timeout 120 cargo run --release -q --example light_client > "$light_log"
if ! grep -q "light client round-trip OK" "$light_log"; then
    echo "ERROR: light_client did not complete a verified state read" >&2
    cat "$light_log" >&2
    exit 1
fi
if ! grep -q "0 proof failures" "$light_log"; then
    echo "ERROR: light_client reported proof failures against the committed root" >&2
    cat "$light_log" >&2
    exit 1
fi
echo "ok: light client proved inclusion and absence against committed header roots"

# Beyond-RAM paging + snapshot streaming (DESIGN.md §14): one process
# life proves a page-capped consortium commits the byte-identical tip of
# a fully-resident one (with real page traffic), then wipes a site's
# data directory and rejoins it from a peer's streamed snapshot + WAL
# tail. Wall-clock guarded.
echo "== paging: beyond-RAM state + wiped-site streamed rejoin (wall-clock guarded) =="
paged_dir="$(mktemp -d)"
paged_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$exec_log" "$light_log" "$paged_log"; rm -rf "$restart_dir" "$shard_dir" "$paged_dir"' EXIT
timeout 180 cargo run --release -q --example paged_bootstrap "$paged_dir" > "$paged_log"
if ! grep -q "paged node committed byte-identical tip" "$paged_log"; then
    echo "ERROR: paged_bootstrap did not commit a byte-identical tip under a page cap" >&2
    cat "$paged_log" >&2
    exit 1
fi
if ! grep -q "wiped site rejoined from streamed snapshot" "$paged_log"; then
    echo "ERROR: paged_bootstrap did not rejoin the wiped site from a streamed snapshot" >&2
    cat "$paged_log" >&2
    exit 1
fi
echo "ok: page-capped node matched the resident tip and the wiped site streamed back in"

# Benchmark smoke: two seconds of the durable gateway workload — TCP
# ingress, WAL, a snapshot boundary, restart and receipt re-serve — must
# end with a result the benchmark itself judges correct. Built first so
# the wall-clock guard times the run, not the compile.
echo "== medbench: 2-second gateway_wal smoke (wall-clock guarded) =="
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
smoke_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$exec_log" "$light_log" "$paged_log" "$smoke_log"; rm -rf "$restart_dir" "$shard_dir" "$paged_dir"' EXIT
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload gateway_wal --seed 1 --seconds 2 --trace 0 > "$smoke_log"
if ! tail -n 1 "$smoke_log" | grep -q '"correct": true'; then
    echo "ERROR: medbench gateway_wal smoke did not report a correct run" >&2
    cat "$smoke_log" >&2
    exit 1
fi
echo "ok: medbench gateway_wal ran end to end and checked its own outputs"

# And two seconds of the fat-block workload: 256-transaction blocks
# through the in-process admission seam, every receipt cut from its
# block's tree and verified against the committed header.
echo "== medbench: 2-second bulk_blocks smoke (wall-clock guarded) =="
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload bulk_blocks --seed 1 --seconds 2 --trace 0 > "$smoke_log"
if ! tail -n 1 "$smoke_log" | grep -q '"correct": true'; then
    echo "ERROR: medbench bulk_blocks smoke did not report a correct run" >&2
    cat "$smoke_log" >&2
    exit 1
fi
echo "ok: medbench bulk_blocks ran end to end and checked its own outputs"

# And two seconds of the sharded workload: routed TCP writes, proven
# reads and in-process 2PC transfers, so the resolver's settle path runs.
echo "== medbench: 2-second sharded_mixed smoke (wall-clock guarded) =="
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload sharded_mixed --seed 1 --seconds 2 --trace 0 > "$smoke_log"
if ! tail -n 1 "$smoke_log" | grep -q '"correct": true'; then
    echo "ERROR: medbench sharded_mixed smoke did not report a correct run" >&2
    cat "$smoke_log" >&2
    exit 1
fi
echo "ok: medbench sharded_mixed ran end to end and checked its own outputs"

echo "verify: OK"
