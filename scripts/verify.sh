#!/usr/bin/env bash
# Tier-1 verification gate plus the hermetic-build guard.
#
# 1. Grep guard: no crates/*/Cargo.toml (or the root manifest) may declare
#    a registry dependency — every dependency must be a workspace path dep.
# 2. cargo build --release && cargo test -q (the ROADMAP tier-1 gate).
set -euo pipefail
cd "$(dirname "$0")/.."

# A guard that scans a path which is not there passes without looking.
# So every grep and find in this script, and every census, ends the
# whole script with status 1 when a path it was given does not exist:
# from inside a pipeline or a command substitution too, by signalling
# this top-level shell.
trap 'exit 1' USR1
missing_path() {
    echo "ERROR: $1; a guard scanning a missing path would pass without looking." >&2
    kill -USR1 $$
    exit 1
}
grep() {
    local status=0
    command grep "$@" || status=$?
    # 1 is "no match"; 2 is an error, such as a path that does not exist.
    if [ "$status" -eq 2 ]; then
        missing_path "grep $* could not read what it scans"
    fi
    return "$status"
}
find() {
    local status=0
    command find "$@" || status=$?
    # 1 is an error (a missing path); a reader closing the pipe early is 141.
    if [ "$status" -eq 1 ]; then
        missing_path "find $* could not read what it scans"
    fi
    return "$status"
}

# Where a test module is, one rule for uses_outside_tests and census: it
# starts at a `mod name {` line right after #[cfg(test)] and ends at the
# next `}` in column 0, both lines included (in_test is 1 on them). Many
# files keep their codec impls after the test module, so code past it is
# scanned and counted.
test_module_awk='
    FNR == 1 { in_test = 0; ended = 0; prev = "" }
    ended { in_test = 0; ended = 0 }
    prev ~ /^#\[cfg\(test\)\]/ && /^mod [a-z_]+ \{/ { in_test = 1 }
    in_test && /^\}/ { ended = 1 }
    { prev = $0 }
'

# Lines containing the literal text $1 outside comments and test
# modules, in the *.rs files under the remaining arguments.
uses_outside_tests() {
    local needle="$1"
    shift
    find "$@" -name "*.rs" -print0 | xargs -0 awk -v needle="$needle" "$test_module_awk"'
        !in_test && index($0, needle) && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }
    '
}

# Line census: non-blank lines that are neither // comments, nor
# #[cfg(test)] attributes, nor inside a test module. Trend numbers in
# the comments below that predate this rule stopped counting each file
# at its first #[cfg(test)], so they leave out the code after a test
# module; CHANGES.md gives every census line by both rules.
census() {
    local path
    [ "$#" -gt 0 ] || missing_path "census was given no file"
    for path in "$@"; do
        [ -e "$path" ] || missing_path "census: $path does not exist"
    done
    awk "$test_module_awk"'
        in_test || /^#\[cfg\(test\)\]/ || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' "$@"
}

echo "== hermetic guard: no registry dependencies =="
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    [ -e "$manifest" ] || missing_path "$manifest does not exist"
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

# One fault model (DESIGN.md §6): loss, crashes and partitions live in
# FaultyTransport alone, over a simulator that models latency only. The
# seam has no pending-work query (`next()` returning `None` is the one
# quiescence signal), and code names the transport crate directly, not
# through a chain-crate re-export.
echo "== transport: one-fault-model guard =="
if grep -rnE 'fail_node|heal_node|fail_link|heal_link|set_drop_rate|failed_nodes' crates/transport/src \
    | grep -v "^crates/transport/src/fault.rs:"; then
    echo "ERROR: fault injection outside crates/transport/src/fault.rs — wrap the transport in FaultyTransport." >&2
    exit 1
fi
if grep -rn "has_pending" crates/transport crates/chain; then
    echo "ERROR: Transport::has_pending is back; a transport is quiet when next() returns None." >&2
    exit 1
fi
if [ -e crates/chain/src/net.rs ] \
    || grep -rnE 'chain::net\b|crate::net::' crates tests examples --include="*.rs"; then
    echo "ERROR: the chain::net re-export shim is back — import medchain_transport directly." >&2
    exit 1
fi
echo "ok: faults live in FaultyTransport only; no has_pending, no chain::net shim"

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

# One way to apply a block (DESIGN.md §11): a block executes in order,
# on the calling thread, through exec::run_block_sequential. The
# wave-parallel executor measured 0.60-0.83x of one lane at every block
# size and mix on a 2-vCPU host and was deleted; a second apply path
# must not come back. Outside tests, crates/chain/src/exec/ and
# ledger.rs start no thread, and nothing calls Ledger::set_parallel_exec
# (a no-op kept only because medbench's exec_probe still names it).
echo "== exec: one way to apply a block guard =="
second_apply="$(uses_outside_tests "scoped_map" crates/chain/src/exec crates/chain/src/ledger.rs
    uses_outside_tests "thread::" crates/chain/src/exec crates/chain/src/ledger.rs
    grep -rn "set_parallel_exec(" crates src tests examples --include="*.rs" \
        | grep -v "^crates/chain/src/ledger.rs:[0-9]*: *pub fn set_parallel_exec(&mut self, threads: usize) {$" \
        || true)"
if [ -n "$second_apply" ]; then
    echo "$second_apply"
    echo "ERROR: a second way to apply a block — blocks execute in order, on the calling thread." >&2
    exit 1
fi
echo "ok: one way to apply a block"
# Trend line (crates/chain/src/exec 819 with the wave scheduler and
# its read/write-set inference; 451 without them).
echo "census: $(census crates/chain/src/exec/*.rs) in crates/chain/src/exec"

# Overlay commit discipline: during block application, every state
# mutation must flow through WorldStateOverlay and commit via its
# StateDelta — only the ledger apply path and the exec subsystem itself
# may materialize or apply deltas; state.rs does so only in its tests.
echo "== exec: overlay commit-path guard =="
# E22 builds one block's delta only to count the tree merge the ledger
# runs on it; it never applies the delta to a state. Recovery applies a
# delta snapshot — writes blocks already committed — onto its decoded
# base in SnapshotDelta::onto, checked against the delta tip's root
# (DESIGN.md §8); that one line is the storage crate's only apply.
if grep -rn "\.into_delta(\|\.apply_to(" crates/*/src --include="*.rs" \
    | grep -v "^crates/chain/src/exec/\|^crates/chain/src/ledger.rs\|^crates/chain/src/state.rs" \
    | grep -v "^crates/bench/src/e22_light_client.rs:[0-9]*: *let delta = overlay.into_delta();$" \
    | grep -v "^crates/storage/src/snapshot.rs:[0-9]*: *self.writes.apply_to(&mut state);$" \
    || { uses_outside_tests ".into_delta(" crates/chain/src/state.rs
         uses_outside_tests ".apply_to(" crates/chain/src/state.rs; } | grep .; then
    echo "ERROR: StateDelta materialized/applied outside the exec commit path." >&2
    exit 1
fi
# Direct WorldState mutation in the crates is reserved for genesis
# funding (state_mut().credit); anything else bypasses the overlay and
# the delta the state tree merges.
if grep -rn "state_mut()\." crates/*/src --include="*.rs" \
    | grep -v "state_mut()\.credit("; then
    echo "ERROR: direct WorldState mutation outside genesis funding — go through the overlay." >&2
    exit 1
fi
echo "ok: all block-application state flows through the overlay commit path"

# Hash-indexed accounts (DESIGN.md §8, §13): WorldState's account map
# has no order, so outside tests only its two sorted walks iterate it,
# hot_sorted (the canonical encoding, the hot/cold merge, Debug) and
# demote_accounts (lowest addresses first). Any other walk of
# `accounts` in state.rs would let hash order reach bytes or a choice.
# The awk skips the tests module only: codec_impls, which holds
# `Encode for WorldState`, comes after it.
echo "== state: sorted walks of the account map guard =="
state_rs=crates/chain/src/state.rs
[ -e "$state_rs" ] || missing_path "$state_rs does not exist"
unsorted_walks="$(awk "$test_module_awk"'
    in_test || /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_]+/) { fname = substr($0, RSTART + 3, RLENGTH - 3) }
    /accounts\)?\.(iter|iter_mut|keys|values|values_mut|into_iter|into_keys|into_values|drain|retain)\(|&(mut )?self\.accounts([^._a-z]|$)|in self\.accounts([^._a-z]|$)/ {
        if (fname != "hot_sorted" && fname != "demote_accounts") print FILENAME ":" FNR ": " $0
    }
' "$state_rs")"
if [ -n "$unsorted_walks" ]; then
    echo "$unsorted_walks"
    echo "ERROR: the account hash map is walked outside hot_sorted/demote_accounts; its order would reach bytes or a choice." >&2
    exit 1
fi
echo "ok: the account hash map is walked only in address order"

# Authenticated state (DESIGN.md §13): committed deltas are the ONLY
# thing allowed to move the world state's maps, because the sparse-
# Merkle root is maintained incrementally from the same delta — a
# mutation that bypasses WorldState::apply_delta (outside the ledger
# commit path, and state.rs's own tests) would silently desynchronize
# state and root.
echo "== auth: delta/tree commit-path guard =="
if grep -rn "\.apply_delta(" crates/*/src src examples tests --include="*.rs" \
    | grep -v "^crates/chain/src/ledger.rs\|^crates/chain/src/state.rs" \
    || uses_outside_tests ".apply_delta(" crates/chain/src/state.rs | grep .; then
    echo "ERROR: WorldState::apply_delta called outside the ledger commit path." >&2
    exit 1
fi
echo "ok: every state mutation flows through the ledger's delta/tree path"

# Write-ahead, literally (DESIGN.md §8): Ledger::apply logs the block
# before the state changes, so a failed append leaves nothing to undo.
# The undo log, the revert path, the state-cloning MemStore, the tree's
# own pager handle and the tree mutex existed only to reverse or re-wire
# a half-done commit; none may come back, and inside `fn apply` the
# store's `.append(` must come before `.apply_delta(`.
echo "== ledger: write-ahead order guard =="
if grep -rnE 'StateUndo|fn revert\b|MemStore|attach_pager|tree cache poisoned' \
    crates/*/src src tests examples --include="*.rs"; then
    echo "ERROR: an undo path, MemStore, the tree's pager handle or the tree mutex is back." >&2
    exit 1
fi
if ! awk '
    /^    pub fn apply\(/ { in_apply = 1; next }
    !in_apply || /^[[:space:]]*\/\// { next }
    /^    }$/ { exit }
    index($0, ".append(") && !append { append = FNR }
    index($0, ".apply_delta(") && !delta { delta = FNR }
    END {
        if (!append || !delta || delta < append) {
            print "crates/chain/src/ledger.rs: fn apply has .append( at line " append + 0 \
                ", .apply_delta( at line " delta + 0
            exit 1
        }
    }
' crates/chain/src/ledger.rs; then
    echo "ERROR: Ledger::apply must append the block before it applies the delta." >&2
    exit 1
fi
echo "ok: Ledger::apply logs the block before it changes the state; no undo path"

# One snapshot install (DESIGN.md §14): a snapshot — local or streamed
# from a peer — enters a ledger ONLY through local recovery
# (DiskStore::recover_into), which loads it through SnapshotStore::load
# and installs it with Ledger::restore_with_tree, which rejects a tree
# whose root does not match the payload's tip header. bootstrap.rs
# adopts a streamed payload and calls recover_into; a second caller of
# restore_with_tree would be a second install path. (history.rs's tests
# restore a ledger to check that receipts restart.)
echo "== snapshot: one install-path guard =="
if grep -rn "restore_with_tree(" crates/*/src src examples tests --include="*.rs" \
    | grep -v "^crates/chain/src/ledger.rs\|^crates/storage/src/disk.rs\|^crates/chain/src/history.rs" \
    || uses_outside_tests "restore_with_tree(" crates/chain/src/history.rs | grep .; then
    echo "ERROR: snapshot state installed outside local recovery." >&2
    exit 1
fi
# A streamed payload is untrusted bytes until SnapshotStore::load
# revalidates it; adopting raw payloads is the bootstrap path's job.
if grep -rn "adopt_payload(" crates/*/src src examples tests --include="*.rs" \
    | grep -v "^crates/storage/src/snapshot.rs\|^crates/core/src/bootstrap.rs"; then
    echo "ERROR: raw snapshot payload adopted outside the streamed-bootstrap path." >&2
    exit 1
fi
echo "ok: snapshots install only through local recovery"

# One snapshot server, one fetch (DESIGN.md §14): the public gateway is
# the only thing that serves snapshots over a socket; an in-process
# rejoin hands stream_into a captured BootstrapSource's answer, and a
# remote joiner hands it Client::call. A loopback server in bootstrap.rs
# or typed snapshot calls on the client are the second path growing back.
echo "== snapshot: one-server guard =="
if grep -nE "SnapshotPeer|TcpListener" crates/core/src/bootstrap.rs; then
    echo "ERROR: bootstrap.rs serves snapshots itself; the gateway is the only snapshot server." >&2
    exit 1
fi
if grep -nE "fn (snapshot_manifest|snapshot_chunk)\b" crates/core/src/client.rs; then
    echo "ERROR: client.rs grew typed snapshot calls; stream_into matches the replies once." >&2
    exit 1
fi
echo "ok: one snapshot server, one fetch path"

# No hot path rehashes the whole state (DESIGN.md §8, §13): snapshots
# are written from the tree the commit built (BlockStore::checkpoint),
# so outside test modules nothing in the storage or core crates builds a
# tree from a bare state, and the chain crate does so only where it
# really starts from one: the tree build itself (auth/smt.rs),
# WorldState::state_root (state.rs), and the lazy rebuild after
# state_mut (Ledger::built_tree).
echo "== auth: no-full-rehash guard =="
if uses_outside_tests "from_state(" crates/storage/src crates/core/src | grep .; then
    echo "ERROR: StateTree::from_state outside tests in crates/storage or crates/core — use the ledger's tree." >&2
    exit 1
fi
if uses_outside_tests "from_state(" crates/chain/src \
    | grep -v "^crates/chain/src/auth/smt.rs:" \
    | grep -v "^crates/chain/src/state.rs:[0-9]*: *StateTree::from_state(self).versioned_root()$" \
    | grep -v "^crates/chain/src/ledger.rs:[0-9]*: *let mut tree = StateTree::from_state(&self.state);$"; then
    echo "ERROR: a new full-state tree build in crates/chain — maintain the tree with with_delta." >&2
    exit 1
fi
echo "ok: only state_root and the post-state_mut rebuild build a tree from a bare state"

# One cut, no fold (DESIGN.md §14): a spill stubs each resident subtree at
# the depth the budget fixes, once, and never re-encodes a stub into a
# bigger page; pages free themselves when the last tree version naming
# them drops. The growing-unit fold and its per-call page set must not
# come back.
echo "== auth: no-fold spill guard =="
if grep -nwE 'spill_node|free_fresh_stubs|fresh' crates/chain/src/auth/smt.rs; then
    echo "ERROR: the folding spill (spill_node, free_fresh_stubs or a fresh page set) is back in auth/smt.rs." >&2
    exit 1
fi
echo "ok: auth/smt.rs spills at one cut and folds no page"

# Leaves hashed from scratch buffers (DESIGN.md §13): the tree hashes a
# block's writes straight from the delta through one reused key buffer
# and one value buffer, so no owned encoding (`.encoded()`) belongs in
# the tree.
echo "== auth: scratch-buffer leaf-hashing guard =="
if uses_outside_tests ".encoded()" crates/chain/src/auth/smt.rs | grep .; then
    echo "ERROR: the state tree encodes an owned buffer — hash leaves through LeafHasher." >&2
    exit 1
fi
echo "ok: the tree hashes leaves from scratch buffers"

# One pager for cold state (DESIGN.md §14): cold account pages and
# spilled subtrees both go through the ledger's `Pager` trait, whose one
# implementor is the page store; the ledger owns both page formats and
# storage holds opaque pages. The second paging trait, storage's account
# pager and the unread `latest_state` projection with its commit
# observer must not come back.
echo "== storage: one-pager guard =="
if grep -rnE 'AccountPager|PagedAccounts|LatestState|set_commit_observer' \
    crates src tests examples --include="*.rs"; then
    echo "ERROR: a second pager, storage's account pager or the commit-observer projection is back." >&2
    exit 1
fi
pager_impls="$(grep -rn "impl Pager for" crates src tests examples --include="*.rs" || true)"
echo "$pager_impls"
if [ "$(echo "$pager_impls" | grep -c .)" -ne 1 ] \
    || ! echo "$pager_impls" | grep -q "^crates/storage/src/pages.rs:"; then
    echo "ERROR: \`impl Pager for\` must appear exactly once, in crates/storage/src/pages.rs." >&2
    exit 1
fi
echo "ok: one Pager, implemented once by the page store"

# Execute once, merge once, store once (DESIGN.md §8, §13): the ledger
# merges every delta into its own tree in place — in propose and in
# apply — and pulls a tree that ran ahead back with one re-merge, so the
# copying merge (`with_delta(`) has no caller in ledger.rs outside its
# tests. Ledger::apply moves each block's receipts into its history
# (History::push) and hands back a borrow, so neither clones a receipt.
echo "== ledger: merge-once, store-once guard =="
if uses_outside_tests "with_delta(" crates/chain/src/ledger.rs | grep .; then
    echo "ERROR: ledger.rs merges a delta into a copy of its tree — merge in place and pull back." >&2
    exit 1
fi
if ! awk '
    FNR == 1 { in_fn = 0 }
    /^    pub fn apply\(/ && FILENAME ~ /ledger\.rs$/ { in_fn = 1; seen++; next }
    /^    pub\(crate\) fn push\(/ && FILENAME ~ /history\.rs$/ { in_fn = 1; seen++; next }
    !in_fn || /^[[:space:]]*\/\// { next }
    /^    }$/ { in_fn = 0; next }
    /receipts?\.clone\(\)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { if (seen != 2) { print "Ledger::apply or History::push not found"; bad = 1 }; exit bad }
' crates/chain/src/ledger.rs crates/chain/src/history.rs; then
    echo "ERROR: Ledger::apply or History::push clones receipts — move them into the history." >&2
    exit 1
fi
echo "ok: ledger.rs merges in place only; Ledger::apply and History::push clone no receipt"

# One owner of history (DESIGN.md §3): the retained blocks, the base
# height, the receipts and the tx-id index are History's private fields
# in history.rs, and the ledger forwards its readers there. Outside
# tests, no other file under crates/chain/src names those fields (a
# metric key such as "exec.blocks" is not a field); the two allowed
# lines are other types' fields of the same name.
# One full-snapshot writer (DESIGN.md §8): outside tests a full
# snapshot is written only by DiskStore's boundary policy, which decides
# full or delta — `snaps.write(` once in disk.rs, inside fn snapshot. No
# other code opens a SnapshotStore of its own, and none writes through
# DiskStore::snapshots() (bootstrap adopts and discards there, never
# writes). A second writer would bypass the delta base the policy keeps.
echo "== snapshot: one full-snapshot writer guard =="
if uses_outside_tests "SnapshotStore::open(" crates/*/src src examples \
        | grep -v "^crates/storage/src/disk.rs:" \
    || uses_outside_tests "snapshots().write" crates/*/src src examples | grep . \
    || ! awk "$test_module_awk"'
        in_test || /^[[:space:]]*\/\// { next }
        /^[[:space:]]*(pub(\(crate\))? )?fn [a-z_]+/ { match($0, /fn [a-z_]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
        index($0, ".write(") {
            n++
            if (fn != "snapshot" || $0 !~ /snaps\.write\(/) { print FILENAME ":" FNR ": in fn " fn ": " $0; bad = 1 }
        }
        END { if (n != 1) { print "disk.rs calls .write( " n + 0 " times outside tests"; bad = 1 } exit bad }
    ' crates/storage/src/disk.rs; then
    echo "ERROR: a full snapshot is written outside DiskStore's boundary policy (disk.rs fn snapshot)." >&2
    exit 1
fi
echo "ok: DiskStore::snapshot is the one full-snapshot writer"

# Durable renames (DESIGN.md §8): a rename is durable only once its
# directory is synced, so in crates/storage/src `fs::rename(` appears
# only inside durable.rs's rename_into_place, which syncs the directory.
echo "== storage: durable-rename guard =="
if ! find crates/storage/src -name "*.rs" -print0 | xargs -0 awk '
        FNR == 1 { fn = "" }
        /^[[:space:]]*(pub(\(crate\))? )?fn [a-z_]+/ { match($0, /fn [a-z_]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
        index($0, "fs::rename(") && !/^[[:space:]]*\/\// \
            && !(FILENAME ~ /\/durable\.rs$/ && fn == "rename_into_place") {
            print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit bad }
    '; then
    echo "ERROR: fs::rename outside durable::rename_into_place — a rename must sync its directory." >&2
    exit 1
fi
echo "ok: every rename in crates/storage/src syncs its directory"
# Trend line (snapshot.rs 147 and disk.rs 268 before delta snapshots;
# 203 and 308 with them, beside durable.rs 19; by the test-module rule,
# 203 and 308 → 170 and 286 with one record layer).
echo "census: $(census crates/storage/src/snapshot.rs) in crates/storage/src/snapshot.rs"
echo "census: $(census crates/storage/src/disk.rs) in crates/storage/src/disk.rs"

# One record format (DESIGN.md §8): record.rs alone builds, parses,
# length-bounds and CRC-checks a WAL record, snapshot file or page
# extent. Outside it and outside tests no file in crates/storage/src
# reads a header field (`from_le_bytes(`) or computes a CRC (`crc32(`).
# The exceptions are exact lines of stream.rs: a streamed chunk's CRC
# and the manifest's whole-payload CRC, wire integrity checks over
# bytes that are no record.
echo "== storage: one record format guard =="
record_exceptions='crates/storage/src/stream.rs: crc: crc32(payload),
crates/storage/src/stream.rs: let crc = crc32(&bytes);
crates/storage/src/stream.rs: if crc32(&chunk.bytes) != chunk.crc {
crates/storage/src/stream.rs: if crc32(&payload) != self.manifest.crc {'
if { uses_outside_tests "from_le_bytes(" crates/storage/src
     uses_outside_tests "crc32(" crates/storage/src; } \
        | grep -v "^crates/storage/src/record.rs:" \
        | sed -E 's/^([^:]+):[0-9]+: [[:space:]]*/\1: /' \
        | grep -vxF "$record_exceptions" | grep .; then
    echo "ERROR: a record header parsed or a CRC computed outside crates/storage/src/record.rs." >&2
    exit 1
fi
echo "ok: crates/storage/src frames, bounds and checks records in record.rs only"
# Trend line: every file of the crate, test modules left out.
echo "census: $(census crates/storage/src/*.rs) in crates/storage/src"

echo "== ledger: one owner of history guard =="
if for field in blocks base_height receipts tx_index; do
        uses_outside_tests ".$field" crates/chain/src
    done | grep -v "^crates/chain/src/history.rs:" \
    | grep -E '\.(blocks|base_height|receipts|tx_index)([^A-Za-z0-9_("]|$)' \
    | grep -v "^crates/chain/src/receipt.rs:[0-9]*: *self.proof.leaf_index == self.tx_index && "; then
    echo "ERROR: a History field is named outside history.rs — go through History's methods." >&2
    exit 1
fi
echo "ok: only history.rs touches blocks, base_height, receipts and tx_index"
# Trend line (ledger.rs 1,047 before WorldState moved to state.rs and
# committed history to history.rs; 601 after, beside state.rs 409 and
# history.rs 85, when crates/chain/src went 5,889 → 5,938).
echo "census: $(census crates/chain/src/ledger.rs) in crates/chain/src/ledger.rs"
echo "census: $(census crates/chain/src/state.rs) in crates/chain/src/state.rs"
echo "census: $(census crates/chain/src/history.rs) in crates/chain/src/history.rs"
echo "census: $(census $(find crates/chain/src -name "*.rs")) in crates/chain/src"

# Hash once (DESIGN.md §10): a transaction's id is computed in one
# function — `Transaction::id`, which `SealedTx` calls when it seals —
# and a block's transaction tree is built in one place, when its body is
# assembled; receipts, the receipt index, `computed_tx_root` and the wire
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

# One network type (DESIGN.md §9): a flat chain is a consortium of one
# committee. `Network` is the only network struct — one gateway backend,
# one builder block, one serve loop — and `MedicalNetwork` /
# `ShardedNetwork` live on only as type aliases. Two copies drifted once
# (only the sharded backend refused client-minted finalizes).
echo "== core: one network type guard =="
backends="$(grep -rn "impl GatewayBackend for" crates/core/src --include="*.rs" || true)"
builders="$(grep -rn "^impl NetworkBuilder" crates/core/src --include="*.rs" || true)"
echo "$backends"
echo "$builders"
if [ "$(echo "$backends" | grep -c .)" -ne 1 ] || [ "$(echo "$builders" | grep -c .)" -ne 1 ]; then
    echo "ERROR: one GatewayBackend impl and one impl NetworkBuilder block in crates/core/src — extend Network instead." >&2
    exit 1
fi
if grep -rnE "pub struct (MedicalNetwork|ShardedNetwork)\b|fn (submit_as|invoke_as)\b" crates/core/src --include="*.rs"; then
    echo "ERROR: a second network type or the legacy submit_as/invoke_as surface is back." >&2
    exit 1
fi
if grep -nE "\bfn\(" crates/core/src/committee.rs; then
    echo "ERROR: committee.rs takes a function pointer again — the serve loop is Network::serve_until." >&2
    exit 1
fi
echo "ok: one Network, one gateway backend, one builder block, one serve loop"
# Trend line (3,583 at PR 31, before the two network types merged;
# 3,381 after; 3,273 once rejoin stopped running its own loopback server;
# 3,266 once an off-chain job had one path, when
# crates/{core,offchain,contracts}/src went 5,953 → 5,915; 3,240 once
# the latest_state projection and the unused builder options went, when
# every .rs file under crates/{chain,storage}/src went 7,063 → 6,937
# with one pager for cold state, then → 6,903 with one quorum, then
# → 6,988 with the CRC32 kernel beside SHA-NI and storage's crc.rs gone;
# then 3,240 → 3,099, 5,889 → 5,748 and 6,988 → 6,971 once the gateway
# kept no memory of its own and the one-value storage settings went;
# then → 3,087, 5,574 and 6,829 once the unread public surface went;
# then core and core+offchain+contracts grew to 3,122 and 5,630 when
# Network::run_job and the pipelines' outcome decoding arrived, as the
# six-crate census of the job-path guard below fell 8,748 → 8,746):
echo "census: $(census crates/core/src/*.rs) non-comment lines outside tests in crates/core/src"
echo "census: $(census crates/{core,offchain,contracts}/src/*.rs) in crates/{core,offchain,contracts}/src"
echo "census: $(census $(find crates/chain/src crates/storage/src -name "*.rs")) in crates/{chain,storage}/src"

# One quorum (DESIGN.md §6): PoA and PBFT count votes, check commit
# certificates and commit synced blocks through `consensus::Quorum`, the
# one place that admits a signature only from a member and the one
# threshold rule. Each engine once kept its own seal check and tally
# over the whole key registry, and an enrolled gateway client could
# seal a block through either; PBFT also kept its own threshold.
echo "== consensus: one quorum guard =="
engines="crates/chain/src/consensus/poa.rs crates/chain/src/consensus/pbft.rs"
# shellcheck disable=SC2086
if grep -nE 'fn verify_seal|registry\.verify\(' $engines; then
    echo "ERROR: an engine checks signatures itself — go through Quorum::admits/certifies." >&2
    exit 1
fi
if grep -n 'fn quorum' crates/chain/src/consensus/pbft.rs; then
    echo "ERROR: PBFT has its own quorum rule again — use Quorum::threshold." >&2
    exit 1
fi
echo "ok: PoA and PBFT check signatures and thresholds through one Quorum"
# Trend line (1,310 before PoA and PBFT shared one Quorum; 1,276 after;
# 1,265 once the unread public surface went).
echo "census: $(census crates/chain/src/consensus/*.rs) in crates/chain/src/consensus"

# The chain is the gateway's only memory (DESIGN.md §10): a submission
# is answered from the pool's id set and the ledger's tx index before
# any signature check, and an unknown one is verified inline on the
# serve thread. The gateway once kept a seen-window and a verified cache
# of ids beside them, and fanned one HMAC check out to a spawned thread.
echo "== gateway: no memory of its own guard =="
if grep -nE 'HashSet<Hash256>|HashMap<Hash256|VecDeque<Hash256>|scoped_map' crates/core/src/gateway.rs; then
    echo "ERROR: gateway.rs keeps its own tx-id store or fans verification out — ask the backend (status_of) and verify inline." >&2
    exit 1
fi
echo "ok: the gateway asks the chain before any signature check and verifies inline"
# Trend line (579 before the gateway stopped remembering ids; 440 after;
# 353 once it framed, read and accepted through transport's frame.rs).
echo "census: $(census crates/core/src/gateway.rs) in crates/core/src/gateway.rs"

# One socket layer (DESIGN.md §6, §10): consensus sites and the ingress
# gateway and its client frame, parse, read and accept through
# crates/transport/src/frame.rs alone. The transport and the gateway
# once kept a length-prefix framer, a frame parser, a polling read loop
# and an acceptor thread each, and the gateway's copy kept every closed
# connection's socket. A listener, a listener's `.accept()` or a
# `u32::from_le_bytes` prefix parse in socket code (crates/transport/src,
# crates/core/src, or any crates/ file naming TcpStream) outside
# frame.rs is a second socket layer growing back.
echo "== transport: one socket layer guard =="
socket_code="$( { find crates/transport/src crates/core/src -name "*.rs"; grep -rlw --include='*.rs' TcpStream crates; } \
    | grep -vx 'crates/transport/src/frame.rs' | LC_ALL=C sort -u)"
# shellcheck disable=SC2086
if grep -rnE --include='*.rs' 'TcpListener|\.accept\(\)|\.incoming\(\)' crates | grep -v '^crates/transport/src/frame.rs:' \
    || grep -nw 'u32::from_le_bytes' $socket_code; then
    echo "ERROR: socket code outside crates/transport/src/frame.rs listens, accepts or parses a length prefix — use frame::{listen, read_frames, FrameReader}." >&2
    exit 1
fi
echo "ok: one frame codec, one frame reader and one acceptor, in crates/transport/src/frame.rs"
# Trend line (tcp.rs + gateway.rs + client.rs: 1,050 before they shared
# frame.rs; 885 after, 1,008 with frame.rs itself).
echo "census: $(census crates/transport/src/*.rs) in crates/transport/src"
echo "census: $(census crates/core/src/gateway.rs crates/core/src/client.rs) in crates/core/src/{gateway,client}.rs"
echo "census: $(census crates/transport/src/tcp.rs crates/core/src/gateway.rs crates/core/src/client.rs) in tcp.rs + gateway.rs + client.rs"

# One way to run an off-chain job (DESIGN.md §4, Fig. 1): each site a
# request names picks its shard up from its own replica, runs it on its
# own executor and posts its own outcome, all inside
# `Network::control_cycle`. A second `"post_result"` call site, or an
# executor built by the mode harness, is a second path growing back.
# (`standard.rs` defines the method and unit-tests it directly.)
echo "== offchain: one job path guard =="
if grep -rn '"post_result"' crates/*/src src tests examples benchmark/src --include="*.rs" \
    | grep -v "^crates/contracts/src/standard.rs:\|^crates/core/src/network.rs:"; then
    echo "ERROR: post_result invoked outside Network::control_cycle." >&2
    exit 1
fi
if ! awk '/^[[:space:]]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ { cycle = /fn control_cycle\(/ }
    /"post_result"/ { if (cycle) n++; else { print FILENAME ":" FNR ": " $0; bad = 1 } }
    END { if (n != 1) { print "control_cycle invokes post_result " n + 0 " times"; bad = 1 }; exit bad }' \
    crates/core/src/network.rs; then
    echo "ERROR: post_result is invoked once, from Network::control_cycle only." >&2
    exit 1
fi
if grep -nE '\b(TaskExecutor|run_parallel)\b' crates/core/src/modes.rs; then
    echo "ERROR: modes.rs runs executors itself — drive Network::control_cycle instead." >&2
    exit 1
fi
echo "ok: one off-chain job path (post_result only from Network::control_cycle)"
# Trend line (539 before the unread offchain::oracle went; 417 after).
echo "census: $(census crates/offchain/src/*.rs) in crates/offchain/src"

# One job path for every figure (DESIGN.md §4): queries, GWAS and
# federated rounds run as jobs of the sites' one query tool through
# `Network::run_job`, so the only place core runs a query against a
# site's records is that tool, `query_tool` in site.rs. The caller once
# reached into each site (`Site::execute_task`, a caller-side
# `map_site`), and the query crate kept a second, in-memory query
# service beside the pipelines.
echo "== core: one job path for every figure guard =="
if ! find crates/core/src -name "*.rs" -print0 | xargs -0 awk '
    FNR == 1 { tool = 0 }
    /^[[:space:]]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ { tool = FILENAME ~ /\/site\.rs$/ && /fn query_tool\(/ }
    /execute_task/ || ((/execute_local\(/ || /map_site\(/) && !tool) { print FILENAME ":" FNR ": " $0; bad = 1 }
    END { exit bad }'; then
    echo "ERROR: core runs a query against site records outside site.rs's query_tool — go through Network::run_job." >&2
    exit 1
fi
if [ -e crates/query/src/service.rs ]; then
    echo "ERROR: crates/query/src/service.rs is back — run_query is the global query service." >&2
    exit 1
fi
echo "ok: every per-site computation runs as a job of the sites' query tool"
# Trend line (8,748 before queries, GWAS and federated rounds moved
# onto the job path; 8,746 after).
echo "census: $(census $(find crates/{core,offchain,contracts,query,data,learning}/src -name "*.rs")) in crates/{core,offchain,contracts,query,data,learning}/src"

# One committee life cycle (DESIGN.md §3, §14): recovering a store,
# streaming into a lagging member, attaching a store and driving
# consensus to a height are decisions `core::committee` makes once for
# the flat network and every shard. A second caller in the core crate is
# a second copy of the build/rejoin/advance path growing back.
# (`bootstrap.rs` defines `stream_into`, which installs a streamed
# snapshot through `recover_into`.)
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
# ...and medbench is the only stopwatch: no clock in the experiment crate
# or the paradigm model, and no micro-bench harness beside it.
if grep -rnE 'Instant|SystemTime' crates/bench crates/core/src/paradigms.rs \
    || find crates src examples tests benchmark/src -type d -name benches | grep . \
    || grep -n '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml benchmark/Cargo.toml \
    || grep -rn 'mod timing' crates/runtime; then
    echo "ERROR: a clock or bench harness outside medbench — count it, or measure it in benchmark/." >&2
    exit 1
fi
echo "ok: one run_eN per experiment, one sharded mode, no measured/modeled switch, no second clock"

# Unsafe census (DESIGN.md §2): the SHA-NI block function and the
# PCLMULQDQ CRC32 kernel in crates/chain/src/hash.rs are the only
# `unsafe` code in the program, and tests/alloc_count.rs's counting
# allocator (a `GlobalAlloc` that hands every call to `System`) the only
# `unsafe` in a test; each occurrence sits directly under a comment
# holding `// SAFETY:`. hash.rs is the only code that detects CPU
# features or enables them, so each `#[target_feature]` function stays
# reachable only through detection.
echo "== unsafe: census =="
rust_sources=(crates src examples tests benchmark/src)
code_lines() {
    grep -rnE --include='*.rs' "$1" "${rust_sources[@]}" | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true
}
if code_lines '\bunsafe\b' | grep -v "^crates/chain/src/hash.rs:\|^tests/alloc_count.rs:"; then
    echo "ERROR: unsafe code outside the SHA-NI and CRC32 kernels in crates/chain/src/hash.rs and the counting allocator in tests/alloc_count.rs." >&2
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
    END { print "census: " sites " unsafe sites in crates/chain/src/hash.rs and tests/alloc_count.rs"; exit bad }
' crates/chain/src/hash.rs tests/alloc_count.rs; then
    echo "ERROR: an unsafe site without a // SAFETY: comment directly above it." >&2
    exit 1
fi
echo "ok: unsafe lives in the SHA-NI and CRC32 kernels and the counting allocator only; feature detection and target_feature in hash.rs only"

# One CRC (DESIGN.md §2): every WAL record, snapshot file, page extent
# and snapshot-stream chunk is checksummed by the one dispatched
# `crc32` in crates/chain/src/hash.rs. A second definition (a storage
# copy, a test's private twin) fails here.
echo "== crc: one definition =="
crc_defs="$(grep -rnE --include='*.rs' '\bfn crc32\b' crates src examples tests || true)"
if [ "$(printf '%s\n' "$crc_defs" | grep -c .)" != 1 ] || ! printf '%s\n' "$crc_defs" | grep -q '^crates/chain/src/hash.rs:'; then
    echo "ERROR: \`fn crc32\` must be defined exactly once, in crates/chain/src/hash.rs; found:" >&2
    printf '%s\n' "$crc_defs" >&2
    exit 1
fi
echo "ok: fn crc32 is defined once, in crates/chain/src/hash.rs"

# Every environment variable is an option tests and benchmarks must
# cover. The files that read one are listed here, so a new knob has to
# edit this list to land.
echo "== options: environment-knob census =="
env_readers="$(grep -rln 'env::var' --include='*.rs' crates src examples | LC_ALL=C sort)"
env_allowed="crates/bench/src/bin/experiments.rs
crates/core/src/network.rs
crates/runtime/src/check.rs
crates/transport/src/tcp.rs
examples/restart_node.rs
examples/socket_cluster.rs"
if [ "$env_readers" != "$env_allowed" ]; then
    echo "ERROR: the set of files reading env::var changed:" >&2
    diff <(echo "$env_allowed") <(echo "$env_readers") >&2 || true
    exit 1
fi
echo "ok: env::var is read in the 6 listed files only"

# Dead public surface (ROADMAP aim 2): a `pub fn|struct|enum|trait|type|const`
# declared at the start of a line in a .rs file under crates/ (except
# crates/bench), src/, tests/ or examples/ whose name, as a whole word,
# appears in no other .rs file under crates/, src/, tests/, examples/ or
# benchmark/src. Such an item is public for no reader. Every name the
# census finds must be listed below with the reason it stays public; a
# new one gains a reader, becomes pub(crate) or private, or goes.
# Trend line: 117 before the first sweep, 23 after; 22 once
# Ledger::prune_below forwarded to History::prune_below, whose name in
# history.rs the census counts as a reader; 21 once a core test built
# GWAS count tables by hand and so read SnpCounts; 20 once the unread
# offchain::oracle went (OracleStats with it; Value::encoded_len, which
# only the oracle read, became private).
echo "== api: dead public surface census =="
surface_ceiling=20
surface_kept="certifies|read by ROADMAP Commit certificates (a block's certificate check)
PosMsg|the PoS engine's Engine::Msg type
PowMsg|the PoW engine's Engine::Msg type
ParseHashError|error type of the public Hash256::from_hex
ProofStep|element type of the public MerkleProof::path
AsmError|error type of the public asm::assemble
DecodeError|error type of the public opcode::decode_program
DenyReason|payload of the public policy::Decision::Deny
PolicyError|error type of the public Purpose::from_code and AccessPolicy::from_values
FedRound|element type of the public FederatedPipelineReport::rounds
PipelineError|error type of the public run_query, run_gwas and federated pipeline
FormatTally|value type of the public IntegrationReport::by_format
JsonError|error type of the public json::parse
RoundStats|element type of the public FedReport::history
take_byte|called by the exported codec macros wherever they expand
EventRecord|return type of the public metrics Registry::events
HistogramSummary|return type of the public metrics Registry::histogram
SampleRange|trait bound of the public DetRng::gen_range
SafetySignal|return type of the public RweMonitor::observe and signal
SiteScreening|return type of the public screen_site, argument of recruit"
surface_declarers="$(find crates src tests examples -name '*.rs' -not -path 'crates/bench/*' | LC_ALL=C sort)"
surface_readers="$(find crates src tests examples benchmark/src -name '*.rs' | LC_ALL=C sort)"
surface_unread=0
surface_bad=0
for file in $surface_declarers; do
    names="$(grep -oE '^[[:space:]]*pub (fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*' "$file" \
        | awk '{ print $NF }' | LC_ALL=C sort -u || true)"
    for name in $names; do
        # shellcheck disable=SC2086
        others="$(grep -lwF -- "$name" $surface_readers | grep -vxF "$file" || true)"
        [ -n "$others" ] && continue
        surface_unread=$((surface_unread + 1))
        reason="$(printf '%s\n' "$surface_kept" | awk -F'|' -v n="$name" '$1 == n { print $2 }')"
        if [ -n "$reason" ]; then
            echo "kept: $name ($file): $reason"
        else
            echo "ERROR: $file declares pub $name and no other file reads it" >&2
            surface_bad=1
        fi
    done
done
echo "census: ${surface_unread} public items no other file reads (ceiling ${surface_ceiling})"
if [ "$surface_bad" -ne 0 ] || [ "$surface_unread" -gt "$surface_ceiling" ]; then
    echo "ERROR: unread public surface grew — give the item a reader, make it pub(crate) or private, or delete it." >&2
    exit 1
fi
echo "ok: every unread public item is kept on purpose"

# Light-client query path (DESIGN.md §13): anchor a record over the TCP
# gateway, read it back with a sparse-Merkle proof, verify client-side,
# and re-verify against an independently read committed header root —
# plus a provable absence for a never-written key. Wall-clock guarded.
echo "== auth: light-client verified state reads (wall-clock guarded) =="
light_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$light_log"; rm -rf "$restart_dir" "$shard_dir"' EXIT
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
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$light_log" "$paged_log"; rm -rf "$restart_dir" "$shard_dir" "$paged_dir"' EXIT
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

# Benchmark smokes: two seconds of every medbench workload must end with
# a result the benchmark itself judges correct. Built first so the
# wall-clock guard times the run, not the compile.
# - gateway_mem: TCP ingress on one-transaction blocks, storage off — the
#   serve loop alone;
# - gateway_wal: the same plus WAL, a snapshot boundary, restart and
#   receipt re-serve;
# - bulk_blocks: 256-transaction blocks through the in-process admission
#   seam, every receipt cut from its block's tree and verified against
#   the committed header;
# - sharded_mixed: routed TCP writes, proven reads and in-process 2PC
#   transfers, so the resolver's settle path runs;
# - paged_blocks: state-tree merges through spilled subtree stubs, with a
#   page cache far below the working set.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
smoke_log="$(mktemp)"
trap 'rm -f "$metrics_tsv" "$restart_log" "$shard_log" "$gateway_log" "$light_log" "$paged_log" "$smoke_log"; rm -rf "$restart_dir" "$shard_dir" "$paged_dir"' EXIT
for workload in gateway_mem gateway_wal bulk_blocks sharded_mixed paged_blocks; do
    echo "== medbench: 2-second ${workload} smoke (wall-clock guarded) =="
    timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 > "$smoke_log"
    if ! tail -n 1 "$smoke_log" | grep -q '"correct": true'; then
        echo "ERROR: medbench ${workload} smoke did not report a correct run" >&2
        cat "$smoke_log" >&2
        exit 1
    fi
    echo "ok: medbench ${workload} ran end to end and checked its own outputs"
done

# A paged commit rewrites only the pages it touched (DESIGN.md §14): the
# traced smoke reads ≈1.3 page writes per transaction; a spill that
# rewrites the whole tree every commit reads ≈51.
echo "== medbench: 2-second traced paged_blocks page-write guard (wall-clock guarded) =="
timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload paged_blocks --seed 1 --seconds 2 --trace 1 > "$smoke_log"
page_writes="$(tail -n 1 "$smoke_log" \
    | sed -n 's/.*"storage.page_writes_per_tx": {"value": \([0-9.eE+-]*\).*/\1/p')"
if ! tail -n 1 "$smoke_log" | grep -q '"correct": true' || [ -z "$page_writes" ] \
    || ! awk -v w="$page_writes" 'BEGIN { exit !(w <= 4) }'; then
    echo "ERROR: traced paged_blocks was not correct or wrote ${page_writes:-?} pages per transaction (limit 4)" >&2
    tail -n 1 "$smoke_log" >&2
    exit 1
fi
echo "ok: paged_blocks wrote ${page_writes} pages per transaction (limit 4)"

echo "verify: OK"
