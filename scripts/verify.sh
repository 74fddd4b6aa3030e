#!/usr/bin/env bash
# The verification gate: builds, test suites and end-to-end runs.
#
# - cargo build --release && cargo test -q (tier-1). Tier-1 runs
#   tests/architecture.rs, the source, manifest and doc rules: workspace-only
#   dependencies, each "one way to do X" design DESIGN.md names, the unsafe,
#   environment-knob and dead-public-surface censuses, and a mutant per rule
#   that must trip it. This script prints its line censuses.
# - Every crate's tests, medbench's own tests and the socket suites, each
#   under a wall-clock limit so that a hung listener fails the gate.
# - The metrics TSV of a quick E1, the restart, sharded-restart, gateway,
#   2PC, light-client and paged-bootstrap examples (DESIGN.md §8–§14), a
#   2-second smoke of every medbench workload and the traced paged_blocks
#   page-write limit.
set -euo pipefail
cd "$(dirname "$0")/.."

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# Fails the gate unless the file holds the text, printing the file.
expect() {
    if ! grep -q -- "$2" "$1"; then
        echo "ERROR: $3" >&2
        cat "$1" >&2
        exit 1
    fi
}

# Runs an example under a wall-clock limit, then fails the gate unless its
# output holds every given text: example SECONDS NAME "ARGS" TEXT...
example() {
    local limit="$1" name="$2" args="$3"
    shift 3
    echo "== example: $name $args (wall-clock guarded) =="
    # shellcheck disable=SC2086
    timeout "$limit" cargo run --release -q --example "$name" $args > "$scratch/example.log"
    for text in "$@"; do
        expect "$scratch/example.log" "$text" "$name printed no \"$text\""
    done
}

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== architecture: line censuses =="
cargo test -q --test architecture -- --nocapture --exact census | grep -E '^(census|kept):'

echo "== every crate's tests, medbench's tests, the socket suites (wall-clock guarded) =="
timeout 600 cargo test -q --workspace --offline
timeout 300 cargo test -q --offline --manifest-path benchmark/Cargo.toml
timeout 180 cargo test -q -p medchain-transport
timeout 240 cargo test -q --test transport

echo "== metrics: E1 quick run with TSV exporter =="
MEDCHAIN_METRICS_TSV="$scratch/metrics.tsv" \
    cargo run --release -q -p medchain-bench --bin experiments -- --quick e1 > /dev/null
for key in consensus.rounds mempool.inserted transport.bytes chain.blocks_committed; do
    expect "$scratch/metrics.tsv" "^counter	${key}	" "metrics TSV missing counter ${key}"
done

# Crash recovery: the first life commits; the second resumes from disk.
example 120 restart_node "$scratch/restart"
! grep -q "resumed at height" "$scratch/example.log" \
    || { echo "ERROR: first life of restart_node claims to have resumed" >&2; cat "$scratch/example.log" >&2; exit 1; }
# The second life also reads a block and a receipt proof below its
# resident window back from the log.
example 120 restart_node "$scratch/restart" "resumed at height" \
    "its receipt read back from the log; the proof verifies"
# Both sharded lives commit cross-links; the second recovers every sub-chain.
MEDCHAIN_SHARDS=2 example 120 restart_node "$scratch/sharded" "committed cross-link: shard-"
MEDCHAIN_SHARDS=2 example 120 restart_node "$scratch/sharded" "resumed 2 sub-chains" "committed cross-link: shard-"
example 120 gateway_load "" "gateway round-trip OK" "0 proof failures"
example 120 cross_shard_transfer "" "cross-shard transfer committed atomically" "timeout-abort released all locks"
example 120 light_client "" "light client round-trip OK" "0 proof failures"
example 180 paged_bootstrap "$scratch/paged" \
    "paged node committed byte-identical tip" "wiped site rejoined from streamed snapshot"

# Two seconds of every medbench workload must end with a result the
# benchmark itself judges correct. Built first so that the wall-clock limit
# times the run, not the compile.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
medbench() {
    echo "== medbench: 2-second $* (wall-clock guarded) =="
    timeout 120 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --seed 1 --seconds 2 "$@" > "$scratch/medbench.log"
    tail -n 1 "$scratch/medbench.log" > "$scratch/result.json"
    expect "$scratch/result.json" '"correct": true' "medbench $* did not report a correct run"
}
for workload in gateway_mem gateway_wal bulk_blocks sharded_mixed paged_blocks; do
    medbench --workload "$workload" --trace 0
done

# A paged commit rewrites only the pages it touched (DESIGN.md §14): the
# traced smoke reads ≈1.3 page writes per transaction; a spill that rewrites
# the whole tree every commit reads ≈51.
medbench --workload paged_blocks --trace 1
page_writes="$(sed -n 's/.*"storage.page_writes_per_tx": {"value": \([0-9.eE+-]*\).*/\1/p' "$scratch/result.json")"
if [ -z "$page_writes" ] || ! awk -v w="$page_writes" 'BEGIN { exit !(w <= 4) }'; then
    echo "ERROR: traced paged_blocks wrote ${page_writes:-?} pages per transaction (limit 4)" >&2
    cat "$scratch/result.json" >&2
    exit 1
fi
echo "ok: paged_blocks wrote ${page_writes} pages per transaction (limit 4)"

echo "verify: OK"
