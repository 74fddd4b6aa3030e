#!/usr/bin/env bash
# A/A check: two interleaved sets of N full passes of the SAME build.
# Prints, for every end-to-end metric of every workload, the two sets'
# medians, the share by which set B is worse than set A, each set's
# spread (interquartile range over median) and the metric's bound from
# BENCHMARK.json; exits 1 when any gap exceeds its bound.
#
#   benchmark/aa.sh [N]        # from the repository root; N defaults to 5
#
# Every run gets a seed of its own, as the driver's runs do, so the
# spread includes what different inputs add. Needs cargo and python3.
set -euo pipefail

passes="${1:-5}"
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/medbench"
out="benchmark/target/medbench-aa"
rm -rf "$out"
mkdir -p "$out"

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

seed=0
for pass in $(seq 1 "$passes"); do
  for set in A B; do
    for workload in $workloads; do
      seed=$((seed + 1))
      echo "pass $pass/$passes set $set $workload seed $seed" >&2
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 >> "$out/$set.$workload.jsonl"
    done
  done
done

python3 - "$out" <<'PY'
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
failed = False
print(f"{'workload':14} {'metric':12} {'median A':>12} {'median B':>12} {'B worse by':>10} "
      f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
for workload in (w["name"] for w in spec["workloads"]):
    runs = {s: [json.loads(l) for l in open(f"{out}/{s}.{workload}.jsonl")] for s in "AB"}
    for s in "AB":
        if not all(r["correct"] for r in runs[s]):
            print(f"{workload}: a run of set {s} failed its correctness gate")
            failed = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        median = {s: statistics.median(values[s]) for s in "AB"}
        spread = {}
        for s in "AB":
            q = statistics.quantiles(values[s], n=4) if len(values[s]) > 1 else [0, 0, 0]
            spread[s] = (q[2] - q[0]) / median[s]
        worse = (median["B"] - median["A"]) / median["A"]
        if metric["better"] == "higher":
            worse = -worse
        verdict = ""
        if worse > bound:
            verdict = "  GAP EXCEEDS BOUND"
            failed = True
        print(f"{workload:14} {name:12} {median['A']:12.4f} {median['B']:12.4f} {worse:+10.2%} "
              f"{spread['A']:9.2%} {spread['B']:9.2%} {bound:6.2f}{verdict}")
sys.exit(1 if failed else 0)
PY
