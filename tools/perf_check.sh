#!/usr/bin/env bash
# perf_check.sh — compare a fresh perf dump against the committed perf
# baseline (BENCH_runtime.json) and fail on regressions.
#
# Usage: perf_check.sh CURRENT.json [BASELINE.json]
#
# The schema-1 document carries the scheduling-time points from
# bench_runtime --json ({algo, n, mean_ms}).  A point regresses when current
# mean_ms > threshold * baseline mean_ms (default 4.0, override with
# PERF_CHECK_THRESHOLD).
#
# The threshold is deliberately generous because baseline and CI machines
# differ; the check exists to catch the order-of-magnitude regressions that
# reintroducing clone-per-candidate trial evaluation would cause, not 10%
# noise.  Points present in only one file are reported but never fatal, so
# adding an algorithm or sweep size does not break the gate.  Serving
# throughput is measured by perfbench (BENCHMARK.json), not here.
#
# The big-n points (n = 2000/10000/50000, rep-capped in bench_runtime) are
# the noisiest: a single run is 3–12 reps on a possibly-contended host, and
# the committed baseline keeps per-point minima over several quiet runs
# (EXPERIMENTS.md §E19), so ~2–3x read-backs are normal there.  They ride
# the same generous threshold — the gate is for order-of-magnitude
# regressions, and CI fast-lane wall-clock bounds live in test_big_n
# (TSCHED_BIG_N_BUDGET_MS) instead.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 CURRENT.json [BASELINE.json]" >&2
    exit 2
fi

CURRENT=$1
BASELINE=${2:-"$(dirname "$0")/../BENCH_runtime.json"}
THRESHOLD=${PERF_CHECK_THRESHOLD:-4.0}

[ -f "$CURRENT" ] || { echo "perf_check: missing $CURRENT" >&2; exit 2; }
[ -f "$BASELINE" ] || { echo "perf_check: missing baseline $BASELINE" >&2; exit 2; }

python3 - "$CURRENT" "$BASELINE" "$THRESHOLD" <<'PYEOF'
import json
import sys

current_path, baseline_path = sys.argv[1], sys.argv[2]
threshold = float(sys.argv[3])

def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == 1, f"{path}: unknown schema {doc.get('schema')}"
    return {(p["algo"], p["n"]): p["mean_ms"] for p in doc.get("points", [])}

current = load(current_path)
baseline = load(baseline_path)

failures = []

if current and baseline:
    print(f"perf_check: threshold {threshold:g}x against {baseline_path}")
    for key in sorted(baseline, key=lambda k: (k[0], k[1])):
        if key not in current:
            print(f"  [skip] {key[0]}/{key[1]}: not measured in current run")
            continue
        cur, base = current[key], baseline[key]
        ratio = cur / base if base > 0 else float("inf")
        status = "FAIL" if ratio > threshold else "ok"
        print(f"  [{status:4}] {key[0]}/{key[1]}: {cur:.3f} ms vs baseline {base:.3f} ms "
              f"({ratio:.2f}x)")
        if ratio > threshold:
            failures.append(f"{key[0]}/{key[1]}")
    for key in sorted(set(current) - set(baseline)):
        print(f"  [new ] {key[0]}/{key[1]}: {current[key]:.3f} ms (no baseline)")

if not current and not baseline:
    print("perf_check: nothing comparable between the two files", file=sys.stderr)
    sys.exit(2)

if failures:
    names = ", ".join(failures)
    print(f"perf_check: FAILED — regression beyond threshold on: {names}")
    sys.exit(1)
print("perf_check: OK")
PYEOF
