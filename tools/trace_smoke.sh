#!/usr/bin/env bash
# Acceptance smoke test for tsched_trace: a saved schedule must round-trip
# through the Chrome trace_event exporter into JSON that a real parser
# accepts, a traced scheduler run must explain every placement, and the
# --version/--help/unknown-flag contract must hold.
#
# usage: trace_smoke.sh path/to/tsched_trace [python3]
set -u

TRACE="${1:?usage: trace_smoke.sh path/to/tsched_trace [python3]}"
PYTHON="${2:-python3}"
# cwd-safe: absolutize the binary path before leaving the caller's directory
# (try the caller's cwd first, then the repo root), then run from the repo
# root so the script behaves identically no matter where it was launched.
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
case "$TRACE" in
    /*) ;;
    *) if [ -x "$TRACE" ]; then TRACE="$(pwd)/$TRACE"; else TRACE="$ROOT/$TRACE"; fi ;;
esac
cd "$ROOT" || exit 1
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "trace_smoke: FAIL: $*" >&2
    exit 1
}

# A diamond (0 -> 1,2 -> 3) on two unit-speed processors behind a uniform
# crossbar: big enough to force at least one cross-processor transfer, small
# enough to eyeball.
cat > "$WORK/graph.tsg" <<'EOF'
tsg 4 4
t 0 2
t 1 4
t 2 4
t 3 2
e 0 1 3
e 0 2 3
e 1 3 2
e 2 3 2
EOF

cat > "$WORK/platform.tsp" <<'EOF'
tsp 2 4
s 0 1
s 1 1
link uniform 0 1
w 0 2 2
w 1 4 4
w 2 4 4
w 3 2 2
EOF

# HEFT-style placement: the two branches run in parallel, the join waits for
# the remote branch's data.
cat > "$WORK/sched.tss" <<'EOF'
tss 4 2
p 0 0 0 2
p 1 0 2 6
p 2 1 5 9
p 3 0 11 13
EOF

# 1. --version and --help exit 0.
"$TRACE" --version > "$WORK/version.out" 2>&1 || fail "--version exited nonzero"
grep -q "tsched_trace" "$WORK/version.out" || fail "--version output looks wrong"
"$TRACE" --help > /dev/null 2>&1 || fail "--help exited nonzero"

# 2. An unknown flag is rejected, naming the flag.
"$TRACE" --frobnicate > "$WORK/unknown.out" 2>&1
[ $? -eq 2 ] || fail "unknown flag did not exit 2"
grep -q -- "--frobnicate" "$WORK/unknown.out" || fail "unknown flag not named"

# 3. Chrome export round-trips through a real JSON parser in every mode, with
#    execution and communication tracks.
for mode in planned sim contended; do
    "$TRACE" "$WORK/graph.tsg" "$WORK/platform.tsp" "$WORK/sched.tss" \
        --mode="$mode" --out="$WORK/trace_$mode.json" \
        || fail "chrome export failed (mode $mode)"
    "$PYTHON" - "$WORK/trace_$mode.json" <<'PYEOF' || fail "trace JSON invalid (mode $mode)"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "no events"
complete = [e for e in events if e.get("ph") == "X"]
assert len(complete) >= 4, f"expected >=4 complete events, got {len(complete)}"
for e in complete:
    assert e["ts"] >= 0 and e["dur"] >= 0, e
names = {e["args"]["name"] for e in events if e.get("name") == "process_name"}
assert names == {"execution", "communication"}, names
PYEOF
done

# 4. A traced scheduler run explains every placement.
"$TRACE" "$WORK/graph.tsg" "$WORK/platform.tsp" --algo=ils --explain=all \
    > "$WORK/explain.out" 2>&1 || fail "--algo/--explain run failed"
for task in 0 1 2 3; do
    grep -q "task $task " "$WORK/explain.out" || fail "task $task not explained"
done
grep -q "chosen P" "$WORK/explain.out" || fail "no chosen processor in explanation"
grep -q "eft " "$WORK/explain.out" || fail "no EFT numbers in explanation"

# 5. The decision-trace JSON parses and names the winning pass.
"$TRACE" "$WORK/graph.tsg" "$WORK/platform.tsp" --algo=ils \
    --decisions="$WORK/decisions.json" || fail "--decisions run failed"
"$PYTHON" - "$WORK/decisions.json" <<'PYEOF' || fail "decisions JSON invalid"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["winning_pass"] in ("greedy", "oct"), doc["winning_pass"]
decisions = doc["decisions"]
assert len(decisions) == 8, f"expected 2 passes x 4 tasks, got {len(decisions)}"
for d in decisions:
    assert d["candidates"], d
PYEOF

# 6. Counters report renders and is non-empty: the ils run must at least
#    have evaluated EFTs, and its obs timer must show as a timer row.
"$TRACE" "$WORK/graph.tsg" "$WORK/platform.tsp" --algo=ils --counters \
    > "$WORK/counters.out" 2>&1 || fail "--counters run failed"
grep -q "eft_evaluations" "$WORK/counters.out" || fail "--counters printed no eft_evaluations"
"$TRACE" "$WORK/graph.tsg" "$WORK/platform.tsp" --algo=ils --counters=csv \
    > "$WORK/counters.csv" 2>&1 || fail "--counters=csv run failed"
"$PYTHON" - "$WORK/counters.csv" <<'PYEOF' || fail "--counters=csv has no timer row sched/ils_ms with count >= 1"
import csv, sys
with open(sys.argv[1]) as f:
    rows = list(csv.DictReader(f))
assert any(r["kind"] == "timer" and r["name"] == "sched/ils_ms" and int(r["count"]) >= 1
           for r in rows), rows
PYEOF

echo "trace_smoke: OK"
