#!/usr/bin/env bash
# Acceptance smoke test for the obs metrics pipeline end to end through the
# tsched_serve CLI: a replay with --metrics-out must produce a parseable
# JSONL time series (one line per epoch in --metrics-epoch mode) whose
# documents carry the serve/cache/pool instruments, the Prometheus scrape
# file must satisfy the exposition-format invariants (cumulative le buckets,
# +Inf == _count), and the report's histogram percentiles must stay within
# the documented relative-error bound of the exact ones.
#
# usage: obs_smoke.sh path/to/tsched_serve [python3]
set -u

SERVE="${1:?usage: obs_smoke.sh path/to/tsched_serve [python3]}"
PYTHON="${2:-python3}"
# cwd-safe: absolutize the binary path before leaving the caller's directory
# (try the caller's cwd first, then the repo root), then run from the repo
# root so the script behaves identically no matter where it was launched.
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
case "$SERVE" in
    /*) ;;
    *) if [ -x "$SERVE" ]; then SERVE="$(pwd)/$SERVE"; else SERVE="$ROOT/$SERVE"; fi ;;
esac
cd "$ROOT" || exit 1
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "obs_smoke: FAIL: $*" >&2
    exit 1
}

"$SERVE" --gen="$WORK/a.tsr" --requests=24 --repeat-frac=0.5 --n=40 --procs=4 \
    --seed=7 > /dev/null || fail "--gen failed"

# 1. JSONL live metrics, per-epoch mode: exactly one document per epoch, each
#    a valid schema-1 snapshot with the serve/cache/pool instruments, and the
#    series monotone in the counters (snapshots are cumulative).
"$SERVE" "$WORK/a.tsr" --epochs=3 --batch=8 \
    --metrics-out="$WORK/metrics.jsonl" --metrics-epoch \
    --json="$WORK/report.json" > /dev/null 2>&1 || fail "replay with --metrics-out failed"
"$PYTHON" - "$WORK/metrics.jsonl" <<'PYEOF' || fail "JSONL metrics series incoherent"
import json, sys
docs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
assert len(docs) == 3, f"expected one line per epoch, got {len(docs)}"
prev_requests = 0
for doc in docs:
    assert doc["schema"] == 1, doc
    counters = {c["name"]: c["value"] for c in doc["counters"]}
    gauges = {g["name"] for g in doc["gauges"]}
    hists = {h["name"]: h for h in doc["histograms"]}
    assert counters["serve/requests"] >= prev_requests, counters
    prev_requests = counters["serve/requests"]
    for name in ("serve/computed", "serve/cache/hits", "pool/tasks_run"):
        assert name in counters, (name, sorted(counters))
    for name in ("serve/hit_rate", "serve/cache/shard_occupancy", "pool/workers"):
        assert any(g == name for g in gauges), (name, sorted(gauges))
    assert "pool/task_run_ms" in hists, sorted(hists)
    for h in hists.values():
        if h["count"] > 0:
            assert h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["p999"], h
            assert h["p999"] <= h["max"] or h["count"] == h["underflow"], h
            assert sum(b[2] for b in h["buckets"]) + h["underflow"] + h["overflow"] == h["count"], h
# Last snapshot covers the full run: 24 requests x 3 epochs.
final = {c["name"]: c["value"] for c in docs[-1]["counters"]}
assert final["serve/requests"] == 72, final
PYEOF

# 2. Prometheus scrape file: latest state only, exposition-format invariants.
"$SERVE" "$WORK/a.tsr" --epochs=2 --batch=8 \
    --metrics-out="$WORK/metrics.prom" --metrics-format=prometheus --metrics-epoch \
    > /dev/null 2>&1 || fail "replay with prometheus metrics failed"
"$PYTHON" - "$WORK/metrics.prom" <<'PYEOF' || fail "prometheus exposition incoherent"
import re, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, "empty scrape file"
types = {}
for line in lines:
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        assert name not in types, f"duplicate TYPE for {name}"
        types[name] = kind
assert types.get("tsched_serve_requests") == "counter", types
assert types.get("tsched_serve_hit_rate") == "gauge", types
assert types.get("tsched_serve_latency_total_ms") == "histogram", types
# Every series name is sanitized: tsched_ prefix, [a-zA-Z0-9_:] only.
for line in lines:
    if line.startswith("#") or not line:
        continue
    name = re.split(r"[{ ]", line, 1)[0]
    assert re.fullmatch(r"tsched_[A-Za-z0-9_:]+", name), name
# Histogram invariants: cumulative le buckets never decrease; +Inf == _count.
hist = "tsched_serve_latency_total_ms"
buckets = [l for l in lines if l.startswith(hist + "_bucket")]
counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
assert counts == sorted(counts), counts
assert buckets[-1].startswith(hist + '_bucket{le="+Inf"}'), buckets[-1]
count_line = [l for l in lines if l.startswith(hist + "_count")]
assert counts[-1] == int(count_line[0].rsplit(" ", 1)[1]), (counts[-1], count_line)
PYEOF

# 3. The report embeds both percentile views and the metrics document, and
#    they are mutually consistent: histogram percentiles ordered, bounded by
#    the exact max, and the embedded metrics agree with the replay totals.
#    (The rigorous histogram-vs-exact error-bound check uses matched
#    nearest-rank conventions and lives in test_serve's
#    ServeEngine.LatencyHistogramTracksNearestRankOnLiveLatencies; the exact
#    report percentiles here are interpolated, a different convention.)
"$PYTHON" - "$WORK/report.json" <<'PYEOF' || fail "report percentile views inconsistent"
import json, sys
doc = json.load(open(sys.argv[1]))
exact = doc["latency_ms"]
approx = doc["hist_latency_ms"]
assert 0 < approx["p50"] <= approx["p95"] <= approx["p99"] <= approx["p999"], approx
assert approx["p999"] <= exact["max"] * (1 + 1.0 / 128), (approx, exact)
assert doc["metrics"]["schema"] == 1, sorted(doc)
counters = {c["name"]: c["value"] for c in doc["metrics"]["counters"]}
assert counters["serve/requests"] == doc["requests"], (counters, doc["requests"])
hists = {h["name"]: h for h in doc["metrics"]["histograms"]}
# Every answered request lands in the total-latency histogram.
assert hists["serve/latency/total_ms"]["count"] == doc["requests"] > 0, hists
PYEOF

# 4. Metrics stay silent unless asked: no --metrics-out, no stray files.
[ ! -e "$WORK/metrics_unrequested" ] || fail "unexpected metrics file"

echo "obs_smoke: OK"
