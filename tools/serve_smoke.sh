#!/usr/bin/env bash
# Acceptance smoke test for tsched_serve: trace generation must be
# deterministic and seed-sensitive, a replay must produce a parseable JSON
# report whose accounting adds up (computed == distinct requests, every
# request answered exactly once), cache-off serving must compute everything,
# a bounded drop-oldest replay must shed with balanced outcome tallies, the
# TS07xx config lints must fire on nonsense knobs and only there, and the
# --version/--help/unknown-flag/bad-size contract must hold.
#
# usage: serve_smoke.sh path/to/tsched_serve [python3]
set -u

SERVE="${1:?usage: serve_smoke.sh path/to/tsched_serve [python3]}"
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
    echo "serve_smoke: FAIL: $*" >&2
    exit 1
}

# 1. --version and --help exit 0; an unknown flag is rejected, naming it.
"$SERVE" --version > "$WORK/version.out" 2>&1 || fail "--version exited nonzero"
grep -q "tsched_serve" "$WORK/version.out" || fail "--version output looks wrong"
"$SERVE" --help > /dev/null 2>&1 || fail "--help exited nonzero"
"$SERVE" --frobnicate > "$WORK/unknown.out" 2>&1
[ $? -eq 2 ] || fail "unknown flag did not exit 2"
grep -q -- "--frobnicate" "$WORK/unknown.out" || fail "unknown flag not named"
# A size must be a whole non-negative integer: -1 does not wrap around and
# 7abc is not 7; either is a usage error naming the flag.
for bad in -1 7abc; do
    "$SERVE" --gen="$WORK/bad.tsr" --requests="$bad" > "$WORK/bad.out" 2>&1
    [ $? -eq 2 ] || fail "--requests=$bad did not exit 2"
    grep -q -- "--requests" "$WORK/bad.out" || fail "--requests=$bad error does not name the flag"
done
[ -e "$WORK/bad.tsr" ] && fail "a rejected --requests still wrote a trace"

# 2. Generation is deterministic in the seed: same seed -> identical bytes,
#    different seed -> different trace.  24 requests at repeat-frac 0.5 means
#    exactly 12 distinct instances.
GEN="--requests=24 --repeat-frac=0.5 --n=40 --procs=4 --algos=heft"
"$SERVE" --gen="$WORK/a.tsr" $GEN --seed=7 > /dev/null || fail "--gen failed"
"$SERVE" --gen="$WORK/b.tsr" $GEN --seed=7 > /dev/null || fail "second --gen failed"
"$SERVE" --gen="$WORK/c.tsr" $GEN --seed=8 > /dev/null || fail "third --gen failed"
diff -u "$WORK/a.tsr" "$WORK/b.tsr" > /dev/null || fail "same-seed traces differ"
diff -u "$WORK/a.tsr" "$WORK/c.tsr" > /dev/null && fail "different seeds produced identical traces"
head -1 "$WORK/a.tsr" | grep -q "^tsr 1$" || fail "trace header is not 'tsr 1'"
[ "$(grep -c '^r ' "$WORK/a.tsr")" -eq 24 ] || fail "trace does not carry 24 request lines"

# 3. A steady-state replay (2 epochs) reports coherent accounting: 12
#    distinct requests -> exactly 12 cold computations, and every one of the
#    48 submitted requests is answered by a computation, a coalesce, or a
#    cache hit.
"$SERVE" "$WORK/a.tsr" --epochs=2 --batch=8 --json="$WORK/report.json" --counters \
    > "$WORK/replay.out" 2>&1 || fail "replay failed: $(cat "$WORK/replay.out")"
"$PYTHON" - "$WORK/report.json" <<'PYEOF' || fail "replay JSON report incoherent"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == 1, doc
assert doc["requests"] == 48, doc
assert doc["computed"] == 12, doc
assert doc["computed"] + doc["coalesced"] + doc["hits"] == doc["requests"], doc
assert 0.0 <= doc["hit_rate"] <= 1.0, doc
assert doc["qps"] > 0 and doc["wall_ms"] > 0, doc
lat = doc["latency_ms"]
assert 0 <= lat["p50"] <= lat["p95"] <= lat["p99"], lat
PYEOF
# --counters prints each name once: the trace registry and the engine's obs
# document both count serve/requests, but only one line may carry it.
[ "$(grep -c '^serve/requests = 48$' "$WORK/replay.out")" -eq 1 ] \
    || fail "--counters did not print 'serve/requests = 48' exactly once"
DUPES="$(grep ' = ' "$WORK/replay.out" | cut -d' ' -f1 | sort | uniq -d)"
[ -z "$DUPES" ] || fail "--counters printed these names more than once: $DUPES"

# 4. Cache-off serving computes every request cold.
"$SERVE" "$WORK/a.tsr" --cache=off --json="$WORK/off.json" \
    > /dev/null 2>&1 || fail "cache-off replay failed"
"$PYTHON" - "$WORK/off.json" <<'PYEOF' || fail "cache-off report incoherent"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["requests"] == 24, doc
assert doc["computed"] == 24, doc
assert doc["hits"] == 0 and doc["coalesced"] == 0, doc
assert doc["hit_rate"] == 0.0, doc
PYEOF

# 5. Overload replay: bounded admission with drop-oldest must shed, the JSON
#    report's outcome tallies must balance against the request count, and a
#    generous deadline must not time anything out.  One worker, cold cache,
#    and a single 24-wide batch: the submit loop (a fingerprint hash per
#    request) is several times faster than one n=400 HEFT computation, so the
#    2+2 budget overflows regardless of machine speed.
GEN="--requests=24 --repeat-frac=0.5 --n=400 --procs=4 --algos=heft"
"$SERVE" --gen="$WORK/storm.tsr" $GEN --seed=7 > /dev/null || fail "storm --gen failed"
"$SERVE" "$WORK/storm.tsr" --threads=1 --batch=24 --cache=off \
    --max-inflight=2 --max-pending=2 \
    --shed-policy=drop-oldest --deadline-ms=5000 --json="$WORK/overload.json" \
    > "$WORK/overload.out" 2>&1 \
    || fail "overload replay failed: $(cat "$WORK/overload.out")"
grep -q "policy=drop-oldest" "$WORK/overload.out" || fail "overload line missing"
"$PYTHON" - "$WORK/overload.json" <<'PYEOF' || fail "overload JSON report incoherent"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
out = doc["outcomes"]
total = out["ok"] + out["shed"] + out["degraded"] + out["timed_out"] + out["draining"]
assert total == doc["requests"] == 24, doc
assert out["shed"] > 0, out           # 2+2 budget under a cold 24-burst must shed
assert out["timed_out"] == 0, out     # 5 s deadline is never blown here
assert doc["shed_policy"] == "drop-oldest", doc
# shed_rate is serialized with 6 decimals, so compare at that precision
assert abs(doc["shed_rate"] - out["shed"] / doc["requests"]) < 1e-6, doc
assert doc["deadline_hit_rate"] == 0.0, doc
PYEOF

# 6. The TS07xx config lints fire on nonsense knobs (warnings only: the
#    replay itself still runs) and stay quiet on a sane bounded config.
"$SERVE" "$WORK/storm.tsr" --max-pending=4 --drain-timeout-ms=-1 \
    > /dev/null 2> "$WORK/lint.err" || fail "lint-warned replay exited nonzero"
grep -q "TS0701" "$WORK/lint.err" || fail "TS0701 (unreachable pending queue) not raised"
grep -q "TS0705" "$WORK/lint.err" || fail "TS0705 (bad drain timeout) not raised"
"$SERVE" "$WORK/storm.tsr" --max-inflight=2 --max-pending=2 \
    > /dev/null 2> "$WORK/clean.err" || fail "bounded replay exited nonzero"
grep -q "TS07" "$WORK/clean.err" && fail "sane bounded config raised a TS07xx lint"

# 7. A missing trace file is a usage error (exit 2), not a crash.
"$SERVE" "$WORK/does_not_exist.tsr" > /dev/null 2>&1
[ $? -eq 2 ] || fail "missing trace file did not exit 2"

echo "serve_smoke: OK"
