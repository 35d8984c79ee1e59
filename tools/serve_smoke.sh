#!/usr/bin/env bash
# Acceptance smoke test for tsched_serve: trace generation must be
# deterministic and seed-sensitive, a replay must produce a parseable JSON
# report whose accounting adds up (computed == distinct requests, every
# request answered exactly once), cache-off serving must compute everything,
# and the --version/--help/unknown-flag contract must hold.
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

# 5. A missing trace file is a usage error (exit 2), not a crash.
"$SERVE" "$WORK/does_not_exist.tsr" > /dev/null 2>&1
[ $? -eq 2 ] || fail "missing trace file did not exit 2"

echo "serve_smoke: OK"
