#!/usr/bin/env bash
# Acceptance smoke for the serving overload layer.  The chaos battery
# (bench_serve --chaos) prints no timings, so its entire output — gate-burst
# outcome sequences, the deadline cascade, the fault-storm tallies, and the
# drain-under-fire report — must be byte-identical across reruns AND across
# pool widths; any diff means an admission or waiter-resolution decision
# leaked a dependence on thread interleaving.  The tsched_serve overload
# flags must then produce a replay whose outcome accounting balances, and
# the TS07xx config lints must fire on nonsense knob combinations.
#
# usage: serve_chaos_smoke.sh path/to/bench_serve path/to/tsched_serve [python3]
set -u

BENCH="${1:?usage: serve_chaos_smoke.sh path/to/bench_serve path/to/tsched_serve [python3]}"
SERVE="${2:?usage: serve_chaos_smoke.sh path/to/bench_serve path/to/tsched_serve [python3]}"
PYTHON="${3:-python3}"
# cwd-safe: absolutize the binary paths before leaving the caller's directory
# (try the caller's cwd first, then the repo root), then run from the repo
# root so the script behaves identically no matter where it was launched.
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
for var in BENCH SERVE; do
    eval "bin=\$$var"
    case "$bin" in
        /*) ;;
        *) if [ -x "$bin" ]; then eval "$var=\"$(pwd)/$bin\""; else eval "$var=\"$ROOT/$bin\""; fi ;;
    esac
done
cd "$ROOT" || exit 1
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "serve_chaos_smoke: FAIL: $*" >&2
    exit 1
}

CHAOS="--chaos --requests=24 --n=60 --algo=heft --seed=2007"

# 1. The battery passes, and a rerun with identical flags is byte-identical.
"$BENCH" $CHAOS --threads=4 > "$WORK/run_a.out" 2>&1 \
    || fail "chaos battery failed: $(cat "$WORK/run_a.out")"
grep -q "chaos: OK" "$WORK/run_a.out" || fail "battery did not print 'chaos: OK'"
"$BENCH" $CHAOS --threads=4 > "$WORK/run_b.out" 2>&1 || fail "chaos rerun failed"
diff -u "$WORK/run_a.out" "$WORK/run_b.out" > /dev/null \
    || fail "chaos output differs between identical reruns"

# 2. Pool-width independence: the gated stalls freeze the world, so admission
#    decisions are a pure function of submission order — a 2-wide and an
#    8-wide pool must retire the exact same outcome sequences.
"$BENCH" $CHAOS --threads=2 > "$WORK/run_narrow.out" 2>&1 || fail "narrow-pool run failed"
"$BENCH" $CHAOS --threads=8 > "$WORK/run_wide.out" 2>&1 || fail "wide-pool run failed"
diff -u "$WORK/run_narrow.out" "$WORK/run_wide.out" > /dev/null \
    || fail "chaos output depends on pool width (2 vs 8 threads)"
diff -u "$WORK/run_a.out" "$WORK/run_narrow.out" > /dev/null \
    || fail "chaos output depends on pool width (4 vs 2 threads)"

# 3. A different seed reshuffles the fault storm (the battery is seeded, not
#    hardwired) while the seed-independent gate bursts keep their sequences.
"$BENCH" --chaos --requests=24 --n=60 --algo=heft --seed=9001 --threads=4 \
    > "$WORK/run_seed.out" 2>&1 || fail "reseeded chaos run failed"
grep -q "chaos: OK" "$WORK/run_seed.out" || fail "reseeded battery did not pass"
diff -u "$WORK/run_a.out" "$WORK/run_seed.out" > /dev/null \
    && fail "different chaos seeds produced identical fault storms"
grep -q "ok ok ok ok ok ok ok ok shed" "$WORK/run_seed.out" \
    || fail "reseeded battery lost the reject-new burst sequence"

# 4. The accounting gate rides along: every admitted request resolves to
#    exactly one outcome (checks 1-7, including the gate bursts and the
#    fault-storm identity ok+shed+degraded+timed_out+draining+failed == N).
"$BENCH" --check --requests=48 --n=60 --algo=heft > "$WORK/check.out" 2>&1 \
    || fail "bench_serve --check failed: $(cat "$WORK/check.out")"

# 5. CLI overload replay: bounded admission with drop-oldest must shed, the
#    JSON report's outcome tallies must balance against the request count,
#    and a generous deadline must not time anything out.  One worker, cold
#    cache, and a single 24-wide batch: the submit loop (a fingerprint hash
#    per request) is several times faster than one n=400 HEFT computation,
#    so the 2+2 budget overflows regardless of machine speed.
GEN="--requests=24 --repeat-frac=0.5 --n=400 --procs=4 --algos=heft"
"$SERVE" --gen="$WORK/storm.tsr" $GEN --seed=7 > /dev/null || fail "--gen failed"
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

# 6. The TS07xx config lints fire on nonsense knobs (warnings only — the
#    replay itself still runs) and stay quiet on a sane bounded config.
"$SERVE" "$WORK/storm.tsr" --max-pending=4 --drain-timeout-ms=-1 \
    > /dev/null 2> "$WORK/lint.err" || fail "lint-warned replay exited nonzero"
grep -q "TS0701" "$WORK/lint.err" || fail "TS0701 (unreachable pending queue) not raised"
grep -q "TS0705" "$WORK/lint.err" || fail "TS0705 (bad drain timeout) not raised"
"$SERVE" "$WORK/storm.tsr" --max-inflight=2 --max-pending=2 \
    > /dev/null 2> "$WORK/clean.err" || fail "bounded replay exited nonzero"
grep -q "TS07" "$WORK/clean.err" && fail "sane bounded config raised a TS07xx lint"

echo "serve_chaos_smoke: OK"
