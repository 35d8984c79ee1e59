#!/usr/bin/env bash
# End-to-end acceptance smoke for the network serving stack (DESIGN §17):
#
#   1. tsched_served binds an ephemeral loopback port (--port=0) and prints
#      the bound port; the script parses it — no fixed port, no flake.
#   2. A multi-connection replay (8 concurrent connections x pipelined
#      window) drives a .tsr request mix against the live server; the JSON
#      report must satisfy the wire accounting identity
#      ok+shed+degraded+timed_out+draining+failed == requests with zero
#      transport failures, and the order-independent schedule payload
#      digest must be identical across a rerun (byte-identical responses
#      for identical requests — the cached and recomputed answers match).
#   3. A second server at a different pool width serves the same trace; the
#      digest must match the first server's (pool width cannot change
#      response bytes).
#   4. SIGTERM drains gracefully: exit code 0, the drain summary reports
#      clean, and the request/response tallies balance.
#   5. A garbage-spewing client (raw non-frame bytes) gets the connection
#      closed while the server keeps serving real clients.
#   6. The same trace replayed in-process (no --connect) writes the same
#      report shape: both JSON documents carry the shared keys and agree on
#      requests and outcomes.ok.
#
# Every network step is wrapped in timeout(1) so a wedged server fails the
# test instead of hanging CI (ctest TIMEOUT is the backstop).
#
# usage: net_smoke.sh path/to/tsched_served path/to/tsched_serve [python3]
set -u

SERVED="${1:?usage: net_smoke.sh path/to/tsched_served path/to/tsched_serve [python3]}"
SERVE="${2:?usage: net_smoke.sh path/to/tsched_served path/to/tsched_serve [python3]}"
PYTHON="${3:-python3}"
# cwd-safe: absolutize binary paths before leaving the caller's directory
# (try the caller's cwd first, then the repo root), then run from the repo
# root so the script behaves identically no matter where it was launched.
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
for var in SERVED SERVE; do
    eval "bin=\$$var"
    case "$bin" in
        /*) ;;
        *) if [ -x "$bin" ]; then eval "$var=\"$(pwd)/$bin\""; else eval "$var=\"$ROOT/$bin\""; fi ;;
    esac
done
cd "$ROOT" || exit 1
WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "net_smoke: FAIL: $*" >&2
    [ -f "$WORK/served.err" ] && sed 's/^/net_smoke:   served stderr: /' "$WORK/served.err" >&2
    exit 1
}

# Start a server and parse its bound port into $PORT.  Args: logfile suffix,
# then extra tsched_served flags.
start_server() {
    local tag="$1"; shift
    "$SERVED" --port=0 "$@" > "$WORK/served.$tag.out" 2> "$WORK/served.err" &
    SERVER_PID=$!
    PORT=""
    for _ in $(seq 1 100); do
        PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$WORK/served.$tag.out" | head -1)"
        [ -n "$PORT" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server ($tag) died before printing its port"
        sleep 0.1
    done
    [ -n "$PORT" ] || fail "server ($tag) never printed its bound port"
}

stop_server_clean() {
    local tag="$1"
    kill -TERM "$SERVER_PID" 2>/dev/null || fail "server ($tag) gone before SIGTERM"
    local rc=0
    wait "$SERVER_PID" || rc=$?
    SERVER_PID=""
    [ "$rc" -eq 0 ] || fail "server ($tag) exit code $rc after SIGTERM (want 0 = clean drain)"
    grep -q "drained (clean)" "$WORK/served.$tag.out" || fail "server ($tag) drain not clean"
}

# --- trace: a deterministic request mix (50% repeats => cache traffic) ----
timeout 60 "$SERVE" --gen="$WORK/trace.tsr" --requests=48 --repeat-frac=0.5 \
    --n=60 --procs=4 --seed=2007 > /dev/null || fail "trace generation failed"

# --- 1+2: ephemeral port discovery, multi-client replay, identity ---------
start_server main --threads=4 --max-conns=32 --per-conn-queue=32
timeout 120 "$SERVE" "$WORK/trace.tsr" --connect=127.0.0.1:"$PORT" --conns=8 \
    --window=8 --epochs=2 --json="$WORK/replay1.json" > /dev/null \
    || fail "replay 1 failed (exit $?)"
timeout 120 "$SERVE" "$WORK/trace.tsr" --connect=127.0.0.1:"$PORT" --conns=8 \
    --window=8 --epochs=2 --json="$WORK/replay2.json" > /dev/null \
    || fail "replay 2 (rerun) failed"

# --- 5: hostile bytes must not take the server down -----------------------
timeout 30 "$PYTHON" - "$PORT" <<'PYEOF' || fail "garbage client choked"
import socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=10)
s.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n" + b"\xde\xad\xbe\xef" * 64)
s.settimeout(10)
try:
    while s.recv(4096):  # server sends a typed error frame, then closes
        pass
except OSError:
    pass  # reset is as good as close: the point is the server survives
s.close()
PYEOF

# The server must still answer real clients after the garbage.
timeout 120 "$SERVE" "$WORK/trace.tsr" --connect=127.0.0.1:"$PORT" --conns=2 \
    --window=4 --json="$WORK/replay3.json" > /dev/null \
    || fail "server stopped serving after garbage client"

# --- 4: SIGTERM => graceful drain, exit 0 ---------------------------------
stop_server_clean main

# --- 3: different pool width, digest must match ---------------------------
start_server alt --threads=2 --max-conns=32 --per-conn-queue=32
timeout 120 "$SERVE" "$WORK/trace.tsr" --connect=127.0.0.1:"$PORT" --conns=4 \
    --window=8 --epochs=2 --json="$WORK/replay4.json" > /dev/null \
    || fail "replay at pool width 2 failed"
stop_server_clean alt

# --- 6: the same trace replayed in-process (no --connect) -----------------
timeout 120 "$SERVE" "$WORK/trace.tsr" --epochs=2 --json="$WORK/inproc.json" > /dev/null \
    || fail "in-process replay failed"

# --- assertions over the JSON reports -------------------------------------
"$PYTHON" - "$WORK"/inproc.json "$WORK"/replay1.json "$WORK"/replay2.json \
    "$WORK"/replay3.json "$WORK"/replay4.json <<'PYEOF' || exit 1
import json, sys

with open(sys.argv[1]) as f:
    inproc = json.load(f)
docs = []
for path in sys.argv[2:]:
    with open(path) as f:
        docs.append(json.load(f))

def die(msg):
    print(f"net_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)

for i, doc in enumerate(docs, 1):
    o = doc["outcomes"]
    total = o["ok"] + o["shed"] + o["degraded"] + o["timed_out"] + o["draining"] + o["failed"]
    if total != doc["requests"]:
        die(f"replay{i}: accounting identity {total} != requests {doc['requests']}")
    if not doc["accounting_ok"]:
        die(f"replay{i}: accounting_ok flag is false")
    if o["failed"] != 0:
        die(f"replay{i}: {o['failed']} transport failures on healthy loopback")
    if o["ok"] != doc["requests"]:
        die(f"replay{i}: unloaded server answered {o['ok']}/{doc['requests']} ok")
    if not doc["payload_consistent"]:
        die(f"replay{i}: schedule payloads inconsistent for equal fingerprints")
    if doc["schedule_digest"] in ("0", ""):
        die(f"replay{i}: empty schedule digest")
    if doc["qps"] <= 0:
        die(f"replay{i}: nonpositive qps")

digests = {doc["schedule_digest"] for doc in docs}
if len(digests) != 1:
    die(f"schedule digest differs across reruns/pool widths: {digests}")

# Steady-state epoch 2 re-serves every distinct request from cache: the
# replay must observe a healthy number of cache hits.
if docs[0]["cache_hits"] == 0:
    die("no cache hits in a 50%-repeat x 2-epoch replay")

# Both replay modes write one report shape: the shared keys are present in
# each, and the in-process replay of the same trace x epochs tallies alike.
SHARED = {
    "": ["requests", "replies", "wall_ms", "qps", "cache_hits", "accounting_ok"],
    "latency_ms": ["mean", "p50", "p95", "p99", "p999", "max"],
    "hist_latency_ms": ["p50", "p95", "p99", "p999"],
    "outcomes": ["ok", "shed", "degraded", "timed_out", "draining", "failed"],
}
for name, doc in (("in-process", inproc), ("replay1", docs[0])):
    for section, keys in SHARED.items():
        scope = doc[section] if section else doc
        missing = [k for k in keys if k not in scope]
        if missing:
            die(f"{name}: shared keys missing from {section or 'top level'}: {missing}")
if inproc["requests"] != docs[0]["requests"]:
    die(f"in-process and wire replay disagree on requests: "
        f"{inproc['requests']} vs {docs[0]['requests']}")
if inproc["outcomes"]["ok"] != docs[0]["outcomes"]["ok"]:
    die(f"in-process and wire replay disagree on outcomes.ok: "
        f"{inproc['outcomes']['ok']} vs {docs[0]['outcomes']['ok']}")

print("net_smoke: accounting identity + digest stability over", len(docs),
      "replays ok; in-process and wire reports agree")
PYEOF
[ $? -eq 0 ] || exit 1

# Keep the replay reports as a CI artifact directory if requested.
if [ -n "${NET_SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$NET_SMOKE_ARTIFACT_DIR"
    cp "$WORK"/replay*.json "$WORK"/inproc.json "$WORK"/served.*.out \
        "$NET_SMOKE_ARTIFACT_DIR"/ 2>/dev/null
fi

echo "net_smoke: PASS"
