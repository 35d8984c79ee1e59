#!/usr/bin/env bash
# perf_ab.sh — A/B-compare perfbench between a parent revision and this
# checkout, in alternating pairs.
#
# usage: tools/perf_ab.sh PARENT_REV WORKLOAD PAIRS [SECONDS] [FIRST_SEED]
#
# Exports PARENT_REV's committed files (git archive) and this checkout's
# working tree (HEAD plus uncommitted edits and untracked, not ignored files)
# into two temporary directories, so neither perfbench/ nor the checkout is
# touched, and builds perfbench in each with one short warm-up run.  Then it
# runs PAIRS pairs of `perfbench/run.py --workload WORKLOAD --seconds SECONDS
# --trace 0` (SECONDS defaults to 30), pair i on seed FIRST_SEED + i (default
# FIRST_SEED 1) on both sides; even pairs run the parent first, odd pairs the
# change.  Each result prints as one `PAIR SIDE JSON` line as it lands, and
# tools/perf_ab_summary.py then prints each metric's medians, quartiles,
# pair wins and verdicts (save the output to re-summarize it later).
#
# perfbench pins its threads to CPUs 0-3: run nothing else heavy meanwhile.
# Exit status: 0 after the summary, 1 when a run fails, 2 on usage errors.
set -euo pipefail

usage() {
    echo "usage: tools/perf_ab.sh PARENT_REV WORKLOAD PAIRS [SECONDS] [FIRST_SEED]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 5 ] || usage
PARENT_REV="$1"
WORKLOAD="$2"
PAIRS="$3"
SECONDS_PER_RUN="${4:-30}"
FIRST_SEED="${5:-1}"
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || usage
[[ "$FIRST_SEED" =~ ^[0-9]+$ ]] || usage

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
PYTHON=python3
git -C "$ROOT" rev-parse --verify --quiet "$PARENT_REV^{commit}" > /dev/null \
    || { echo "perf_ab: unknown revision $PARENT_REV" >&2; exit 2; }

WORK="$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/parent" "$WORK/change"
git -C "$ROOT" archive "$PARENT_REV" | tar -x -C "$WORK/parent"
(cd "$ROOT" && git ls-files -z --cached --others --exclude-standard \
    | xargs -0 tar -cf - --ignore-failed-read) | tar -x -C "$WORK/change"

run() {  # run SIDE SEED SECONDS -> the result JSON line on stdout
    local side="$1" seed="$2" secs="$3" out
    out="$(cd "$WORK/$side" && "$PYTHON" perfbench/run.py --workload "$WORKLOAD" \
        --seed "$seed" --seconds "$secs" --trace 0)" || {
        echo "perf_ab: $side run (seed $seed) failed:" >&2
        echo "$out" >&2
        exit 1
    }
    printf '%s\n' "$out" | tail -n 1
}

for side in parent change; do
    echo "# building and warming up $side" >&2
    run "$side" "$FIRST_SEED" 1 > /dev/null
done

RESULTS="$WORK/results.txt"
for ((i = 0; i < PAIRS; i++)); do
    seed=$((FIRST_SEED + i))
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        line="$i $side $(run "$side" "$seed" "$SECONDS_PER_RUN")"
        echo "$line" | tee -a "$RESULTS"
    done
done

echo
echo "perf_ab: $WORKLOAD, $PAIRS pairs of ${SECONDS_PER_RUN} s, seeds $FIRST_SEED..$((FIRST_SEED + PAIRS - 1)), parent $(git -C "$ROOT" rev-parse --short "$PARENT_REV")"
"$PYTHON" "$ROOT/tools/perf_ab_summary.py" "$RESULTS" --benchmark "$WORK/change/BENCHMARK.json"
