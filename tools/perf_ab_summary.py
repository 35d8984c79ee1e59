#!/usr/bin/env python3
"""Summarize alternating parent/change perfbench pairs.

usage: perf_ab_summary.py RESULTS [--benchmark BENCHMARK.json]

RESULTS holds one line per run, `PAIR SIDE JSON`, where SIDE is `parent` or
`change` and JSON is the perfbench result line (the last stdout line of
perfbench/run.py); other lines are ignored, so the saved output of
tools/perf_ab.sh can be fed back in.  For every metric both sides report, it
prints each side's median and quartiles, the pairs the change wins (by the
metric's `better` direction in BENCHMARK.json; ties count for neither), and
two verdicts:

  gain   "met" when the change wins at least 9/10 of the pairs that carry
         the metric and the medians differ, in its favour, by more than the
         parent's interquartile range; otherwise "-".
  bound  end-to-end metrics only: "unresolved" when the parent's own
         spread (IQR) is wider than the benchmark's relative bound, unless
         every change run is better than every parent run; otherwise "ok"
         when the change's median is no worse than the parent's by more
         than the bound, and "WORSE" when it is.

Exit status: 0 after printing, 2 on unreadable input.
"""

import argparse
import json
import os
import re
import statistics
import sys

LINE = re.compile(r"^\s*(\d+)\s+(parent|change)\s+(\{.*\})\s*$")
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) of a non-empty list, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def load_runs(path):
    runs = {}  # (pair, side) -> metrics {name: value}
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = LINE.match(line)
            if not m:
                continue
            result = json.loads(m.group(3))
            metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()
                       if isinstance(v, dict) and isinstance(v.get("value"), (int, float))}
            runs[(int(m.group(1)), m.group(2))] = metrics
    return runs


def load_spec(path):
    """name -> (better, bound or None) from BENCHMARK.json."""
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    out = {}
    for entry in spec.get("per_layer", []):
        out[entry["name"]] = (entry.get("better", "higher"), None)
    for entry in spec.get("end_to_end", []):
        out[entry["name"]] = (entry.get("better", "higher"), entry.get("bound"))
    return out


def summarize(runs, spec):
    """One dict per metric present on both sides, in spec order then by name."""
    pairs = sorted({p for p, _ in runs})
    names = set()
    for metrics in runs.values():
        names.update(metrics)
    ordered = [n for n in spec if n in names] + sorted(n for n in names if n not in spec)
    rows = []
    for name in ordered:
        better, bound = spec.get(name, ("higher", None))
        sign = 1.0 if better == "higher" else -1.0
        parent, change, wins, counted = [], [], 0, 0
        for p in pairs:
            a = runs.get((p, "parent"), {}).get(name)
            b = runs.get((p, "change"), {}).get(name)
            if a is not None:
                parent.append(a)
            if b is not None:
                change.append(b)
            if a is not None and b is not None:
                counted += 1
                if sign * (b - a) > 0:
                    wins += 1
        if not parent or not change:
            continue
        pq, cq = quartiles(parent), quartiles(change)
        iqr = pq[2] - pq[0]
        gap = sign * (cq[1] - pq[1])  # > 0: the change's median is better
        gain = counted > 0 and wins >= WIN_SHARE * counted and gap > iqr
        verdict = None
        if bound is not None:
            allowed = bound * abs(pq[1])
            if sign > 0:
                separated = min(change) > max(parent)
            else:
                separated = max(change) < min(parent)
            if iqr > allowed and not separated:
                verdict = "unresolved"
            elif -gap <= allowed:
                verdict = "ok"
            else:
                verdict = "WORSE"
        rows.append({"name": name, "parent": pq, "change": cq, "wins": wins,
                     "pairs": counted, "gain": gain, "bound": verdict,
                     "rel": (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0})
    return rows


def fmt(x):
    return f"{x:.6g}"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results")
    parser.add_argument("--benchmark", default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    try:
        runs = load_runs(args.results)
        spec = load_spec(args.benchmark)
    except (OSError, ValueError) as e:
        print(f"perf_ab_summary: {e}", file=sys.stderr)
        return 2
    rows = summarize(runs, spec)
    print("| metric | parent median [q1, q3] | change median [q1, q3] | change | wins | gain | bound |")
    print("|---|---|---|---|---|---|---|")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"| {r['name']} | {fmt(p[1])} [{fmt(p[0])}, {fmt(p[2])}] "
              f"| {fmt(c[1])} [{fmt(c[0])}, {fmt(c[2])}] | {r['rel'] * 100:+.1f}% "
              f"| {r['wins']}/{r['pairs']} | {'met' if r['gain'] else '-'} "
              f"| {r['bound'] or ''} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
