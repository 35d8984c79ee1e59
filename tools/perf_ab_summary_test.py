#!/usr/bin/env python3
"""Self-test of tools/perf_ab_summary.py over canned result lines.

usage: perf_ab_summary_test.py   (exit 0 when every expectation holds)
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SUMMARY = os.path.join(HERE, "perf_ab_summary.py")

SPEC = {
    "end_to_end": [
        {"name": "tasks_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.2},
        {"name": "mean_slr", "better": "lower", "bound": 0.1},
        {"name": "ok_share", "better": "higher", "bound": 0.01},
        {"name": "wide", "better": "higher", "bound": 0.01},
    ],
    "per_layer": [{"name": "sched.eft_evals_per_task", "better": "lower"}],
}


def result(metrics):
    return json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}})


def canned_lines():
    lines = ["perfbench notes are ignored", "0 parent not-json-is-ignored"]
    for i in range(10):
        parent = {
            # Claimed gain: the change wins every pair by far more than the
            # parent's spread.
            "tasks_per_s": 100.0 + i,
            # 50% slower with a tight parent spread: beyond the 25% bound.
            "setup_s": 1.0 + 0.01 * i,
            # Identical values: ties win nothing and stay within the bound.
            "peak_rss_mb": 50.0,
            # Better in only 8 of 10 pairs: no gain claim.
            "mean_slr": 2.0,
            # 30% worse, but the parent's own runs spread over 0.5..1.5,
            # wider than the 1% bound: the runs cannot tell.
            "ok_share": 0.5 + 0.1 * i + (0.05 if i >= 5 else 0.0),
            # Better in every pair, but by less than the parent's IQR.
            "sched.eft_evals_per_task": 10.0 + i,
            # Spread far wider than the bound, but every change run beats
            # every parent run: resolved.
            "wide": 100.0 + 10.0 * i,
        }
        change = {
            "tasks_per_s": 140.0 + i,
            "setup_s": 1.5 + 0.01 * i,
            "peak_rss_mb": 50.0,
            "mean_slr": 1.9 if i < 8 else 2.1,
            "ok_share": parent["ok_share"] * 0.7,
            "sched.eft_evals_per_task": 9.5 + i,
            "wide": 300.0 + 10.0 * i,
        }
        first, second = (("parent", parent), ("change", change))
        if i % 2 == 1:
            first, second = second, first
        lines.append(f"{i} {first[0]} {result(first[1])}")
        lines.append(f"{i} {second[0]} {result(second[1])}")
    return lines


def main():
    with tempfile.TemporaryDirectory() as tmp:
        results = os.path.join(tmp, "results.txt")
        spec = os.path.join(tmp, "BENCHMARK.json")
        with open(results, "w", encoding="utf-8") as f:
            f.write("\n".join(canned_lines()) + "\n")
        with open(spec, "w", encoding="utf-8") as f:
            json.dump(SPEC, f)
        out = subprocess.run([sys.executable, SUMMARY, results, "--benchmark", spec],
                             check=True, capture_output=True, text=True).stdout
    rows = {}
    for line in out.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 7 and cells[0] not in ("metric", "---"):
            rows[cells[0]] = cells
    expected = {
        # name: (wins, gain, bound)
        "tasks_per_s": ("10/10", "met", "ok"),
        "setup_s": ("0/10", "-", "WORSE"),
        "peak_rss_mb": ("0/10", "-", "ok"),
        "mean_slr": ("8/10", "-", "ok"),
        "ok_share": ("0/10", "-", "unresolved"),
        "sched.eft_evals_per_task": ("10/10", "-", ""),
        "wide": ("10/10", "met", "ok"),
    }
    failures = []
    for name, (wins, gain, bound) in expected.items():
        row = rows.get(name)
        if row is None:
            failures.append(f"{name}: missing from the summary")
        elif (row[4], row[5], row[6]) != (wins, gain, bound):
            failures.append(f"{name}: got wins/gain/bound {row[4:]}, "
                            f"want {[wins, gain, bound]}")
    if rows.get("tasks_per_s", [""] * 3)[1] != "104.5 [102.25, 106.75]":
        failures.append(f"tasks_per_s parent quartiles: {rows.get('tasks_per_s')}")
    if failures:
        print(out)
        print("\n".join(failures))
        return 1
    print(f"perf_ab_summary: {len(expected)} canned metrics summarized as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
