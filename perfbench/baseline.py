#!/usr/bin/env python3
"""Measure the benchmark's baseline: every workload, several seeds.

    python3 perfbench/baseline.py [--runs 10] [--seconds 30] [--out perfbench/baseline.json]

Runs `perfbench/run.py --trace 0` once per seed 1..runs for each workload in
BENCHMARK.json, one run at a time, and writes every metric's values with
their median, quartiles (statistics.quantiles(values, n=4)) and spread (the
interquartile range as a share of the median) to --out.  It also prints the
same summary as a Markdown table.  A run that fails stops the script.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(1, args.runs + 1):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if run.returncode != 0:
                sys.exit("baseline: %s seed %d failed:\n%s" % (workload, seed, run.stdout))
            result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d done" % (workload, seed), file=sys.stderr, flush=True)
        report["workloads"][workload] = {name: summarize(v) for name, v in values.items()}

    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in report["workloads"].items():
        for name, s in metrics.items():
            print("| %s | `%s` | %.5g | %.5g | %.5g | %.3f | %.2f |"
                  % (workload, name, s["median"], s["q1"], s["q3"], s["spread"], bounds[name]))


if __name__ == "__main__":
    main()
