#!/usr/bin/env python3
"""Build and run the tsched benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload offline-bign|wire-cold|wire-hot \
        --seed N --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the libraries from src/ plus the benchmark
binary) into .bench_build/perfbench, then runs one workload.  Everything the
binary prints is passed through; its last line is the JSON result.  Before
passing it on, this script checks that the reported metric names and units
are exactly those listed in BENCHMARK.json for the mode (end_to_end for
--trace 0, per_layer for --trace 1).  Exits nonzero when the sources are
missing or the build fails (before any result line), when the run fails a
correctness check (its result line then reads "correct": false), or when the
names do not match.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("tsched sources (src/) not found next to perfbench/; nothing to build")
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "tsched_perfbench")


def check_names(result, spec, trace):
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail("metrics do not match BENCHMARK.json: missing %s, unlisted %s, unit mismatch %s"
             % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)  # subprocess.run killed and reaped it
    if run.returncode != 0:
        # A failed correctness check still prints its "correct": false line.
        sys.stdout.write(run.stdout)
        print("perfbench: benchmark binary exited with %d" % run.returncode, file=sys.stderr)
        sys.exit(run.returncode)
    result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
    check_names(result, spec, args.trace == 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
