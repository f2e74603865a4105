#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--repeat N]
                                [--trace 0|1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of that median -- the steadiness figure each end-to-end bound in
BENCHMARK.json is compared against. Across seeds it mixes input variation
with run-to-run noise; --seeds 1-1 --repeat 10 measures the noise alone.
Run lengths come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in [s for s in args.seeds for _ in range(args.repeat)]:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: correct=%s attempted=%d failed=%d %s" %
              (seed, result["correct"], result["attempted"], result["failed"],
               " ".join("%s=%.6g" % (name, m["value"])
                        for name, m in sorted(result["metrics"].items())
                        if name in bounds)),
              flush=True)

    print("%-40s %14s %8s %6s" % ("metric", "median", "iqr/med", "bound"))
    for name in sorted(values):
        v = values[name]
        median = statistics.median(v)
        spread = float("nan")
        if len(v) >= 2 and median != 0:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(median)
        bound = bounds.get(name)
        print("%-40s %14.6g %8.4f %6s" %
              (name, median, spread, "" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
