#!/usr/bin/env python3
"""End-to-end assessment benchmark: builds it and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the libraries under src/ it links) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs
trap_perfbench for the workload. Its report goes to standard output; the
last line is the result object, each metric given its unit from
BENCHMARK.json, the only list of metric names and units. Exits non-zero
when the build fails, the benchmark fails or times out, it prints a metric
BENCHMARK.json does not list or leaves out an end-to-end one, or an output
check fails. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def threads():
    return min(os.cpu_count() or 1, 4)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "trap_perfbench",
                  "-j", str(threads())])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "trap_perfbench")


def metric_units(trace):
    """Name -> unit of the metrics this run must print (BENCHMARK.json)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values, units, trace):
    """The result's metrics as {name: {value, unit}}, or None when the binary
    printed a name BENCHMARK.json does not list, or left out an end-to-end
    metric. A per-layer metric the workload does not run reads 0."""
    unknown = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if unknown or (missing and not trace):
        print("perfbench: metrics differ from BENCHMARK.json: unknown %s, "
              "missing %s" % (unknown, missing), file=sys.stderr)
        return None
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in sorted(units.items())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units = metric_units(args.trace)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env = dict(os.environ, TRAP_THREADS=str(threads()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", build_dir()]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    result["metrics"] = with_units(result["metrics"], units, args.trace)
    if result["metrics"] is None:
        return 1
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
