#!/usr/bin/env python3
"""Self-test of the benchmark at reduced scale.

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload it checks, with the binary's --small scale:
  * the output digest is equal at TRAP_THREADS=1 and TRAP_THREADS=4;
  * on the assess_* workloads, the digest is equal with and without the
    victim proxy (--no-proxy), so the proxy does not change the assessment;
  * a traced run passes its output checks, and on the assess_* workloads
    its module spans cover at least 95% of the assessment (the binary
    also fails a traced run below that).
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("assess_trap_tpch", "assess_random_tpcds", "serve_mixed_tpch")


def drive(binary, workload, threads, *extra):
    command = [binary, "--workload", workload, "--seed", "3", "--seconds",
               "1", "--small", "--out-dir", run.build_dir()] + list(extra)
    if "--trace" not in extra:
        command += ["--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, TRAP_THREADS=str(threads)),
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s: benchmark failed (exit %d)" %
                         (workload, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s: output check failed:\n%s" %
                         (workload, proc.stdout))
    digest = next(l.split()[1] for l in lines if l.startswith("digest "))
    return digest, result


def main():
    binary = run.build()
    if binary is None:
        return 1
    for workload in WORKLOADS:
        one, _ = drive(binary, workload, 1)
        four, _ = drive(binary, workload, 4)
        if one != four:
            print("%s: digest differs across threads: %s vs %s" %
                  (workload, one, four))
            return 1
        if workload.startswith("assess_"):
            direct, _ = drive(binary, workload, 4, "--no-proxy")
            if direct != four:
                print("%s: digest differs without the proxy: %s vs %s" %
                      (workload, direct, four))
                return 1
        _, traced = drive(binary, workload, 4, "--trace", "1")
        coverage = traced["metrics"]["trace.coverage_frac"]
        if workload.startswith("assess_") and coverage < 0.95:
            print("%s: spans cover only %.3f of the assessment" %
                  (workload, coverage))
            return 1
        print("%s: ok (digest %s, span coverage %.4f)" %
              (workload, four, coverage))
    return 0


if __name__ == "__main__":
    sys.exit(main())
