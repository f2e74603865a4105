#!/usr/bin/env python3
"""Throughput ratchet for the batched what-if hot path.

Compares a freshly written BENCH_*.json (argv[1]) against a committed
baseline (argv[2], see bench/baselines/). One gate:

  * whatif_pairs_per_sec -- single-thread cold-sweep throughput of the
    shared bench probe. Must stay above baseline * tolerance; the band
    absorbs run-to-run noise, the committed number only ever ratchets up.

concurrent_callers_4_vs_1 (four quarter-sweeps from 4 lanes over 1 lane on
one shared optimizer) is printed when present but never gated.

Exits nonzero with a diagnostic when the gate fails.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <bench_report.json> <baseline.json>",
              file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        report = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    measured = report["metrics"]
    floors = baseline["metrics"]
    tolerance = float(baseline.get("tolerance", 0.8))

    pps = float(measured["whatif_pairs_per_sec"])
    pps_floor = float(floors["whatif_pairs_per_sec"]) * tolerance
    print(f"    whatif_pairs_per_sec: {pps:,.0f}"
          f" (floor {pps_floor:,.0f} = {floors['whatif_pairs_per_sec']:,.0f}"
          f" x {tolerance})")
    if "concurrent_callers_4_vs_1" in measured:
        print(f"    concurrent_callers_4_vs_1:"
              f" {float(measured['concurrent_callers_4_vs_1']):.2f}"
              f" (report only)")

    if pps < pps_floor:
        print(f"error: perf gate: whatif_pairs_per_sec {pps:,.0f} below"
              f" floor {pps_floor:,.0f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
