#!/usr/bin/env bash
# CI gate for the TRAP tree. Runs, in order:
#   0. A fast-fail lint stage: builds only the trap_lint target and runs
#      the whole-project analysis (include-graph layering against
#      tools/lint/layers.txt, include cycles, Status-discipline,
#      determinism, and the per-file rule catalog -- restricted-api among
#      it, which keeps concrete advisor construction inside src/advisor/)
#      over src/ tests/ bench/ examples/ tools/ before any full build
#      spends minutes compiling.
#      Also diffs the NOLINT suppression inventory against the committed
#      tools/lint/nolint_baseline.txt so a new escape hatch cannot land
#      without showing up in review.
#   1. Release build with TRAP_WERROR=ON (-Wall -Wextra -Wshadow -Werror)
#      and the full test suite -- which includes the lint_src entry, so
#      trap_lint runs over src/ tests/ bench/ examples/ tools/ here, and the
#      golden.* rows of tests/golden/digests.txt: the fault campaign, trace,
#      drift and serve scenarios, each at TRAP_THREADS=1/4/8, with stdout
#      compared byte for byte against the committed .out files. Stages 2
#      and 3 run the same rows under their sanitizers.
#   2. The same suite under TSan (TRAP_SANITIZE=thread) at TRAP_THREADS=4,
#      vetting concurrent callers on shared state: the what-if caches and
#      counters, snapshot publishes, metrics and trace sinks.
#   3. The same suite under ASan+UBSan (TRAP_SANITIZE=address,undefined)
#      with sanitizer recovery disabled, so any UB aborts the run.
#   4. A smoke-fuzz stage per build flavor: trap_fuzz sweeps all thirteen
#      oracle families at a fixed seed (smaller case counts under sanitizers
#      so the stage stays near 30 seconds end to end), then replays the
#      committed regression corpus.
#   5. A perf-gate stage (plain flavor only; sanitizers skew timings):
#      bench_engine_micro's shared what-if throughput probe, compared
#      against bench/baselines/engine_micro_baseline.json by
#      scripts/perf_gate.py. Single-thread whatif_pairs_per_sec must stay
#      inside the baseline's tolerance band; concurrent_callers_4_vs_1 is
#      printed, not gated.
#   6. A perfbench stage (plain flavor only): perfbench/selftest.py builds
#      the frozen end-to-end benchmark from src/ into build-check/perfbench
#      and runs every workload at reduced scale, so a src/ change that
#      breaks the benchmark's build or its output checks fails here.
#   7. An exemption audit: the property-testing trees (src/testing,
#      tools/fuzz) must lint clean without a single NOLINT escape hatch.
#   8. A clang-format check on src/ tests/ bench/ tools/ (skipped with a
#      notice when clang-format is not installed; the lint_fixtures tree is
#      excluded -- its files exist to be lexed, not formatted).
#
# Usage: scripts/check.sh [jobs]    (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_suite() {
  local dir="$1"
  local fuzz_cases="$2"
  shift 2
  echo "==> configure ${dir}: $*"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  echo "==> build ${dir}"
  cmake --build "${dir}" -j "${JOBS}"
  echo "==> ctest ${dir}"
  (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
  echo "==> smoke fuzz ${dir} (${fuzz_cases} cases, seed 1)"
  "${dir}/tools/fuzz/trap_fuzz" --cases "${fuzz_cases}" --seed 1
  "${dir}/tools/fuzz/trap_fuzz" --replay tests/corpus
}

# Runs the shared what-if throughput probe (median of 5, microbenches
# filtered out) and ratchets the result against the committed baseline.
perf_gate_stage() {
  local dir="$1"
  echo "==> perf gate ${dir}"
  (cd "${dir}/bench" &&
    ./bench_engine_micro --repeat=5 \
      --benchmark_filter='^$' > /dev/null)
  python3 scripts/perf_gate.py "${dir}/bench/BENCH_engine_micro.json" \
    bench/baselines/engine_micro_baseline.json
}

# Builds the end-to-end benchmark (its own CMake package over src/) and runs
# its reduced-scale self-test: thread-count and proxy digest equality plus
# the traced runs' output checks.
perfbench_stage() {
  local dir="$1"
  echo "==> perfbench selftest ${dir}/perfbench"
  CARGO_TARGET_DIR="${dir}/perfbench" python3 perfbench/selftest.py
}

# Fast fail: build just the linter (in the plain flavor's build dir, so the
# configure work is reused by run_suite below) and run the whole-project
# analysis plus the suppression-baseline diff before the first full build.
lint_stage() {
  local dir="$1"
  echo "==> configure ${dir} (lint fast-fail)"
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=Release -DTRAP_WERROR=ON
  echo "==> build trap_lint"
  cmake --build "${dir}" -j "${JOBS}" --target trap_lint
  echo "==> trap_lint src tests bench examples tools"
  "${dir}/tools/lint/trap_lint" --root . src tests bench examples tools
  echo "==> NOLINT baseline diff"
  "${dir}/tools/lint/trap_lint" --root . --list-suppressions \
      src tests bench examples tools > "${dir}/nolint_inventory.txt"
  if ! diff -u tools/lint/nolint_baseline.txt "${dir}/nolint_inventory.txt"
  then
    echo "error: NOLINT inventory drifted from tools/lint/nolint_baseline.txt" >&2
    echo "       review the suppressions above, then regenerate with:" >&2
    echo "       trap_lint --root . --list-suppressions src tests bench examples tools > tools/lint/nolint_baseline.txt" >&2
    exit 1
  fi
}

lint_stage build-check

run_suite build-check 2000 -DTRAP_WERROR=ON
perf_gate_stage build-check
perfbench_stage build-check

TRAP_THREADS=4 run_suite build-check-tsan 600 -DTRAP_WERROR=ON \
  -DTRAP_SANITIZE=thread

run_suite build-check-asan-ubsan 600 -DTRAP_WERROR=ON \
  -DTRAP_SANITIZE=address,undefined

echo "==> NOLINT exemption audit (src/testing, tools/fuzz)"
if grep -rn "NOLINT" src/testing tools/fuzz; then
  echo "error: property-testing trees must be lint-clean without exemptions"
  exit 1
fi

if command -v clang-format > /dev/null 2>&1; then
  echo "==> clang-format check (src tests bench tools)"
  find src tests bench tools \( -name '*.cc' -o -name '*.h' \) \
      -not -path '*/lint_fixtures/*' |
    xargs clang-format --dry-run -Werror
else
  echo "==> clang-format not installed; skipping format check"
fi

echo "All checks passed."
