#ifndef TRAP_TESTING_TRACE_SCENARIO_H_
#define TRAP_TESTING_TRACE_SCENARIO_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace trap::proptest {

// A small, fully deterministic end-to-end evaluation used to exercise the
// observability layer: a batched what-if sweep, one advisor recommendation
// through the retry runtime, and one random perturber pass. The same
// options produce bit-identical metric and trace digests on every run and
// for every TRAP_THREADS value — the invariant obs_test and the golden.trace
// rows assert, and the workload trap_trace replays for humans.
struct TraceScenarioOptions {
  std::string schema = "tpch";     // tpch | tpcds | transaction
  std::string advisor = "Extend";  // any advisor::AdvisorTable() row name
  std::uint64_t seed = 0x7ace;
  int pool_size = 12;              // generated query pool
  int workload_size = 4;           // queries per workload
  int sweep_columns = 8;           // single-column configs in the sweep

  // Concurrent callers for the sweep. Not owned. nullptr costs the whole
  // sweep as one batch on the calling thread; a pool splits it into one
  // batch per config, issued from the pool's lanes against the shared
  // optimizer. obs_test runs the split sweep on pools of several sizes and
  // asserts the digests match.
  common::ThreadPool* pool = nullptr;
};

// Runs the scenario with metrics and tracing attached. The global metric
// registry and `sink` are Reset() first, so the resulting digests describe
// exactly this run. Returns the first error (unknown schema/advisor name,
// or a failed evaluation step); the trace collected so far stays in `sink`.
common::Status RunTraceScenario(const TraceScenarioOptions& options,
                                obs::TraceSink* sink);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_TRACE_SCENARIO_H_
