#ifndef TRAP_PERFBENCH_WORKLOADS_H_
#define TRAP_PERFBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"

namespace trap::perfbench {

// One repetition of a workload: a fresh set-up followed by the fixed unit of
// work (one assessment, or one serve session), each timed. Per-layer values
// are filled only when the repetition was traced.
struct Repetition {
  bool traced = false;
  double setup_s = 0.0;
  double unit_s = 0.0;     // assess_s: the timed assessment or session
  double cpu_s = 0.0;      // process CPU seconds during the unit
  int64_t whatif_calls = 0;
  uint64_t digest = 0;     // output digest; equal for every repetition
  int64_t attempted = 0;
  int64_t failed = 0;
  // Per-layer values of this repetition (traced repetitions only).
  std::map<std::string, double> layers;
};

// Runs one repetition of the named workload with `seed`; checks its outputs
// and records every violation in `result`. `rep` numbers the repetition.
using RepetitionFn = std::function<Repetition(const RunOptions& options,
                                              Tracer* tracer, int rep,
                                              RunResult* result)>;

Repetition RunAssessTrapTpch(const RunOptions& options, Tracer* tracer,
                             int rep, RunResult* result);
Repetition RunAssessRandomTpcds(const RunOptions& options, Tracer* tracer,
                                int rep, RunResult* result);
Repetition RunServeMixedTpch(const RunOptions& options, Tracer* tracer,
                             int rep, RunResult* result);

// Copies the rolled-up spans and obs counter deltas shared by every
// workload into `rep.layers`.
void FillCommonLayers(const Tracer& tracer,
                      const std::vector<obs::MetricSample>& before,
                      const std::vector<obs::MetricSample>& after,
                      Repetition* rep);

}  // namespace trap::perfbench

#endif  // TRAP_PERFBENCH_WORKLOADS_H_
