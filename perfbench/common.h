#ifndef TRAP_PERFBENCH_COMMON_H_
#define TRAP_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace trap::perfbench {

// Command line of one benchmark run (see README.md).
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Reduced scale for the self-test (selftest.py); never used by the
  // measured runs.
  bool small = false;
  // Call the victims directly instead of through the counting proxy; the
  // self-test compares the assessment digest with and without it.
  bool no_proxy = false;
  // Where the traced run writes its span file.
  std::string out_dir = ".bench_build";
};

// Everything one run reports: the correctness verdict, the operation
// accounting and the named metric values. Units live in BENCHMARK.json;
// run.py attaches them and rejects an unknown name or a missing end-to-end
// one.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why) {
    if (errors.size() < 20) errors.push_back(why);
    correct = false;
  }
};

// Median of `v` (0 for an empty sample).
double Median(std::vector<double> v);

// Nearest-rank percentile `p` in [0, 100] of `v` (0 for an empty sample).
double Percentile(std::vector<double> v, double p);

// Wall and process-CPU clocks, in seconds.
double WallSeconds();
double CpuSeconds();

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace trap::perfbench

#endif  // TRAP_PERFBENCH_COMMON_H_
