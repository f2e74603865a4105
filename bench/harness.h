#ifndef TRAP_BENCH_HARNESS_H_
#define TRAP_BENCH_HARNESS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "assess/assess.h"
#include "catalog/datasets.h"
#include "gbdt/utility_model.h"
#include "trap/perturber.h"
#include "workload/generator.h"

namespace trap::bench {

// Shared experiment environment for the figure/table benches. Scales are
// miniature (sized to finish in minutes on a few CPU cores; the paper used a
// 24-core Xeon + GPU over days) — the benches reproduce the *shape* of each
// result, not the absolute numbers; see EXPERIMENTS.md.
struct BenchEnv {
  explicit BenchEnv(catalog::Schema schema_in, uint64_t seed = 0xbe7c,
                    int pool_size = 60, int num_training = 10,
                    int num_tests = 6, int workload_size = 5);

  catalog::Schema schema;
  sql::Vocabulary vocab;
  engine::WhatIfOptimizer optimizer;
  engine::TrueCostModel truth;
  std::vector<sql::Query> pool;
  std::vector<workload::Workload> training;
  std::vector<workload::Workload> tests;
  gbdt::LearnedUtilityModel utility;
  advisor::RobustnessEvaluator evaluator;

  advisor::TuningConstraint StorageConstraint(double fraction = 0.5) const;
  advisor::TuningConstraint CountConstraint(int n) const;
  // The constraint a Table III row is trained and assessed under:
  // StorageConstraint() or CountConstraint(4).
  advisor::TuningConstraint ConstraintFor(advisor::ConstraintKind kind) const;
  // The engine state an assess::Assess call over this environment reads.
  assess::Substrate substrate() const;
};

// Builds the advisor of a Table III row; a trainable one is trained on
// env.training under env.ConstraintFor(row.constraint) first.
std::unique_ptr<advisor::IndexAdvisor> MakeVictim(
    BenchEnv& env, const advisor::AdvisorSpec& row,
    const advisor::RegistryOptions& options);

// Default generator configuration for a method at bench scale.
::trap::trap::GeneratorConfig BenchGeneratorConfig(
    ::trap::trap::GenerationMethod method,
    ::trap::trap::PerturbationConstraint constraint, int epsilon,
    uint64_t seed);

// Prints a section header so the bench output reads like the paper's tables.
void PrintHeader(const std::string& title);

// Prints one table cell: " " then `value` as %.4f right-aligned in `width`
// columns, or "n/a" when there is no value (no eligible workload is no
// data, not zero degradation).
void PrintCell(std::optional<double> value, int width);

// Command-line knobs shared by the bench binaries. `--repeat=N` selects
// median-of-N timing for the throughput probes; `--min-iters=N` folds N
// back-to-back runs into each timed repeat so sub-millisecond probes
// measure above clock granularity.
struct BenchOptions {
  int repeat = 3;
  int min_iters = 1;
};

// Parses and REMOVES --repeat=N / --min-iters=N from argv (compacting it in
// place and updating *argc), so the remaining flags can be handed on to
// google-benchmark's Initialize without tripping its unknown-flag check.
BenchOptions ParseBenchOptions(int* argc, char** argv);

// Times fn() `opt.repeat` times — each repeat runs fn `opt.min_iters` times
// back to back — and returns the median per-call seconds. Median-of-N is
// robust to the one-off stalls (page faults, scheduler preemption) that
// poison a single-shot timing on a shared machine.
double MedianSeconds(const BenchOptions& opt, const std::function<void()>& fn);

class BenchReport;

// Cold-cache what-if throughput probe shared by every bench that writes a
// BENCH_*.json: one fixed TPC-H 64-query x per-column candidate sweep,
// median-of-N timed. Records `whatif_pairs_per_sec` (the sweep on the
// calling thread, gated by scripts/perf_gate.py) and the report-only
// `concurrent_callers_4_vs_1` (four disjoint quarter-sweeps on one shared
// optimizer from a 4-lane pool, over the same from a 1-lane pool) into
// `report`. The probe's workload is fixed (it does not depend on the
// calling bench's dataset or TRAP_THREADS), so the recorded numbers are
// comparable across benches and the metric deltas it adds to the global
// registry stay deterministic.
void RecordWhatIfThroughput(BenchReport* report, const BenchOptions& opt = {});

// Per-phase wall-clock + thread-count recorder. Benches time their phases
// through this and write a BENCH_<name>.json next to the binary's working
// directory so successive runs capture the perf trajectory (threads used,
// seconds per phase, derived metrics such as what-if throughput).
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  // Times fn() and records it under `phase`; returns elapsed seconds.
  double TimePhase(const std::string& phase, const std::function<void()>& fn);
  // Records an externally measured phase duration.
  void RecordPhase(const std::string& phase, double seconds);
  // Records a scalar metric (speedups, costs, counters).
  void RecordMetric(const std::string& key, double value);
  // Records an advisor failure survived by the evaluation runtime; appears
  // in the report's "failures" JSON array.
  void RecordFailure(const advisor::FailureRecord& failure);

  int threads() const { return threads_; }
  const std::vector<advisor::FailureRecord>& failures() const {
    return failures_;
  }

  // Writes BENCH_<name>.json into the current directory and returns the
  // path written. The write is crash-safe: the report lands in
  // BENCH_<name>.json.tmp first and is renamed into place, so a reader (or
  // a crash mid-write) never observes a torn report.
  std::string Write() const;

 private:
  struct Phase {
    std::string name;
    double seconds = 0.0;
  };
  std::string name_;
  int threads_;
  std::vector<Phase> phases_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<advisor::FailureRecord> failures_;
};

}  // namespace trap::bench

#endif  // TRAP_BENCH_HARNESS_H_
