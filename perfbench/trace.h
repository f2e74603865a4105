#ifndef TRAP_PERFBENCH_TRACE_H_
#define TRAP_PERFBENCH_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace trap::perfbench {

// In-memory span recorder for the traced run. Spans are opened around the
// benchmark's own calls into each module's public functions (nothing inside
// src/ is instrumented). A disabled tracer records nothing and reads no
// clock, so the untraced run pays only a branch per call.
//
// Nested spans (Open/Close) must come from one thread; the benchmark makes
// every traced call from its main thread. Overlapping spans (concurrent
// serve requests) are added whole with Add.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a child of the innermost open span; returns its index, or -1
  // when disabled. `item` identifies the cell or request the span serves.
  int Open(const std::string& name, uint64_t item = 0);
  void Close(int index);

  // Records a finished span under the innermost open span.
  void Add(const std::string& name, double start_s, double end_s,
           uint64_t item);

  // Attaches the non-zero obs-registry counter deltas between two
  // snapshots to span `index`.
  void AttachCounters(int index, const std::vector<obs::MetricSample>& before,
                      const std::vector<obs::MetricSample>& after);

  struct Rollup {
    double total_s = 0.0;  // summed span durations
    double self_s = 0.0;   // durations minus the time covered by children
    int64_t count = 0;
  };
  // Per span name; self time is clamped at zero for spans whose children
  // overlap (concurrent requests).
  std::map<std::string, Rollup> RollupByName() const;

  // Fraction of span `index`'s duration covered by the union of the spans
  // below it (at any depth) whose name `counts` accepts.
  double CoveredFraction(
      int index, const std::function<bool(const std::string&)>& counts) const;

  size_t size() const { return spans_.size(); }

  // Appends every span to `path` as a Chrome trace event, one JSON object
  // per line; `pid` tags the repetition.
  bool AppendChromeEvents(const std::string& path, int pid) const;

 private:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    uint64_t item = 0;
    std::vector<std::pair<std::string, int64_t>> counters;
  };
  bool enabled_;
  double origin_s_ = -1.0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span over a Tracer; free when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t item = 0)
      : tracer_(tracer), index_(tracer->Open(name, item)) {}
  ~ScopedSpan() { tracer_->Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

// As ScopedSpan, and also attaches the obs counter deltas taken at the
// span's boundaries (only when tracing).
class CountedSpan {
 public:
  CountedSpan(Tracer* tracer, const std::string& name, uint64_t item = 0);
  ~CountedSpan();
  CountedSpan(const CountedSpan&) = delete;
  CountedSpan& operator=(const CountedSpan&) = delete;

  int index() const { return span_.index(); }

 private:
  ScopedSpan span_;
  Tracer* tracer_;
  std::vector<obs::MetricSample> before_;
};

// Value of metric `name` in a GlobalSnapshotWithDerived() snapshot (0 when
// absent), and the difference between two snapshots.
int64_t SampleValue(const std::vector<obs::MetricSample>& snapshot,
                    const std::string& name);
int64_t SampleDelta(const std::vector<obs::MetricSample>& before,
                    const std::vector<obs::MetricSample>& after,
                    const std::string& name);

}  // namespace trap::perfbench

#endif  // TRAP_PERFBENCH_TRACE_H_
