#ifndef TRAP_OBS_METRICS_H_
#define TRAP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace trap::obs {

// Deterministic, thread-safe metrics for the evaluation runtime.
//
// All counting is in *logical* units (what-if calls, greedy rounds, decode
// steps) -- never wall-clock time, per the no-wall-clock rule for src/.
// Metrics whose totals are a pure function of the logical work performed
// are registered as `deterministic` and fold into Digest(); totals are then
// bit-identical across runs and TRAP_THREADS settings whenever evaluation
// runs to completion (a cancellation fast-drain stops charging at a
// scheduling-dependent item, so expired-budget runs are exempt, exactly as
// for cost results). Counters that depend on physical scheduling (e.g. two
// threads racing to fill one cache entry) are registered best-effort and
// are exported but excluded from the digest.
//
// Counter and Histogram objects are owned by a MetricRegistry and are
// pointer-stable for the registry's lifetime (Reset() zeroes values but
// never invalidates pointers), so hot paths cache the pointer once and
// increment lock-free.

// A monotonically increasing 64-bit counter. All members are thread-safe.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricRegistry;
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::atomic<int64_t> value_{0};
};

// A histogram over non-negative step counts, bucketed by power of two:
// bucket 0 holds values <= 0, bucket i >= 1 holds values with bit width i
// (i.e. [2^(i-1), 2^i)), and the last bucket absorbs the tail. Bucketing is
// a pure function of the value, so the bucket vector of a deterministic
// histogram is itself deterministic. All members are thread-safe.
class Histogram {
 public:
  static constexpr int kNumBuckets = 24;

  void Record(int64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  static int BucketIndex(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }

 private:
  friend class MetricRegistry;
  void Reset();

  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
};

// One scalar of a registry snapshot. Histograms are flattened into
// `<name>.count` and `<name>.sum` samples so the snapshot (and the bench
// JSON built from it) is a plain ordered name -> integer map.
struct MetricSample {
  std::string name;
  int64_t value = 0;
  bool deterministic = true;
};

// Metric names follow `trap.<segment>.<segment>...` with at least three
// segments of [a-z_]+ (enforced by the metric-name-style lint rule and by
// a TRAP_CHECK at registration).
bool IsValidMetricName(std::string_view name);

// Canonicalizes an arbitrary label (e.g. an advisor name like "DB2Advis")
// into a metric-name segment: letters lowercased, every other character
// mapped to '_', consecutive '_' collapsed.
std::string MetricSegment(std::string_view label);

// Stable 64-bit hash of a string; shared by metric and trace digests.
uint64_t StringHash(std::string_view s);

// Registry of named counters and histograms.
class MetricRegistry {
 public:
  // The process-wide registry used by the instrumented hot paths.
  static MetricRegistry& Global();

  // Returns the counter/histogram registered under `name`, creating it on
  // first use. The returned pointer stays valid for the registry's
  // lifetime. `deterministic` is fixed by the first registration.
  Counter* counter(std::string_view name, bool deterministic = true);
  Histogram* histogram(std::string_view name, bool deterministic = true);

  // Zeroes every value. Pointers handed out earlier remain valid.
  void Reset();

  // All samples in name order (histograms flattened in place). A metric
  // that was never incremented still appears (with value 0) once
  // registered.
  std::vector<MetricSample> Snapshot() const;

  // Order-sensitive fold over the deterministic samples of `snapshot`.
  static uint64_t Digest(const std::vector<MetricSample>& snapshot);
  uint64_t Digest() const { return Digest(Snapshot()); }

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
    bool deterministic = true;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// Same as Global().Snapshot(); no metric is derived any more. Kept only
// because the frozen end-to-end benchmark (perfbench/) calls it -- new code
// calls MetricRegistry::Global().Snapshot().
std::vector<MetricSample> GlobalSnapshotWithDerived();

}  // namespace trap::obs

#endif  // TRAP_OBS_METRICS_H_
