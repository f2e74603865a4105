#include "obs/metrics.h"

#include <bit>

#include "common/check.h"
#include "common/rng.h"

namespace trap::obs {

int Histogram::BucketIndex(int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(value));
  return width < kNumBuckets ? width : kNumBuckets - 1;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

bool IsValidMetricName(std::string_view name) {
  // trap\.[a-z_]+(\.[a-z_]+)+ -- at least three segments, first "trap".
  size_t pos = 0;
  int segments = 0;
  while (pos <= name.size()) {
    size_t dot = name.find('.', pos);
    std::string_view seg = name.substr(
        pos, dot == std::string_view::npos ? std::string_view::npos
                                           : dot - pos);
    if (seg.empty()) return false;
    if (segments == 0) {
      if (seg != "trap") return false;
    } else {
      for (char c : seg) {
        if (!((c >= 'a' && c <= 'z') || c == '_')) return false;
      }
    }
    ++segments;
    if (dot == std::string_view::npos) break;
    pos = dot + 1;
  }
  return segments >= 3;
}

std::string MetricSegment(std::string_view label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else if (c >= 'a' && c <= 'z') {
      out.push_back(c);
    } else if (out.empty() || out.back() != '_') {
      out.push_back('_');
    }
  }
  if (out.empty()) out.push_back('_');
  return out;
}

uint64_t StringHash(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h = common::HashCombine(h, static_cast<uint64_t>(
                                   static_cast<unsigned char>(c)));
  }
  return common::HashCombine(h, s.size());
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry;
  return *registry;
}

Counter* MetricRegistry::counter(std::string_view name, bool deterministic) {
  TRAP_CHECK_MSG(IsValidMetricName(name), "invalid metric name");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.counter = std::make_unique<Counter>();
    entry.deterministic = deterministic;
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  TRAP_CHECK_MSG(it->second.counter != nullptr,
                 "metric registered as a histogram");
  return it->second.counter.get();
}

Histogram* MetricRegistry::histogram(std::string_view name,
                                     bool deterministic) {
  TRAP_CHECK_MSG(IsValidMetricName(name), "invalid metric name");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.histogram = std::make_unique<Histogram>();
    entry.deterministic = deterministic;
    it = entries_.emplace(std::string(name), std::move(entry)).first;
  }
  TRAP_CHECK_MSG(it->second.histogram != nullptr,
                 "metric registered as a counter");
  return it->second.histogram.get();
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) entry.counter->Reset();
    if (entry.histogram != nullptr) entry.histogram->Reset();
  }
}

std::vector<MetricSample> MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size() * 2);
  for (const auto& [name, entry] : entries_) {
    if (entry.counter != nullptr) {
      out.push_back({name, entry.counter->value(), entry.deterministic});
    } else {
      out.push_back(
          {name + ".count", entry.histogram->count(), entry.deterministic});
      out.push_back(
          {name + ".sum", entry.histogram->sum(), entry.deterministic});
    }
  }
  return out;
}

uint64_t MetricRegistry::Digest(const std::vector<MetricSample>& snapshot) {
  uint64_t h = 0x0b5e55ed;
  for (const MetricSample& s : snapshot) {
    if (!s.deterministic) continue;
    h = common::HashCombine(h, StringHash(s.name));
    h = common::HashCombine(h, static_cast<uint64_t>(s.value));
  }
  return h;
}

std::vector<MetricSample> GlobalSnapshotWithDerived() {
  return MetricRegistry::Global().Snapshot();
}

}  // namespace trap::obs
