#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common.h"
#include "common/json.h"

namespace trap::perfbench {

int Tracer::Open(const std::string& name, uint64_t item) {
  if (!enabled_) return -1;
  const double now = WallSeconds();
  if (origin_s_ < 0.0) origin_s_ = now;
  Span span;
  span.name = name;
  span.start_s = now;
  span.parent = open_.empty() ? -1 : open_.back();
  span.item = item;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Close(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_s = WallSeconds();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Add(const std::string& name, double start_s, double end_s,
                 uint64_t item) {
  if (!enabled_) return;
  if (origin_s_ < 0.0) origin_s_ = start_s;
  Span span;
  span.name = name;
  span.start_s = start_s;
  span.end_s = end_s;
  span.parent = open_.empty() ? -1 : open_.back();
  span.item = item;
  spans_.push_back(std::move(span));
}

void Tracer::AttachCounters(int index,
                            const std::vector<obs::MetricSample>& before,
                            const std::vector<obs::MetricSample>& after) {
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  for (const obs::MetricSample& s : after) {
    const int64_t delta = s.value - SampleValue(before, s.name);
    if (delta != 0) span.counters.emplace_back(s.name, delta);
  }
}

std::map<std::string, Tracer::Rollup> Tracer::RollupByName() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, Rollup> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end_s - spans_[i].start_s;
    Rollup& r = out[spans_[i].name];
    r.total_s += duration;
    r.self_s += std::max(0.0, duration - child_time[i]);
    ++r.count;
  }
  return out;
}

double Tracer::CoveredFraction(
    int index, const std::function<bool(const std::string&)>& counts) const {
  if (index < 0) return 0.0;
  const Span& parent = spans_[static_cast<size_t>(index)];
  auto below = [&](const Span& s) {
    for (int p = s.parent; p >= 0; p = spans_[static_cast<size_t>(p)].parent) {
      if (p == index) return true;
    }
    return false;
  };
  std::vector<std::pair<double, double>> intervals;
  for (const Span& s : spans_) {
    if (counts(s.name) && below(s)) intervals.emplace_back(s.start_s, s.end_s);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = parent.start_s;
  for (const auto& [start, end] : intervals) {
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  const double duration = parent.end_s - parent.start_s;
  return duration > 0.0 ? covered / duration : 0.0;
}

bool Tracer::AppendChromeEvents(const std::string& path, int pid) const {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    common::JsonValue args = common::JsonValue::Object();
    args.Set("span", common::JsonValue::Number(static_cast<double>(i)));
    args.Set("parent", common::JsonValue::Number(s.parent));
    args.Set("item", common::JsonValue::Hex(s.item));
    for (const auto& [name, delta] : s.counters) {
      args.Set(name, common::JsonValue::Number(static_cast<double>(delta)));
    }
    common::JsonValue event = common::JsonValue::Object();
    event.Set("name", common::JsonValue::Str(s.name));
    event.Set("ph", common::JsonValue::Str("X"));
    event.Set("pid", common::JsonValue::Number(pid));
    event.Set("tid", common::JsonValue::Number(0));
    event.Set("ts", common::JsonValue::Number((s.start_s - origin_s_) * 1e6));
    event.Set("dur", common::JsonValue::Number((s.end_s - s.start_s) * 1e6));
    event.Set("args", std::move(args));
    std::fprintf(f, "%s\n", common::WriteJson(event).c_str());
  }
  return std::fclose(f) == 0;
}

CountedSpan::CountedSpan(Tracer* tracer, const std::string& name,
                         uint64_t item)
    : span_(tracer, name, item), tracer_(tracer) {
  if (tracer_->enabled()) before_ = obs::GlobalSnapshotWithDerived();
}

CountedSpan::~CountedSpan() {
  if (tracer_->enabled()) {
    tracer_->AttachCounters(span_.index(), before_,
                            obs::GlobalSnapshotWithDerived());
  }
}

int64_t SampleValue(const std::vector<obs::MetricSample>& snapshot,
                    const std::string& name) {
  for (const obs::MetricSample& s : snapshot) {
    if (s.name == name) return s.value;
  }
  return 0;
}

int64_t SampleDelta(const std::vector<obs::MetricSample>& before,
                    const std::vector<obs::MetricSample>& after,
                    const std::string& name) {
  return SampleValue(after, name) - SampleValue(before, name);
}

}  // namespace trap::perfbench
