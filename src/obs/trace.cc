#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace trap::obs {

uint64_t TraceSink::OpenSpan(std::string_view name, uint64_t key,
                             uint64_t parent) {
  const uint64_t base =
      common::HashCombine(common::HashCombine(parent, StringHash(name)), key);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t occurrence = occurrences_[base]++;
  uint64_t id = occurrence == 0 ? base : common::HashCombine(base, occurrence);
  if (id == 0) id = 1;  // 0 is the root sentinel
  TraceEvent& event = events_[id];
  event.id = id;
  event.parent = parent;
  event.key = key;
  event.name = std::string(name);
  return id;
}

void TraceSink::AddArg(uint64_t id, std::string_view name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = events_.find(id);
  if (it == events_.end()) return;
  it->second.args.emplace_back(std::string(name), value);
}

void TraceSink::CloseSpan(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = events_.find(id);
  if (it != events_.end()) it->second.closed = true;
}

size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceSink::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  occurrences_.clear();
}

std::vector<TraceEvent> TraceSink::CanonicalEvents() const {
  std::vector<TraceEvent> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(events_.size());
    // Order-insensitive collection: every consumer sorts by the total
    // (key, name-hash, id) order before anything digest-visible happens.
    // NOLINTNEXTLINE(nondeterministic-iteration): sorted before use
    for (const auto& [id, event] : events_) snapshot.push_back(event);
  }
  // Children of each span, sorted by the logical ordering key. A parent id
  // with no recorded event (a sink reused across Resets, or a caller-made
  // span id) groups under the root.
  std::unordered_map<uint64_t, std::vector<const TraceEvent*>> children;
  std::unordered_map<uint64_t, bool> known;
  for (const TraceEvent& e : snapshot) known[e.id] = true;
  for (const TraceEvent& e : snapshot) {
    const uint64_t parent = known[e.parent] ? e.parent : 0;
    children[parent].push_back(&e);
  }
  // Order-insensitive: each child list is sorted independently by the
  // total (key, name-hash, id) order, and group visit order does not
  // affect the canonical DFS below.
  // NOLINTNEXTLINE(nondeterministic-iteration): each group sorted totally
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->key != b->key) return a->key < b->key;
                const uint64_t ha = StringHash(a->name);
                const uint64_t hb = StringHash(b->name);
                if (ha != hb) return ha < hb;
                return a->id < b->id;
              });
  }
  std::vector<TraceEvent> out;
  out.reserve(snapshot.size());
  // Iterative DFS keeps deep traces (e.g. long retry chains) off the call
  // stack.
  std::vector<std::pair<const TraceEvent*, int>> stack;
  auto push_children = [&](uint64_t id, int depth) {
    auto it = children.find(id);
    if (it == children.end()) return;
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      stack.emplace_back(*rit, depth);
    }
  };
  push_children(0, 0);
  while (!stack.empty()) {
    auto [event, depth] = stack.back();
    stack.pop_back();
    out.push_back(*event);
    out.back().depth = depth;
    push_children(event->id, depth + 1);
  }
  return out;
}

uint64_t TraceSink::Digest() const {
  uint64_t h = 0x7e5eed;
  for (const TraceEvent& e : CanonicalEvents()) {
    h = common::HashCombine(h, static_cast<uint64_t>(e.depth));
    h = common::HashCombine(h, StringHash(e.name));
    h = common::HashCombine(h, e.key);
    for (const auto& [name, value] : e.args) {
      h = common::HashCombine(h, StringHash(name));
      h = common::HashCombine(h, static_cast<uint64_t>(value));
    }
  }
  return h;
}

namespace {

void AppendArgs(const TraceEvent& e, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(e.key));
  *out += "{\"key\": \"";
  *out += buf;
  *out += "\"";
  for (const auto& [name, value] : e.args) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    *out += ", ";
    *out += common::JsonQuote(name);
    *out += ": ";
    *out += buf;
  }
  *out += "}";
}

}  // namespace

std::string ChromeTraceJson(const TraceSink& sink) {
  const std::vector<TraceEvent> events = sink.CanonicalEvents();
  std::string out = "{\"traceEvents\": [\n";
  // Emit B/E pairs by walking the canonical pre-order with an explicit
  // close stack; `ts` counts canonical steps.
  std::vector<const TraceEvent*> open;
  int64_t ts = 0;
  char buf[96];
  bool first = true;
  auto emit = [&](const char* phase, const TraceEvent& e) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"ph\": \"";
    out += phase;
    out += "\", \"name\": ";
    out += common::JsonQuote(e.name);
    out += ", \"pid\": 0, \"tid\": 0, \"ts\": ";
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(ts++));
    out += buf;
    if (phase[0] == 'B') {
      out += ", \"args\": ";
      AppendArgs(e, &out);
    }
    out += "}";
  };
  for (const TraceEvent& e : events) {
    while (!open.empty() &&
           static_cast<int>(open.size()) > e.depth) {
      emit("E", *open.back());
      open.pop_back();
    }
    emit("B", e);
    open.push_back(&e);
  }
  while (!open.empty()) {
    emit("E", *open.back());
    open.pop_back();
  }
  out += "\n]}\n";
  return out;
}

std::string TraceJsonl(const TraceSink& sink) {
  std::string out;
  char buf[96];
  for (const TraceEvent& e : sink.CanonicalEvents()) {
    out += "{\"depth\": ";
    std::snprintf(buf, sizeof buf, "%d", e.depth);
    out += buf;
    out += ", \"name\": ";
    out += common::JsonQuote(e.name);
    out += ", \"closed\": ";
    out += e.closed ? "true" : "false";
    out += ", \"args\": ";
    AppendArgs(e, &out);
    out += "}\n";
  }
  return out;
}

}  // namespace trap::obs
