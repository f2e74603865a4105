#ifndef TRAP_ENGINE_SCRATCH_H_
#define TRAP_ENGINE_SCRATCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace trap::sql {
struct Query;
}  // namespace trap::sql

namespace trap::engine {

struct QueryShape;

// Reusable per-thread scratch for batched what-if evaluation — the
// "generational pool" idiom: instead of freeing buffers between batches,
// each lease bumps a generation counter and reuses the capacity grown by
// earlier batches, so the steady-state batch path performs zero heap
// allocations once the high-water mark is reached. Nothing here is shared
// between threads: a batch runs on its calling thread, and every buffer
// belongs to exactly one lease at a time (see ScratchLease).
struct BatchScratch {
  // One evaluated (query, config) pair after in-batch deduplication.
  struct UniquePair {
    uint32_t qi = 0;  // query index in the batch
    uint32_t ci = 0;  // config index in the batch
  };
  // item_to_unique entries carry this bit on the pair's *primary*
  // occurrence — the one whose evaluation ran; duplicates copy its result.
  static constexpr uint32_t kPrimaryBit = 0x80000000u;
  // Empty sentinel for slot_vals (a real slot index never reaches 2^32-1:
  // batches are capped far below that by memory alone).
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  // Batch inputs flattened by the templated entry points.
  std::vector<const sql::Query*> query_ptrs;
  std::vector<double> weights;

  // Derived per-batch state (BatchCostCore).
  std::vector<uint64_t> query_fps;
  std::vector<uint64_t> config_fps;
  std::vector<uint64_t> sorted_config_fps;  // dup-config metric counting
  std::vector<const QueryShape*> shapes;    // per batch query, may hold null
  std::vector<uint32_t> item_to_unique;     // item k -> unique slot (+bit)
  std::vector<UniquePair> uniques;
  // Open-addressing pair_key -> slot table (linear probing, power-of-two
  // size, load factor <= 0.5). Flat parallel arrays instead of a node-based
  // map so the steady-state dedup pass allocates nothing: re-arming is a
  // fill of slot_vals with kEmptySlot, not a rehash.
  std::vector<uint64_t> slot_keys;
  std::vector<uint32_t> slot_vals;
  std::vector<double> unique_costs;  // per-unique-pair output slots
  std::vector<common::Status> unique_statuses;

  // Bumped on every lease; lets tests observe that repeated batches reuse
  // one arena instead of allocating fresh state.
  uint64_t generation = 0;
  bool in_use = false;
};

// Leases the calling thread's BatchScratch for the duration of one batched
// call. Reentrant use (a batch issued while the same thread already holds
// its lease) falls back to a freshly allocated scratch — correct but cold.
class ScratchLease {
 public:
  ScratchLease();
  ~ScratchLease();

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  BatchScratch& operator*() const { return *scratch_; }
  BatchScratch* operator->() const { return scratch_; }

  // Test hook: the calling thread's arena (its generation counter proves
  // reuse across batches).
  static const BatchScratch& ThreadLocalForTest();

 private:
  BatchScratch* scratch_;
  bool owned_;  // true when reentrant fallback allocated a private scratch
};

}  // namespace trap::engine

#endif  // TRAP_ENGINE_SCRATCH_H_
