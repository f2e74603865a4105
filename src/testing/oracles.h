#ifndef TRAP_TESTING_ORACLES_H_
#define TRAP_TESTING_ORACLES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "engine/what_if.h"
#include "sql/vocabulary.h"
#include "testing/case_gen.h"
#include "trap/constraints.h"
#include "workload/workload.h"

namespace trap::proptest {

using PerturbationConstraint = ::trap::trap::PerturbationConstraint;

// The eleven metamorphic / differential oracle families. Each one states an
// invariant the engine, an advisor, the drift runtime or the nn kernels
// must hold for *every* input, so the harness can hammer them with
// generated cases instead of hand-picked ones:
//
//   add-index-monotone     adding one index never increases QueryCost;
//   superset-monotone      cost under a configuration superset is never
//                          above the subset's cost;
//   parallel-determinism   WorkloadCost(s) issued concurrently from 1, 4
//                          and 8 lanes sharing one optimizer are
//                          bit-identical in every lane (differential:
//                          concurrent callers vs the serial fold);
//   cache-coherence        a shared optimizer with a warm shape cache, a
//                          freshly built optimizer, and a repeated call all
//                          agree exactly (catches shape-fingerprint
//                          collisions / stale shapes);
//   perturbation-budget    random Reference-Tree walks stay within the
//                          declared constraint: valid SQL, token edit
//                          distance <= epsilon, immutable join graph, and
//                          the per-constraint modifiable-token rules of
//                          constraints.h;
//   advisor-contract       advisor recommendations respect the storage and
//                          index-count budgets and contain only well-formed
//                          candidate indexes over workload columns;
//   episode-determinism    a drift ReplayLoop run concurrently from 1, 4
//                          and 8 lanes sharing one optimizer yields
//                          bit-identical episode fingerprints, costs, and
//                          regret series in every lane;
//   regret-sanity          per-episode regret is finite and >= 0, and the
//                          loop's reported stale/fresh costs match an
//                          independent recomputation on a fresh optimizer
//                          bit-exactly (catches stale epoch cache entries);
//   stats-budget           drift::StatsPerturber output stays within its L1
//                          budget, keeps NDV/skew in-domain, never touches
//                          row counts or value domains, and a zero budget
//                          is a bit-exact identity;
//   shard-partition        for random campaign specs and shard counts, the
//                          campaign enumeration is duplicate-free with
//                          positional case indexes, and MakeShardPlan's
//                          shards exactly partition the case space -- no
//                          case lost, none duplicated, no empty shard,
//                          sizes balanced within one;
//   nn-kernel-equivalence  a random autograd tape over every nn::Graph op
//                          (broadcast, exact zeros, MatMul/Mul(x, x)
//                          aliasing, reused Param leaves) matches the
//                          at()-based ReferenceGraph bit for bit in forward
//                          values, every gradient and two Adam steps with
//                          and without clipping (differential).
enum class OracleId {
  kAddIndexMonotone = 0,
  kSupersetMonotone = 1,
  kParallelDeterminism = 2,
  kCacheCoherence = 3,
  kPerturbationBudget = 4,
  kAdvisorContract = 5,
  kEpisodeDeterminism = 6,
  kRegretSanity = 7,
  kStatsBudget = 8,
  kShardPartition = 9,
  kNnKernelEquivalence = 10,
};

inline constexpr int kNumOracles = 11;

const char* OracleName(OracleId id);
std::optional<OracleId> OracleFromName(std::string_view name);
std::vector<OracleId> AllOracles();

// Long-lived oracle environment: the vocabulary, a shared what-if optimizer
// whose shape cache warms across cases (deliberately — cache-coherence
// compares it against fresh optimizers), and fixed-size pools whose lanes
// act as concurrent callers for the determinism oracles.
struct OracleEnv {
  explicit OracleEnv(const catalog::Schema& schema_in);

  const catalog::Schema* schema;
  sql::Vocabulary vocab;
  engine::WhatIfOptimizer optimizer;
  common::ThreadPool pool1;
  common::ThreadPool pool4;
  common::ThreadPool pool8;
};

// The concrete inputs an oracle failed on — everything CheckReproducer
// needs to re-evaluate the property, and everything the shrinker mutates.
// Which fields are meaningful depends on the oracle.
struct Reproducer {
  workload::Workload workload;        // all oracles; single-query ones use [0]
  engine::IndexConfig config;         // base configuration
  std::vector<engine::Index> extra;   // indexes layered on top of `config`
  PerturbationConstraint constraint = PerturbationConstraint::kValueOnly;
  int epsilon = 0;        // perturbation-budget; drift oracles: episodes
                          // (episode-determinism, regret-sanity) or L1
                          // budget quarters (stats-budget); shard-partition:
                          // requested shard count; nn-kernel-equivalence:
                          // tape length in ops
  uint64_t walk_seed = 0;  // perturbation walk / drift episode-stream seed;
                           // nn-kernel-equivalence: tape seed
  int advisor = 0;        // advisor-contract + drift: advisor id in [0,6)
  int64_t storage_budget = 0;
  int max_indexes = 0;                // 0 = unconstrained count;
                                      // shard-partition: campaign workloads
};

// Human-readable advisor name for Reproducer::advisor.
const char* AdvisorShortName(int advisor);
inline constexpr int kNumAdvisors = 6;

struct OracleFailure {
  OracleId oracle = OracleId::kAddIndexMonotone;
  std::string message;
  Reproducer repro;
};

// Re-evaluates oracle `id` on the concrete inputs `r`. Returns the failure
// message, or std::nullopt when the property holds. This is the single
// source of truth for every oracle: RunOracle generates inputs and delegates
// here, and the shrinker uses it as its predicate.
std::optional<std::string> CheckReproducer(OracleId id, OracleEnv& env,
                                           const Reproducer& r);

// Generates the case derived from (seed, case_index) and runs oracle `id`
// on it. std::nullopt = pass.
std::optional<OracleFailure> RunOracle(OracleId id, OracleEnv& env,
                                       uint64_t seed, int case_index);

// Deterministic printable form of `r` (SQL text, configuration, budgets).
std::string DescribeReproducer(OracleId id, const OracleEnv& env,
                               const Reproducer& r);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_ORACLES_H_
