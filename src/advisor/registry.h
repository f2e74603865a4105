#ifndef TRAP_ADVISOR_REGISTRY_H_
#define TRAP_ADVISOR_REGISTRY_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "advisor/dqn_advisors.h"
#include "advisor/heuristic_advisors.h"
#include "advisor/mcts.h"
#include "advisor/swirl.h"

namespace trap::advisor {

// The single home of the ten assessed advisors: their Table III rows and
// their construction. Every harness, oracle, and test builds advisors by
// name through MakeAdvisor and reads constraint kinds and baseline pairings
// from AdvisorTable, so Table III (option defaults, seeds, Drop's
// single-column design, the Ib pairing) lives in exactly one place.

// How an advisor's tuning constraint is budgeted (Table III "constraint").
enum class ConstraintKind { kStorage, kIndexCount };

// "storage" or "#index", as Table III prints it.
const char* ConstraintKindName(ConstraintKind kind);

// One row of Table III.
struct AdvisorSpec {
  std::string_view name;
  ConstraintKind constraint;
  std::string_view index_type;  // "S" single-column, "S/M" multi-column too
  std::string_view criterion;   // selection criterion, as Table III prints it
  // The row whose recommendation is the baseline Ib; empty means Ib is the
  // no-index configuration. A non-empty baseline is a heuristic with the
  // same constraint kind and index type (the paper's pairing rule).
  std::string_view baseline;
  // Built by MakeLearningAdvisor and trained (LearningAdvisor::Train) under
  // `constraint` before it is assessed.
  bool trainable;

  // Heuristics are the rows scored against the no-index Ib.
  bool heuristic() const { return baseline.empty(); }
};

// The ten assessed advisors, in Table III order.
std::span<const AdvisorSpec> AdvisorTable();

// The row named `name`, or nullptr for an unknown name.
const AdvisorSpec* FindAdvisorSpec(std::string_view name);

struct RegistryOptions {
  // Family options, used verbatim unless one of the override knobs below is
  // set. Drop always runs single-column (its design in Table III); the
  // heuristic.multi_column flag applies to the other heuristics.
  HeuristicOptions heuristic;
  // Drop ships single-column (its Table III design). Ablations that sweep
  // the multi-column axis (Fig. 15) clear this so heuristic.multi_column
  // applies to Drop too.
  bool drop_single_column = true;
  SwirlOptions swirl;
  DqnOptions drlindex = DrlIndexDefaults();
  DqnOptions dqn = DqnAdvisorDefaults();
  MctsOptions mcts;

  // Budget knobs: when non-zero they override the corresponding field of
  // every learner's options.
  uint64_t seed = 0;  // learner seeds become seed ^ per-advisor salt
  int rl_episodes = 0;
  int max_actions = 0;
  int mcts_iterations = 0;
};

// Builds the advisor registered under `name` (Table III names, e.g.
// "Extend", "SWIRL"). Unknown names yield kInvalidArgument, never an abort.
common::StatusOr<std::unique_ptr<IndexAdvisor>> MakeAdvisor(
    std::string_view name, const engine::WhatIfOptimizer& optimizer,
    const RegistryOptions& options = {});

// As MakeAdvisor, restricted to the trainable rows ("SWIRL", "DRLindex",
// "DQN"); other names yield kInvalidArgument.
common::StatusOr<std::unique_ptr<LearningAdvisor>> MakeLearningAdvisor(
    std::string_view name, const engine::WhatIfOptimizer& optimizer,
    const RegistryOptions& options = {});

// The names of the heuristic rows, in Table III order.
const std::vector<std::string>& HeuristicAdvisorNames();

}  // namespace trap::advisor

#endif  // TRAP_ADVISOR_REGISTRY_H_
