#include "advisor/registry.h"

#include <array>

namespace trap::advisor {

namespace {

constexpr ConstraintKind kStorage = ConstraintKind::kStorage;
constexpr ConstraintKind kCount = ConstraintKind::kIndexCount;

constexpr std::array<AdvisorSpec, 10> kTable3 = {{
    // name, constraint, index type, criterion, baseline Ib, trainable
    {"Extend", kStorage, "S/M", "cost/storage", "", false},
    {"DB2Advis", kStorage, "S/M", "cost/storage", "", false},
    {"AutoAdmin", kCount, "S/M", "cost", "", false},
    {"Drop", kCount, "S", "cost", "", false},
    {"Relaxation", kStorage, "S/M", "cost/storage", "", false},
    {"DTA", kStorage, "S/M", "cost", "", false},
    {"SWIRL", kStorage, "S/M", "PPO", "Extend", true},
    {"DRLindex", kCount, "S", "DQN", "Drop", true},
    {"DQN", kCount, "S/M", "DQN", "AutoAdmin", true},
    {"MCTS", kCount, "S/M", "MCTS", "AutoAdmin", false},
}};

SwirlOptions ResolveSwirl(const RegistryOptions& options) {
  SwirlOptions o = options.swirl;
  if (options.seed != 0) o.seed = options.seed ^ 0x51;
  if (options.rl_episodes > 0) o.episodes = options.rl_episodes;
  if (options.max_actions > 0) o.max_actions = options.max_actions;
  return o;
}

DqnOptions ResolveDqn(const DqnOptions& base, uint64_t salt,
                      const RegistryOptions& options) {
  DqnOptions o = base;
  if (options.seed != 0) o.seed = options.seed ^ salt;
  if (options.rl_episodes > 0) o.episodes = options.rl_episodes;
  if (options.max_actions > 0) o.max_actions = options.max_actions;
  return o;
}

MctsOptions ResolveMcts(const RegistryOptions& options) {
  MctsOptions o = options.mcts;
  if (options.seed != 0) o.seed = options.seed ^ 0x3c;
  if (options.mcts_iterations > 0) o.iterations = options.mcts_iterations;
  return o;
}

}  // namespace

const char* ConstraintKindName(ConstraintKind kind) {
  return kind == ConstraintKind::kStorage ? "storage" : "#index";
}

std::span<const AdvisorSpec> AdvisorTable() { return kTable3; }

const AdvisorSpec* FindAdvisorSpec(std::string_view name) {
  for (const AdvisorSpec& row : kTable3) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

common::StatusOr<std::unique_ptr<IndexAdvisor>> MakeAdvisor(
    std::string_view name, const engine::WhatIfOptimizer& optimizer,
    const RegistryOptions& options) {
  if (name == "Extend") return MakeExtend(optimizer, options.heuristic);
  if (name == "DB2Advis") return MakeDb2Advis(optimizer, options.heuristic);
  if (name == "AutoAdmin") return MakeAutoAdmin(optimizer, options.heuristic);
  if (name == "Drop") {
    HeuristicOptions drop_options = options.heuristic;
    if (options.drop_single_column) drop_options.multi_column = false;
    return MakeDrop(optimizer, drop_options);
  }
  if (name == "Relaxation") return MakeRelaxation(optimizer, options.heuristic);
  if (name == "DTA") return MakeDta(optimizer, options.heuristic);
  const AdvisorSpec* spec = FindAdvisorSpec(name);
  if (spec != nullptr && spec->trainable) {
    TRAP_ASSIGN_OR_RETURN(std::unique_ptr<LearningAdvisor> learner,
                          MakeLearningAdvisor(name, optimizer, options));
    return std::unique_ptr<IndexAdvisor>(std::move(learner));
  }
  if (name == "MCTS") return MakeMcts(optimizer, ResolveMcts(options));
  return common::Status::InvalidArgument("unknown advisor name: " +
                                         std::string(name));
}

common::StatusOr<std::unique_ptr<LearningAdvisor>> MakeLearningAdvisor(
    std::string_view name, const engine::WhatIfOptimizer& optimizer,
    const RegistryOptions& options) {
  if (name == "SWIRL") {
    return std::unique_ptr<LearningAdvisor>(
        std::make_unique<SwirlAdvisor>(optimizer, ResolveSwirl(options)));
  }
  if (name == "DRLindex") {
    return MakeDrlIndex(optimizer, ResolveDqn(options.drlindex, 0xd1, options));
  }
  if (name == "DQN") {
    return MakeDqnAdvisor(optimizer, ResolveDqn(options.dqn, 0xd2, options));
  }
  return common::Status::InvalidArgument("unknown learning advisor name: " +
                                         std::string(name));
}

const std::vector<std::string>& HeuristicAdvisorNames() {
  static const std::vector<std::string>* names = [] {
    auto* out = new std::vector<std::string>;
    for (const AdvisorSpec& row : kTable3) {
      if (row.heuristic()) out->emplace_back(row.name);
    }
    return out;
  }();
  return *names;
}

}  // namespace trap::advisor
