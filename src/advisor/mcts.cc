#include "advisor/mcts.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "advisor/candidates.h"
#include "common/rng.h"

namespace trap::advisor {
namespace {

class MctsAdvisor : public IndexAdvisor {
 public:
  MctsAdvisor(const engine::WhatIfOptimizer& optimizer, MctsOptions options)
      : optimizer_(&optimizer), options_(options), rng_(options.seed) {}

  std::string name() const override { return "MCTS"; }
  // Rollouts draw from rng_, so asking twice can answer differently.
  bool RecommendIsPure() const override { return false; }

  common::StatusOr<engine::IndexConfig> TryRecommend(
      const workload::Workload& w, const TuningConstraint& constraint,
      const common::EvalContext& ctx) override {
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    // Pinned once per recommend call: rollouts below must see the same
    // snapshot-resolved schema (and stats epoch) as candidate generation.
    schema_ = &optimizer_->SchemaFor(ctx);
    ctx_ = ctx;
    const catalog::Schema& schema = *schema_;
    candidates_ = AllCandidates(w, schema, options_.multi_column,
                                options_.max_width);
    workload_ = &w;
    constraint_ = constraint;
    TRAP_ASSIGN_OR_RETURN(
        base_cost_, optimizer_->TryWorkloadCost(w, engine::IndexConfig(), ctx));
    nodes_.clear();

    // A failed rollout probe lowers only that rollout's value (see Value);
    // deadlines are enforced at iteration granularity here.
    engine::IndexConfig root;
    for (int it = 0; it < options_.iterations; ++it) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      Simulate(root, 0);
    }
    // Extract the principal variation by most-visited children.
    engine::IndexConfig config = root;
    while (true) {
      Node& n = nodes_[config.Fingerprint()];
      int best = -1;
      int best_visits = 0;
      for (const auto& [action, stats] : n.children) {
        if (stats.visits > best_visits) {
          best = action;
          best_visits = stats.visits;
        }
      }
      if (best < 0) break;
      // Only follow actions whose value beats stopping here.
      const Stats& s = n.children[best];
      if (s.visits == 0 || s.total / s.visits <= Value(config) + 1e-9) break;
      config.Add(candidates_[static_cast<size_t>(best)]);
    }
    return config;
  }

 private:
  struct Stats {
    int visits = 0;
    double total = 0.0;
  };
  struct Node {
    int visits = 0;
    std::map<int, Stats> children;
  };

  double Value(const engine::IndexConfig& config) {
    // A failed probe costs +infinity, so its value is -infinity. The search
    // only compares values, so that config simply never wins.
    double cost = optimizer_->TryWorkloadCost(*workload_, config, ctx_)
                      .value_or(engine::WhatIfOptimizer::kInfiniteCost);
    return base_cost_ > 0.0 ? (base_cost_ - cost) / base_cost_ : 0.0;
  }

  std::vector<int> ValidActions(const engine::IndexConfig& config) {
    std::vector<int> out;
    for (size_t i = 0; i < candidates_.size(); ++i) {
      if (FitsConstraint(config, candidates_[i], constraint_, *schema_)) {
        out.push_back(static_cast<int>(i));
      }
    }
    return out;
  }

  // One UCT iteration from `config`; returns the rollout value.
  double Simulate(engine::IndexConfig config, int depth) {
    constexpr int kMaxDepth = 8;
    if (depth >= kMaxDepth) return Value(config);
    std::vector<int> valid = ValidActions(config);
    if (valid.empty()) return Value(config);

    Node& node = nodes_[config.Fingerprint()];
    ++node.visits;

    // Expansion: play an untried action with a random rollout.
    for (int a : valid) {
      if (node.children[a].visits == 0) {
        engine::IndexConfig next = config;
        next.Add(candidates_[static_cast<size_t>(a)]);
        double value = RolloutFrom(next);
        node.children[a].visits = 1;
        node.children[a].total = value;
        return value;
      }
    }
    // Selection: UCT over tried actions.
    int best = -1;
    double best_score = -1e300;
    for (int a : valid) {
      const Stats& s = node.children[a];
      double exploit = s.total / s.visits;
      double explore = options_.exploration *
                       std::sqrt(std::log(static_cast<double>(node.visits)) /
                                 static_cast<double>(s.visits));
      if (exploit + explore > best_score) {
        best_score = exploit + explore;
        best = a;
      }
    }
    engine::IndexConfig next = config;
    next.Add(candidates_[static_cast<size_t>(best)]);
    double value = Simulate(std::move(next), depth + 1);
    node.children[best].visits += 1;
    node.children[best].total += value;
    return value;
  }

  // Random completion of the configuration.
  double RolloutFrom(engine::IndexConfig config) {
    constexpr int kRolloutSteps = 4;
    for (int i = 0; i < kRolloutSteps; ++i) {
      std::vector<int> valid = ValidActions(config);
      if (valid.empty()) break;
      int a = valid[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(valid.size()) - 1))];
      config.Add(candidates_[static_cast<size_t>(a)]);
    }
    return Value(config);
  }

  const engine::WhatIfOptimizer* optimizer_;
  MctsOptions options_;
  common::Rng rng_;

  std::vector<engine::Index> candidates_;
  const catalog::Schema* schema_ = nullptr;
  common::EvalContext ctx_;
  const workload::Workload* workload_ = nullptr;
  TuningConstraint constraint_;
  double base_cost_ = 0.0;
  std::map<uint64_t, Node> nodes_;
};

}  // namespace

std::unique_ptr<IndexAdvisor> MakeMcts(const engine::WhatIfOptimizer& optimizer,
                                       MctsOptions options) {
  return std::make_unique<MctsAdvisor>(optimizer, options);
}

}  // namespace trap::advisor
