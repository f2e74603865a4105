#include "trap/training.h"

#include <algorithm>
#include <cmath>

namespace trap::trap {

std::vector<double> Pretrain(TrapAgent& agent,
                             const std::vector<sql::Query>& pool,
                             PerturbationConstraint constraint, int epsilon,
                             const PretrainOptions& options) {
  TRAP_CHECK(!pool.empty());
  common::Rng rng(options.seed);
  const sql::Vocabulary& vocab = agent.vocab();

  // Synthetic corpus: random tree-legal perturbations of pool queries.
  struct Pair {
    const sql::Query* query;
    std::vector<int> choices;
  };
  std::vector<Pair> corpus;
  corpus.reserve(static_cast<size_t>(options.num_pairs));
  for (int i = 0; i < options.num_pairs; ++i) {
    const sql::Query& q = rng.Choice(pool);
    ReferenceTree tree(q, vocab, constraint, epsilon);
    std::vector<int> choices;
    while (!tree.Done()) {
      int id = rng.Choice(tree.LegalTokens());
      choices.push_back(id);
      tree.Advance(id);
    }
    corpus.push_back(Pair{&q, std::move(choices)});
  }

  nn::Adam optimizer(agent.store().parameters(), options.learning_rate);
  optimizer.set_max_grad_norm(5.0);
  std::vector<double> trace;
  std::vector<int> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(order);
    double total_nll = 0.0;
    for (int idx : order) {
      const Pair& pair = corpus[static_cast<size_t>(idx)];
      nn::Graph g;
      nn::Graph::VarId nll = agent.ForcedNll(
          g, ReferenceTree(*pair.query, vocab, constraint, epsilon),
          pair.choices);
      total_nll += g.value(nll).at(0, 0);
      g.Backward(nll);
      optimizer.Step();
    }
    trace.push_back(total_nll / static_cast<double>(corpus.size()));
  }
  return trace;
}

RlTrainer::RlTrainer(TrapAgent* agent, advisor::IndexAdvisor* victim,
                     advisor::IndexAdvisor* victim_baseline,
                     const engine::WhatIfOptimizer* optimizer,
                     const gbdt::LearnedUtilityModel* utility,
                     PerturbationConstraint constraint, int epsilon,
                     advisor::TuningConstraint tuning, RlOptions options)
    : agent_(agent),
      victim_(victim),
      baseline_(victim_baseline),
      optimizer_(optimizer),
      utility_(utility),
      constraint_(constraint),
      epsilon_(epsilon),
      tuning_(tuning),
      options_(options),
      pure_recommend_(
          (victim == nullptr || victim->RecommendIsPure()) &&
          (victim_baseline == nullptr || victim_baseline->RecommendIsPure())) {
  if (options_.use_learned_utility) {
    TRAP_CHECK_MSG(utility_ != nullptr && utility_->trained(),
                   "learned utility model required");
  }
}

std::optional<double> RlTrainer::CostOf(
    const workload::Workload& w, const engine::IndexConfig& config) const {
  if (options_.use_learned_utility) {
    return utility_->PredictWorkloadCost(w, config);
  }
  // A failed probe leaves the cost unknown: no utility is estimated from it.
  common::StatusOr<double> cost = optimizer_->TryWorkloadCost(w, config);
  if (!cost.ok()) return std::nullopt;
  return *cost;
}

std::optional<double> RlTrainer::EstimatedUtility(
    const workload::Workload& w) const {
  // A victim that fails to recommend is scored as recommending nothing:
  // no index, so no improvement over the baseline.
  engine::IndexConfig selected =
      victim_->TryRecommend(w, tuning_, {}).value_or(engine::IndexConfig{});
  engine::IndexConfig base;
  if (baseline_ != nullptr) {
    base = baseline_->TryRecommend(w, tuning_, {})
               .value_or(engine::IndexConfig{});
  }
  const std::optional<double> base_cost = CostOf(w, base);
  if (!base_cost.has_value()) return std::nullopt;
  if (*base_cost <= 0.0) return 0.0;
  const std::optional<double> selected_cost = CostOf(w, selected);
  if (!selected_cost.has_value()) return std::nullopt;
  return 1.0 - *selected_cost / *base_cost;
}

std::optional<double> RlTrainer::EstimatedIudr(
    const workload::Workload& w, const workload::Workload& perturbed) const {
  UtilityMemo u;
  return EstimatedIudr(w, perturbed, &u);
}

std::optional<double> RlTrainer::EstimatedIudr(
    const workload::Workload& w, const workload::Workload& perturbed,
    UtilityMemo* u) const {
  if (!u->asked || !pure_recommend_) {
    u->value = EstimatedUtility(w);
    u->asked = true;
  }
  if (!u->value.has_value()) return std::nullopt;
  if (*u->value == 0.0) return 0.0;
  const std::optional<double> perturbed_u = EstimatedUtility(perturbed);
  if (!perturbed_u.has_value()) return std::nullopt;
  return 1.0 - *perturbed_u / *u->value;
}

RlTrace RlTrainer::Train(const std::vector<workload::Workload>& training) {
  TRAP_CHECK(!training.empty());
  common::Rng rng(options_.seed);
  nn::Adam optimizer(agent_->store().parameters(), options_.learning_rate);
  optimizer.set_max_grad_norm(5.0);
  const sql::Vocabulary& vocab = agent_->vocab();

  RlTrace trace;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    double reward_sum = 0.0;
    int reward_count = 0;
    for (int k = 0; k < options_.workloads_per_epoch; ++k) {
      const workload::Workload& w = training[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(training.size()) - 1))];
      // Definition 3.3: only properly-operating workloads are usable, and a
      // workload whose u(W) could not be estimated is not one.
      UtilityMemo u{true, EstimatedUtility(w)};
      if (!u.value.has_value() || *u.value <= options_.theta) continue;

      // Sampled trajectory over every query of the workload. Its encodings
      // serve the greedy baseline: the weights change only after the step.
      TrapAgent::Encodings encodings;
      nn::Graph g;
      nn::Graph::VarId logp_sum = g.Input(nn::Matrix(1, 1));
      workload::Workload sampled;
      for (const workload::WorkloadQuery& wq : w.queries) {
        TrapAgent::EpisodeResult r = [&] {
          ReferenceTree tree(wq.query, vocab, constraint_, epsilon_);
          nn::Graph::VarId before = logp_sum;
          TrapAgent::EpisodeResult res =
              agent_->RunEpisode(&g, std::move(tree), TrapAgent::Mode::kSample,
                                 &rng, {}, &encodings);
          logp_sum = g.Add(before, res.log_prob_var);
          return res;
        }();
        std::optional<sql::Query> pq = sql::FromTokens(r.output, vocab);
        TRAP_CHECK(pq.has_value());
        sampled.queries.push_back(workload::WorkloadQuery{*pq, wq.weight});
      }
      const std::optional<double> reward = EstimatedIudr(w, sampled, &u);
      // Self-critical baseline: the greedy decode's reward.
      const std::optional<double> baseline_reward =
          EstimatedIudr(w, Perturb(w, {}, &encodings), &u);
      // A reward a failed probe left unknown gives no step.
      if (!reward.has_value() || !baseline_reward.has_value()) continue;
      reward_sum += *reward;
      ++reward_count;

      nn::Graph::VarId loss =
          g.Scale(logp_sum, -(*reward - *baseline_reward));
      g.Backward(loss);
      optimizer.Step();
    }
    trace.mean_reward_per_epoch.push_back(
        reward_count > 0 ? std::optional<double>(reward_sum / reward_count)
                         : std::nullopt);
  }
  return trace;
}

workload::Workload RlTrainer::Perturb(const workload::Workload& w,
                                      const common::EvalContext& ctx,
                                      TrapAgent::Encodings* encodings) const {
  return Decode(w, TrapAgent::Mode::kGreedy, nullptr, ctx, encodings);
}

workload::Workload RlTrainer::PerturbSampled(
    const workload::Workload& w, common::Rng& rng,
    const common::EvalContext& ctx, TrapAgent::Encodings* encodings) const {
  return Decode(w, TrapAgent::Mode::kSample, &rng, ctx, encodings);
}

workload::Workload RlTrainer::Decode(const workload::Workload& w,
                                     TrapAgent::Mode mode, common::Rng* rng,
                                     const common::EvalContext& ctx,
                                     TrapAgent::Encodings* encodings) const {
  const sql::Vocabulary& vocab = agent_->vocab();
  workload::Workload out;
  for (const workload::WorkloadQuery& wq : w.queries) {
    ReferenceTree tree(wq.query, vocab, constraint_, epsilon_);
    TrapAgent::EpisodeResult r = agent_->RunEpisode(nullptr, std::move(tree),
                                                    mode, rng, ctx, encodings);
    std::optional<sql::Query> pq = sql::FromTokens(r.output, vocab);
    TRAP_CHECK(pq.has_value());
    out.queries.push_back(workload::WorkloadQuery{*pq, wq.weight});
  }
  return out;
}

}  // namespace trap::trap
