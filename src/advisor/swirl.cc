#include "advisor/swirl.h"

#include <algorithm>
#include <cmath>

#include "nn/adam.h"
#include "nn/layers.h"

namespace trap::advisor {

namespace {

// Masked sampling / argmax over raw logits (probabilities computed outside
// the autograd graph; gradients flow through the in-graph log-softmax).
int SampleMasked(const nn::Matrix& logits, const std::vector<bool>& valid,
                 common::Rng* rng) {
  double mx = -1e300;
  for (int j = 0; j < logits.cols(); ++j) {
    if (valid[static_cast<size_t>(j)]) mx = std::max(mx, logits.at(0, j));
  }
  if (mx == -1e300) return -1;
  std::vector<double> probs(static_cast<size_t>(logits.cols()), 0.0);
  double sum = 0.0;
  for (int j = 0; j < logits.cols(); ++j) {
    if (valid[static_cast<size_t>(j)]) {
      probs[static_cast<size_t>(j)] = std::exp(logits.at(0, j) - mx);
      sum += probs[static_cast<size_t>(j)];
    }
  }
  if (rng == nullptr) {
    int best = -1;
    for (int j = 0; j < logits.cols(); ++j) {
      if (valid[static_cast<size_t>(j)] &&
          (best < 0 || logits.at(0, j) > logits.at(0, best))) {
        best = j;
      }
    }
    return best;
  }
  double r = rng->Uniform(0.0, sum);
  double acc = 0.0;
  for (int j = 0; j < logits.cols(); ++j) {
    acc += probs[static_cast<size_t>(j)];
    if (valid[static_cast<size_t>(j)] && r < acc) return j;
  }
  for (int j = logits.cols() - 1; j >= 0; --j) {
    if (valid[static_cast<size_t>(j)]) return j;
  }
  return -1;
}

}  // namespace

struct SwirlAdvisor::Impl {
  Impl(const engine::WhatIfOptimizer& what_if, SwirlOptions opts)
      : optimizer(&what_if), options(opts), rng(opts.seed) {}

  const engine::WhatIfOptimizer* optimizer;
  SwirlOptions options;
  common::Rng rng;

  ActionSpace actions;
  std::unique_ptr<StateEncoder> encoder;
  nn::ParameterStore store;
  nn::Mlp actor;    // state -> K+1 logits (last = stop)
  nn::Mlp critic;   // state -> value
  std::unique_ptr<nn::Adam> opt;
  bool trained = false;

  // Runs one episode and returns the configuration it built; when `sample`
  // the policy is stochastic and the episode contributes to the
  // policy-gradient update, otherwise greedy and (reading no reward) free of
  // env cost probes. A failed what-if probe ends the episode with its error;
  // a sampled episode first learns from the steps before the failed one.
  common::StatusOr<engine::IndexConfig> Rollout(
      const workload::Workload& w, const TuningConstraint& constraint,
      bool sample, const common::EvalContext& ctx = {}) {
    IndexSelectionEnv env(optimizer, &actions);
    if (sample) {
      TRAP_RETURN_IF_ERROR(env.TryReset(&w, constraint, ctx));
    } else {
      env.Reset(&w, constraint);
    }
    int k = actions.size();
    struct StepRecord {
      std::vector<double> state;
      std::vector<bool> valid;
      int action = -1;
      double reward = 0.0;
    };
    std::vector<StepRecord> steps;
    common::Status status;
    while (!env.Done()) {
      std::vector<bool> valid = env.ValidActions(options.action_masking);
      // The stop action becomes available once at least one index is built
      // (an empty recommendation is never useful).
      valid.push_back(!env.built().empty());
      common::StatusOr<std::vector<double>> state =
          encoder->TryEncode(env, ctx);
      if (!state.ok()) {
        status = state.status();
        break;
      }
      // Forward pass outside the training graph for action selection.
      nn::Graph g;
      nn::Graph::VarId logits =
          actor.Forward(g, g.Input(nn::Matrix::RowVector(*state)));
      int a = SampleMasked(g.value(logits), valid, sample ? &rng : nullptr);
      if (a < 0 || a == k) {
        if (sample) {
          steps.push_back(StepRecord{*std::move(state), valid, k, 0.0});
        }
        break;
      }
      if (!sample) {
        env.Build(a);
        continue;
      }
      common::StatusOr<double> r = env.TryStep(a);
      if (!r.ok()) {
        status = r.status();
        break;
      }
      steps.push_back(StepRecord{*std::move(state), valid, a, *r});
    }

    if (sample && !steps.empty()) {
      // Returns-to-go (gamma = 1; episodes are short).
      std::vector<double> returns(steps.size());
      double acc = 0.0;
      for (int i = static_cast<int>(steps.size()) - 1; i >= 0; --i) {
        acc += steps[static_cast<size_t>(i)].reward;
        returns[static_cast<size_t>(i)] = acc;
      }
      // One tape for the episode, rows reversed (row r holds step n-1-r) for
      // the reason given at DqnAdvisorBase::LearnBatch.
      const int n = static_cast<int>(steps.size());
      nn::Matrix states(n, encoder->dim());
      // Invalid actions are masked with a large negative offset.
      nn::Matrix mask(n, k + 1);
      for (int i = 0; i < n; ++i) {
        const StepRecord& s = steps[static_cast<size_t>(i)];
        std::copy(s.state.begin(), s.state.end(), &states.at(n - 1 - i, 0));
        for (int j = 0; j <= k; ++j) {
          mask.at(n - 1 - i, j) = s.valid[static_cast<size_t>(j)] ? 0.0 : -1e9;
        }
      }
      nn::Graph g;
      nn::Graph::VarId x = g.Input(std::move(states));
      nn::Graph::VarId logp_all =
          g.LogSoftmax(g.Add(actor.Forward(g, x), g.Input(std::move(mask))));
      nn::Graph::VarId values = critic.Forward(g, x);
      nn::Graph::VarId loss = g.Input(nn::Matrix(1, 1));
      for (size_t i = 0; i < steps.size(); ++i) {
        const int row = n - 1 - static_cast<int>(i);
        nn::Graph::VarId logp = g.Pick(logp_all, row, steps[i].action);
        nn::Graph::VarId value = g.Pick(values, row, 0);
        double advantage = returns[i] - g.value(value).at(0, 0);
        // Actor: -advantage * logp; critic: (value - return)^2.
        loss = g.Add(loss, g.Scale(logp, -advantage));
        nn::Matrix target(1, 1);
        target.at(0, 0) = returns[i];
        nn::Graph::VarId verr = g.Sub(value, g.Input(target));
        loss = g.Add(loss, g.Scale(g.Mul(verr, verr), 0.5));
      }
      g.Backward(g.Sum(loss));
      opt->Step();
      CountLearnerUpdate(n);
    }
    TRAP_RETURN_IF_ERROR(status);
    return env.built();
  }
};

SwirlAdvisor::SwirlAdvisor(const engine::WhatIfOptimizer& optimizer,
                           SwirlOptions options)
    : impl_(std::make_unique<Impl>(optimizer, options)) {}

SwirlAdvisor::~SwirlAdvisor() = default;

const ActionSpace& SwirlAdvisor::action_space() const { return impl_->actions; }

const nn::ParameterStore& SwirlAdvisor::weights() const { return impl_->store; }

void SwirlAdvisor::Train(const std::vector<workload::Workload>& training,
                         const TuningConstraint& constraint) {
  TRAP_CHECK(!training.empty());
  Impl& im = *impl_;
  im.actions = BuildActionSpace(training, im.optimizer->schema(),
                                im.options.multi_column,
                                im.options.prune_candidates,
                                im.options.max_actions);
  im.encoder = std::make_unique<StateEncoder>(im.options.state, im.optimizer,
                                              &im.actions);
  int k = im.actions.size();
  im.actor = nn::Mlp(&im.store, {im.encoder->dim(), im.options.hidden, k + 1},
                     im.rng);
  im.critic = nn::Mlp(&im.store, {im.encoder->dim(), im.options.hidden, 1},
                      im.rng);
  im.opt = std::make_unique<nn::Adam>(im.store.parameters(),
                                      im.options.learning_rate);
  im.opt->set_max_grad_norm(5.0);
  for (int ep = 0; ep < im.options.episodes; ++ep) {
    const workload::Workload& w =
        training[static_cast<size_t>(im.rng.UniformInt(
            0, static_cast<int64_t>(training.size()) - 1))];
    // An episode cut short by a failed probe has already learned from the
    // steps before it; training goes on with the next one.
    if (!im.Rollout(w, constraint, /*sample=*/true).ok()) continue;
  }
  im.trained = true;
}

common::StatusOr<engine::IndexConfig> SwirlAdvisor::TryRecommend(
    const workload::Workload& w, const TuningConstraint& constraint,
    const common::EvalContext& ctx) {
  if (!impl_->trained) {
    return common::Status::InvalidArgument(
        "SwirlAdvisor::Train must be called first");
  }
  TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
  // The greedy rollout is one bounded episode; an engine error inside it is
  // returned, and the entry bracket above accounts for deadline/fault
  // injection at recommend granularity.
  return impl_->Rollout(w, constraint, /*sample=*/false, ctx);
}

}  // namespace trap::advisor
