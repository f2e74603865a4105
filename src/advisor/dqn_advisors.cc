#include "advisor/dqn_advisors.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "nn/adam.h"
#include "nn/layers.h"

namespace trap::advisor {
namespace {

struct Transition {
  std::vector<double> state;
  int action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  std::vector<bool> next_valid;
  bool done = false;
};

// Deep Q-learning over the index-selection episode with experience replay
// and a periodically synchronized target network.
class DqnAdvisorBase : public LearningAdvisor {
 public:
  DqnAdvisorBase(const engine::WhatIfOptimizer& optimizer, DqnOptions options,
                 std::string name)
      : optimizer_(&optimizer), options_(options), name_(std::move(name)),
        rng_(options.seed) {}

  std::string name() const override { return name_; }

  void Train(const std::vector<workload::Workload>& training,
             const TuningConstraint& constraint) override {
    TRAP_CHECK(!training.empty());
    actions_ = BuildActionSpace(training, optimizer_->schema(),
                                options_.multi_column,
                                options_.prune_candidates,
                                options_.max_actions);
    encoder_ = std::make_unique<StateEncoder>(options_.state, optimizer_,
                                              &actions_);
    int k = actions_.size();
    qnet_ = nn::Mlp(&store_, {encoder_->dim(), options_.hidden, k}, rng_);
    target_ = nn::Mlp(&target_store_, {encoder_->dim(), options_.hidden, k},
                      rng_);
    target_store_.CopyValuesFrom(store_);
    opt_ = std::make_unique<nn::Adam>(store_.parameters(),
                                      options_.learning_rate);
    opt_->set_max_grad_norm(5.0);

    IndexSelectionEnv env(optimizer_, &actions_);
    int64_t global_step = 0;
    for (int ep = 0; ep < options_.episodes; ++ep) {
      double eps = options_.epsilon_start +
                   (options_.epsilon_end - options_.epsilon_start) *
                       static_cast<double>(ep) /
                       std::max(1, options_.episodes - 1);
      const workload::Workload& w =
          training[static_cast<size_t>(rng_.UniformInt(
              0, static_cast<int64_t>(training.size()) - 1))];
      // A failed what-if probe ends the episode, and the step it failed in
      // is not learned from: its reward would be measured against a cost
      // that was never estimated.
      if (!env.TryReset(&w, constraint).ok()) continue;
      while (!env.Done()) {
        std::vector<bool> valid = env.ValidActions(false);
        if (std::none_of(valid.begin(), valid.end(), [](bool b) { return b; })) {
          break;
        }
        common::StatusOr<std::vector<double>> state =
            encoder_->TryEncode(env);
        if (!state.ok()) break;
        int a = rng_.Bernoulli(eps) ? RandomValid(valid)
                                    : GreedyAction(qnet_, *state, valid);
        common::StatusOr<double> r = env.TryStep(a);
        if (!r.ok()) break;
        bool done = env.Done();
        common::StatusOr<std::vector<double>> next_state =
            encoder_->TryEncode(env);
        if (!next_state.ok()) break;
        std::vector<bool> next_valid = env.ValidActions(false);
        replay_.push_back(Transition{*std::move(state), a, *r,
                                     *std::move(next_state),
                                     std::move(next_valid), done});
        if (static_cast<int>(replay_.size()) > options_.replay_capacity) {
          replay_.pop_front();
        }
        if (static_cast<int>(replay_.size()) >= options_.batch_size) {
          LearnBatch();
        }
        if (++global_step % options_.target_sync_interval == 0) {
          target_store_.CopyValuesFrom(store_);
        }
      }
    }
    trained_ = true;
  }

  common::StatusOr<engine::IndexConfig> TryRecommend(
      const workload::Workload& w, const TuningConstraint& constraint,
      const common::EvalContext& ctx) override {
    if (!trained_) {
      return common::Status::InvalidArgument(name_ +
                                             ": Train must be called first");
    }
    TRAP_RETURN_IF_ERROR(EnterRecommend(name(), w, ctx));
    // The greedy walk reads no reward, so it builds without cost probes;
    // the state encoding carries ctx so a fine-grained state is costed
    // against the snapshot a drifted workload arrived with.
    IndexSelectionEnv env(optimizer_, &actions_);
    env.Reset(&w, constraint);
    while (!env.Done()) {
      TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
      std::vector<bool> valid = env.ValidActions(false);
      if (std::none_of(valid.begin(), valid.end(), [](bool b) { return b; })) {
        break;
      }
      TRAP_ASSIGN_OR_RETURN(
          std::vector<double> state,
          encoder_->TryEncode(env, ctx));
      int a = GreedyAction(qnet_, state, valid);
      // Stop early when the best remaining Q-value predicts no improvement
      // (but always recommend at least one index).
      if (!env.built().empty() && BestQ(qnet_, state, valid) <= 0.0) break;
      env.Build(a);
    }
    return env.built();
  }

  const nn::ParameterStore& weights() const override { return store_; }

 private:
  int RandomValid(const std::vector<bool>& valid) {
    std::vector<int> ids;
    for (size_t i = 0; i < valid.size(); ++i) {
      if (valid[i]) ids.push_back(static_cast<int>(i));
    }
    return ids[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
  }

  // One inference forward; row r of the result belongs to row r of `states`.
  static nn::Matrix QValues(const nn::Mlp& net, nn::Matrix states) {
    nn::Graph g;
    return g.value(net.Forward(g, g.Input(std::move(states))));
  }

  int GreedyAction(const nn::Mlp& net, const std::vector<double>& state,
                   const std::vector<bool>& valid) {
    nn::Matrix q = QValues(net, nn::Matrix::RowVector(state));
    int best = -1;
    for (int j = 0; j < q.cols(); ++j) {
      if (!valid[static_cast<size_t>(j)]) continue;
      if (best < 0 || q.at(0, j) > q.at(0, best)) best = j;
    }
    TRAP_CHECK(best >= 0);
    return best;
  }

  double BestQ(const nn::Mlp& net, const std::vector<double>& state,
               const std::vector<bool>& valid) {
    nn::Matrix q = QValues(net, nn::Matrix::RowVector(state));
    double best = -1e300;
    for (int j = 0; j < q.cols(); ++j) {
      if (valid[static_cast<size_t>(j)]) best = std::max(best, q.at(0, j));
    }
    return best;
  }

  // One tape per update. Every forward row is computed independently, so
  // the batched forwards give each sample the values its own tape would.
  // Row r of the qnet_ input holds sample B-1-r: Backward folds rows into a
  // weight gradient in ascending row order, which is the order in which
  // per-sample tapes reached Parameter::grad (last sample first).
  void LearnBatch() {
    const int batch = options_.batch_size;
    std::vector<const Transition*> samples;
    nn::Matrix states(batch, encoder_->dim());
    nn::Matrix next_states(batch, encoder_->dim());
    for (int b = 0; b < batch; ++b) {
      const Transition& t = replay_[static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(replay_.size()) - 1))];
      samples.push_back(&t);
      std::copy(t.state.begin(), t.state.end(), &states.at(batch - 1 - b, 0));
      std::copy(t.next_state.begin(), t.next_state.end(),
                &next_states.at(b, 0));
    }
    nn::Matrix qn = QValues(target_, std::move(next_states));
    nn::Graph g;
    nn::Graph::VarId q = qnet_.Forward(g, g.Input(std::move(states)));
    nn::Graph::VarId loss = g.Input(nn::Matrix(1, 1));
    for (int b = 0; b < batch; ++b) {
      const Transition& t = *samples[static_cast<size_t>(b)];
      double target = t.reward;
      if (!t.done) {
        double best_next = -1e300;
        bool any = false;
        for (int j = 0; j < qn.cols(); ++j) {
          if (j < static_cast<int>(t.next_valid.size()) &&
              t.next_valid[static_cast<size_t>(j)]) {
            best_next = std::max(best_next, qn.at(b, j));
            any = true;
          }
        }
        if (any) target += options_.gamma * best_next;
      }
      nn::Graph::VarId qa = g.Pick(q, batch - 1 - b, t.action);
      nn::Matrix tm(1, 1);
      tm.at(0, 0) = target;
      nn::Graph::VarId err = g.Sub(qa, g.Input(tm));
      loss = g.Add(loss, g.Mul(err, err));
    }
    g.Backward(g.Scale(loss, 1.0 / batch));
    opt_->Step();
    CountLearnerUpdate(batch);
  }

  const engine::WhatIfOptimizer* optimizer_;
  DqnOptions options_;
  std::string name_;
  common::Rng rng_;

  ActionSpace actions_;
  std::unique_ptr<StateEncoder> encoder_;
  nn::ParameterStore store_;
  nn::ParameterStore target_store_;
  nn::Mlp qnet_;
  nn::Mlp target_;
  std::unique_ptr<nn::Adam> opt_;
  std::deque<Transition> replay_;
  bool trained_ = false;
};

}  // namespace

DqnOptions DrlIndexDefaults() {
  DqnOptions o;
  o.state = StateGranularity::kCoarse;
  o.multi_column = false;   // DRLindex recommends single-column indexes
  o.prune_candidates = true;
  o.seed = 0xd71;
  return o;
}

DqnOptions DqnAdvisorDefaults() {
  DqnOptions o;
  o.state = StateGranularity::kCoarse;
  o.multi_column = true;    // rule-generated multi-column candidates
  o.prune_candidates = true;
  o.seed = 0xd92;
  return o;
}

std::unique_ptr<LearningAdvisor> MakeDrlIndex(
    const engine::WhatIfOptimizer& optimizer, DqnOptions options) {
  return std::make_unique<DqnAdvisorBase>(optimizer, options, "DRLindex");
}

std::unique_ptr<LearningAdvisor> MakeDqnAdvisor(
    const engine::WhatIfOptimizer& optimizer, DqnOptions options) {
  return std::make_unique<DqnAdvisorBase>(optimizer, options, "DQN");
}

}  // namespace trap::advisor
