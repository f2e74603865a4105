#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sql/tokenizer.h"
#include "trap/agent.h"
#include "trap/perturber.h"
#include "trap/training.h"
#include "workload/generator.h"

namespace trap::trap {
namespace {

using catalog::MakeTpcH;

class TrapTest : public ::testing::Test {
 protected:
  TrapTest()
      : schema_(MakeTpcH(0.2)),
        vocab_(schema_, 8),
        optimizer_(schema_),
        truth_(schema_) {
    workload::GeneratorOptions opt;
    opt.max_tables = 2;
    opt.max_filters = 3;
    workload::QueryGenerator gen(vocab_, opt, 909);
    pool_ = gen.GeneratePool(40);
    common::Rng rng(3);
    for (int i = 0; i < 4; ++i) {
      training_.push_back(workload::SampleWorkload(pool_, 4, rng));
    }
    test_ = workload::SampleWorkload(pool_, 4, rng);
  }

  AgentOptions SmallAgent(EncoderKind enc, bool attention) const {
    AgentOptions a;
    a.encoder = enc;
    a.attention = attention;
    a.embed_dim = 24;
    a.hidden_dim = 24;
    a.transformer = nn::TransformerConfig{24, 2, 48, 1};
    a.seed = 21;
    return a;
  }

  advisor::TuningConstraint Constraint() const {
    return advisor::TuningConstraint::Storage(schema_.DataSizeBytes() / 2);
  }

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
  engine::WhatIfOptimizer optimizer_;
  engine::TrueCostModel truth_;
  std::vector<sql::Query> pool_;
  std::vector<workload::Workload> training_;
  workload::Workload test_;
};

TEST_F(TrapTest, AgentGreedyEpisodeProducesValidQuery) {
  for (EncoderKind enc :
       {EncoderKind::kNone, EncoderKind::kBiGru, EncoderKind::kTransformer}) {
    TrapAgent agent(vocab_, SmallAgent(enc, enc != EncoderKind::kNone));
    for (int i = 0; i < 5; ++i) {
      ReferenceTree tree(pool_[static_cast<size_t>(i)], vocab_,
                         PerturbationConstraint::kSharedTable, 5);
      TrapAgent::EpisodeResult r = agent.RunEpisode(
          nullptr, std::move(tree), TrapAgent::Mode::kGreedy, nullptr);
      std::optional<sql::Query> q = sql::FromTokens(r.output, vocab_);
      ASSERT_TRUE(q.has_value());
      EXPECT_TRUE(sql::ValidateQuery(*q, schema_));
      EXPECT_LE(r.edit_distance, 5);
    }
  }
}

TEST_F(TrapTest, AgentSampledEpisodeIsReproducibleWithSameRng) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  common::Rng r1(7), r2(7);
  ReferenceTree t1(pool_[0], vocab_, PerturbationConstraint::kSharedTable, 5);
  ReferenceTree t2(pool_[0], vocab_, PerturbationConstraint::kSharedTable, 5);
  auto a = agent.RunEpisode(nullptr, std::move(t1), TrapAgent::Mode::kSample, &r1);
  auto b = agent.RunEpisode(nullptr, std::move(t2), TrapAgent::Mode::kSample, &r2);
  EXPECT_EQ(a.choices, b.choices);
}

TEST_F(TrapTest, ForcedNllMatchesEpisodeLogProb) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  common::Rng rng(11);
  ReferenceTree tree(pool_[1], vocab_, PerturbationConstraint::kSharedTable, 5);
  auto sample = agent.RunEpisode(nullptr, std::move(tree),
                                 TrapAgent::Mode::kSample, &rng);
  nn::Graph g;
  nn::Graph::VarId nll = agent.ForcedNll(
      g, ReferenceTree(pool_[1], vocab_, PerturbationConstraint::kSharedTable, 5),
      sample.choices);
  EXPECT_NEAR(g.value(nll).at(0, 0), -sample.total_log_prob, 1e-9);
}

TEST_F(TrapTest, PretrainingReducesNll) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  PretrainOptions opt;
  opt.num_pairs = 60;
  opt.epochs = 4;
  opt.seed = 5;
  std::vector<double> trace =
      Pretrain(agent, pool_, PerturbationConstraint::kSharedTable, 5, opt);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_LT(trace.back(), trace.front());
}

TEST_F(TrapTest, ReinitDecoderKeepsEncoderParameters) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  // Snapshot first parameter (embedding = encoder side) and last (output
  // head = decoder side).
  std::vector<nn::Parameter*> params = agent.store().parameters();
  double enc_before = params.front()->value.at(0, 0);
  nn::Matrix dec_before = params.back()->value;
  agent.ReinitDecoder();
  EXPECT_EQ(params.front()->value.at(0, 0), enc_before);
  bool changed = false;
  for (int i = 0; i < dec_before.size(); ++i) {
    if (params.back()->value.data()[i] != dec_before.data()[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST_F(TrapTest, GruAgentHasFewerParametersThanTransformer) {
  TrapAgent gru(vocab_, SmallAgent(EncoderKind::kNone, false));
  TrapAgent trap(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  TrapAgent plm(vocab_, *PlmAgentOptions("Bert", 3));
  EXPECT_LT(gru.NumParameters(), trap.NumParameters());
  EXPECT_LT(trap.NumParameters(), plm.NumParameters());
}

TEST_F(TrapTest, RlTrainingImprovesEstimatedIudr) {
  gbdt::LearnedUtilityModel utility(optimizer_, truth_);
  utility.Train(pool_, {engine::IndexConfig()});
  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);

  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  RlOptions rl;
  rl.epochs = 6;
  rl.workloads_per_epoch = 3;
  rl.theta = 0.05;
  rl.seed = 77;
  RlTrainer trainer(&agent, victim.get(), nullptr, &optimizer_, &utility,
                    PerturbationConstraint::kSharedTable, 5, Constraint(), rl);
  RlTrace trace = trainer.Train(training_);
  ASSERT_EQ(trace.mean_reward_per_epoch.size(), 6u);

  // The trained policy's perturbation should carry positive estimated IUDR
  // on at least one training workload.
  double best = -1e9;
  for (const workload::Workload& w : training_) {
    best = std::max(best, trainer.EstimatedIudr(w, trainer.Perturb(w)));
  }
  EXPECT_GT(best, 0.0);
}

TEST_F(TrapTest, GeneratorMethodsProduceValidBudgetedWorkloads) {
  gbdt::LearnedUtilityModel utility(optimizer_, truth_);
  utility.Train(pool_, {engine::IndexConfig()});
  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);

  for (GenerationMethod m :
       {GenerationMethod::kRandom, GenerationMethod::kGru,
        GenerationMethod::kSeq2Seq, GenerationMethod::kTrap}) {
    GeneratorConfig cfg;
    cfg.method = m;
    cfg.constraint = PerturbationConstraint::kColumnConsistent;
    cfg.epsilon = 4;
    cfg.agent = SmallAgent(EncoderKind::kBiGru, true);
    cfg.pretrain.num_pairs = 30;
    cfg.pretrain.epochs = 1;
    cfg.rl.epochs = 2;
    cfg.rl.workloads_per_epoch = 2;
    cfg.rl.theta = 0.0;
    cfg.seed = 13;
    AdversarialWorkloadGenerator gen(vocab_, cfg);
    gen.Fit(victim.get(), nullptr, &optimizer_, &utility, pool_, training_,
            Constraint());
    workload::Workload out = gen.Generate(test_);
    ASSERT_EQ(out.size(), test_.size()) << MethodName(m);
    for (int i = 0; i < out.size(); ++i) {
      const sql::Query& pq = out.queries[static_cast<size_t>(i)].query;
      EXPECT_TRUE(sql::ValidateQuery(pq, schema_)) << MethodName(m);
      int dist = sql::EditDistance(
          sql::ToTokens(test_.queries[static_cast<size_t>(i)].query, vocab_),
          sql::ToTokens(pq, vocab_));
      EXPECT_LE(dist, cfg.epsilon) << MethodName(m);
    }
  }
}

// Satellite to the budget-boundary tree tests: end to end through the
// perturber, every constraint kind yields valid workloads that use the edit
// budget but never exceed it.
TEST_F(TrapTest, RandomPerturberRespectsEveryConstraintBudget) {
  gbdt::LearnedUtilityModel utility(optimizer_, truth_);
  utility.Train(pool_, {engine::IndexConfig()});
  auto victim = *advisor::MakeAdvisor("Extend", optimizer_);
  for (PerturbationConstraint constraint :
       {PerturbationConstraint::kValueOnly,
        PerturbationConstraint::kColumnConsistent,
        PerturbationConstraint::kSharedTable}) {
    GeneratorConfig cfg;
    cfg.method = GenerationMethod::kRandom;
    cfg.constraint = constraint;
    cfg.epsilon = 3;
    cfg.seed = 29;
    AdversarialWorkloadGenerator gen(vocab_, cfg);
    gen.Fit(victim.get(), nullptr, &optimizer_, &utility, pool_, training_,
            Constraint());
    workload::Workload out = gen.Generate(test_);
    ASSERT_EQ(out.size(), test_.size()) << ConstraintName(constraint);
    int max_dist = 0;
    for (int i = 0; i < out.size(); ++i) {
      const sql::Query& orig = test_.queries[static_cast<size_t>(i)].query;
      const sql::Query& pq = out.queries[static_cast<size_t>(i)].query;
      EXPECT_TRUE(sql::ValidateQuery(pq, schema_))
          << ConstraintName(constraint);
      int dist = sql::EditDistance(sql::ToTokens(orig, vocab_),
                                   sql::ToTokens(pq, vocab_));
      EXPECT_LE(dist, cfg.epsilon) << ConstraintName(constraint);
      max_dist = std::max(max_dist, dist);
    }
    // The budget is used (perturbation happened), never overdrawn.
    EXPECT_GT(max_dist, 0) << ConstraintName(constraint);
  }
}

TEST_F(TrapTest, EncodeQueryVectorHasExpectedDimension) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  std::vector<int> ids = sql::ToTokenIds(pool_[0], vocab_);
  std::vector<double> v = agent.EncodeQueryVector(ids);
  EXPECT_EQ(v.size(), 24u);
  // Deterministic.
  EXPECT_EQ(agent.EncodeQueryVector(ids), v);
}

TEST_F(TrapTest, PlmOptionsScaleWithModel) {
  int64_t bert = TrapAgent(vocab_, *PlmAgentOptions("Bert", 1)).NumParameters();
  int64_t bart = TrapAgent(vocab_, *PlmAgentOptions("Bart", 1)).NumParameters();
  EXPECT_GT(bart, bert);
}

// Forwards to `inner`, counting recommend calls, and reports `pure` from
// RecommendIsPure.
class CountingAdvisor : public advisor::IndexAdvisor {
 public:
  CountingAdvisor(std::unique_ptr<advisor::IndexAdvisor> inner, bool pure)
      : inner_(std::move(inner)), pure_(pure) {}

  std::string name() const override { return inner_->name(); }
  common::StatusOr<engine::IndexConfig> TryRecommend(
      const workload::Workload& w, const advisor::TuningConstraint& c,
      const common::EvalContext& ctx) override {
    ++calls_;
    return inner_->TryRecommend(w, c, ctx);
  }
  bool RecommendIsPure() const override { return pure_; }
  int64_t calls() const { return calls_; }

 private:
  std::unique_ptr<advisor::IndexAdvisor> inner_;
  bool pure_;
  int64_t calls_ = 0;
};

bool SameBits(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && SameBits(a.data(), b.data(), a.size());
}

bool SameBits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits(a.data(), b.data(), static_cast<size_t>(a.size()));
}

struct PretrainCounts {
  int64_t runs;
  int64_t reused;
};

PretrainCounts ReadPretrainCounts() {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  return {reg.counter("trap.pretrain.runs")->value(),
          reg.counter("trap.pretrain.reused")->value()};
}

class PretrainMemoTest : public TrapTest {
 protected:
  PretrainMemoTest() : utility_(optimizer_, truth_) {
    utility_.Train(pool_, {engine::IndexConfig()});
  }

  GeneratorConfig Config() const {
    GeneratorConfig cfg;
    cfg.method = GenerationMethod::kTrap;
    cfg.constraint = PerturbationConstraint::kColumnConsistent;
    cfg.epsilon = 4;
    cfg.agent = SmallAgent(EncoderKind::kBiGru, true);
    cfg.pretrain.num_pairs = 20;
    cfg.pretrain.epochs = 2;
    cfg.rl.epochs = 2;
    cfg.rl.workloads_per_epoch = 2;
    cfg.rl.theta = 0.0;
    cfg.seed = 13;
    return cfg;
  }

  CountingAdvisor* Victim(const std::string& name, bool pure = true) {
    victims_.push_back(std::make_unique<CountingAdvisor>(
        *advisor::MakeAdvisor(name, optimizer_), pure));
    return victims_.back().get();
  }

  std::unique_ptr<AdversarialWorkloadGenerator> Fit(
      const sql::Vocabulary& vocab, const GeneratorConfig& cfg,
      advisor::IndexAdvisor* victim) {
    return FitOnPool(vocab, cfg, victim, pool_);
  }

  std::unique_ptr<AdversarialWorkloadGenerator> FitOnPool(
      const sql::Vocabulary& vocab, const GeneratorConfig& cfg,
      advisor::IndexAdvisor* victim, const std::vector<sql::Query>& pool) {
    auto gen = std::make_unique<AdversarialWorkloadGenerator>(vocab, cfg);
    gen->Fit(victim, nullptr, &optimizer_, &utility_, pool, training_,
             Constraint());
    return gen;
  }

  // Every parameter's value/m/v, both traces and the generated workload
  // agree bit for bit.
  void ExpectSameGenerator(AdversarialWorkloadGenerator& a,
                           AdversarialWorkloadGenerator& b) {
    const std::vector<nn::Parameter*> pa = a.agent()->store().parameters();
    const std::vector<nn::Parameter*> pb = b.agent()->store().parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(SameBits(pa[i]->value, pb[i]->value)) << "value " << i;
      EXPECT_TRUE(SameBits(pa[i]->m, pb[i]->m)) << "m " << i;
      EXPECT_TRUE(SameBits(pa[i]->v, pb[i]->v)) << "v " << i;
    }
    EXPECT_TRUE(SameBits(a.pretrain_trace(), b.pretrain_trace()));
    EXPECT_TRUE(SameBits(a.rl_trace().mean_reward_per_epoch,
                         b.rl_trace().mean_reward_per_epoch));
    const workload::Workload wa = a.Generate(test_);
    const workload::Workload wb = b.Generate(test_);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.queries.size(); ++i) {
      EXPECT_TRUE(wa.queries[i].query == wb.queries[i].query) << i;
    }
  }

  gbdt::LearnedUtilityModel utility_;
  std::vector<std::unique_ptr<CountingAdvisor>> victims_;
};

TEST_F(PretrainMemoTest, ReuseIsBitIdenticalToPretrainingAfresh) {
  const GeneratorConfig cfg = Config();
  const PretrainCounts start = ReadPretrainCounts();
  Fit(vocab_, cfg, Victim("Extend"));
  std::unique_ptr<AdversarialWorkloadGenerator> reused =
      Fit(vocab_, cfg, Victim("DB2Advis"));
  PretrainCounts now = ReadPretrainCounts();
  EXPECT_EQ(now.runs - start.runs, 1);
  EXPECT_EQ(now.reused - start.reused, 1);

  // A fresh vocabulary on the same schema never sees the memo's entries.
  const sql::Vocabulary fresh_vocab(schema_, 8);
  std::unique_ptr<AdversarialWorkloadGenerator> fresh =
      Fit(fresh_vocab, cfg, Victim("DB2Advis"));
  now = ReadPretrainCounts();
  EXPECT_EQ(now.runs - start.runs, 2);
  EXPECT_EQ(now.reused - start.reused, 1);
  ExpectSameGenerator(*reused, *fresh);
}

TEST_F(PretrainMemoTest, FourVictimsSharingAConfigPretrainOnce) {
  const PretrainCounts start = ReadPretrainCounts();
  for (const char* name : {"Extend", "AutoAdmin", "DB2Advis", "Drop"}) {
    Fit(vocab_, Config(), Victim(name));
  }
  const PretrainCounts now = ReadPretrainCounts();
  EXPECT_EQ(now.runs - start.runs, 1);
  EXPECT_EQ(now.reused - start.reused, 3);
}

TEST_F(PretrainMemoTest, AnyKeyChangeMisses) {
  GeneratorConfig seed = Config();
  seed.pretrain.seed ^= 1;
  GeneratorConfig epsilon = Config();
  epsilon.epsilon = 3;
  GeneratorConfig constraint = Config();
  constraint.constraint = PerturbationConstraint::kSharedTable;
  std::vector<sql::Query> pool = pool_;
  pool[0] = pool_[1];

  Fit(vocab_, Config(), Victim("Extend"));
  for (const GeneratorConfig& cfg : {seed, epsilon, constraint}) {
    const PretrainCounts start = ReadPretrainCounts();
    Fit(vocab_, cfg, Victim("Extend"));
    EXPECT_EQ(ReadPretrainCounts().runs - start.runs, 1);
  }
  const PretrainCounts start = ReadPretrainCounts();
  FitOnPool(vocab_, Config(), Victim("Extend"), pool);
  const PretrainCounts now = ReadPretrainCounts();
  EXPECT_EQ(now.runs - start.runs, 1);
  EXPECT_EQ(now.reused - start.reused, 0);
}

TEST_F(PretrainMemoTest, ConcurrentFitsOnOneKeyAgree) {
  const GeneratorConfig cfg = Config();
  advisor::IndexAdvisor* victims[2] = {Victim("Extend"), Victim("Extend")};
  std::unique_ptr<AdversarialWorkloadGenerator> gens[2];
  const PretrainCounts start = ReadPretrainCounts();
  common::ParallelFor(
      2, [&](size_t i) { gens[i] = Fit(vocab_, cfg, victims[i]); });
  const PretrainCounts now = ReadPretrainCounts();
  EXPECT_EQ((now.runs - start.runs) + (now.reused - start.reused), 2);
  ExpectSameGenerator(*gens[0], *gens[1]);
}

// A pure victim is asked for u(W) once per RL step and once per generation;
// an impure one is asked every time, as before. Both give the same result.
TEST_F(PretrainMemoTest, UtilityOfWorkloadIsAskedOncePerStepForPureVictims) {
  GeneratorConfig cfg = Config();
  cfg.pretrain_enabled = false;
  cfg.model_attempts = 3;
  CountingAdvisor* pure = Victim("Extend", true);
  CountingAdvisor* impure = Victim("Extend", false);
  std::unique_ptr<AdversarialWorkloadGenerator> a = Fit(vocab_, cfg, pure);
  std::unique_ptr<AdversarialWorkloadGenerator> b = Fit(vocab_, cfg, impure);
  EXPECT_LT(pure->calls(), impure->calls());
  const int64_t pure_fit = pure->calls();
  const int64_t impure_fit = impure->calls();
  ExpectSameGenerator(*a, *b);
  // One generation scores the greedy and two sampled candidates.
  EXPECT_EQ(pure->calls() - pure_fit, 1 + 3);
  EXPECT_EQ(impure->calls() - impure_fit, 2 * 3);
}

}  // namespace
}  // namespace trap::trap
