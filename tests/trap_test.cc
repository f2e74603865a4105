#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "advisor/registry.h"
#include "catalog/datasets.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sql/query.h"
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

// Encodings recorded by a decode on a training tape, entered as values by
// later decodes under the same weights, give the bits a fresh encode gives.
TEST_F(TrapTest, RecordedEncodingDecodesLikeAFreshEncode) {
  for (bool attention : {false, true}) {
    TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, attention));
    TrapAgent::Encodings encodings;
    nn::Graph tape;
    common::Rng sample_rng(5);
    for (int i = 0; i < 4; ++i) {
      agent.RunEpisode(&tape,
                       ReferenceTree(pool_[static_cast<size_t>(i)], vocab_,
                                     PerturbationConstraint::kSharedTable, 5),
                       TrapAgent::Mode::kSample, &sample_rng, {}, &encodings);
    }
    ASSERT_EQ(encodings.size(), 4u);
    for (int i = 0; i < 4; ++i) {
      const sql::Query& q = pool_[static_cast<size_t>(i)];
      const ReferenceTree tree(q, vocab_, PerturbationConstraint::kSharedTable,
                               5);
      common::Rng r1(9), r2(9);
      auto fresh =
          agent.RunEpisode(nullptr, tree, TrapAgent::Mode::kSample, &r1);
      auto reused = agent.RunEpisode(nullptr, tree, TrapAgent::Mode::kSample,
                                     &r2, {}, &encodings);
      EXPECT_EQ(fresh.choices, reused.choices) << i;
      EXPECT_EQ(std::memcmp(&fresh.total_log_prob, &reused.total_log_prob,
                            sizeof(double)),
                0)
          << i;
    }
  }
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
    const std::optional<double> iudr =
        trainer.EstimatedIudr(w, trainer.Perturb(w));
    ASSERT_TRUE(iudr.has_value());
    best = std::max(best, *iudr);
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
    workload::Workload out = gen.TryGenerate(test_).value();
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
    workload::Workload out = gen.TryGenerate(test_).value();
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

bool SameBits(const std::vector<std::optional<double>>& a,
              const std::vector<std::optional<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].has_value() != b[i].has_value()) return false;
    if (a[i].has_value() && !SameBits(&*a[i], &*b[i], 1)) return false;
  }
  return true;
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
    const workload::Workload wa = a.TryGenerate(test_).value();
    const workload::Workload wb = b.TryGenerate(test_).value();
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

// FNV-1a over the eight bytes of each word, as the learner weight pins hash.
uint64_t Fnv(uint64_t h, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h = (h ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

uint64_t Fnv(uint64_t h, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Fnv(h, bits);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// The full TRAP method on a small TPC-H generator (Bi-GRU encoder,
// attention decoder): pretraining, RL against Extend under the learned
// utility model, then best-of-3 generation on three workloads. Every agent
// parameter's value/m/v bits, the pretrain NLL trace, the RL reward trace
// and the generated queries' fingerprints are pinned. The digests were taken
// before Backward folded single-term Param gradients into Parameter::grad
// and before decodes reused recorded encodings; neither may move a bit.
// params and rewards were re-pinned (from 0x3b5a8f420f4bf499 and
// 0x6f6387e5a9080c87) when the utility model's split search began summing
// tied rows in ascending row id order: the RL reward reads that model.
TEST_F(PretrainMemoTest, TrapMethodOutputsBitIdentical) {
  GeneratorConfig cfg = Config();
  cfg.rl.epochs = 3;
  std::unique_ptr<AdversarialWorkloadGenerator> gen =
      Fit(vocab_, cfg, Victim("Extend"));

  uint64_t params = kFnvBasis;
  for (const nn::Parameter* p : gen->agent()->store().parameters()) {
    for (const nn::Matrix* m : {&p->value, &p->m, &p->v}) {
      for (int i = 0; i < m->size(); ++i) params = Fnv(params, m->data()[i]);
    }
  }
  uint64_t pretrain = kFnvBasis;
  for (double nll : gen->pretrain_trace()) pretrain = Fnv(pretrain, nll);
  uint64_t rewards = kFnvBasis;
  for (const std::optional<double>& r : gen->rl_trace().mean_reward_per_epoch) {
    ASSERT_TRUE(r.has_value());
    rewards = Fnv(rewards, *r);
  }
  uint64_t generated = kFnvBasis;
  for (const workload::Workload* w : {&test_, &training_[0], &training_[1]}) {
    // Bound first: a range-for over TryGenerate(...).value().queries would
    // iterate a destroyed temporary.
    common::StatusOr<workload::Workload> out = gen->TryGenerate(*w);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (const workload::WorkloadQuery& wq : out->queries) {
      generated = Fnv(generated, sql::Fingerprint(wq.query));
    }
  }
  EXPECT_EQ(params, 0x31e0146a8d2d629dULL) << std::hex << params;
  EXPECT_EQ(pretrain, 0xc214c7d5025da21bULL) << std::hex << pretrain;
  EXPECT_EQ(rewards, 0x7a63a574bacdc952ULL) << std::hex << rewards;
  EXPECT_EQ(generated, 0x93d3dd47a44f6258ULL) << std::hex << generated;
}

// The TRAP method with the raw what-if reward, on an agent whose GRU input
// and hidden widths differ (embedding 16, encoder directions 10 wide, the
// decoder 20): pretraining, RL against DB2Advis, then best-of-3 generation
// on two workloads. Every parameter's value/m/v bits, the RL reward trace
// and the generated queries' fingerprints are pinned, so no change to the
// nn kernels or to how a GRU step is taped may move a bit of them.
TEST_F(TrapTest, RawRewardGeneratorMatchesPinnedBits) {
  GeneratorConfig cfg;
  cfg.method = GenerationMethod::kTrap;
  cfg.constraint = PerturbationConstraint::kSharedTable;
  cfg.epsilon = 5;
  cfg.agent.embed_dim = 16;
  cfg.agent.hidden_dim = 20;
  cfg.pretrain.num_pairs = 16;
  cfg.pretrain.epochs = 2;
  cfg.rl.epochs = 2;
  cfg.rl.workloads_per_epoch = 2;
  cfg.rl.theta = 0.0;
  cfg.rl.use_learned_utility = false;
  cfg.model_attempts = 3;
  cfg.seed = 17;
  auto victim = *advisor::MakeAdvisor("DB2Advis", optimizer_);
  AdversarialWorkloadGenerator gen(vocab_, cfg);
  gen.Fit(victim.get(), nullptr, &optimizer_, nullptr, pool_, training_,
          Constraint());

  uint64_t params = kFnvBasis;
  for (const nn::Parameter* p : gen.agent()->store().parameters()) {
    for (const nn::Matrix* m : {&p->value, &p->m, &p->v}) {
      for (int i = 0; i < m->size(); ++i) params = Fnv(params, m->data()[i]);
    }
  }
  uint64_t rewards = kFnvBasis;
  for (const std::optional<double>& r : gen.rl_trace().mean_reward_per_epoch) {
    rewards = Fnv(rewards, r.has_value() ? *r : -1.0);
  }
  uint64_t generated = kFnvBasis;
  for (const workload::Workload* w : {&test_, &training_[2]}) {
    common::StatusOr<workload::Workload> out = gen.TryGenerate(*w);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (const workload::WorkloadQuery& wq : out->queries) {
      generated = Fnv(generated, sql::Fingerprint(wq.query));
    }
  }
  EXPECT_EQ(params, 0xed5edc90b3bea212ULL) << std::hex << params;
  EXPECT_EQ(rewards, 0x0a416035c55e2f4bULL) << std::hex << rewards;
  EXPECT_EQ(generated, 0x52c791c3da529512ULL) << std::hex << generated;
}

// An epoch in which every drawn workload fails u(W) > theta has no mean
// reward, not a reward of zero, and leaves the weights as they were.
TEST_F(PretrainMemoTest, EpochWithoutUsableWorkloadHasNoMeanReward) {
  TrapAgent agent(vocab_, SmallAgent(EncoderKind::kBiGru, true));
  std::vector<nn::Matrix> before;
  for (const nn::Parameter* p : agent.store().parameters()) {
    before.push_back(p->value);
  }
  RlOptions rl;
  rl.epochs = 2;
  rl.workloads_per_epoch = 2;
  rl.theta = 1.0;  // u(W) = 1 - cost(selected) / cost(base) never exceeds 1
  RlTrainer trainer(&agent, Victim("Extend"), nullptr, &optimizer_, &utility_,
                    PerturbationConstraint::kSharedTable, 5, Constraint(), rl);
  const RlTrace trace = trainer.Train(training_);
  ASSERT_EQ(trace.mean_reward_per_epoch.size(), 2u);
  for (const std::optional<double>& r : trace.mean_reward_per_epoch) {
    EXPECT_FALSE(r.has_value()) << *r;
  }
  const std::vector<nn::Parameter*> after = agent.store().parameters();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(SameBits(after[i]->value, before[i])) << i;
  }
}

// The raw what-if reward under injected cost errors: a failed probe leaves
// u(W) or u(W') unknown, so that workload gives no step and that candidate
// no score. Fitting finishes with every weight finite, each epoch's mean
// reward is finite or absent, and best-of-3 generation still answers.
TEST_F(PretrainMemoTest, RawWhatIfRewardSkipsFailedProbes) {
  GeneratorConfig cfg = Config();
  cfg.rl.use_learned_utility = false;
  cfg.model_attempts = 3;
  common::ScopedFaultSpec faults("engine.whatif.cost_error@p=0.3", 7);
  std::unique_ptr<AdversarialWorkloadGenerator> gen =
      Fit(vocab_, cfg, Victim("Extend"));

  for (const nn::Parameter* p : gen->agent()->store().parameters()) {
    for (const nn::Matrix* m : {&p->value, &p->m, &p->v}) {
      for (int i = 0; i < m->size(); ++i) {
        ASSERT_TRUE(std::isfinite(m->data()[i]));
      }
    }
  }
  ASSERT_EQ(gen->rl_trace().mean_reward_per_epoch.size(),
            static_cast<size_t>(cfg.rl.epochs));
  for (const std::optional<double>& r : gen->rl_trace().mean_reward_per_epoch) {
    EXPECT_TRUE(!r.has_value() || std::isfinite(*r)) << *r;
  }
  for (const workload::Workload* w : {&test_, &training_[0], &training_[1]}) {
    common::StatusOr<workload::Workload> out = gen->TryGenerate(*w);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->size(), w->size());
  }
}

// One generation decodes w three times (greedy and two samples) under the
// same weights: each distinct query is encoded once and reused after.
TEST_F(PretrainMemoTest, GenerationEncodesEachQueryOnce) {
  GeneratorConfig cfg = Config();
  cfg.pretrain_enabled = false;
  cfg.model_attempts = 3;
  std::unique_ptr<AdversarialWorkloadGenerator> gen =
      Fit(vocab_, cfg, Victim("Extend"));
  std::set<uint64_t> distinct;
  for (const workload::WorkloadQuery& wq : test_.queries) {
    distinct.insert(sql::Fingerprint(wq.query));
  }
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* encodes = reg.counter("trap.agent.encodes");
  obs::Counter* reused = reg.counter("trap.agent.encodes_reused");
  const int64_t encodes_before = encodes->value();
  const int64_t reused_before = reused->value();
  ASSERT_TRUE(gen->TryGenerate(test_).ok());
  const int64_t n = static_cast<int64_t>(test_.queries.size());
  EXPECT_EQ(encodes->value() - encodes_before,
            static_cast<int64_t>(distinct.size()));
  EXPECT_EQ(reused->value() - reused_before,
            3 * n - static_cast<int64_t>(distinct.size()));
}

}  // namespace
}  // namespace trap::trap
