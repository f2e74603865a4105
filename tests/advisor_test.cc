#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "advisor/candidates.h"
#include "advisor/registry.h"
#include "advisor/evaluation.h"
#include "catalog/datasets.h"
#include "common/fault.h"
#include "obs/obs.h"
#include "workload/generator.h"

namespace trap::advisor {
namespace {

using catalog::MakeTpcH;
using engine::Index;
using engine::IndexConfig;
using workload::GeneratorOptions;
using workload::QueryGenerator;
using workload::Workload;

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest()
      : schema_(MakeTpcH(0.2)),
        vocab_(schema_, 8),
        optimizer_(schema_),
        truth_(schema_) {
    GeneratorOptions opt;
    opt.max_tables = 3;
    opt.max_filters = 3;
    QueryGenerator gen(vocab_, opt, 101);
    pool_ = gen.GeneratePool(60);
    common::Rng rng(5);
    for (int i = 0; i < 6; ++i) {
      training_.push_back(workload::SampleWorkload(pool_, 6, rng));
    }
    test_workload_ = workload::SampleWorkload(pool_, 8, rng);
  }

  TuningConstraint StorageConstraint() const {
    return TuningConstraint::Storage(schema_.DataSizeBytes() / 2);
  }
  TuningConstraint CountConstraint(int n) const {
    return TuningConstraint::IndexCount(n, schema_.DataSizeBytes() / 2);
  }

  double Cost(const Workload& w, const IndexConfig& c) const {
    return optimizer_.TryWorkloadCost(w, c).value();
  }

  catalog::Schema schema_;
  sql::Vocabulary vocab_;
  engine::WhatIfOptimizer optimizer_;
  engine::TrueCostModel truth_;
  std::vector<sql::Query> pool_;
  std::vector<Workload> training_;
  Workload test_workload_;
};

TEST_F(AdvisorTest, IndexableColumnsOrderedByCount) {
  std::vector<IndexableColumn> cols = IndexableColumns(test_workload_);
  ASSERT_FALSE(cols.empty());
  for (size_t i = 1; i < cols.size(); ++i) {
    EXPECT_GE(cols[i - 1].count, cols[i].count);
  }
}

TEST_F(AdvisorTest, MultiColumnCandidatesRespectWidth) {
  std::vector<Index> cands = MultiColumnCandidates(test_workload_, schema_, 2);
  for (const Index& i : cands) {
    EXPECT_GE(i.NumColumns(), 2);
    EXPECT_LE(i.NumColumns(), 2);
    for (catalog::ColumnId c : i.columns) {
      EXPECT_EQ(c.table, i.table());
    }
  }
}

TEST_F(AdvisorTest, CandidatesAreDeduplicated) {
  std::vector<Index> cands = AllCandidates(test_workload_, schema_, true, 3);
  std::set<Index> unique(cands.begin(), cands.end());
  EXPECT_EQ(unique.size(), cands.size());
}

TEST_F(AdvisorTest, FitsConstraintChecksCountAndStorage) {
  IndexConfig config;
  Index idx{{*schema_.FindColumn("lineitem", "l_shipdate")}};
  TuningConstraint one = CountConstraint(1);
  EXPECT_TRUE(FitsConstraint(config, idx, one, schema_));
  config.Add(idx);
  Index idx2{{*schema_.FindColumn("lineitem", "l_quantity")}};
  EXPECT_FALSE(FitsConstraint(config, idx2, one, schema_));
  // Tiny storage budget rejects everything.
  TuningConstraint tiny = TuningConstraint::Storage(10);
  EXPECT_FALSE(FitsConstraint(IndexConfig(), idx, tiny, schema_));
}

// -- heuristic advisors ------------------------------------------------------

TEST_F(AdvisorTest, ExtendReducesCostWithinBudget) {
  auto advisor = *MakeAdvisor("Extend", optimizer_);
  TuningConstraint c = StorageConstraint();
  IndexConfig config = advisor->TryRecommend(test_workload_, c, {}).value();
  EXPECT_FALSE(config.empty());
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config),
            Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, ExtendProducesMultiColumnIndexes) {
  auto advisor = *MakeAdvisor("Extend", optimizer_);
  // Aggregate over several workloads: extension steps should fire somewhere.
  bool any_multi = false;
  for (const Workload& w : training_) {
    IndexConfig config =
        advisor->TryRecommend(w, StorageConstraint(), {}).value();
    for (const Index& i : config.indexes()) {
      if (i.NumColumns() > 1) any_multi = true;
    }
  }
  EXPECT_TRUE(any_multi);
}

TEST_F(AdvisorTest, Db2AdvisReducesCostWithinBudget) {
  auto advisor = *MakeAdvisor("DB2Advis", optimizer_);
  TuningConstraint c = StorageConstraint();
  IndexConfig config = advisor->TryRecommend(test_workload_, c, {}).value();
  EXPECT_FALSE(config.empty());
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, AutoAdminRespectsIndexCount) {
  auto advisor = *MakeAdvisor("AutoAdmin", optimizer_);
  TuningConstraint c = CountConstraint(3);
  IndexConfig config = advisor->TryRecommend(test_workload_, c, {}).value();
  EXPECT_LE(config.size(), 3);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, DropReturnsSingleColumnWithinCount) {
  auto advisor = *MakeAdvisor("Drop", optimizer_);
  TuningConstraint c = CountConstraint(3);
  IndexConfig config = advisor->TryRecommend(test_workload_, c, {}).value();
  EXPECT_LE(config.size(), 3);
  for (const Index& i : config.indexes()) {
    EXPECT_TRUE(i.IsSingleColumn());
  }
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, RelaxationMeetsStorageBudget) {
  auto advisor = *MakeAdvisor("Relaxation", optimizer_);
  // Use a tight budget to force actual relaxation moves.
  TuningConstraint c = TuningConstraint::Storage(schema_.DataSizeBytes() / 20);
  IndexConfig config = advisor->TryRecommend(test_workload_, c, {}).value();
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
}

TEST_F(AdvisorTest, DtaReducesCostWithinBudget) {
  auto advisor = *MakeAdvisor("DTA", optimizer_);
  TuningConstraint c = StorageConstraint();
  IndexConfig config = advisor->TryRecommend(test_workload_, c, {}).value();
  EXPECT_FALSE(config.empty());
  EXPECT_LE(config.TotalSizeBytes(schema_), c.storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, DtaAtLeastAsGoodAsSingleColumnGreedy) {
  auto dta = *MakeAdvisor("DTA", optimizer_);
  RegistryOptions single_only;
  single_only.heuristic.multi_column = false;
  auto extend_single = *MakeAdvisor("Extend", optimizer_, single_only);
  TuningConstraint c = StorageConstraint();
  double dta_cost =
      Cost(test_workload_, dta->TryRecommend(test_workload_, c, {}).value());
  double single_cost =
      Cost(test_workload_,
           extend_single->TryRecommend(test_workload_, c, {}).value());
  EXPECT_LE(dta_cost, single_cost * 1.05);
}

TEST_F(AdvisorTest, InteractionSwitchChangesBehaviour) {
  RegistryOptions with;
  with.heuristic.consider_interaction = true;
  RegistryOptions without;
  without.heuristic.consider_interaction = false;
  auto a = *MakeAdvisor("Extend", optimizer_, with);
  auto b = *MakeAdvisor("Extend", optimizer_, without);
  // Across several workloads the two settings must diverge at least once,
  // and interaction-aware selection must never be (meaningfully) worse.
  bool diverged = false;
  for (const Workload& w : training_) {
    IndexConfig ca = a->TryRecommend(w, StorageConstraint(), {}).value();
    IndexConfig cb = b->TryRecommend(w, StorageConstraint(), {}).value();
    if (!(ca == cb)) diverged = true;
    EXPECT_LE(Cost(w, ca), Cost(w, cb) * 1.01);
  }
  EXPECT_TRUE(diverged);
}

TEST_F(AdvisorTest, MultiColumnSwitchChangesCandidates) {
  RegistryOptions single;
  single.heuristic.multi_column = false;
  auto a = *MakeAdvisor("Extend", optimizer_, RegistryOptions{});
  auto b = *MakeAdvisor("Extend", optimizer_, single);
  for (const Workload& w : training_) {
    IndexConfig cb = b->TryRecommend(w, StorageConstraint(), {}).value();
    for (const Index& i : cb.indexes()) EXPECT_TRUE(i.IsSingleColumn());
  }
  (void)a;
}

// Every heuristic under a storage and a count budget, with and without
// interaction-aware benefits, on two TPC-H workloads and a 16-query TPC-DS
// one whose interaction-aware DTA runs out of its anytime evaluation
// budget inside the swap pass. Pinned from the greedy searches that costed
// every (query, configuration) pair: how a search costs its candidates
// must not move a recommendation.
TEST_F(AdvisorTest, HeuristicRecommendationsMatchPinnedFingerprints) {
  struct Case {
    const char* name;
    bool count;  // an index-count budget of 3, else a tenth of the data size
    bool interaction;
    uint64_t fingerprints[3];
  };
  const Case cases[] = {
      {"Extend", false, true,
       {0xbe248e26009db42bULL, 0x2f93fc42701cba2cULL, 0xe512a194d29e91d8ULL}},
      {"Extend", false, false,
       {0x2ef8aed6c9a1d6f2ULL, 0x21ef219f0487470cULL, 0x489ccf833d532fe1ULL}},
      {"Extend", true, true,
       {0xf0c888b86dc4a1ebULL, 0x7e302fe30b5dd9fdULL, 0xc8d583bec429dd11ULL}},
      {"Extend", true, false,
       {0xf0c888b86dc4a1ebULL, 0x476edba63442c82cULL, 0xc8d583bec429dd11ULL}},
      {"DB2Advis", false, true,
       {0x2588518105b4a008ULL, 0x48c06a2fc5bee038ULL, 0xd161f2bf1ba95c32ULL}},
      {"DB2Advis", false, false,
       {0x2588518105b4a008ULL, 0x48c06a2fc5bee038ULL, 0xd161f2bf1ba95c32ULL}},
      {"DB2Advis", true, true,
       {0xbb04e920280ffbf0ULL, 0x3c57a36a69c40facULL, 0x9e4aa4a00cec3dfbULL}},
      {"DB2Advis", true, false,
       {0xbb04e920280ffbf0ULL, 0x3c57a36a69c40facULL, 0x9e4aa4a00cec3dfbULL}},
      {"AutoAdmin", false, true,
       {0x2588518105b4a008ULL, 0x61bb53c137510cb2ULL, 0x248131d8b26ec91fULL}},
      {"AutoAdmin", false, false,
       {0x2588518105b4a008ULL, 0x61bb53c137510cb2ULL, 0x6ce33d0bf2671cd7ULL}},
      {"AutoAdmin", true, true,
       {0x08764d75751dc9e3ULL, 0x6c24ecaf2c6a16d3ULL, 0x9a33ba03b6162fa7ULL}},
      {"AutoAdmin", true, false,
       {0x08764d75751dc9e3ULL, 0x6c24ecaf2c6a16d3ULL, 0x8a19f1a60c2533a8ULL}},
      {"Drop", false, true,
       {0xb3baa19f22523dbcULL, 0x1659678dc1aa1142ULL, 0xdb39328c5a13b51fULL}},
      {"Drop", false, false,
       {0xb3baa19f22523dbcULL, 0x1659678dc1aa1142ULL, 0xdb39328c5a13b51fULL}},
      {"Drop", true, true,
       {0x08764d75751dc9e3ULL, 0x6c24ecaf2c6a16d3ULL, 0xcf2d29fa7e470ac2ULL}},
      {"Drop", true, false,
       {0x08764d75751dc9e3ULL, 0x6c24ecaf2c6a16d3ULL, 0xcf2d29fa7e470ac2ULL}},
      {"Relaxation", false, true,
       {0x7b7f35f9e6f9d5acULL, 0xd051e50d2dc19ea3ULL, 0x8e4804f9b0ef8be9ULL}},
      {"Relaxation", false, false,
       {0x7b7f35f9e6f9d5acULL, 0xd051e50d2dc19ea3ULL, 0x8e4804f9b0ef8be9ULL}},
      {"Relaxation", true, true,
       {0x08764d75751dc9e3ULL, 0x7832096394a74540ULL, 0x8e4804f9b0ef8be9ULL}},
      {"Relaxation", true, false,
       {0x08764d75751dc9e3ULL, 0x7832096394a74540ULL, 0x8e4804f9b0ef8be9ULL}},
      {"DTA", false, true,
       {0x5a1aba010f6b3fcbULL, 0x62152b1058359ad1ULL, 0x321512c43f11f2f5ULL}},
      {"DTA", false, false,
       {0x5a1aba010f6b3fcbULL, 0x44104a6a41123b64ULL, 0xb8e64743954fc408ULL}},
      {"DTA", true, true,
       {0x08764d75751dc9e3ULL, 0x6c24ecaf2c6a16d3ULL, 0xcf2d29fa7e470ac2ULL}},
      {"DTA", true, false,
       {0x08764d75751dc9e3ULL, 0x6c24ecaf2c6a16d3ULL, 0xcf2d29fa7e470ac2ULL}},
  };
  const catalog::Schema tpcds = catalog::MakeTpcDs();
  const sql::Vocabulary tpcds_vocab(tpcds, 8);
  const engine::WhatIfOptimizer tpcds_optimizer(tpcds);
  GeneratorOptions gopt;
  gopt.max_tables = 5;
  gopt.max_filters = 5;
  QueryGenerator gen(tpcds_vocab, gopt, 23);
  const std::vector<sql::Query> tpcds_pool = gen.GeneratePool(40);
  common::Rng rng(17);
  common::Rng tpcds_rng(1);
  struct Target {
    const catalog::Schema* schema;
    const engine::WhatIfOptimizer* optimizer;
    Workload workload;
  };
  const Target targets[] = {
      {&schema_, &optimizer_, test_workload_},
      {&schema_, &optimizer_, workload::SampleWorkload(pool_, 8, rng)},
      {&tpcds, &tpcds_optimizer,
       workload::SampleWorkload(tpcds_pool, 16, tpcds_rng)},
  };
  for (const Case& c : cases) {
    RegistryOptions opt;
    opt.heuristic.consider_interaction = c.interaction;
    for (int i = 0; i < 3; ++i) {
      const Target& t = targets[i];
      auto advisor = *MakeAdvisor(c.name, *t.optimizer, opt);
      const int64_t data = t.schema->DataSizeBytes();
      const TuningConstraint constraint =
          c.count ? TuningConstraint::IndexCount(3, data / 2)
                  : TuningConstraint::Storage(data / 10);
      const uint64_t fp = advisor->TryRecommend(t.workload, constraint, {})
                              .value()
                              .Fingerprint();
      EXPECT_EQ(fp, c.fingerprints[i])
          << c.name << (c.count ? " count" : " storage")
          << (c.interaction ? " interaction" : " isolated") << " workload "
          << i << " 0x" << std::hex << fp;
    }
  }
}

// -- learning advisors -------------------------------------------------------

TEST_F(AdvisorTest, SwirlTrainsAndImproves) {
  RegistryOptions opt;
  opt.rl_episodes = 80;
  opt.max_actions = 24;
  auto advisor = *MakeLearningAdvisor("SWIRL", optimizer_, opt);
  advisor->Train(training_, StorageConstraint());
  IndexConfig config =
      advisor->TryRecommend(test_workload_, StorageConstraint(), {}).value();
  EXPECT_LE(config.TotalSizeBytes(schema_),
            StorageConstraint().storage_budget_bytes);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

TEST_F(AdvisorTest, SwirlRecommendIsDeterministic) {
  RegistryOptions opt;
  opt.rl_episodes = 40;
  opt.max_actions = 16;
  auto advisor = *MakeLearningAdvisor("SWIRL", optimizer_, opt);
  advisor->Train(training_, StorageConstraint());
  IndexConfig a =
      advisor->TryRecommend(test_workload_, StorageConstraint(), {}).value();
  IndexConfig b =
      advisor->TryRecommend(test_workload_, StorageConstraint(), {}).value();
  EXPECT_EQ(a, b);
}

TEST_F(AdvisorTest, DrlIndexRespectsCountAndSingleColumn) {
  RegistryOptions opt;
  opt.rl_episodes = 60;
  opt.max_actions = 16;
  auto advisor = *MakeLearningAdvisor("DRLindex", optimizer_, opt);
  advisor->Train(training_, CountConstraint(3));
  IndexConfig config =
      advisor->TryRecommend(test_workload_, CountConstraint(3), {}).value();
  EXPECT_LE(config.size(), 3);
  for (const Index& i : config.indexes()) EXPECT_TRUE(i.IsSingleColumn());
}

TEST_F(AdvisorTest, DqnAdvisorImprovesCost) {
  RegistryOptions opt;
  opt.rl_episodes = 60;
  opt.max_actions = 24;
  auto advisor = *MakeLearningAdvisor("DQN", optimizer_, opt);
  advisor->Train(training_, CountConstraint(4));
  IndexConfig config =
      advisor->TryRecommend(test_workload_, CountConstraint(4), {}).value();
  EXPECT_LE(config.size(), 4);
  EXPECT_LT(Cost(test_workload_, config),
            Cost(test_workload_, IndexConfig()) * 1.0001);
}

// FNV-1a over the bits of every trained weight, in parameter order.
uint64_t WeightDigest(const LearningAdvisor& advisor) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const nn::Parameter* p : advisor.weights().parameters()) {
    for (int i = 0; i < p->value.size(); ++i) {
      uint64_t bits = 0;
      std::memcpy(&bits, p->value.data() + i, sizeof(bits));
      for (int byte = 0; byte < 8; ++byte) {
        h = (h ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// The learners' weights after a short training run, pinned before the
// replay and episode updates moved from per-sample tapes to one batched
// tape: the batching must not change a single bit. Each update is counted.
TEST_F(AdvisorTest, LearnerWeightsBitIdenticalToPerSampleTapes) {
  struct Case {
    const char* name;
    TuningConstraint constraint;
    uint64_t digest;
  };
  const Case cases[] = {
      {"DQN", CountConstraint(4), 0x6de11d545109f8bdULL},
      {"DRLindex", CountConstraint(3), 0x4856d0719581f626ULL},
      {"SWIRL", StorageConstraint(), 0xff08eaba08b5a7cdULL},
  };
  obs::Counter* updates =
      obs::MetricRegistry::Global().counter("trap.advisor.learner.updates");
  for (const Case& c : cases) {
    RegistryOptions opt;
    opt.rl_episodes = 60;
    opt.max_actions = 16;
    auto advisor = *MakeLearningAdvisor(c.name, optimizer_, opt);
    const int64_t before = updates->value();
    advisor->Train(training_, c.constraint);
    EXPECT_GT(updates->value(), before) << c.name;
    EXPECT_EQ(WeightDigest(*advisor), c.digest)
        << c.name << " 0x" << std::hex << WeightDigest(*advisor);
  }
}

// A greedy DQN walk reads the coarse state (column counts and built flags)
// and the Q-network, never a cost: recommending makes no what-if call.
TEST_F(AdvisorTest, CoarseDqnRecommendMakesNoWhatIfCalls) {
  RegistryOptions opt;
  opt.rl_episodes = 60;
  opt.max_actions = 16;
  auto advisor = *MakeLearningAdvisor("DQN", optimizer_, opt);
  advisor->Train(training_, CountConstraint(4));
  const int64_t calls = optimizer_.num_calls();
  IndexConfig config =
      advisor->TryRecommend(test_workload_, CountConstraint(4), {}).value();
  EXPECT_EQ(optimizer_.num_calls(), calls);
  EXPECT_FALSE(config.empty());
}

// A greedy SWIRL walk reads the fine state at every step, and with it the
// workload's no-index cost. No step changes that cost, so the walk costs it
// once: one what-if call per query, however many indexes it builds.
TEST_F(AdvisorTest, FineSwirlRecommendCostsTheEmptyConfigurationOnce) {
  RegistryOptions opt;
  opt.rl_episodes = 60;
  opt.max_actions = 16;
  auto advisor = *MakeLearningAdvisor("SWIRL", optimizer_, opt);
  advisor->Train(training_, StorageConstraint());
  const int64_t calls = optimizer_.num_calls();
  IndexConfig config =
      advisor->TryRecommend(test_workload_, StorageConstraint(), {}).value();
  EXPECT_EQ(optimizer_.num_calls() - calls,
            static_cast<int64_t>(test_workload_.size()));
  EXPECT_GT(config.size(), 1);
}

// The greedy walks of the three learners, pinned while they still probed
// the cost of every step: dropping the probes must not move a
// recommendation.
TEST_F(AdvisorTest, LearnerRecommendationsMatchPinnedFingerprints) {
  struct Case {
    const char* name;
    TuningConstraint constraint;
    uint64_t fingerprints[3];
  };
  const Case cases[] = {
      {"DQN",
       CountConstraint(4),
       {0x23c63ac83cad6a9dULL, 0xa5bf75478be9a05dULL, 0x0ed5531648c15093ULL}},
      {"DRLindex",
       CountConstraint(3),
       {0xfc4800fe76b43430ULL, 0x490cc4333ee8dcf5ULL, 0xc2845d29d5aaa155ULL}},
      {"SWIRL",
       StorageConstraint(),
       {0xf7ab79372220feb6ULL, 0x4e66e6f8b104aef1ULL, 0x3fbfd068c9ffc603ULL}},
  };
  common::Rng rng(11);
  const Workload workloads[] = {test_workload_,
                                workload::SampleWorkload(pool_, 8, rng),
                                workload::SampleWorkload(pool_, 5, rng)};
  for (const Case& c : cases) {
    RegistryOptions opt;
    opt.rl_episodes = 60;
    opt.max_actions = 16;
    auto advisor = *MakeLearningAdvisor(c.name, optimizer_, opt);
    advisor->Train(training_, c.constraint);
    for (int i = 0; i < 3; ++i) {
      const uint64_t fp =
          advisor->TryRecommend(workloads[i], c.constraint, {})
              .value()
              .Fingerprint();
      EXPECT_EQ(fp, c.fingerprints[i])
          << c.name << " workload " << i << " 0x" << std::hex << fp;
    }
  }
}

// A what-if fault during training ends the episode at the failed probe
// instead of handing the learner an infinite or NaN reward, so every
// weight stays finite.
TEST_F(AdvisorTest, LearnerWeightsStayFiniteUnderWhatIfFaults) {
  const std::pair<const char*, TuningConstraint> cases[] = {
      {"DQN", CountConstraint(4)},
      {"DRLindex", CountConstraint(3)},
      {"SWIRL", StorageConstraint()},
  };
  common::ScopedFaultSpec faults("engine.whatif.cost_error@p=0.05",
                                 /*seed=*/7);
  const common::FaultRegistry& reg = common::FaultRegistry::Global();
  for (const auto& [name, constraint] : cases) {
    RegistryOptions opt;
    opt.rl_episodes = 60;
    opt.max_actions = 16;
    auto advisor = *MakeLearningAdvisor(name, optimizer_, opt);
    const int64_t hits = reg.hits(common::FaultSite::kWhatIfCostError);
    advisor->Train(training_, constraint);
    EXPECT_GT(reg.hits(common::FaultSite::kWhatIfCostError), hits) << name;
    int total = 0;
    int non_finite = 0;
    for (const nn::Parameter* p : advisor->weights().parameters()) {
      for (int i = 0; i < p->value.size(); ++i) {
        ++total;
        if (!std::isfinite(p->value.data()[i])) ++non_finite;
      }
    }
    EXPECT_EQ(non_finite, 0)
        << name << ": " << non_finite << "/" << total << " weights";
  }
}

TEST_F(AdvisorTest, MctsImprovesCostWithinCount) {
  RegistryOptions opt;
  opt.mcts_iterations = 150;
  auto advisor = *MakeAdvisor("MCTS", optimizer_, opt);
  IndexConfig config =
      advisor->TryRecommend(test_workload_, CountConstraint(4), {}).value();
  EXPECT_LE(config.size(), 4);
  EXPECT_LT(Cost(test_workload_, config), Cost(test_workload_, IndexConfig()));
}

// -- evaluation --------------------------------------------------------------

TEST_F(AdvisorTest, UtilityPositiveForGoodAdvisor) {
  RobustnessEvaluator evaluator(optimizer_, truth_);
  auto extend = *MakeAdvisor("Extend", optimizer_);
  common::StatusOr<double> u = evaluator.TryIndexUtility(
      *extend, nullptr, test_workload_, StorageConstraint(), {});
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_GT(*u, 0.0);
  EXPECT_LT(*u, 1.0);
}

TEST_F(AdvisorTest, IudrFormula) {
  EXPECT_DOUBLE_EQ(RobustnessEvaluator::Iudr(0.5, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(RobustnessEvaluator::Iudr(0.5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(RobustnessEvaluator::Iudr(0.4, 0.6), 1.0 - 1.5);
  EXPECT_EQ(RobustnessEvaluator::Iudr(0.0, 0.3), 0.0);
}

TEST_F(AdvisorTest, RegistryTableMatchesTableIII) {
  std::vector<std::string> names, trainable, heuristic;
  for (const AdvisorSpec& row : AdvisorTable()) {
    names.emplace_back(row.name);
    auto made = MakeAdvisor(row.name, optimizer_);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    EXPECT_EQ((*made)->name(), row.name);
    EXPECT_EQ(MakeLearningAdvisor(row.name, optimizer_).ok(), row.trainable)
        << row.name;
    if (row.trainable) trainable.emplace_back(row.name);
    if (row.heuristic()) heuristic.emplace_back(row.name);
    EXPECT_EQ(FindAdvisorSpec(row.name), &row);
    if (row.heuristic()) continue;
    // The paper's pairing rule: Ib is a heuristic sharing the learner's
    // constraint kind and index type.
    const AdvisorSpec* base = FindAdvisorSpec(row.baseline);
    ASSERT_NE(base, nullptr) << row.name;
    EXPECT_TRUE(base->heuristic()) << row.name;
    EXPECT_EQ(base->constraint, row.constraint) << row.name;
    EXPECT_EQ(base->index_type, row.index_type) << row.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "Extend", "DB2Advis", "AutoAdmin", "Drop", "Relaxation",
                       "DTA", "SWIRL", "DRLindex", "DQN", "MCTS"}));
  EXPECT_EQ(trainable,
            (std::vector<std::string>{"SWIRL", "DRLindex", "DQN"}));
  EXPECT_EQ(heuristic, HeuristicAdvisorNames());
  EXPECT_FALSE(MakeLearningAdvisor("Remote", optimizer_).ok());
  EXPECT_EQ(FindAdvisorSpec("NoSuchAdvisor"), nullptr);
  EXPECT_EQ(FindAdvisorSpec("Remote"), nullptr);
}

}  // namespace
}  // namespace trap::advisor
