// Table IV: efficiency analysis over the generation modules — parameter
// counts and wall-clock time to generate a batch of perturbed queries.
// Uses google-benchmark for the timing loop; the summary table is printed
// at the end (scaled: 200 queries instead of the paper's 1000).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "harness.h"

namespace tc = ::trap::trap;
using namespace trap;

namespace {

struct ModuleSpec {
  const char* name;
  tc::AgentOptions options;
};

std::vector<ModuleSpec> Modules() {
  std::vector<ModuleSpec> out;
  tc::AgentOptions gru;
  gru.encoder = tc::EncoderKind::kNone;
  gru.attention = false;
  gru.embed_dim = 32;
  gru.hidden_dim = 32;
  out.push_back({"GRU", gru});
  out.push_back({"Bert", *tc::PlmAgentOptions("Bert", 1)});
  out.push_back({"Bart", *tc::PlmAgentOptions("Bart", 1)});
  out.push_back({"CodeBert", *tc::PlmAgentOptions("CodeBert", 1)});
  out.push_back({"StarEncoder", *tc::PlmAgentOptions("StarEncoder", 1)});
  tc::AgentOptions trapm;
  trapm.encoder = tc::EncoderKind::kBiGru;
  trapm.attention = true;
  trapm.embed_dim = 32;
  trapm.hidden_dim = 32;
  out.push_back({"TRAP", trapm});
  return out;
}

struct Shared {
  Shared() : schema(catalog::MakeTpcH(0.15)), vocab(schema, 8) {
    workload::QueryGenerator gen(vocab, workload::GeneratorOptions{}, 0x7ab);
    pool = gen.GeneratePool(40);
  }
  catalog::Schema schema;
  sql::Vocabulary vocab;
  std::vector<sql::Query> pool;
};

Shared& shared() {
  static Shared* s = new Shared();
  return *s;
}

void BM_Generate(benchmark::State& state, const ModuleSpec& spec) {
  Shared& s = shared();
  tc::TrapAgent agent(s.vocab, spec.options);
  common::Rng rng(5);
  int i = 0;
  for (auto _ : state) {
    const sql::Query& q = s.pool[static_cast<size_t>(i++ % s.pool.size())];
    tc::ReferenceTree tree(q, s.vocab,
                           tc::PerturbationConstraint::kSharedTable, 5);
    auto r = agent.RunEpisode(nullptr, std::move(tree),
                              tc::TrapAgent::Mode::kGreedy, &rng);
    benchmark::DoNotOptimize(r.output.size());
  }
  state.counters["params"] = static_cast<double>(agent.NumParameters());
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::ParseBenchOptions(&argc, argv);
  for (const ModuleSpec& spec : Modules()) {
    benchmark::RegisterBenchmark(
        (std::string("generate_query/") + spec.name).c_str(),
        [spec](benchmark::State& st) { BM_Generate(st, spec); });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Summary in the paper's Table IV layout: #params and time to generate a
  // batch (200 queries at this scale; the paper used 1000).
  Shared& s = shared();
  bench::PrintHeader("Table IV — efficiency of generation modules");
  bench::BenchReport report("table4_efficiency");
  std::printf("%-12s %12s %18s\n", "module", "#params", "time 200 queries(s)");
  std::map<std::string, double> seconds;
  std::map<std::string, std::int64_t> params;
  for (const ModuleSpec& spec : Modules()) {
    tc::TrapAgent agent(s.vocab, spec.options);
    common::Rng rng(7);
    double sec = report.TimePhase(
        std::string("generate_200/") + spec.name, [&] {
          for (int i = 0; i < 200; ++i) {
            const sql::Query& q =
                s.pool[static_cast<size_t>(i) % s.pool.size()];
            tc::ReferenceTree tree(q, s.vocab,
                                   tc::PerturbationConstraint::kSharedTable, 5);
            (void)agent.RunEpisode(nullptr, std::move(tree),
                                   tc::TrapAgent::Mode::kGreedy, &rng);
          }
        });
    report.RecordMetric(std::string("params/") + spec.name,
                        static_cast<double>(agent.NumParameters()));
    std::printf("%-12s %12lld %18.3f\n", spec.name,
                static_cast<long long>(agent.NumParameters()), sec);
    seconds[spec.name] = sec;
    params[spec.name] = agent.NumParameters();
  }
  bench::RecordWhatIfThroughput(&report, opt);
  // The conclusion is read off this run's own timings, never assumed.
  const double trap_vs_gru = seconds["TRAP"] / seconds["GRU"];
  double plm_time = std::numeric_limits<double>::infinity();
  double plm_params = plm_time;
  for (const char* plm : {"Bert", "Bart", "CodeBert", "StarEncoder"}) {
    plm_time = std::min(plm_time, seconds[plm] / seconds["TRAP"]);
    plm_params = std::min(plm_params, static_cast<double>(params[plm]) /
                                          static_cast<double>(params["TRAP"]));
  }
  report.Write();
  std::printf("\nTRAP takes %.2fx the plain GRU's generation time (Table IV: "
              "within ~2x) -- %s.\n",
              trap_vs_gru,
              trap_vs_gru <= 2.0 ? "within 2x, as in the paper"
                                 : "more than 2x, unlike the paper");
  std::printf("The transformer variants carry at least %.1fx TRAP's "
              "parameters and take at least %.2fx its generation time.\n",
              plm_params, plm_time);
  return 0;
}
