// trap_fuzz: metamorphic / differential fuzzing driver for the TRAP engine,
// perturber, advisors, drift runtime, nn kernels and GBDT split search. Runs
// seeded generated cases against the thirteen oracle families in
// src/testing/oracles.h, shrinks failures to minimal reproducers, and
// replays the committed regression corpus.
//
// Usage:
//   trap_fuzz --cases 2000 --seed 1                      # fuzz all oracles
//   trap_fuzz --oracle add-index-monotone --cases 500    # one family
//   trap_fuzz --replay tests/corpus                      # replay corpus
//   trap_fuzz --minimize tests/corpus/foo.case           # deterministic min
//   trap_fuzz --faults engine.whatif.invert_benefit --expect-failure
//
// Exit codes: 0 = all properties held (or, with --expect-failure, the
// injected fault was caught); 1 = an oracle failed; 2 = usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/fault.h"
#include "testing/fault_campaign.h"
#include "testing/harness.h"
#include "tools/common/cli.h"

namespace {

using trap::proptest::CaseFile;
using trap::proptest::FailureReport;
using trap::proptest::HarnessOptions;
using trap::proptest::HarnessResult;
using trap::proptest::OracleId;

int Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: trap_fuzz [options]\n"
      "  --cases N          number of generated cases (default 1000)\n"
      "  --seed S           base seed (default 1)\n"
      "  --case I           run only case index I (with --oracle)\n"
      "  --schema NAME      tpch | tpcds | transaction (default tpch)\n"
      "  --oracle LIST      comma-separated oracle names (default: all)\n"
      "  --max-failures K   stop after K failures (default 1)\n"
      "  --no-shrink        report failures without minimizing them\n"
      "  --faults SPEC      arm fault sites from a registry spec, e.g.\n"
      "                     'engine.whatif.cost_error@p=0.05' (common/fault.h)\n"
      "  --fault-seed S     seed for probabilistic fault draws (default 0)\n"
      "  --fault-campaign   sweep every fault site at p=1.0 and p=0.05 and\n"
      "                     assert each injected fault is retried through,\n"
      "                     degraded, self-healed, or surfaced -- never a\n"
      "                     crash, never a silent wrong answer\n"
      "  --expect-failure   invert the exit code: failures expected\n"
      "  --corpus DIR       append failing cases to DIR as .case files\n"
      "  --report NAME      write a BENCH_NAME.json run report (wall time,\n"
      "                     cases/s, failures) via the bench harness\n"
      "  --replay PATH      replay a .case file or a directory of them\n"
      "  --minimize FILE    print the minimal reproducer for FILE\n"
      "  --list-oracles     print the oracle names and exit\n");
  return out == stdout ? 0 : 2;
}

std::optional<std::vector<OracleId>> ParseOracleList(const std::string& arg) {
  std::vector<OracleId> out;
  size_t start = 0;
  while (start <= arg.size()) {
    size_t comma = arg.find(',', start);
    std::string name = arg.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    std::optional<OracleId> id = trap::proptest::OracleFromName(name);
    if (!id.has_value()) {
      std::fprintf(stderr, "trap_fuzz: unknown oracle '%s'\n", name.c_str());
      return std::nullopt;
    }
    out.push_back(*id);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// Collects .case files from `path` (a file, or a directory scanned
// non-recursively); sorted so replay order is stable across filesystems.
std::vector<std::string> CollectCaseFiles(const std::string& path) {
  std::vector<std::string> files;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(path, ec)) {
      if (entry.path().extension() == ".case") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  return files;
}

void SaveToCorpus(const std::string& dir, const FailureReport& report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  CaseFile c;
  c.schema = report.schema;
  c.oracle = report.oracle;
  c.seed = report.seed;
  c.case_index = report.case_index;
  std::string path = dir + "/" +
                     std::string(trap::proptest::OracleName(report.oracle)) +
                     "-s" + std::to_string(report.seed) + "-c" +
                     std::to_string(report.case_index) + ".case";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trap_fuzz: cannot write %s\n", path.c_str());
    return;
  }
  std::string text = trap::proptest::FormatCaseFile(c);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::fprintf(stdout, "saved corpus case: %s\n", path.c_str());
}

int RunReplay(const std::string& path, bool shrink, bool expect_failure) {
  std::vector<std::string> files = CollectCaseFiles(path);
  if (files.empty()) {
    std::fprintf(stderr, "trap_fuzz: no .case files under %s\n", path.c_str());
    return 2;
  }
  int failures = 0;
  for (const std::string& file : files) {
    std::string error;
    std::optional<CaseFile> c = trap::proptest::LoadCaseFile(file, &error);
    if (!c.has_value()) {
      std::fprintf(stderr, "trap_fuzz: %s: %s\n", file.c_str(), error.c_str());
      return 2;
    }
    std::optional<FailureReport> report;
    trap::common::Status status =
        trap::proptest::TryReplayCase(*c, shrink, stdout, &report);
    if (!status.ok()) {
      std::fprintf(stderr, "trap_fuzz: %s: %s\n", file.c_str(),
                   status.ToString().c_str());
      return 2;
    }
    if (report.has_value()) {
      std::fprintf(stdout, "replay FAIL: %s\n", file.c_str());
      ++failures;
    } else {
      std::fprintf(stdout, "replay ok:   %s\n", file.c_str());
    }
  }
  std::fprintf(stdout, "replayed %zu case(s), %d failure(s)\n", files.size(),
               failures);
  if (expect_failure) return failures > 0 ? 0 : 1;
  return failures == 0 ? 0 : 1;
}

int RunMinimize(const std::string& path) {
  std::string error;
  std::optional<CaseFile> c = trap::proptest::LoadCaseFile(path, &error);
  if (!c.has_value()) {
    std::fprintf(stderr, "trap_fuzz: %s\n", error.c_str());
    return 2;
  }
  std::optional<std::string> minimal =
      trap::proptest::MinimizeCase(*c, &error);
  if (!minimal.has_value()) {
    std::fprintf(stderr, "trap_fuzz: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stdout, "%s", minimal->c_str());
  return 0;
}

int RunFaultCampaignCli(uint64_t seed, const std::string& schema) {
  trap::proptest::FaultCampaignOptions options;
  options.seed = seed;
  options.schema = schema;
  trap::proptest::CampaignResult result =
      trap::proptest::RunFaultCampaign(options, stdout);
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions opts;
  std::string corpus_dir;
  std::string replay_path;
  std::string minimize_path;
  std::string report_name;
  std::string faults_spec;
  long long fault_seed = 0;
  long long only_case = -1;
  bool expect_failure = false;
  bool fault_campaign = false;

  trap::cli::FlagParser flags(argc, argv, "trap_fuzz");
  while (flags.Next()) {
    if (flags.Switch("--help") || flags.Switch("-h")) return Usage(stdout);
    if (flags.Switch("--list-oracles")) {
      for (OracleId id : trap::proptest::AllOracles()) {
        std::fprintf(stdout, "%s\n", trap::proptest::OracleName(id));
      }
      return 0;
    }
    if (flags.Switch("--no-shrink")) {
      opts.shrink = false;
      continue;
    }
    if (flags.Switch("--expect-failure")) {
      expect_failure = true;
      continue;
    }
    if (flags.Switch("--fault-campaign")) {
      fault_campaign = true;
      continue;
    }
    long long n = 0;
    if (flags.IntFlag("--cases", &n)) {
      if (flags.failed() || n <= 0) return Usage(stderr);
      opts.cases = static_cast<int>(n);
      continue;
    }
    if (flags.IntFlag("--seed", &n)) {
      if (flags.failed() || n < 0) return Usage(stderr);
      opts.seed = static_cast<uint64_t>(n);
      continue;
    }
    if (flags.IntFlag("--case", &only_case)) {
      if (flags.failed() || only_case < 0) return Usage(stderr);
      continue;
    }
    if (flags.IntFlag("--max-failures", &n)) {
      if (flags.failed() || n <= 0) return Usage(stderr);
      opts.max_failures = static_cast<int>(n);
      continue;
    }
    if (flags.IntFlag("--fault-seed", &fault_seed)) {
      if (flags.failed() || fault_seed < 0) return Usage(stderr);
      continue;
    }
    std::string value;
    if (flags.StringFlag("--oracle", &value)) {
      if (flags.failed()) return Usage(stderr);
      std::optional<std::vector<OracleId>> ids = ParseOracleList(value);
      if (!ids.has_value()) return 2;
      opts.oracles = *std::move(ids);
      continue;
    }
    if (flags.StringFlag("--schema", &opts.schema)) continue;
    if (flags.StringFlag("--faults", &faults_spec)) continue;
    if (flags.StringFlag("--corpus", &corpus_dir)) continue;
    if (flags.StringFlag("--report", &report_name)) continue;
    if (flags.StringFlag("--replay", &replay_path)) continue;
    if (flags.StringFlag("--minimize", &minimize_path)) continue;
    flags.Unknown();
    return Usage(stderr);
  }
  if (flags.failed()) return Usage(stderr);

  if (!faults_spec.empty()) {
    std::string error;
    std::optional<trap::common::FaultSpec> spec = trap::common::ParseFaultSpec(
        faults_spec, static_cast<uint64_t>(fault_seed), &error);
    if (!spec.has_value()) {
      std::fprintf(stderr, "trap_fuzz: bad --faults spec: %s\n", error.c_str());
      return 2;
    }
    trap::common::FaultRegistry::Global().Configure(*spec);
  }

  if (!minimize_path.empty()) return RunMinimize(minimize_path);
  if (!replay_path.empty()) {
    return RunReplay(replay_path, opts.shrink, expect_failure);
  }

  if (trap::proptest::MakeSchemaByName(opts.schema) == std::nullopt) {
    std::fprintf(stderr, "trap_fuzz: unknown schema '%s'\n",
                 opts.schema.c_str());
    return 2;
  }

  if (fault_campaign) return RunFaultCampaignCli(opts.seed, opts.schema);

  if (only_case >= 0) {
    if (opts.oracles.size() != 1) {
      std::fprintf(stderr, "trap_fuzz: --case needs exactly one --oracle\n");
      return 2;
    }
    CaseFile c;
    c.schema = opts.schema;
    c.oracle = opts.oracles[0];
    c.seed = opts.seed;
    c.case_index = static_cast<int>(only_case);
    std::optional<FailureReport> report;
    trap::common::Status status =
        trap::proptest::TryReplayCase(c, opts.shrink, stdout, &report);
    if (!status.ok()) {
      std::fprintf(stderr, "trap_fuzz: %s\n", status.ToString().c_str());
      return 2;
    }
    if (report.has_value() && !corpus_dir.empty()) {
      SaveToCorpus(corpus_dir, *report);
    }
    bool failed = report.has_value();
    if (expect_failure) return failed ? 0 : 1;
    return failed ? 1 : 0;
  }

  HarnessResult result;
  if (!report_name.empty()) {
    // Reuses the bench harness's report JSON so fuzz throughput lands next
    // to the perf benches' BENCH_*.json trajectories.
    trap::bench::BenchReport bench_report(report_name);
    double seconds = bench_report.TimePhase(
        "fuzz", [&] { result = trap::proptest::RunHarness(opts, stdout); });
    bench_report.RecordMetric("cases_run", result.cases_run);
    bench_report.RecordMetric("failures",
                              static_cast<double>(result.failures.size()));
    if (seconds > 0.0) {
      bench_report.RecordMetric("cases_per_second",
                                result.cases_run / seconds);
    }
    std::fprintf(stdout, "report: %s\n", bench_report.Write().c_str());
  } else {
    result = trap::proptest::RunHarness(opts, stdout);
  }
  for (const FailureReport& report : result.failures) {
    if (!corpus_dir.empty()) SaveToCorpus(corpus_dir, report);
  }
  std::fprintf(stdout, "ran %d case(s) over %zu oracle(s): %zu failure(s)\n",
               result.cases_run,
               opts.oracles.empty() ? trap::proptest::AllOracles().size()
                                    : opts.oracles.size(),
               result.failures.size());
  if (expect_failure) return result.ok() ? 1 : 0;
  return result.ok() ? 0 : 1;
}
