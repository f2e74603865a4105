#include "testing/harness.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "catalog/datasets.h"
#include "common/check.h"
#include "common/string_util.h"

namespace trap::proptest {

namespace {

// Shrinks `failure.repro` against its oracle and fills in the shrunk
// message/description fields.
void ShrinkFailure(OracleEnv& env, FailureReport* report) {
  OracleId id = report->oracle;
  ShrinkStats stats =
      ShrinkReproducer(&report->shrunk, *env.schema, [&](const Reproducer& r) {
        return CheckReproducer(id, env, r).has_value();
      });
  report->shrink_passes = stats.passes;
  report->shrink_accepted = stats.accepted;
  report->shrunk_message =
      CheckReproducer(id, env, report->shrunk).value_or(report->message);
  report->repro_text = DescribeReproducer(id, env, report->shrunk);
}

void PrintFailure(const FailureReport& report, std::FILE* log) {
  if (log == nullptr) return;
  std::fprintf(log,
               "FAIL %s: %s\n  replay: --schema %s --oracle %s --seed %llu "
               "--case %d\n",
               OracleName(report.oracle), report.message.c_str(),
               report.schema.c_str(), OracleName(report.oracle),
               static_cast<unsigned long long>(report.seed),
               report.case_index);
  if (!report.shrunk_message.empty() &&
      report.shrunk_message != report.message) {
    std::fprintf(log, "  shrunk (%d mutation(s) accepted): %s\n",
                 report.shrink_accepted, report.shrunk_message.c_str());
  }
  if (!report.repro_text.empty()) {
    std::fprintf(log, "  minimal reproducer:\n");
    std::istringstream lines(report.repro_text);
    std::string line;
    while (std::getline(lines, line)) {
      std::fprintf(log, "    %s\n", line.c_str());
    }
  }
}

std::optional<FailureReport> RunOneCase(OracleId id, OracleEnv& env,
                                        const std::string& schema_name,
                                        uint64_t seed, int case_index,
                                        bool shrink) {
  std::optional<OracleFailure> failure = RunOracle(id, env, seed, case_index);
  if (!failure.has_value()) return std::nullopt;
  FailureReport report;
  report.oracle = id;
  report.seed = seed;
  report.case_index = case_index;
  report.schema = schema_name;
  report.message = failure->message;
  report.shrunk = std::move(failure->repro);
  if (shrink) {
    ShrinkFailure(env, &report);
  } else {
    report.shrunk_message = report.message;
    report.repro_text = DescribeReproducer(id, env, report.shrunk);
  }
  return report;
}

}  // namespace

std::optional<catalog::Schema> MakeSchemaByName(std::string_view name) {
  if (name == "tpch") return catalog::MakeTpcH();
  if (name == "tpcds") return catalog::MakeTpcDs();
  if (name == "transaction") return catalog::MakeTransaction();
  return std::nullopt;
}

HarnessResult RunHarness(const HarnessOptions& opts, std::FILE* log) {
  HarnessResult result;
  std::optional<catalog::Schema> schema = MakeSchemaByName(opts.schema);
  TRAP_CHECK_MSG(schema.has_value(), "unknown schema name");
  std::vector<OracleId> oracles =
      opts.oracles.empty() ? AllOracles() : opts.oracles;
  OracleEnv env(*schema);
  for (int i = 0; i < opts.cases; ++i) {
    OracleId id = oracles[static_cast<size_t>(i) % oracles.size()];
    std::optional<FailureReport> report =
        RunOneCase(id, env, opts.schema, opts.seed, i, opts.shrink);
    ++result.cases_run;
    if (report.has_value()) {
      PrintFailure(*report, log);
      result.failures.push_back(*std::move(report));
      if (static_cast<int>(result.failures.size()) >= opts.max_failures) {
        break;
      }
    }
  }
  return result;
}

std::string FormatCaseFile(const CaseFile& c) {
  return common::StrFormat(
      "# trap_fuzz regression case -- replay with trap_fuzz --replay <file>\n"
      "schema %s\noracle %s\nseed %llu\ncase %d\n",
      c.schema.c_str(), OracleName(c.oracle),
      static_cast<unsigned long long>(c.seed), c.case_index);
}

std::optional<CaseFile> ParseCaseFile(std::string_view text,
                                      std::string* error) {
  CaseFile c;
  bool have_oracle = false;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key) || key[0] == '#') continue;
    std::string value;
    if (!(fields >> value)) {
      if (error != nullptr) *error = "missing value for key: " + key;
      return std::nullopt;
    }
    if (key == "schema") {
      c.schema = value;
    } else if (key == "oracle") {
      std::optional<OracleId> id = OracleFromName(value);
      if (!id.has_value()) {
        if (error != nullptr) *error = "unknown oracle: " + value;
        return std::nullopt;
      }
      c.oracle = *id;
      have_oracle = true;
    } else if (key == "seed") {
      char* end = nullptr;
      c.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        if (error != nullptr) *error = "bad seed: " + value;
        return std::nullopt;
      }
    } else if (key == "case") {
      char* end = nullptr;
      c.case_index = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == nullptr || *end != '\0') {
        if (error != nullptr) *error = "bad case index: " + value;
        return std::nullopt;
      }
    } else {
      if (error != nullptr) *error = "unknown key: " + key;
      return std::nullopt;
    }
  }
  if (!have_oracle) {
    if (error != nullptr) *error = "case file has no oracle line";
    return std::nullopt;
  }
  return c;
}

std::optional<CaseFile> LoadCaseFile(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open case file: " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseCaseFile(text.str(), error);
}

common::Status TryReplayCase(const CaseFile& c, bool shrink, std::FILE* log,
                             std::optional<FailureReport>* out) {
  out->reset();
  std::optional<catalog::Schema> schema = MakeSchemaByName(c.schema);
  if (!schema.has_value()) {
    return common::Status::InvalidArgument("unknown schema name in case file: " +
                                           c.schema);
  }
  OracleEnv env(*schema);
  *out = RunOneCase(c.oracle, env, c.schema, c.seed, c.case_index, shrink);
  if (out->has_value()) PrintFailure(**out, log);
  return common::Status::Ok();
}

std::optional<std::string> MinimizeCase(const CaseFile& c,
                                        std::string* error) {
  std::optional<catalog::Schema> schema = MakeSchemaByName(c.schema);
  if (!schema.has_value()) {
    if (error != nullptr) *error = "unknown schema: " + c.schema;
    return std::nullopt;
  }
  OracleEnv env(*schema);
  std::optional<FailureReport> report = RunOneCase(
      c.oracle, env, c.schema, c.seed, c.case_index, /*shrink=*/true);
  if (!report.has_value()) {
    if (error != nullptr) {
      *error = common::StrFormat(
          "case passes under oracle %s; nothing to minimize",
          OracleName(c.oracle));
    }
    return std::nullopt;
  }
  return common::StrFormat("oracle %s\nmessage %s\n%s",
                           OracleName(report->oracle),
                           report->shrunk_message.c_str(),
                           report->repro_text.c_str());
}

}  // namespace trap::proptest
