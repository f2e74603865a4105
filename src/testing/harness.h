#ifndef TRAP_TESTING_HARNESS_H_
#define TRAP_TESTING_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "testing/oracles.h"
#include "testing/shrink.h"

namespace trap::proptest {

// One fuzzing run: `cases` generated cases spread round-robin over the
// selected oracles, all derived from `seed`.
struct HarnessOptions {
  uint64_t seed = 1;
  int cases = 1000;
  std::string schema = "tpch";        // tpch | tpcds | transaction
  std::vector<OracleId> oracles;      // empty = all families
  int max_failures = 1;               // stop after this many failures
  bool shrink = true;                 // minimize failures before reporting
};

struct FailureReport {
  OracleId oracle = OracleId::kAddIndexMonotone;
  uint64_t seed = 0;
  int case_index = 0;
  std::string schema;
  std::string message;         // oracle message on the generated case
  std::string shrunk_message;  // oracle message on the minimal reproducer
  std::string repro_text;      // DescribeReproducer of the minimal input
  int shrink_passes = 0;
  int shrink_accepted = 0;
  Reproducer shrunk;
};

struct HarnessResult {
  int cases_run = 0;
  std::vector<FailureReport> failures;
  bool ok() const { return failures.empty(); }
};

// Builds one of the three evaluation schemas by name; nullopt for unknown
// names.
std::optional<catalog::Schema> MakeSchemaByName(std::string_view name);

// Runs the harness. Progress and failure reports go to `log` when non-null.
// Fully deterministic in `opts`.
HarnessResult RunHarness(const HarnessOptions& opts, std::FILE* log);

// A replayable case: everything needed to regenerate one oracle input.
// Serialized as `key value` lines (schema/oracle/seed/case); '#' starts a
// comment. These files form the committed regression corpus under
// tests/corpus/.
struct CaseFile {
  std::string schema = "tpch";
  OracleId oracle = OracleId::kAddIndexMonotone;
  uint64_t seed = 1;
  int case_index = 0;
};

std::string FormatCaseFile(const CaseFile& c);
std::optional<CaseFile> ParseCaseFile(std::string_view text,
                                      std::string* error);
std::optional<CaseFile> LoadCaseFile(const std::string& path,
                                     std::string* error);

// Regenerates and re-runs one case; on success *out is nullopt when the
// oracle holds (the regression stays fixed) and the failure otherwise,
// shrunk when `shrink`. A case file naming an unknown schema is
// kInvalidArgument -- a diagnostic for the CLI, not an abort.
common::Status TryReplayCase(const CaseFile& c, bool shrink, std::FILE* log,
                             std::optional<FailureReport>* out);

// Deterministic minimization of a failing case: regenerates it, shrinks,
// and returns the printable minimal reproducer. nullopt (with `error` set)
// when the case cannot be loaded or no longer fails.
std::optional<std::string> MinimizeCase(const CaseFile& c, std::string* error);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_HARNESS_H_
