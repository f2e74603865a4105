// Tests for the trap_lint analyzer (tools/lint). Each rule gets at least
// one known-violation fixture and one clean fixture; suppression and the
// mandatory-reason policy are exercised end to end through Lint().
//
// Fixture snippets are lexed under invented repo paths, since several rules
// scope by location (no-wall-clock fires only under src/, etc.). The
// project-level passes (layering, include cycles, Status-discipline) are
// driven through hand-built ProjectIndex instances, plus the on-disk
// fixture tree under tests/lint_fixtures/ (TRAP_LINT_FIXTURE_DIR).

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/index.h"
#include "lint/lexer.h"
#include "lint/project_rules.h"
#include "lint/rules.h"

namespace trap::lint {
namespace {

std::vector<Finding> LintSnippet(const std::string& path,
                                 const std::string& code) {
  return Lint(Lex(path, code));
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// Lexes an on-disk fixture under its repo-relative path so sibling include
// resolution works the same way it does in a real run.
SourceFile LexFixture(const std::string& rel) {
  const std::string full = std::string(TRAP_LINT_FIXTURE_DIR) + "/" + rel;
  std::ifstream in(full, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << full;
  std::ostringstream buf;
  buf << in.rdbuf();
  return Lex("tests/lint_fixtures/" + rel, buf.str());
}

// Parses `layers`, indexes the given (path, code) snippets, and runs the
// layering pass.
std::vector<Finding> LayerCheck(
    const std::string& layers,
    const std::vector<std::pair<std::string, std::string>>& files) {
  LayerConfig config;
  std::string error;
  EXPECT_TRUE(ParseLayerConfig(layers, &config, &error)) << error;
  ProjectIndex project;
  for (const auto& [path, code] : files) project.Add(Lex(path, code));
  std::vector<Finding> out;
  CheckLayering(project, config, &out);
  return out;
}

// --- Lexer ---------------------------------------------------------------

TEST(LexerTest, StripsCommentsAndTracksLines) {
  SourceFile f = Lex("src/a.cc",
                     "int a; // trailing\n"
                     "/* block\n   spanning */ int b;\n");
  ASSERT_EQ(f.tokens.size(), 6u);
  EXPECT_EQ(f.tokens[0].text, "int");
  EXPECT_EQ(f.tokens[0].line, 1);
  EXPECT_EQ(f.tokens[3].text, "int");
  EXPECT_EQ(f.tokens[3].line, 3);  // block comment advanced the line count
}

TEST(LexerTest, StringAndCharLiteralsAreOpaque) {
  // Banned identifiers inside literals must not produce tokens the rules
  // can see.
  SourceFile f = Lex("src/a.cc",
                     "const char* s = \"atoi(std::mt19937)\";\n"
                     "char c = 'r';\n"
                     "const char* r = R\"(rand() sprintf)\";\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.kind == TokKind::kIdentifier ? t.text : "", "atoi");
    EXPECT_NE(t.kind == TokKind::kIdentifier ? t.text : "", "mt19937");
    EXPECT_NE(t.kind == TokKind::kIdentifier ? t.text : "", "rand");
  }
  EXPECT_TRUE(HasRule(LintSnippet("src/a.cc", "int x = atoi(s);\n"),
                      "banned-functions"))
      << "sanity: the identifier outside a literal does fire";
}

TEST(LexerTest, ParsesNolintMarkers) {
  SourceFile f = Lex("src/a.cc",
                     "foo();  // NOLINT(rule-a, rule-b): both are fine here\n"
                     "bar();  // NOLINT\n");
  ASSERT_EQ(f.suppressions.size(), 3u);
  EXPECT_EQ(f.suppressions[0].rule, "rule-a");
  EXPECT_TRUE(f.suppressions[0].has_reason);
  EXPECT_EQ(f.suppressions[1].rule, "rule-b");
  EXPECT_EQ(f.suppressions[2].rule, "*");
  EXPECT_FALSE(f.suppressions[2].has_reason);
  EXPECT_TRUE(IsSuppressed(f, "rule-a", 1));
  EXPECT_FALSE(IsSuppressed(f, "rule-c", 1));    // not in the marker's list
  EXPECT_TRUE(IsSuppressed(f, "anything", 2));   // wildcard
  EXPECT_FALSE(IsSuppressed(f, "rule-a", 3));    // no marker on that line
}

TEST(LexerTest, ProseMentionsOfNolintAreNotMarkers) {
  SourceFile f = Lex("src/a.cc",
                     "// The word NOLINT(foo) in prose is not a marker.\n");
  EXPECT_TRUE(f.suppressions.empty());
}

TEST(LexerTest, NolintKeywordMustStandAlone) {
  // A comment *starting* with the keyword is only a marker when the keyword
  // ends there: hyphenated or run-on words are prose.
  SourceFile f = Lex("src/a.cc",
                     "// NOLINT-suppressible rules are listed in rules.h.\n"
                     "// NOLINTERS are not a thing.\n");
  EXPECT_TRUE(f.suppressions.empty());
}

TEST(LexerTest, NolintNextLineGovernsTheLineBelow) {
  SourceFile f = Lex("src/x.cc",
                     "// NOLINTNEXTLINE(banned-functions): trusted literal\n"
                     "int n = atoi(s);\n");
  ASSERT_EQ(f.suppressions.size(), 1u);
  EXPECT_EQ(f.suppressions[0].rule, "banned-functions");
  EXPECT_EQ(f.suppressions[0].line, 2);
  EXPECT_TRUE(IsSuppressed(f, "banned-functions", 2));
  EXPECT_FALSE(IsSuppressed(f, "banned-functions", 1));
  EXPECT_TRUE(Lint(f).empty());  // suppressed, and the reason satisfies the audit
}

TEST(LexerTest, NolintReasonTextIsCapturedAndTrimmed) {
  SourceFile f = Lex("src/a.cc",
                     "foo();  // NOLINT(rule-a):   padded reason text   \n");
  ASSERT_EQ(f.suppressions.size(), 1u);
  EXPECT_TRUE(f.suppressions[0].has_reason);
  EXPECT_EQ(f.suppressions[0].reason, "padded reason text");
}

// --- no-unseeded-randomness ----------------------------------------------

TEST(RuleTest, UnseededRandomnessViolation) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/x.cc", "std::mt19937 gen(std::random_device{}());\n"),
      "no-unseeded-randomness"));
  EXPECT_TRUE(HasRule(LintSnippet("tests/x.cc", "int r = rand();\n"),
                      "no-unseeded-randomness"));
}

TEST(RuleTest, UnseededRandomnessClean) {
  EXPECT_FALSE(HasRule(
      LintSnippet("src/x.cc", "common::Rng rng(42); rng.Uniform();\n"),
      "no-unseeded-randomness"));
  // An unrelated identifier merely named rand is not a generator call.
  EXPECT_FALSE(HasRule(LintSnippet("src/x.cc", "double rand = 0.5;\n"),
                       "no-unseeded-randomness"));
  // The sanctioned wrapper itself may name the engine type.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/common/rng.h",
                  "#ifndef TRAP_COMMON_RNG_H_\n#define TRAP_COMMON_RNG_H_\n"
                  "std::mt19937_64 engine_;\n#endif\n"),
      "no-unseeded-randomness"));
}

// --- no-raw-thread -------------------------------------------------------

TEST(RuleTest, RawThreadViolation) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/x.cc", "std::thread t([] {}); t.join();\n"),
      "no-raw-thread"));
  EXPECT_TRUE(HasRule(LintSnippet("tests/x.cc", "std::jthread t(fn);\n"),
                      "no-raw-thread"));
}

TEST(RuleTest, RawThreadClean) {
  EXPECT_FALSE(HasRule(
      LintSnippet("src/x.cc", "common::ParallelFor(n, [&](size_t i) {});\n"),
      "no-raw-thread"));
  // Consulting the type without constructing a thread is allowed.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/x.cc",
                  "int n = std::thread::hardware_concurrency();\n"),
      "no-raw-thread"));
  // The pool implementation owns its raw threads.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/common/thread_pool.cc", "std::jthread w(loop);\n"),
      "no-raw-thread"));
}

// --- no-manual-lock ------------------------------------------------------

TEST(RuleTest, ManualLockViolation) {
  std::vector<Finding> f =
      LintSnippet("src/x.cc", "mu_.lock();\nwork();\nmu_.unlock();\n");
  EXPECT_EQ(std::count_if(f.begin(), f.end(),
                          [](const Finding& x) {
                            return x.rule == "no-manual-lock";
                          }),
            2);
  EXPECT_TRUE(HasRule(LintSnippet("src/x.cc", "if (mu_->try_lock()) {}\n"),
                      "no-manual-lock"));
}

TEST(RuleTest, ManualLockClean) {
  EXPECT_FALSE(HasRule(
      LintSnippet("src/x.cc",
                  "std::lock_guard<std::mutex> lock(mu_);\n"
                  "std::unique_lock<std::mutex> held(mu_);\n"
                  "cv_.wait(held, [&] { return done; });\n"),
      "no-manual-lock"));
}

// --- no-wall-clock -------------------------------------------------------

TEST(RuleTest, WallClockViolation) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/x.cc",
                  "auto now = std::chrono::system_clock::now();\n"),
      "no-wall-clock"));
  EXPECT_TRUE(HasRule(LintSnippet("src/x.cc", "long t = time(nullptr);\n"),
                      "no-wall-clock"));
  EXPECT_TRUE(HasRule(LintSnippet("src/x.cc", "long t = std::time(0);\n"),
                      "no-wall-clock"));
}

TEST(RuleTest, WallClockClean) {
  // steady_clock is monotonic, not wall time.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/x.cc",
                  "auto t0 = std::chrono::steady_clock::now();\n"),
      "no-wall-clock"));
  // bench/ may time whatever it likes.
  EXPECT_FALSE(HasRule(
      LintSnippet("bench/x.cc",
                  "auto now = std::chrono::system_clock::now();\n"),
      "no-wall-clock"));
  // A member function named time is not the C library call.
  EXPECT_FALSE(HasRule(LintSnippet("src/x.cc", "double s = report.time();\n"),
                       "no-wall-clock"));
}

// --- banned-functions ----------------------------------------------------

TEST(RuleTest, BannedFunctionsViolation) {
  EXPECT_TRUE(HasRule(LintSnippet("src/x.cc", "int n = std::atoi(env);\n"),
                      "banned-functions"));
  EXPECT_TRUE(HasRule(LintSnippet("bench/x.cc", "sprintf(buf, \"%d\", n);\n"),
                      "banned-functions"));
  EXPECT_TRUE(HasRule(LintSnippet("tests/x.cc", "strcpy(dst, src);\n"),
                      "banned-functions"));
}

TEST(RuleTest, BannedFunctionsClean) {
  EXPECT_FALSE(HasRule(
      LintSnippet("src/x.cc",
                  "long n = std::strtol(env, &end, 10);\n"
                  "std::snprintf(buf, sizeof(buf), \"%ld\", n);\n"),
      "banned-functions"));
  // A member function that happens to share a banned name is fine.
  EXPECT_FALSE(HasRule(LintSnippet("src/x.cc", "parser.atoi(s);\n"),
                       "banned-functions"));
}

// --- header-hygiene ------------------------------------------------------

TEST(RuleTest, HeaderHygieneAcceptsCanonicalGuardAndPragmaOnce) {
  EXPECT_FALSE(HasRule(
      LintSnippet("src/common/rng.h",
                  "#ifndef TRAP_COMMON_RNG_H_\n"
                  "#define TRAP_COMMON_RNG_H_\n"
                  "int x;\n"
                  "#endif  // TRAP_COMMON_RNG_H_\n"),
      "header-hygiene"));
  EXPECT_FALSE(HasRule(LintSnippet("src/common/rng.h",
                                   "#pragma once\nint x;\n"),
                       "header-hygiene"));
}

TEST(RuleTest, HeaderHygieneMalformedGuards) {
  // No guard at all.
  EXPECT_TRUE(HasRule(LintSnippet("src/a/b.h", "int x;\n"),
                      "header-hygiene"));
  // Wrong guard name.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/a/b.h",
                  "#ifndef WRONG_H\n#define WRONG_H\n#endif\n"),
      "header-hygiene"));
  // #define does not match the #ifndef.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/a/b.h",
                  "#ifndef TRAP_A_B_H_\n#define OTHER_H\n#endif\n"),
      "header-hygiene"));
  // Guard never closed.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/a/b.h",
                  "#ifndef TRAP_A_B_H_\n#define TRAP_A_B_H_\n#include <v>\n"),
      "header-hygiene"));
  // Rule only applies to headers.
  EXPECT_FALSE(HasRule(LintSnippet("src/a/b.cc", "int x;\n"),
                       "header-hygiene"));
}

TEST(RuleTest, ExpectedGuardNames) {
  EXPECT_EQ(ExpectedGuard("src/common/rng.h"), "TRAP_COMMON_RNG_H_");
  EXPECT_EQ(ExpectedGuard("bench/harness.h"), "TRAP_BENCH_HARNESS_H_");
  EXPECT_EQ(ExpectedGuard("tools/lint/lexer.h"), "TRAP_TOOLS_LINT_LEXER_H_");
}

// --- float-accumulation --------------------------------------------------

TEST(RuleTest, FloatAccumulationViolation) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/cost_model.cc", "float cost = 0.f;\n"),
      "float-accumulation"));
}

TEST(RuleTest, FloatAccumulationClean) {
  EXPECT_FALSE(HasRule(
      LintSnippet("src/engine/cost_model.cc", "double cost = 0.0;\n"),
      "float-accumulation"));
  // Outside src/engine/ the rule does not apply.
  EXPECT_FALSE(HasRule(LintSnippet("src/nn/matrix.cc", "float f = 0.f;\n"),
                       "float-accumulation"));
}

// --- no-heap-on-hot-path -------------------------------------------------

TEST(RuleTest, HeapOnHotPathViolation) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/what_if.cc", "auto* e = new CacheEntry();\n"),
      "no-heap-on-hot-path"));
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/cost_model.cc",
                  "auto n = std::make_unique<PlanNode>();\n"),
      "no-heap-on-hot-path"));
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/what_if.h",
                  "auto s = std::make_shared<CacheShard>();\n"),
      "no-heap-on-hot-path"));
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/selectivity.cc",
                  "std::function<void(size_t)> fn = body;\n"),
      "no-heap-on-hot-path"));
}

TEST(RuleTest, HeapOnHotPathClean) {
  // Per-batch vectors are not what the rule flags.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/engine/what_if.cc",
                  "std::vector<uint64_t> config_fps(nc);\n"),
      "no-heap-on-hot-path"));
  // Cold engine files (the plan-tree module) and everything outside the
  // cost kernels are out of scope.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/engine/plan.cc",
                  "auto n = std::make_unique<PlanNode>();\n"),
      "no-heap-on-hot-path"));
  EXPECT_FALSE(HasRule(
      LintSnippet("src/advisor/x.cc", "std::function<void()> fn;\n"),
      "no-heap-on-hot-path"));
  // Only std::function is the type-erasure ban; other namespaces' function
  // identifiers are unrelated.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/engine/what_if.cc", "util::function<void()> fn;\n"),
      "no-heap-on-hot-path"));
  // An audited suppression documents a cold path without tripping the
  // mandatory-reason audit.
  std::vector<Finding> f = LintSnippet(
      "src/engine/cost_model.cc",
      "auto n = std::make_unique<PlanNode>();  "
      "// NOLINT(no-heap-on-hot-path): cold plan path\n");
  EXPECT_FALSE(HasRule(f, "no-heap-on-hot-path"));
  EXPECT_FALSE(HasRule(f, "nolint-reason"));
}

// --- serial-evaluation ---------------------------------------------------

TEST(RuleTest, SerialEvaluationViolation) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/true_cost.h",
                  "common::ParallelFor(n, [&](size_t i) {});\n"),
      "serial-evaluation"));
  EXPECT_TRUE(HasRule(
      LintSnippet("src/advisor/heuristic_advisors.cc",
                  "common::GlobalPool().ParallelFor(n, fn);\n"),
      "serial-evaluation"));
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/what_if.cc", "common::ThreadPool pool(4);\n"),
      "serial-evaluation"));
}

TEST(RuleTest, SerialEvaluationClean) {
  // Coarse-grained fan-out above the evaluation layer is the sanctioned
  // place for the pool.
  EXPECT_FALSE(HasRule(
      LintSnippet("bench/harness.cc",
                  "common::ParallelFor(2, [&](size_t i) {});\n"),
      "serial-evaluation"));
  EXPECT_FALSE(HasRule(
      LintSnippet("src/testing/oracles.cc",
                  "pool->ParallelFor(lanes, [&](size_t lane) {});\n"),
      "serial-evaluation"));
  EXPECT_FALSE(HasRule(
      LintSnippet("src/engine/what_if.cc",
                  "for (size_t u = 0; u < n; ++u) Cost(u);\n"),
      "serial-evaluation"));
}

// --- restricted-api ------------------------------------------------------

TEST(RuleTest, RestrictedApiFlagsEachRowOutsideItsPaths) {
  const std::pair<const char*, const char*> cases[] = {
      {"tests/advisor_test.cc", "auto c = adv->Recommend(w, constraint);\n"},
      {"src/trap/training.cc", "IndexConfig c = victim.Recommend(w, t);\n"},
      {"tests/trap_test.cc", "workload::Workload out = gen.Generate(w);\n"},
      {"bench/harness.cc", "auto wp = g->Generate(f(a, b));\n"},
      {"src/serve/service.cc", "auto s = obs::GlobalSnapshotWithDerived();\n"},
      {"tests/fault_tolerance_test.cc", "auto a = advisor::MakeMcts(opt);\n"},
      {"tools/fuzz/trap_fuzz.cc", "advisor::SwirlAdvisor swirl(opt, o);\n"},
      {"src/testing/oracles.cc", "auto a = MakeDqnAdvisor(opt, o);\n"},
  };
  for (const auto& [path, code] : cases) {
    EXPECT_TRUE(HasRule(LintSnippet(path, code), "restricted-api"))
        << path << ": " << code;
  }
}

TEST(RuleTest, RestrictedApiAllowsItsPathsAndOtherSpellings) {
  const std::pair<const char*, const char*> cases[] = {
      // Each row inside its allowed paths.
      {"perfbench/victim_proxy.h", "return inner_->Recommend(w, c);\n"},
      {"src/advisor/advisor.cc", "return this->Recommend(w, c);\n"},
      {"perfbench/assess.cc", "g.perturbed = generator.Generate(w);\n"},
      {"src/trap/perturber.cc", "return self->Generate(w);\n"},
      {"perfbench/trace.cc", "before_ = obs::GlobalSnapshotWithDerived();\n"},
      {"src/obs/metrics.h",
       "std::vector<MetricSample> GlobalSnapshotWithDerived();\n"},
      {"src/advisor/registry.cc", "return MakeMcts(optimizer, o);\n"},
      {"src/advisor/swirl.cc", "SwirlAdvisor::SwirlAdvisor(const W& w) {}\n"},
      // Spellings the rows do not name.
      {"tests/workload_test.cc", "sql::Query q = gen.Generate();\n"},
      {"src/drift/episode.cc", "q = qgen.Generate();\n"},
      {"tests/advisor_test.cc", "auto c = adv->TryRecommend(w, c, {});\n"},
      {"tests/trap_test.cc", "auto out = gen.TryGenerate(w);\n"},
      {"src/assess/assess.cc",
       "auto r = advisor::RecommendWithRetry(*adv, w, c, ctx, p);\n"},
      {"tests/advisor_test.cc",
       "IndexConfig Fake::Recommend(const W& w, const C& c) {}\n"},
      {"tests/trap_test.cc", "auto w = gen.Generate(w, ctx);\n"},
      {"tests/advisor_test.cc", "auto a = *MakeAdvisor(\"MCTS\", opt);\n"},
  };
  for (const auto& [path, code] : cases) {
    EXPECT_FALSE(HasRule(LintSnippet(path, code), "restricted-api"))
        << path << ": " << code;
  }
}

TEST(RuleTest, RestrictedApiSuppressedWithReason) {
  auto f = LintSnippet(
      "tests/fault_tolerance_test.cc",
      "auto c = adv->Recommend(w, c);  "
      "// NOLINT(restricted-api): the shim under test\n");
  EXPECT_FALSE(HasRule(f, "restricted-api"));
  EXPECT_FALSE(HasRule(f, "nolint-reason"));
}

// --- metric-name-style ---------------------------------------------------

TEST(RuleTest, MetricNameStyleViolation) {
  // Missing the trap. root.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/obs/m.cc", "reg.counter(\"whatif.calls\");\n"),
      "metric-name-style"));
  // Only one segment after the root.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/obs/m.cc", "reg.counter(\"trap.calls\");\n"),
      "metric-name-style"));
  // Upper case / digits are not allowed in segments.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/obs/m.cc", "reg.counter(\"trap.WhatIf.calls\");\n"),
      "metric-name-style"));
  EXPECT_TRUE(HasRule(
      LintSnippet("src/obs/m.cc", "reg->histogram(\"trap.batch.v2\");\n"),
      "metric-name-style"));
}

TEST(RuleTest, MetricNameStyleClean) {
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/m.cc", "reg.counter(\"trap.whatif.calls\");\n"),
      "metric-name-style"));
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/m.cc",
                  "reg->histogram(\"trap.whatif.batch_size\");\n"),
      "metric-name-style"));
  // Names assembled at runtime are out of the rule's reach: the leading
  // literal is only a prefix, not the full name.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/m.cc",
                  "reg.counter(\"trap.advisor.\" + seg + \".recommends\");\n"),
      "metric-name-style"));
  // counter/histogram as free identifiers (not member calls) do not match.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/m.cc", "int counter(\"not.a.metric\");\n"),
      "metric-name-style"));
}

// --- suppression policy --------------------------------------------------

TEST(SuppressionTest, NolintWithReasonSilencesTheFinding) {
  std::vector<Finding> f = LintSnippet(
      "src/x.cc",
      "int n = atoi(s);  // NOLINT(banned-functions): input is "
      "compile-time constant\n");
  EXPECT_TRUE(f.empty());
}

TEST(SuppressionTest, NolintWithoutReasonIsItsOwnFinding) {
  std::vector<Finding> f =
      LintSnippet("src/x.cc", "int n = atoi(s);  // NOLINT(banned-functions)\n");
  EXPECT_FALSE(HasRule(f, "banned-functions"));  // still suppressed...
  EXPECT_TRUE(HasRule(f, "nolint-reason"));      // ...but audited
}

TEST(SuppressionTest, NolintOnlyCoversItsOwnLineAndRule) {
  std::vector<Finding> f = LintSnippet(
      "src/x.cc",
      "int n = atoi(s);  // NOLINT(no-raw-thread): wrong rule named\n"
      "int m = atoi(t);\n");
  EXPECT_EQ(std::count_if(f.begin(), f.end(),
                          [](const Finding& x) {
                            return x.rule == "banned-functions";
                          }),
            2);
}

TEST(SuppressionTest, WildcardNolintCoversAllRulesOnTheLine) {
  std::vector<Finding> f = LintSnippet(
      "src/x.cc", "int r = rand() + atoi(s);  // NOLINT\n");
  EXPECT_FALSE(HasRule(f, "no-unseeded-randomness"));
  EXPECT_FALSE(HasRule(f, "banned-functions"));
  EXPECT_TRUE(HasRule(f, "nolint-reason"));  // bare NOLINT still needs one
}

// --- declaration/include index -------------------------------------------

TEST(IndexTest, ModuleOfMapsPathsToLayerModules) {
  EXPECT_EQ(ModuleOf("src/engine/what_if.cc"), "engine");
  EXPECT_EQ(ModuleOf("src/common/status.h"), "common");
  EXPECT_EQ(ModuleOf("tools/lint/rules.cc"), "tools");
  EXPECT_EQ(ModuleOf("tests/lint_test.cc"), "tests");
  EXPECT_EQ(ModuleOf("bench/what_if_bench.cc"), "bench");
  EXPECT_EQ(ModuleOf("rogue.cc"), "");
}

TEST(IndexTest, IndexFileRecordsIncludesAndStatusReturns) {
  SourceFile f = Lex("src/common/io.h",
                     "#include \"common/status.h\"\n"
                     "#include <vector>\n"
                     "Status Flush();\n"
                     "StatusOr<int> ReadInt(const std::string& s);\n"
                     "Status Sink::Drain() { return Status::Ok(); }\n"
                     "Status& MutableState();\n"
                     "int Other();\n"
                     "Status s = Flush();\n");
  FileIndex idx = IndexFile(f);
  // Only the quoted include is a project edge.
  ASSERT_EQ(idx.includes.size(), 1u);
  EXPECT_EQ(idx.includes[0].target, "common/status.h");
  EXPECT_EQ(idx.includes[0].line, 1);
  // Flush, ReadInt, Drain -- not the reference return, the variable, the
  // qualifier use (Status::Ok), or the int function.
  ASSERT_EQ(idx.functions.size(), 3u);
  EXPECT_EQ(idx.functions[0].name, "Flush");
  EXPECT_EQ(idx.functions[0].kind, ReturnKind::kStatus);
  EXPECT_EQ(idx.functions[1].name, "ReadInt");
  EXPECT_EQ(idx.functions[1].kind, ReturnKind::kStatusOr);
  EXPECT_EQ(idx.functions[2].name, "Drain");
  EXPECT_EQ(idx.functions[2].kind, ReturnKind::kStatus);
}

TEST(IndexTest, ResolveTriesExactThenSiblingThenRoots) {
  ProjectIndex p;
  p.Add(Lex("src/obs/trace.h", ""));
  p.Add(Lex("src/obs/metrics.h", ""));
  p.Add(Lex("tests/util.h", ""));
  EXPECT_EQ(p.Resolve("src/obs/trace.cc", "src/obs/trace.h"),
            "src/obs/trace.h");                                     // exact
  EXPECT_EQ(p.Resolve("src/obs/trace.cc", "metrics.h"),
            "src/obs/metrics.h");                                   // sibling
  EXPECT_EQ(p.Resolve("src/engine/x.cc", "obs/trace.h"),
            "src/obs/trace.h");                                     // src/ root
  EXPECT_EQ(p.Resolve("src/engine/x.cc", "util.h"), "tests/util.h");
  EXPECT_EQ(p.Resolve("src/engine/x.cc", "third_party/json.h"), "");
}

TEST(IndexTest, ConflictingReturnKindsStandDown) {
  ProjectIndex p;
  p.Add(Lex("src/a/a.h", "Status Close();\n"));
  p.Add(Lex("src/b/b.h", "StatusOr<int> Close();\n"));
  EXPECT_EQ(p.ReturnKindOf("Close"), ReturnKind::kOther);
  EXPECT_EQ(p.ReturnKindOf("NeverDeclared"), ReturnKind::kOther);
}

// --- layering ------------------------------------------------------------

TEST(LayeringTest, ParseLayerConfigAcceptsTheCommittedFormat) {
  LayerConfig config;
  std::string error;
  ASSERT_TRUE(ParseLayerConfig("# comment\n"
                               "\n"
                               "common:\n"
                               "obs: common  # trailing comment\n"
                               "engine: common obs\n",
                               &config, &error))
      << error;
  ASSERT_EQ(config.allowed.size(), 3u);
  EXPECT_TRUE(config.allowed.at("common").empty());
  EXPECT_EQ(config.allowed.at("obs"), (std::set<std::string>{"common"}));
  EXPECT_EQ(config.allowed.at("engine"),
            (std::set<std::string>{"common", "obs"}));
}

TEST(LayeringTest, ParseLayerConfigRejectsMalformedInput) {
  LayerConfig config;
  std::string error;
  EXPECT_FALSE(ParseLayerConfig("common\n", &config, &error));
  EXPECT_NE(error.find("layers.txt:1"), std::string::npos) << error;
  EXPECT_FALSE(
      ParseLayerConfig("common:\ncommon: obs\n", &config, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(LayeringTest, FlagsForbiddenEdges) {
  std::vector<Finding> f = LayerCheck(
      "common:\nobs: common\n",
      {{"src/common/status.h", "#include \"obs/metrics.h\"\n"},
       {"src/obs/metrics.h", "#include \"common/status.h\"\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_EQ(f[0].path, "src/common/status.h");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("common -> obs"), std::string::npos)
      << f[0].message;
}

TEST(LayeringTest, FlagsSrcDependingOnHarnesses) {
  std::vector<Finding> f =
      LayerCheck("obs: common\n", {{"src/obs/a.cc", "#include \"util.h\"\n"},
                                   {"tests/util.h", ""}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_NE(f[0].message.find("tests/util.h"), std::string::npos)
      << f[0].message;
}

TEST(LayeringTest, FlagsModulesMissingFromTheDag) {
  std::vector<Finding> f = LayerCheck("common:\n", {{"src/rogue/x.h", ""}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_EQ(f[0].path, "src/rogue/x.h");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("rogue"), std::string::npos);
}

TEST(LayeringTest, AllowedSameModuleAndExternalEdgesAreClean) {
  std::vector<Finding> f = LayerCheck(
      "common:\nobs: common\n",
      {// Same-module, allowed cross-module, and unresolvable external
       // includes are all fine; harness files may include anything.
       {"src/obs/a.h",
        "#include \"obs/b.h\"\n"
        "#include \"common/c.h\"\n"
        "#include \"absl/strings/str_cat.h\"\n"},
       {"src/obs/b.h", ""},
       {"src/common/c.h", ""},
       {"tests/t.cc", "#include \"obs/a.h\"\n"}});
  EXPECT_TRUE(f.empty());
}

// --- include cycles ------------------------------------------------------

TEST(CycleTest, DetectsTwoFileCycle) {
  ProjectIndex p;
  p.Add(Lex("src/a/x.h", "#include \"a/y.h\"\n"));
  p.Add(Lex("src/a/y.h", "#include \"a/x.h\"\n"));
  std::vector<Finding> out;
  CheckIncludeCycles(p, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "include-cycle");
  EXPECT_EQ(out[0].message,
            "include cycle: src/a/x.h -> src/a/y.h -> src/a/x.h");
}

TEST(CycleTest, FixtureTreeCycleIsReported) {
  ProjectIndex p;
  p.Add(LexFixture("cycle/a.h"));
  p.Add(LexFixture("cycle/b.h"));
  p.Add(LexFixture("cycle/c.h"));
  std::vector<Finding> out;
  CheckIncludeCycles(p, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "include-cycle");
  // The cycle closes at c.h's include of a.h; the message names every hop.
  EXPECT_EQ(out[0].path, "tests/lint_fixtures/cycle/c.h");
  for (const char* name : {"cycle/a.h", "cycle/b.h", "cycle/c.h"}) {
    EXPECT_NE(out[0].message.find(name), std::string::npos)
        << name << " missing from: " << out[0].message;
  }
}

TEST(CycleTest, AcyclicFixtureTreeIsClean) {
  ProjectIndex p;
  p.Add(LexFixture("acyclic/top.h"));
  p.Add(LexFixture("acyclic/base.h"));
  std::vector<Finding> out;
  CheckIncludeCycles(p, &out);
  EXPECT_TRUE(out.empty());
}

// --- status-discipline ---------------------------------------------------

// Runs the rule on `code` (as src/engine/use.cc) against an index that
// declares Status Flush() and StatusOr<int> ReadInt().
std::vector<Finding> Discipline(const std::string& code) {
  ProjectIndex project;
  project.Add(Lex("src/common/io.h",
                  "Status Flush();\n"
                  "StatusOr<int> ReadInt();\n"));
  SourceFile caller = Lex("src/engine/use.cc", code);
  project.Add(caller);
  std::vector<Finding> out;
  CheckStatusDiscipline(caller, project, &out);
  return out;
}

TEST(StatusDisciplineTest, FlagsBareDiscards) {
  std::vector<Finding> f = Discipline("void F() {\n  Flush();\n}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "status-discipline");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'Flush()'"), std::string::npos);

  EXPECT_TRUE(HasRule(Discipline("void F() {\n  sink.Flush();\n}\n"),
                      "status-discipline"));
  EXPECT_TRUE(HasRule(Discipline("void F() {\n  if (ready) Flush();\n}\n"),
                      "status-discipline"));
  EXPECT_TRUE(HasRule(Discipline("void F() {\n  MakeSink().Flush();\n}\n"),
                      "status-discipline"));
  // (void) alone is not enough: the cast must carry an audited reason.
  EXPECT_TRUE(HasRule(Discipline("void F() {\n  (void)Flush();\n}\n"),
                      "status-discipline"));
  // StatusOr discards are named as such.
  std::vector<Finding> g = Discipline("void F() {\n  ReadInt();\n}\n");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_NE(g[0].message.find("StatusOr"), std::string::npos);
}

TEST(StatusDisciplineTest, AcceptsConsumedResults) {
  EXPECT_TRUE(Discipline("Status G() {\n"
                         "  Status s = Flush();\n"
                         "  TRAP_RETURN_IF_ERROR(Flush());\n"
                         "  if (Flush().ok()) s = Flush();\n"
                         "  bool ok = Flush().ok();\n"
                         "  return Flush();\n"
                         "}\n")
                  .empty());
  // Calls the index knows nothing about are never flagged.
  EXPECT_TRUE(Discipline("void F() {\n  Unknown();\n}\n").empty());
}

TEST(StatusDisciplineTest, VoidDiscardWithNolintReasonIsSanctioned) {
  // The rule itself still reports the discard; the driver drops it because
  // the line carries a suppression -- mirror that contract here.
  SourceFile caller =
      Lex("src/engine/use.cc",
          "void F() {\n"
          "  (void)Flush();  // NOLINT(status-discipline): best effort\n"
          "}\n");
  ProjectIndex project;
  project.Add(Lex("src/common/io.h", "Status Flush();\n"));
  project.Add(caller);
  std::vector<Finding> out;
  CheckStatusDiscipline(caller, project, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(IsSuppressed(caller, out[0].rule, out[0].line));
}

TEST(StatusDisciplineTest, ConflictingOverloadsAreNotFlagged) {
  ProjectIndex project;
  project.Add(Lex("src/a/a.h", "Status Close();\n"));
  project.Add(Lex("src/b/b.h", "StatusOr<int> Close();\n"));
  SourceFile caller = Lex("src/engine/use.cc", "void F() {\n  Close();\n}\n");
  project.Add(caller);
  std::vector<Finding> out;
  CheckStatusDiscipline(caller, project, &out);
  EXPECT_TRUE(out.empty());
}

// --- nondeterministic-iteration ------------------------------------------

TEST(RuleTest, NondeterministicIterationViolation) {
  EXPECT_TRUE(HasRule(
      LintSnippet("src/obs/agg.cc",
                  "std::unordered_map<uint64_t, int> counts_;\n"
                  "void Dump() {\n"
                  "  for (const auto& [k, v] : counts_) Emit(k, v);\n"
                  "}\n"),
      "nondeterministic-iteration"));
  // Ordered containers keyed by pointer iterate in address order, which
  // varies run to run just like hash order.
  EXPECT_TRUE(HasRule(
      LintSnippet("src/engine/what_if.cc",
                  "std::set<const PlanNode*> live_;\n"
                  "void Walk() {\n"
                  "  for (const PlanNode* n : live_) Touch(n);\n"
                  "}\n"),
      "nondeterministic-iteration"));
}

TEST(RuleTest, NondeterministicIterationClean) {
  // A string-keyed ordered map iterates deterministically.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/obs/agg.cc",
                  "std::map<std::string, int> counts_;\n"
                  "void Dump() {\n"
                  "  for (const auto& [k, v] : counts_) Emit(k, v);\n"
                  "}\n"),
      "nondeterministic-iteration"));
  // Outside digest-feeding code hash order is not digest-visible.
  EXPECT_FALSE(HasRule(
      LintSnippet("src/advisor/greedy.cc",
                  "std::unordered_map<uint64_t, int> counts_;\n"
                  "void Dump() {\n"
                  "  for (const auto& [k, v] : counts_) Emit(k, v);\n"
                  "}\n"),
      "nondeterministic-iteration"));
  // An order-insensitive body carries the audited annotation.
  std::vector<Finding> f = LintSnippet(
      "src/obs/agg.cc",
      "std::unordered_map<uint64_t, int> counts_;\n"
      "void Dump() {\n"
      "  // NOLINTNEXTLINE(nondeterministic-iteration): sorted below\n"
      "  for (const auto& [k, v] : counts_) collect(k, v);\n"
      "}\n");
  EXPECT_FALSE(HasRule(f, "nondeterministic-iteration"));
  EXPECT_FALSE(HasRule(f, "nolint-reason"));
}

TEST(RuleTest, NondeterministicIterationPairedHeaderTaint) {
  // A .cc iterating a member its header declares: the member's type is
  // invisible in the .cc alone, so the driver feeds the header's names in
  // as extra taint.
  SourceFile header = Lex("src/obs/sink.h",
                          "std::unordered_map<uint64_t, Event> events_;\n");
  SourceFile impl = Lex("src/obs/sink.cc",
                        "void Snapshot() {\n"
                        "  for (const auto& [id, e] : events_) keep(e);\n"
                        "}\n");
  std::vector<Finding> out;
  CheckNondeterministicIteration(impl, HashOrderedNames(header), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rule, "nondeterministic-iteration");
  out.clear();
  CheckNondeterministicIteration(impl, {}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RuleTest, HashOrderedNamesFindsRiskyDeclarations) {
  SourceFile f = Lex("src/obs/x.h",
                     "std::unordered_map<uint64_t, int> by_hash_;\n"
                     "std::unordered_set<std::string> seen_;\n"
                     "std::set<const Node*> by_addr_;\n"
                     "std::map<std::string, int> by_name_;\n");
  EXPECT_EQ(HashOrderedNames(f),
            (std::vector<std::string>{"by_hash_", "seen_", "by_addr_"}));
}

// --- JSON output ---------------------------------------------------------

TEST(JsonTest, RenderFindingsJsonEmpty) {
  EXPECT_EQ(RenderFindingsJson({}, 3),
            "{\n"
            "  \"version\": 1,\n"
            "  \"files_scanned\": 3,\n"
            "  \"num_findings\": 0,\n"
            "  \"findings\": []\n"
            "}\n");
}

TEST(JsonTest, RenderFindingsJsonEscapesStrings) {
  std::vector<Finding> f{{"src/a.cc", 7, "layering", "bad \"edge\"\nline"}};
  EXPECT_EQ(RenderFindingsJson(f, 1),
            "{\n"
            "  \"version\": 1,\n"
            "  \"files_scanned\": 1,\n"
            "  \"num_findings\": 1,\n"
            "  \"findings\": [\n"
            "    {\"path\": \"src/a.cc\", \"line\": 7, \"rule\": "
            "\"layering\", \"message\": \"bad \\\"edge\\\"\\nline\"}\n"
            "  ]\n"
            "}\n");
}

}  // namespace
}  // namespace trap::lint
