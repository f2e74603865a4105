#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>

namespace trap::lint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Token-stream cursor helpers. Out-of-range access yields an empty punct
// token so lookaround never branches on bounds.
const Token& At(const SourceFile& f, size_t i) {
  static const Token kNone{TokKind::kPunct, "", 0};
  return i < f.tokens.size() ? f.tokens[i] : kNone;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}

// True when tokens[i] is qualified as std::<tok> (possibly ::std::<tok>).
bool IsStdQualified(const SourceFile& f, size_t i) {
  return i >= 2 && At(f, i - 1).text == "::" && IsIdent(At(f, i - 2), "std");
}

// True when tokens[i] starts a call: the next token is '('. Catches both
// free calls `foo(` and qualified calls `std::foo(`.
bool IsCall(const SourceFile& f, size_t i) {
  return At(f, i + 1).text == "(";
}

void Add(const SourceFile& f, const std::string& rule, int line,
         std::string message, std::vector<Finding>* out) {
  out->push_back(Finding{f.path, line, rule, std::move(message)});
}

}  // namespace

void CheckUnseededRandomness(const SourceFile& f, std::vector<Finding>* out) {
  if (f.path == "src/common/rng.h") return;  // the one sanctioned wrapper
  // Engine/device types: any mention is a violation -- even declaring one
  // means randomness that does not flow through common::Rng's seed.
  static const std::set<std::string> kEngines = {
      "random_device", "mt19937",      "mt19937_64", "default_random_engine",
      "minstd_rand",   "minstd_rand0", "ranlux24",   "ranlux48",
      "knuth_b"};
  // C library generators: flagged when called or std::-qualified, so an
  // unrelated identifier merely named "rand" does not trip the rule.
  static const std::set<std::string> kCFuncs = {"rand", "srand", "rand_r",
                                                "drand48", "random"};
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (kEngines.count(t.text) != 0) {
      Add(f, "no-unseeded-randomness", t.line,
          "'" + t.text + "' bypasses the seeded common::Rng; take an Rng& "
          "(or Rng::Fork() a stream) instead",
          out);
    } else if (kCFuncs.count(t.text) != 0 &&
               (IsCall(f, i) || IsStdQualified(f, i)) &&
               At(f, i - 1).text != "." && At(f, i - 1).text != "->") {
      Add(f, "no-unseeded-randomness", t.line,
          "'" + t.text + "()' is unseeded global state; use common::Rng",
          out);
    }
  }
}

void CheckRawThread(const SourceFile& f, std::vector<Finding>* out) {
  if (f.path == "src/common/thread_pool.h" ||
      f.path == "src/common/thread_pool.cc") {
    return;  // the pool's own implementation owns the raw threads
  }
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text != "thread" && t.text != "jthread") continue;
    if (!IsStdQualified(f, i)) continue;
    // std::thread::hardware_concurrency() and the like consult the type
    // without spawning a thread; only object use is banned.
    if (At(f, i + 1).text == "::") continue;
    Add(f, "no-raw-thread", t.line,
        "'std::" + t.text + "' outside common::ThreadPool; use "
        "common::ParallelFor or the pool",
        out);
  }
}

void CheckManualLock(const SourceFile& f, std::vector<Finding>* out) {
  for (size_t i = 1; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text != "lock" && t.text != "unlock" && t.text != "try_lock") {
      continue;
    }
    const std::string& prev = At(f, i - 1).text;
    if (prev != "." && prev != "->") continue;
    if (!IsCall(f, i)) continue;
    Add(f, "no-manual-lock", t.line,
        "manual '." + t.text + "()'; hold locks via std::lock_guard or "
        "std::scoped_lock so no path leaks a held mutex",
        out);
  }
}

void CheckWallClock(const SourceFile& f, std::vector<Finding>* out) {
  // Deterministic library code only: bench/, tests/, examples/, tools/ may
  // legitimately measure wall time.
  if (!StartsWith(f.path, "src/")) return;
  // Any mention of these is nondeterministic input.
  static const std::set<std::string> kAlways = {
      "system_clock", "gettimeofday", "localtime", "localtime_r", "gmtime",
      "gmtime_r",     "strftime",     "ctime",     "timespec_get"};
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (kAlways.count(t.text) != 0) {
      Add(f, "no-wall-clock", t.line,
          "'" + t.text + "' reads the wall clock; deterministic src/ code "
          "must not depend on real time",
          out);
      continue;
    }
    if ((t.text == "time" || t.text == "clock") && IsCall(f, i)) {
      const std::string& prev = At(f, i - 1).text;
      // Member calls (obj.time()) and declarations (double time(...)) are
      // not the C library function; std::time( / bare time( are.
      if (prev == "." || prev == "->") continue;
      if (At(f, i - 1).kind == TokKind::kIdentifier &&
          !IsStdQualified(f, i)) {
        continue;
      }
      Add(f, "no-wall-clock", t.line,
          "'" + t.text + "()' reads the wall clock; deterministic src/ "
          "code must not depend on real time",
          out);
    }
  }
}

void CheckBannedFunctions(const SourceFile& f, std::vector<Finding>* out) {
  struct Banned {
    const char* name;
    const char* instead;
  };
  static const Banned kBanned[] = {
      {"atoi", "strtol with explicit range/garbage checks"},
      {"atol", "strtol with explicit range/garbage checks"},
      {"atoll", "strtoll with explicit range/garbage checks"},
      {"atof", "strtod with explicit garbage checks"},
      {"strcpy", "std::string or std::copy with a known bound"},
      {"strcat", "std::string"},
      {"sprintf", "snprintf with an explicit buffer size"},
      {"vsprintf", "vsnprintf with an explicit buffer size"},
      {"gets", "fgets with an explicit buffer size"},
  };
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (!IsCall(f, i)) continue;
    const std::string& prev = At(f, i - 1).text;
    if (prev == "." || prev == "->") continue;  // member fn, not libc
    for (const Banned& b : kBanned) {
      if (t.text == b.name) {
        Add(f, "banned-functions", t.line,
            "'" + t.text + "' has silent failure modes; use " + b.instead,
            out);
        break;
      }
    }
  }
}

std::string ExpectedGuard(const std::string& path) {
  std::string p = path;
  if (StartsWith(p, "src/")) p = p.substr(4);
  std::string guard = "TRAP_";
  for (char c : p) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(c))));
    } else {
      guard.push_back('_');
    }
  }
  guard.push_back('_');
  return guard;
}

namespace {

// Splits a preprocessor token like "#  ifndef FOO" into {"ifndef", "FOO"}.
std::vector<std::string> DirectiveWords(const Token& t) {
  std::vector<std::string> words;
  std::string cur;
  for (size_t i = 1; i < t.text.size(); ++i) {  // skip '#'
    char c = t.text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!cur.empty()) words.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) words.push_back(cur);
  return words;
}

}  // namespace

void CheckHeaderHygiene(const SourceFile& f, std::vector<Finding>* out) {
  if (!EndsWith(f.path, ".h") && !EndsWith(f.path, ".hpp")) return;
  std::vector<const Token*> directives;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kPreprocessor) directives.push_back(&t);
  }
  const std::string expected = ExpectedGuard(f.path);
  if (directives.empty()) {
    Add(f, "header-hygiene", 1,
        "header has no include guard; add '#ifndef " + expected +
            "' / '#define " + expected + "' / trailing '#endif'",
        out);
    return;
  }
  std::vector<std::string> first = DirectiveWords(*directives[0]);
  if (first.size() >= 2 && first[0] == "pragma" && first[1] == "once") {
    return;
  }
  if (first.empty() || first[0] != "ifndef" || first.size() < 2) {
    Add(f, "header-hygiene", directives[0]->line,
        "header must open with '#ifndef " + expected + "' or '#pragma once'",
        out);
    return;
  }
  const std::string& guard = first[1];
  if (guard != expected) {
    Add(f, "header-hygiene", directives[0]->line,
        "include guard '" + guard + "' does not match the canonical name '" +
            expected + "'",
        out);
  }
  if (directives.size() < 2) {
    Add(f, "header-hygiene", directives[0]->line,
        "'#ifndef " + guard + "' is not followed by '#define " + guard + "'",
        out);
    return;
  }
  std::vector<std::string> second = DirectiveWords(*directives[1]);
  if (second.size() < 2 || second[0] != "define" || second[1] != guard) {
    Add(f, "header-hygiene", directives[1]->line,
        "'#ifndef " + guard + "' must be followed immediately by '#define " +
            guard + "'",
        out);
    return;
  }
  std::vector<std::string> last = DirectiveWords(*directives.back());
  if (last.empty() || last[0] != "endif") {
    Add(f, "header-hygiene", directives.back()->line,
        "include guard for '" + guard + "' is never closed; the header "
        "must end with '#endif'",
        out);
  }
}

void CheckFloatAccumulation(const SourceFile& f, std::vector<Finding>* out) {
  if (!StartsWith(f.path, "src/engine/")) return;
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (!IsIdent(t, "float")) continue;
    // float_xyz identifiers are already excluded by exact-match; this
    // catches the type keyword itself in any position.
    Add(f, "float-accumulation", t.line,
        "'float' in engine cost arithmetic; costs are double end to end "
        "(see DESIGN.md)",
        out);
  }
}

void CheckHeapOnHotPath(const SourceFile& f, std::vector<Finding>* out) {
  // The what-if cost path promises no per-item heap allocation (DESIGN.md
  // section 3f): per-item allocation and std::function type erasure there
  // are throughput bugs, not style. Cold paths that legitimately allocate
  // (plan-tree construction, one-time static init, once-per-distinct-query
  // shape builds) carry audited suppression markers naming this rule.
  static const char* kHotPrefixes[] = {
      "src/engine/cost_model.",
      "src/engine/selectivity.",
      "src/engine/what_if.",
  };
  bool hot = false;
  for (const char* prefix : kHotPrefixes) {
    if (StartsWith(f.path, prefix)) {
      hot = true;
      break;
    }
  }
  if (!hot) return;
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text == "new") {
      const std::string& prev = At(f, i - 1).text;
      if (prev == "." || prev == "->") continue;  // member access, not operator new
      Add(f, "no-heap-on-hot-path", t.line,
          "'new' in a what-if cost kernel; keep per-item work free of heap "
          "allocation (or justify a cold path with a NOLINT reason)",
          out);
    } else if (t.text == "make_unique" || t.text == "make_shared") {
      Add(f, "no-heap-on-hot-path", t.line,
          "'" + t.text + "' allocates in a what-if cost kernel; keep "
          "per-item work free of heap allocation (or justify a cold path "
          "with a NOLINT reason)",
          out);
    } else if (t.text == "function" && IsStdQualified(f, i)) {
      Add(f, "no-heap-on-hot-path", t.line,
          "'std::function' type-erases with a per-capture heap allocation; "
          "use a template parameter or a function pointer + context",
          out);
    }
  }
}

void CheckSerialEvaluation(const SourceFile& f, std::vector<Finding>* out) {
  // What-if costing, true cost and the advisors' per-query loops run on
  // their caller: fanning them out over the pool measured slower than one
  // thread (DESIGN.md section 3a). Parallelism belongs to whole units of
  // work above this layer.
  if (!StartsWith(f.path, "src/engine/") &&
      !StartsWith(f.path, "src/advisor/")) {
    return;
  }
  for (const Token& t : f.tokens) {
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text != "ParallelFor" && t.text != "ThreadPool") continue;
    Add(f, "serial-evaluation", t.line,
        "'" + t.text + "' in the what-if/advisor layer; evaluation runs on "
        "the calling thread -- run whole assessments concurrently instead",
        out);
  }
}

void CheckRestrictedApi(const SourceFile& f, std::vector<Finding>* out) {
  // APIs that may be used only under the listed path prefixes. A row
  // matches an identifier from `names` in one of these forms.
  enum class Form {
    kMemberCall,        // .name( or ->name(
    kOneArgMemberCall,  // .name(x) or ->name(x): one argument
    kMention,           // any use of the name
  };
  struct Row {
    std::set<std::string> names;
    Form form;
    std::vector<std::string> allowed;
    const char* hint;
  };
  static const Row kRows[] = {
      {{"Recommend"},
       Form::kMemberCall,
       {"perfbench/", "src/advisor/advisor."},
       "call TryRecommend and handle its Status at the call site; the "
       "infallible shim stays only for perfbench/"},
      {{"Generate"},
       Form::kOneArgMemberCall,
       {"perfbench/", "src/trap/perturber."},
       "call TryGenerate and handle its Status at the call site; the "
       "infallible shim stays only for perfbench/"},
      {{"GlobalSnapshotWithDerived"},
       Form::kMention,
       {"perfbench/", "src/obs/metrics."},
       "read obs::MetricRegistry::Global().Snapshot(); the derived form "
       "stays only for perfbench/"},
      {{"MakeExtend", "MakeDb2Advis", "MakeAutoAdmin", "MakeDrop",
        "MakeRelaxation", "MakeDta", "MakeDrlIndex", "MakeDqnAdvisor",
        "MakeMcts", "SwirlAdvisor"},
       Form::kMention,
       {"src/advisor/"},
       "construct advisors via advisor::MakeAdvisor / MakeLearningAdvisor "
       "(advisor/registry.h)"},
  };
  // True when the parenthesized list opening at `open` holds exactly one
  // argument: non-empty, with no comma outside nested brackets.
  auto one_argument = [&f](size_t open) {
    int depth = 0;
    for (size_t j = open; j < f.tokens.size(); ++j) {
      const std::string& t = f.tokens[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") {
        if (--depth == 0) return j > open + 1;
      }
      if (t == "," && depth == 1) return false;
    }
    return false;
  };
  for (const Row& row : kRows) {
    if (std::any_of(
            row.allowed.begin(), row.allowed.end(),
            [&f](const std::string& p) { return StartsWith(f.path, p); })) {
      continue;
    }
    for (size_t i = 0; i < f.tokens.size(); ++i) {
      const Token& t = f.tokens[i];
      if (t.kind != TokKind::kIdentifier || row.names.count(t.text) == 0) {
        continue;
      }
      const std::string& prev = At(f, i - 1).text;
      const bool member = prev == "." || prev == "->";
      bool hit = false;
      switch (row.form) {
        case Form::kMemberCall: hit = member && IsCall(f, i); break;
        case Form::kOneArgMemberCall:
          hit = member && IsCall(f, i) && one_argument(i + 1);
          break;
        case Form::kMention: hit = true; break;
      }
      if (!hit) continue;
      Add(f, "restricted-api", t.line,
          "'" + t.text + "' is not allowed here; " + row.hint, out);
    }
  }
}

void CheckAbortInLibrary(const SourceFile& f, std::vector<Finding>* out) {
  // Only the Status-converted evaluation paths: these files promised that
  // every externally-reachable failure is a trap::Status, so any process-
  // killing construct is either a leftover or a new true invariant that
  // must carry a NOLINT with its justification.
  static const char* kConvertedPrefixes[] = {
      "src/engine/what_if.",   "src/advisor/advisor.",
      "src/advisor/evaluation.", "src/advisor/heuristic_advisors.",
      "src/trap/perturber.",   "src/testing/fault_campaign.",
  };
  bool converted = false;
  for (const char* prefix : kConvertedPrefixes) {
    if (StartsWith(f.path, prefix)) {
      converted = true;
      break;
    }
  }
  if (!converted) return;
  static const std::set<std::string> kKillers = {"abort", "exit", "_Exit",
                                                 "quick_exit"};
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text == "TRAP_CHECK" || t.text == "TRAP_CHECK_MSG") {
      Add(f, "no-abort-in-library", t.line,
          "'" + t.text + "' aborts on a Status-converted evaluation path; "
          "return a trap::Status (kInvalidArgument/kInternal) instead, or "
          "justify the invariant with a NOLINT reason",
          out);
      continue;
    }
    if (kKillers.count(t.text) == 0 || !IsCall(f, i)) continue;
    const std::string& prev = At(f, i - 1).text;
    if (prev == "." || prev == "->") continue;  // member fn, not the libc call
    if (At(f, i - 1).kind == TokKind::kIdentifier && !IsStdQualified(f, i)) {
      continue;  // declaration like `int exit(...)` or unrelated identifier
    }
    Add(f, "no-abort-in-library", t.line,
        "'" + t.text + "()' kills the process on a Status-converted "
        "evaluation path; degrade or return a trap::Status instead",
        out);
  }
}

void CheckMetricNameStyle(const SourceFile& f, std::vector<Finding>* out) {
  // A metric name literal passed to MetricRegistry::counter()/histogram()
  // must match trap\.[a-z_]+(\.[a-z_]+)+ -- a "trap." root plus at least
  // two lower-case segments, so dashboards group and sort consistently.
  // Names assembled at runtime (e.g. per-advisor prefixes) are out of this
  // rule's reach; obs::IsValidMetricName CHECKs them at registration.
  auto valid = [](const std::string& name) {
    size_t pos = 0;
    int segments = 0;
    while (true) {
      size_t dot = name.find('.', pos);
      const std::string seg =
          name.substr(pos, dot == std::string::npos ? dot : dot - pos);
      if (seg.empty()) return false;
      if (segments == 0 && seg != "trap") return false;
      if (segments > 0) {
        for (char c : seg) {
          if ((c < 'a' || c > 'z') && c != '_') return false;
        }
      }
      ++segments;
      if (dot == std::string::npos) break;
      pos = dot + 1;
    }
    return segments >= 3;
  };
  for (size_t i = 0; i + 2 < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier ||
        (t.text != "counter" && t.text != "histogram")) {
      continue;
    }
    // Only the registry accessors: require a preceding "." or "->" so free
    // functions that happen to share the name don't trip the rule.
    const std::string& prev = At(f, i - 1).text;
    if (prev != "." && prev != "->") continue;
    if (At(f, i + 1).text != "(") continue;
    const Token& arg = f.tokens[i + 2];
    if (arg.kind != TokKind::kString) continue;  // assembled at runtime
    if (At(f, i + 3).text == "+") continue;      // concatenation: a prefix
    if (valid(arg.text)) continue;
    Add(f, "metric-name-style", arg.line,
        "metric name \"" + arg.text + "\" must match "
        "trap.[a-z_]+(.[a-z_]+)+ -- a trap. root plus at least two "
        "lower-case segments",
        out);
  }
}

namespace {

// Steps past the balanced `<...>` whose `<` sits at index i; returns i when
// the angles never close before a statement boundary (a comparison, not a
// template argument list).
size_t SkipAngles(const SourceFile& f, size_t i) {
  int depth = 0;
  for (size_t j = i; j < f.tokens.size(); ++j) {
    const std::string& t = At(f, j).text;
    if (t == "<") ++depth;
    if (t == ">") {
      if (--depth == 0) return j + 1;
    }
    if (t == ";" || t == "{") return i;
  }
  return i;
}

// True when the template argument list opening at `open` ('<') declares a
// pointer key: a '*' at depth 1 before the first depth-1 ',' (map) or the
// closing '>' (set).
bool PointerKeyed(const SourceFile& f, size_t open) {
  int depth = 0;
  for (size_t j = open; j < f.tokens.size(); ++j) {
    const std::string& t = At(f, j).text;
    if (t == "<") ++depth;
    if (t == ">" && --depth == 0) return false;
    if (t == ";" || t == "{") return false;
    if (depth == 1 && t == ",") return false;
    if (depth == 1 && t == "*") return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> HashOrderedNames(const SourceFile& f) {
  // Names declared with a hash-ordered type, or an ordered map/set keyed by
  // pointer (address order varies run to run).
  std::vector<std::string> names;
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool unordered =
        t.text == "unordered_map" || t.text == "unordered_set";
    const bool ordered = t.text == "map" || t.text == "set";
    if (!unordered && !ordered) continue;
    if (At(f, i + 1).text != "<") continue;
    if (ordered && !PointerKeyed(f, i + 1)) continue;
    size_t j = SkipAngles(f, i + 1);
    if (j == i + 1) continue;
    // Declarator: optional cv/ref tokens, then the declared name.
    while (At(f, j).text == "&" || At(f, j).text == "*" ||
           IsIdent(At(f, j), "const")) {
      ++j;
    }
    if (At(f, j).kind == TokKind::kIdentifier) names.push_back(At(f, j).text);
  }
  return names;
}

void CheckNondeterministicIteration(
    const SourceFile& f, const std::vector<std::string>& extra_tainted,
    std::vector<Finding>* out) {
  // Digest-feeding code: the metric/trace digests, the fault registry's
  // work-item-keyed draws, the what-if fingerprint caches, the fault-campaign
  // digest, and the trace scenario all promise bit-identical output across
  // runs and thread counts. Hash-order iteration there is a latent
  // nondeterminism bug even when it happens to pass today.
  static const char* kDigestPrefixes[] = {
      "src/obs/",
      "src/common/fault.",
      "src/engine/what_if.",
      "src/testing/fault_campaign.",
      "src/testing/trace_scenario.",
  };
  bool scoped = false;
  for (const char* prefix : kDigestPrefixes) {
    if (StartsWith(f.path, prefix)) {
      scoped = true;
      break;
    }
  }
  if (!scoped) return;

  std::set<std::string> tainted(extra_tainted.begin(), extra_tainted.end());
  for (const std::string& name : HashOrderedNames(f)) tainted.insert(name);
  if (tainted.empty()) return;

  // Pass 2: range-for statements whose range expression names a tainted
  // container (or spells an unordered type inline).
  for (size_t i = 0; i + 1 < f.tokens.size(); ++i) {
    if (!IsIdent(f.tokens[i], "for") || At(f, i + 1).text != "(") continue;
    int depth = 0;
    size_t colon = 0;
    size_t close = 0;
    for (size_t j = i + 1; j < f.tokens.size(); ++j) {
      const std::string& t = At(f, j).text;
      if (t == "(") ++depth;
      if (t == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && t == ";") break;  // classic for, not range-for
      if (depth == 1 && t == ":" && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;
    for (size_t j = colon + 1; j < close; ++j) {
      const Token& t = f.tokens[j];
      if (t.kind != TokKind::kIdentifier) continue;
      if (tainted.count(t.text) == 0 && t.text != "unordered_map" &&
          t.text != "unordered_set") {
        continue;
      }
      Add(f, "nondeterministic-iteration", f.tokens[i].line,
          "range-for over hash-ordered container '" + t.text +
              "' in digest-feeding code; iterate a sorted view, or annotate "
              "an order-insensitive body with "
              "'NOLINT(nondeterministic-iteration): <why>'",
          out);
      break;
    }
  }
}

std::string RenderFindingsJson(const std::vector<Finding>& findings,
                               size_t files_scanned) {
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  };
  std::string out = "{\n  \"version\": 1,\n  \"files_scanned\": ";
  out += std::to_string(files_scanned);
  out += ",\n  \"num_findings\": ";
  out += std::to_string(findings.size());
  out += ",\n  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"path\": \"" + escape(f.path) + "\", \"line\": " +
           std::to_string(f.line) + ", \"rule\": \"" + escape(f.rule) +
           "\", \"message\": \"" + escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::vector<Finding> Lint(const SourceFile& f) {
  std::vector<Finding> raw;
  CheckUnseededRandomness(f, &raw);
  CheckRawThread(f, &raw);
  CheckManualLock(f, &raw);
  CheckWallClock(f, &raw);
  CheckBannedFunctions(f, &raw);
  CheckHeaderHygiene(f, &raw);
  CheckFloatAccumulation(f, &raw);
  CheckHeapOnHotPath(f, &raw);
  CheckSerialEvaluation(f, &raw);
  CheckRestrictedApi(f, &raw);
  CheckAbortInLibrary(f, &raw);
  CheckMetricNameStyle(f, &raw);
  CheckNondeterministicIteration(f, {}, &raw);

  std::vector<Finding> kept;
  for (Finding& fi : raw) {
    if (!IsSuppressed(f, fi.rule, fi.line)) kept.push_back(std::move(fi));
  }
  // A suppression without a reason is itself a finding: NOLINT is an audit
  // trail, not an off switch. Deliberately not suppressible.
  for (const Suppression& sup : f.suppressions) {
    if (!sup.has_reason) {
      kept.push_back(Finding{
          f.path, sup.line, "nolint-reason",
          "NOLINT(" + sup.rule + ") lacks the mandatory reason; write "
          "'// NOLINT(rule-id): why this is safe'"});
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return kept;
}

}  // namespace trap::lint
