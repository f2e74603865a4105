#ifndef TRAP_TOOLS_COMMON_CLI_H_
#define TRAP_TOOLS_COMMON_CLI_H_

#include <string>

namespace trap::cli {

// The one flag grammar shared by every TRAP command-line tool (trap_fuzz,
// trap_drift, trap_trace, trap_serve): boolean switches match exactly;
// valued flags accept both "--flag VALUE" and "--flag=VALUE".
// Numeric parsing is strict (strtoll/strtoull/strtod with whole-string
// checks -- trailing garbage is an error, never silently truncated).
//
// Usage is a cursor loop; the *Flag matchers return true when the current
// argument matched (advancing past a split-form value), so a tool's loop is
// a flat chain of matchers:
//
//   trap::cli::FlagParser flags(argc, argv, "trap_serve");
//   while (flags.Next()) {
//     if (flags.Switch("--digest")) { digest = true; continue; }
//     if (flags.StringFlag("--schema", &schema)) continue;
//     if (flags.IntFlag("--seed", &seed)) continue;
//     flags.Unknown();            // diagnostic for the unmatched argument
//     return Usage(stderr);
//   }
//   if (flags.failed()) return Usage(stderr);
//
// A missing or malformed value prints a "<tool>: ..." diagnostic and marks
// the parser failed; Next() then stops, so the single failed() check after
// the loop covers every parse error. Range validation beyond "it is a
// number" stays at the call site, where the bounds are.
class FlagParser {
 public:
  FlagParser(int argc, char** argv, std::string tool);

  // Advances to the next argument. False at the end or after a parse error.
  bool Next();

  // The current raw argument (e.g. for diagnostics).
  const std::string& arg() const { return arg_; }

  // Exact match for a value-less switch ("--digest", "-h").
  bool Switch(const char* name) const { return arg_ == name; }

  // Valued flags: true iff the current argument is `name` (either form).
  // On a match the parsed value is stored in *out; a missing or malformed
  // value still reports a match but marks the parser failed.
  bool StringFlag(const char* name, std::string* out);
  bool IntFlag(const char* name, long long* out);
  bool Uint64Flag(const char* name, unsigned long long* out);
  bool DoubleFlag(const char* name, double* out);

  // "unknown option" diagnostic for the current argument.
  void Unknown() const;

  bool failed() const { return failed_; }

 private:
  // Extracts the raw value of `name` from "--name=..." or the next argv.
  bool MatchRaw(const char* name, std::string* raw);
  void Fail(const std::string& message);

  int argc_;
  char** argv_;
  std::string tool_;
  int index_ = 0;
  std::string arg_;
  bool failed_ = false;
};

}  // namespace trap::cli

#endif  // TRAP_TOOLS_COMMON_CLI_H_
