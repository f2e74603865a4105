// trap_trace: replays a deterministic observability scenario and exports
// the resulting trace. The same scenario options produce bit-identical
// metric and trace digests for every TRAP_THREADS value; the golden.trace
// rows (tests/golden/digests.txt) pin the default scenario's digest lines.
//
//   trap_trace                                 # chrome trace on stdout
//   trap_trace --format=jsonl                  # one span per line
//   trap_trace --advisor DTA --schema tpcds    # different scenario
//   trap_trace --out trace.json                # write to a file
//   trap_trace --digest                        # digests only, no trace
//
// Load the Chrome format output into chrome://tracing or https://ui.perfetto.dev.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/trace_scenario.h"
#include "tools/common/cli.h"

namespace {

int Usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: trap_trace [options]\n"
      "  --schema NAME      tpch | tpcds | transaction (default tpch)\n"
      "  --advisor NAME     advisor to trace (default Extend)\n"
      "  --seed S           scenario seed (default 0x7ace)\n"
      "  --format F         chrome | jsonl (default chrome)\n"
      "  --out PATH         write the trace to PATH instead of stdout\n"
      "  --digest           print only the metric/trace digests\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  trap::proptest::TraceScenarioOptions options;
  std::string format = "chrome";
  std::string out_path;
  bool digest_only = false;

  unsigned long long seed = options.seed;
  trap::cli::FlagParser flags(argc, argv, "trap_trace");
  while (flags.Next()) {
    if (flags.Switch("--help") || flags.Switch("-h")) return Usage(stdout);
    if (flags.Switch("--digest")) {
      digest_only = true;
      continue;
    }
    if (flags.StringFlag("--schema", &options.schema)) continue;
    if (flags.StringFlag("--advisor", &options.advisor)) continue;
    if (flags.Uint64Flag("--seed", &seed)) continue;
    if (flags.StringFlag("--format", &format)) continue;
    if (flags.StringFlag("--out", &out_path)) continue;
    flags.Unknown();
    return Usage(stderr);
  }
  if (flags.failed()) return Usage(stderr);
  options.seed = seed;
  if (format != "chrome" && format != "jsonl") {
    std::fprintf(stderr, "trap_trace: unknown format '%s'\n", format.c_str());
    return Usage(stderr);
  }

  trap::obs::TraceSink sink;
  trap::common::Status status =
      trap::proptest::RunTraceScenario(options, &sink);
  if (!status.ok()) {
    std::fprintf(stderr, "trap_trace: %s\n", status.ToString().c_str());
    return 1;
  }

  if (!digest_only) {
    const std::string trace = format == "chrome"
                                  ? trap::obs::ChromeTraceJson(sink)
                                  : trap::obs::TraceJsonl(sink);
    if (out_path.empty()) {
      std::fputs(trace.c_str(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "trap_trace: cannot write %s\n",
                     out_path.c_str());
        return 1;
      }
      out << trace;
      if (!out.flush()) {
        std::fprintf(stderr, "trap_trace: short write to %s\n",
                     out_path.c_str());
        return 1;
      }
      std::fprintf(stderr, "trap_trace: wrote %s (%zu spans)\n",
                   out_path.c_str(), sink.size());
    }
  }

  // The digest lines, pinned by the golden.trace rows.
  std::printf("metrics digest: 0x%016llx\n",
              static_cast<unsigned long long>(
                  trap::obs::MetricRegistry::Digest(
                      trap::obs::MetricRegistry::Global().Snapshot())));
  std::printf("trace digest:   0x%016llx\n",
              static_cast<unsigned long long>(sink.Digest()));
  return 0;
}
