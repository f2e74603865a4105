#ifndef TRAP_TESTING_FAULT_CAMPAIGN_H_
#define TRAP_TESTING_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace trap::proptest {

// Sweep configuration for the fault-injection campaign (trap_fuzz
// --fault-campaign): every injectable fault site is armed in turn at each
// probability, and a small advisor/perturber evaluation runs under a step
// budget. The campaign asserts that every injected fault is either retried
// through, degraded gracefully, self-healed, or surfaced as the matching
// Status code -- never a crash, and never a silent wrong answer (a
// succeeding case's recommendation must be bit-identical to the fault-free
// baseline).
struct FaultCampaignOptions {
  std::uint64_t seed = 1;
  std::string schema = "tpch";
  std::vector<double> probabilities = {1.0, 0.05};
  // Per-case evaluation step budget. Generous relative to a normal
  // recommend run, so only injected hangs exhaust it.
  std::uint64_t step_budget = 200000;
  int workloads = 2;  // cases per (site, probability, advisor)
};

// The outcome of one (site, probability, advisor, workload) cell of the
// sweep. Each cell arms the process-global fault registry for its own
// (site, probability) and restores it on return; draws are pure functions
// of (seed, site, key), so a cell's outcome does not depend on the cells
// run before it.
struct CampaignCase {
  int case_index = -1;         // position in the sweep order
  std::string site;
  double probability = 1.0;
  std::string advisor;  // advisor name, or "perturber"
  int workload_index = 0;
  common::StatusCode code = common::StatusCode::kOk;
  int attempts = 0;
  bool degraded = false;
  std::int64_t triggers = 0;   // registry hits observed during the case
  std::uint64_t config_fp = 0; // recommendation fingerprint (0 on failure)
  std::string note;            // accounting-violation description; "" = ok
};

struct CampaignResult {
  std::vector<CampaignCase> cases;
  int violations = 0;
  // Order-independent digest: the XOR of a per-case hash over the
  // deterministic fields (site, probability, advisor, workload, code,
  // attempts, config_fp) of every case. Trigger counts are excluded: they
  // count draws, which change whenever the engine does more or less work
  // for the same outcome, and the digest pins outcomes. The golden.campaign
  // rows (tests/golden/digests.txt) pin it.
  std::uint64_t digest = 0;
  bool ok() const { return violations == 0; }
};

// Runs the whole sweep in this process, one case at a time. Each case and
// the closing digest/summary lines go to `log` when non-null. The global
// fault registry is restored to disarmed on return.
CampaignResult RunFaultCampaign(const FaultCampaignOptions& opts,
                                std::FILE* log);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_FAULT_CAMPAIGN_H_
