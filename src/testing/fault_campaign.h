#ifndef TRAP_TESTING_FAULT_CAMPAIGN_H_
#define TRAP_TESTING_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace trap::proptest {

// Sweep configuration for the fault-injection campaign (trap_fuzz
// --fault-campaign and the distributed trap_campaign): every injectable
// fault site is armed in turn at each probability, and a small
// advisor/perturber evaluation runs under a step budget. The campaign
// asserts that every injected fault is either retried through, degraded
// gracefully, self-healed, or surfaced as the matching Status code -- never
// a crash, and never a silent wrong answer (a succeeding case's
// recommendation must be bit-identical to the fault-free baseline).
struct FaultCampaignOptions {
  std::uint64_t seed = 1;
  std::string schema = "tpch";
  std::vector<double> probabilities = {1.0, 0.05};
  // Per-case evaluation step budget. Generous relative to a normal
  // recommend run, so only injected hangs exhaust it.
  std::uint64_t step_budget = 200000;
  int workloads = 2;  // cases per (site, probability, advisor)
};

// One cell of the sweep, identified by its position in the deterministic
// enumeration order. The spec is pure data -- it names the work without
// doing it -- so shards of [case_index) ranges can be handed to worker
// processes and the results merged order-independently.
struct CampaignCaseSpec {
  int case_index = 0;
  std::string site;
  double probability = 1.0;
  std::string advisor;  // registry advisor name, or "perturber"
  int workload_index = 0;
};

// The full case space for `opts`, in canonical order (case_index == vector
// position). Every runner -- single-process trap_fuzz, the in-process
// fallback, and remote workers -- enumerates the same list.
std::vector<CampaignCaseSpec> EnumerateCampaignCases(
    const FaultCampaignOptions& opts);

// The outcome of one executed cell.
struct CampaignCase {
  int case_index = -1;
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

// Per-case hash folded (by XOR) into the campaign digest. Covers only the
// deterministic fields (site, probability, advisor, workload, code,
// attempts, config_fp). Trigger counts are excluded: they count draws, which
// change whenever the engine does more or less work for the same outcome,
// and the digest pins outcomes. case_index is excluded as derivable from the
// rest.
std::uint64_t CampaignCaseHash(const CampaignCase& c);

// A contiguous [begin, end) slice of the enumeration order.
struct ShardSpec {
  int shard_id = 0;
  int begin = 0;
  int end = 0;
};

// Splits `num_cases` cases into at most `num_shards` contiguous shards that
// exactly partition [0, num_cases): sizes differ by at most one and no
// shard is empty (fewer shards are returned when cases run short). The
// shard-partition oracle fuzzes this invariant.
std::vector<ShardSpec> MakeShardPlan(int num_cases, int num_shards);

// Long-lived execution environment for campaign cases: the schema,
// vocabulary, deterministic workload set, and the fault-free baseline
// fingerprints every succeeding case must match. Building one is the
// expensive part (baselines run real recommendations); RunCase is cheap.
//
// RunCase arms the process-global fault registry for the case's
// (site, probability) and restores it on return, so cases within one
// process must run sequentially. This per-case arming is equivalent to the
// historical per-(site, p) arming: draws are pure functions of
// (seed, site, key), independent of registry hit counters.
class CampaignEnv {
 public:
  static common::StatusOr<CampaignEnv> Make(const FaultCampaignOptions& opts);
  ~CampaignEnv();
  CampaignEnv(CampaignEnv&&) noexcept;
  CampaignEnv& operator=(CampaignEnv&&) noexcept;

  const FaultCampaignOptions& options() const;
  CampaignCase RunCase(const CampaignCaseSpec& spec) const;

 private:
  struct Impl;
  explicit CampaignEnv(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

struct CampaignResult {
  std::vector<CampaignCase> cases;
  int violations = 0;
  // Order-independent digest: XOR of CampaignCaseHash over all cases;
  // compared across TRAP_THREADS settings and process topologies by
  // scripts/check.sh.
  std::uint64_t digest = 0;
  bool ok() const { return violations == 0; }
};

// Runs the whole sweep in this process. Progress and violations go to `log`
// when non-null. The global fault registry is restored to disarmed on
// return.
CampaignResult RunFaultCampaign(const FaultCampaignOptions& opts,
                                std::FILE* log);

// One-line log form of a case, shared by trap_fuzz and trap_campaign.
void LogCampaignCase(std::FILE* log, const CampaignCase& c);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_FAULT_CAMPAIGN_H_
