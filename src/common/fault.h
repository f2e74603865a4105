#ifndef TRAP_COMMON_FAULT_H_
#define TRAP_COMMON_FAULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace trap::common {

// ---------------------------------------------------------------------------
// Fault-site registry
// ---------------------------------------------------------------------------
// Testing-only fault injection, generalized from the original single
// TRAP_TESTING_FAULT hook into a registry of named, seeded, probabilistic
// fault sites. Production code consults ShouldFire(site, key) at
// well-defined points and deliberately fails (or mis-computes, for the
// legacy silent fault) when the draw fires, so the fault-tolerance runtime
// and the property-testing oracles can prove they survive and surface real
// failures of that shape.
//
// Determinism: a draw is a pure function of (config seed, site, key) --
// `HashToUnit(HashCombine(seed, HashCombine(site_tag, key))) < probability`.
// Callers pass a key derived from the work item (query fingerprint, config
// fingerprint, workload fingerprint) mixed with the EvalContext fault_salt,
// so the *same* logical operation draws the same answer on every run and
// every thread count, while retry attempts (which re-salt) redraw.
//
// Spec grammar (TRAP_FAULTS env var or FaultRegistry::Configure):
//   spec    := entry ("," entry)*
//   entry   := site-name ["@p=" float] ["@limit=" int]
//   example: "engine.whatif.cost_error@p=0.05,advisor.recommend.fail@p=1"
// Probability defaults to 1.0. `limit` caps the number of times the site
// fires (an atomic countdown); note that with limit set, *which* concurrent
// work items observe the fault can depend on scheduling -- probabilistic
// specs without limits are fully deterministic and are what the campaign
// and the determinism tests use.
//
// With no site armed, ShouldFire costs one relaxed atomic load.
enum class FaultSite : int {
  // The what-if cost model produces a non-finite cost for the drawn key.
  // Detected by cost validation -> kInternal, never cached, never silent.
  kWhatIfCostError = 0,
  // The what-if evaluation reports kDeadlineExceeded for the drawn key.
  kWhatIfTimeout,
  // The advisor's recommend entry point fails with kFaultInjected.
  kAdvisorRecommendFail,
  // The advisor's recommend entry point consumes the caller's entire step
  // budget (a simulated hang, surfaced as kDeadlineExceeded).
  kAdvisorRecommendHang,
  // The perturber emits an invalid perturbed tree for the drawn query; the
  // generator degrades that query to its unperturbed original.
  kPerturberInvalidTree,
  // Legacy silent fault (PR 3's invert_index_benefit): CostModel::QueryCost
  // reports base + (base - cost) for non-empty configurations, flipping
  // every index benefit into a penalty. Caught by the add-index-monotone
  // oracle; kept to prove the oracles still detect silent wrong answers.
  kWhatIfInvertBenefit,

  // Process-level campaign faults (TRAP_CAMPAIGN_FAULTS). These share the
  // site namespace and spec grammar so one parser serves both, but they are
  // never armed in this in-process registry: the campaign keeps its own
  // WorkerFaultPlan (src/campaign/fault.h), because the per-case
  // ScopedFaultSpec arming below would clobber a registry-held plan.
  //
  // A campaign worker raises SIGKILL mid-shard.
  kCampaignWorkerCrash,
  // A campaign worker swallows its work unit and never replies.
  kCampaignWorkerHang,
  // A campaign worker replies with a garbage frame instead of a result.
  kCampaignWorkerGarbageFrame,

  kNumFaultSites,
};

inline constexpr int kNumFaultSites =
    static_cast<int>(FaultSite::kNumFaultSites);

const char* FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

struct FaultSiteConfig {
  FaultSite site = FaultSite::kWhatIfCostError;
  double probability = 1.0;  // in [0, 1]
  // Maximum number of firings; negative = unlimited.
  std::int64_t limit = -1;
};

struct FaultSpec {
  std::vector<FaultSiteConfig> sites;
  std::uint64_t seed = 0;
};

// Parses the comma-separated spec grammar above. Returns nullopt and fills
// *error on malformed input.
std::optional<FaultSpec> ParseFaultSpec(std::string_view spec,
                                        std::uint64_t seed,
                                        std::string* error);

class FaultRegistry {
 public:
  // The process-wide registry consulted by the injection points.
  static FaultRegistry& Global();

  // Replaces the active configuration and resets all counters. Thread-safe
  // with respect to concurrent ShouldFire, but configuration itself is
  // expected from a quiesced test/CLI context.
  void Configure(const FaultSpec& spec);
  void Reset() { Configure(FaultSpec{}); }

  // True iff `site` is armed and the deterministic draw for `key` fires.
  // Increments the site's hit counter when it fires. `key` must identify
  // the logical work item (fingerprints + fault_salt), not its schedule.
  bool ShouldFire(FaultSite site, std::uint64_t key);

  // True iff the site is armed at all (probability > 0, limit not spent).
  bool armed(FaultSite site) const;

  // Number of times `site` fired since the last Configure/Reset.
  std::int64_t hits(FaultSite site) const;
  // Total across all sites.
  std::int64_t total_hits() const;

  // One-time lazy init from TRAP_TESTING_FAULT / TRAP_FAULTS /
  // TRAP_FAULT_SEED; a no-op after the first Configure or call.
  void EnsureInitFromEnv();

  struct SiteState;  // defined in fault.cc

 private:
  FaultRegistry() = default;
  SiteState* state(FaultSite site) const;
};

// Convenience wrapper over Global().ShouldFire with the env-lazy-init
// behaviour folded in; this is what the injection points call.
bool FaultShouldFire(FaultSite site, std::uint64_t key);

// RAII: configures the global registry from a spec string for a test scope,
// restoring a clean (all-disarmed) registry on destruction. Aborts on a
// malformed spec -- test-only convenience.
class ScopedFaultSpec {
 public:
  explicit ScopedFaultSpec(std::string_view spec, std::uint64_t seed = 0);
  ~ScopedFaultSpec();
  ScopedFaultSpec(const ScopedFaultSpec&) = delete;
  ScopedFaultSpec& operator=(const ScopedFaultSpec&) = delete;
};

// ---------------------------------------------------------------------------
// Legacy single-fault API (PR 3), kept source-compatible.
// ---------------------------------------------------------------------------
// kInvertIndexBenefit now arms the registry site kWhatIfInvertBenefit at
// probability 1.0; TRAP_TESTING_FAULT=invert_index_benefit still works.
enum class InjectedFault {
  kNone,
  kInvertIndexBenefit,
};

const char* FaultName(InjectedFault f);
std::optional<InjectedFault> FaultFromName(std::string_view name);

// The currently armed legacy fault, derived from the registry state.
InjectedFault ActiveFault();

// Arms `f` for the whole process, overriding the environment. Clears any
// spec-configured sites (legacy semantics: one fault at a time).
void SetInjectedFault(InjectedFault f);

}  // namespace trap::common

#endif  // TRAP_COMMON_FAULT_H_
