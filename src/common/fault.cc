#include "common/fault.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

#include "common/check.h"
#include "common/rng.h"

namespace trap::common {

namespace {

// One row per site, in enum order. `draw_tag` salts the site's draws and is
// fixed once a site exists, so deleting a site (5 was cache.shard.poison;
// 8-10 were the process-level worker.crash/hang/garbage_frame) never
// reshuffles the fault fates of the others.
struct SiteNameEntry {
  FaultSite site;
  const char* name;
  std::uint64_t draw_tag;
};

constexpr SiteNameEntry kSiteNames[] = {
    {FaultSite::kWhatIfCostError, "engine.whatif.cost_error", 1},
    {FaultSite::kWhatIfTimeout, "engine.whatif.timeout", 2},
    {FaultSite::kAdvisorRecommendFail, "advisor.recommend.fail", 3},
    {FaultSite::kAdvisorRecommendHang, "advisor.recommend.hang", 4},
    {FaultSite::kPerturberInvalidTree, "perturber.invalid_tree", 6},
    {FaultSite::kWhatIfInvertBenefit, "engine.whatif.invert_benefit", 7},
};
static_assert(sizeof(kSiteNames) / sizeof(kSiteNames[0]) ==
              static_cast<size_t>(kNumFaultSites));
static_assert([] {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (static_cast<int>(kSiteNames[i].site) != i) return false;
  }
  return true;
}());

}  // namespace

const char* FaultSiteName(FaultSite site) {
  for (const SiteNameEntry& e : kSiteNames) {
    if (e.site == site) return e.name;
  }
  return "?";
}

std::optional<FaultSite> FaultSiteFromName(std::string_view name) {
  for (const SiteNameEntry& e : kSiteNames) {
    if (name == e.name) return e.site;
  }
  return std::nullopt;
}

namespace {

bool ParseDouble(std::string_view s, double* out) {
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end != nullptr && *end == '\0' && end != buf.c_str();
}

bool ParseInt64(std::string_view s, std::int64_t* out) {
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtoll(buf.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && end != buf.c_str();
}

}  // namespace

std::optional<FaultSpec> ParseFaultSpec(std::string_view spec,
                                        std::uint64_t seed,
                                        std::string* error) {
  FaultSpec out;
  out.seed = seed;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string_view entry = spec.substr(
        start, comma == std::string_view::npos ? std::string_view::npos
                                               : comma - start);
    if (!entry.empty()) {
      FaultSiteConfig cfg;
      size_t at = entry.find('@');
      std::string_view name =
          entry.substr(0, at == std::string_view::npos ? entry.size() : at);
      std::optional<FaultSite> site = FaultSiteFromName(name);
      if (!site.has_value()) {
        if (error != nullptr) {
          *error = "unknown fault site '" + std::string(name) + "'";
        }
        return std::nullopt;
      }
      cfg.site = *site;
      while (at != std::string_view::npos) {
        size_t next_at = entry.find('@', at + 1);
        std::string_view opt = entry.substr(
            at + 1, next_at == std::string_view::npos ? std::string_view::npos
                                                      : next_at - at - 1);
        if (opt.substr(0, 2) == "p=") {
          double p = 0.0;
          if (!ParseDouble(opt.substr(2), &p) || p < 0.0 || p > 1.0) {
            if (error != nullptr) {
              *error = "bad probability in fault entry '" + std::string(entry) +
                       "' (want p in [0,1])";
            }
            return std::nullopt;
          }
          cfg.probability = p;
        } else if (opt.substr(0, 6) == "limit=") {
          std::int64_t n = 0;
          if (!ParseInt64(opt.substr(6), &n) || n < 0) {
            if (error != nullptr) {
              *error = "bad limit in fault entry '" + std::string(entry) +
                       "' (want a non-negative integer)";
            }
            return std::nullopt;
          }
          cfg.limit = n;
        } else {
          if (error != nullptr) {
            *error = "unknown option '" + std::string(opt) +
                     "' in fault entry '" + std::string(entry) + "'";
          }
          return std::nullopt;
        }
        at = next_at;
      }
      out.sites.push_back(cfg);
    }
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Registry state
// ---------------------------------------------------------------------------

struct FaultRegistry::SiteState {
  // Probability is stored under a seqlock-free scheme: sites are configured
  // from quiesced contexts (tests, CLI startup), so plain atomics with
  // relaxed ordering are enough for the hot-path reads.
  std::atomic<double> probability{0.0};
  // Remaining firings; negative = unlimited.
  std::atomic<std::int64_t> remaining{-1};
  std::atomic<std::int64_t> hits{0};
};

namespace {

struct RegistryData {
  FaultRegistry::SiteState sites[kNumFaultSites];
  std::atomic<std::uint64_t> seed{0};
  // Bit i set = site i armed. Bit 63 = initialized-from-env. With nothing
  // armed the hot path is a single relaxed load of this mask.
  std::atomic<std::uint64_t> armed_mask{0};
  std::mutex config_mu;
};

constexpr std::uint64_t kInitBit = std::uint64_t{1} << 63;

RegistryData& Data() {
  static RegistryData data;
  return data;
}

// Replaces the whole configuration; the caller holds d.config_mu.
void ApplyLocked(RegistryData& d, const FaultSpec& spec) {
  std::uint64_t mask = kInitBit;  // configuring overrides env init
  for (int i = 0; i < kNumFaultSites; ++i) {
    d.sites[i].probability.store(0.0, std::memory_order_relaxed);
    d.sites[i].remaining.store(-1, std::memory_order_relaxed);
    d.sites[i].hits.store(0, std::memory_order_relaxed);
  }
  d.seed.store(spec.seed, std::memory_order_relaxed);
  for (const FaultSiteConfig& cfg : spec.sites) {
    FaultRegistry::SiteState& s = d.sites[static_cast<int>(cfg.site)];
    s.probability.store(cfg.probability, std::memory_order_relaxed);
    s.remaining.store(cfg.limit, std::memory_order_relaxed);
    if (cfg.probability > 0.0 && cfg.limit != 0) {
      mask |= std::uint64_t{1} << static_cast<int>(cfg.site);
    }
  }
  d.armed_mask.store(mask, std::memory_order_release);
}

}  // namespace

FaultRegistry& FaultRegistry::Global() {
  static FaultRegistry registry;
  return registry;
}

FaultRegistry::SiteState* FaultRegistry::state(FaultSite site) const {
  return &Data().sites[static_cast<int>(site)];
}

void FaultRegistry::Configure(const FaultSpec& spec) {
  RegistryData& d = Data();
  std::lock_guard<std::mutex> lock(d.config_mu);
  ApplyLocked(d, spec);
}

void FaultRegistry::EnsureInitFromEnv() {
  RegistryData& d = Data();
  if ((d.armed_mask.load(std::memory_order_acquire) & kInitBit) != 0) return;
  std::lock_guard<std::mutex> lock(d.config_mu);
  if ((d.armed_mask.load(std::memory_order_acquire) & kInitBit) != 0) return;
  // TRAP_FAULTS="site@p=P@limit=N,..." + TRAP_FAULT_SEED.
  FaultSpec spec;
  if (const char* env = std::getenv("TRAP_FAULTS");
      env != nullptr && *env != '\0') {
    std::uint64_t seed = 0;
    if (const char* seed_env = std::getenv("TRAP_FAULT_SEED");
        seed_env != nullptr && *seed_env != '\0') {
      char* end = nullptr;
      seed = std::strtoull(seed_env, &end, 10);
      TRAP_CHECK_MSG(end != nullptr && *end == '\0', seed_env);
    }
    std::string error;
    std::optional<FaultSpec> parsed = ParseFaultSpec(env, seed, &error);
    TRAP_CHECK_MSG(parsed.has_value(), error.c_str());
    spec = *std::move(parsed);
  }
  ApplyLocked(d, spec);
}

std::int64_t FaultRegistry::hits(FaultSite site) const {
  return state(site)->hits.load(std::memory_order_relaxed);
}

std::int64_t FaultRegistry::total_hits() const {
  std::int64_t total = 0;
  for (int i = 0; i < kNumFaultSites; ++i) {
    total += Data().sites[i].hits.load(std::memory_order_relaxed);
  }
  return total;
}

bool FaultRegistry::ShouldFire(FaultSite site, std::uint64_t key) {
  RegistryData& d = Data();
  std::uint64_t mask = d.armed_mask.load(std::memory_order_relaxed);
  if ((mask & (std::uint64_t{1} << static_cast<int>(site))) == 0) return false;
  SiteState& s = *state(site);
  double p = s.probability.load(std::memory_order_relaxed);
  if (p <= 0.0) return false;
  // Deterministic draw: pure function of (seed, site, key). p >= 1 always
  // fires regardless of the draw so "p=1" is exactly "every consultation".
  if (p < 1.0) {
    std::uint64_t seed = d.seed.load(std::memory_order_relaxed);
    std::uint64_t h = HashCombine(
        seed,
        HashCombine(kSiteNames[static_cast<int>(site)].draw_tag, key));
    if (HashToUnit(h) >= p) return false;
  }
  // Trigger-count cap: an atomic countdown. Which concurrent draws win the
  // last slots is scheduling-dependent; limit-free specs stay deterministic.
  std::int64_t remaining = s.remaining.load(std::memory_order_relaxed);
  while (remaining >= 0) {
    if (remaining == 0) return false;
    if (s.remaining.compare_exchange_weak(remaining, remaining - 1,
                                          std::memory_order_relaxed)) {
      break;
    }
  }
  s.hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultShouldFire(FaultSite site, std::uint64_t key) {
  FaultRegistry& r = FaultRegistry::Global();
  r.EnsureInitFromEnv();
  return r.ShouldFire(site, key);
}

ScopedFaultSpec::ScopedFaultSpec(std::string_view spec, std::uint64_t seed) {
  std::string error;
  std::optional<FaultSpec> parsed = ParseFaultSpec(spec, seed, &error);
  TRAP_CHECK_MSG(parsed.has_value(), error.c_str());
  FaultRegistry::Global().Configure(*parsed);
}

ScopedFaultSpec::~ScopedFaultSpec() { FaultRegistry::Global().Reset(); }

}  // namespace trap::common
