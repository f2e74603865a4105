#include "testing/fault_campaign.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "advisor/evaluation.h"
#include "advisor/registry.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "testing/case_gen.h"
#include "testing/harness.h"
#include "trap/perturber.h"

namespace trap::proptest {

namespace {

using common::FaultSite;

// The sites the campaign sweeps; the legacy invert_benefit site is covered
// by the oracle suite (it is a *silent* fault by design, the opposite of
// what this campaign proves about the loud ones).
constexpr FaultSite kSweptSites[] = {
    FaultSite::kWhatIfCostError,      FaultSite::kWhatIfTimeout,
    FaultSite::kAdvisorRecommendFail, FaultSite::kAdvisorRecommendHang,
    FaultSite::kPerturberInvalidTree,
};

constexpr const char* kAdvisors[] = {"Extend", "AutoAdmin", "Drop"};

std::uint64_t NameHash(const std::string& name) {
  std::uint64_t h = 0x9d7f;
  for (char c : name) {
    h = common::HashCombine(h, static_cast<std::uint64_t>(
                                   static_cast<unsigned char>(c)));
  }
  return h;
}

std::unique_ptr<advisor::IndexAdvisor> MakeAdvisorByName(
    const std::string& name, const engine::WhatIfOptimizer& optimizer) {
  // Names come from kAdvisors above, so registry lookup cannot fail.
  return *advisor::MakeAdvisor(name, optimizer);
}

// Deterministic workload set shared by every cell of the sweep.
std::vector<workload::Workload> MakeWorkloads(const sql::Vocabulary& vocab,
                                              std::uint64_t seed, int count) {
  std::vector<workload::Workload> out;
  for (int i = 0; i < count; ++i) {
    CaseGen gen(vocab, CaseGen::StreamSeed(seed, i, /*salt=*/0xfc));
    out.push_back(gen.SmallWorkload(3, 5));
  }
  return out;
}

// Expected failure codes when `site` fires and cannot be retried through.
bool CodeMatchesSite(FaultSite site, common::StatusCode code) {
  switch (site) {
    case FaultSite::kWhatIfCostError:
      return code == common::StatusCode::kResourceExhausted ||
             code == common::StatusCode::kInternal;
    case FaultSite::kWhatIfTimeout:
    case FaultSite::kAdvisorRecommendHang:
      return code == common::StatusCode::kDeadlineExceeded;
    case FaultSite::kAdvisorRecommendFail:
      return code == common::StatusCode::kResourceExhausted ||
             code == common::StatusCode::kFaultInjected;
    default:
      return false;  // invalid_tree degrades per query; it never errors
  }
}

void FoldCase(CampaignResult* result, const CampaignCase& c) {
  result->digest ^= CampaignCaseHash(c);
  if (!c.note.empty()) ++result->violations;
  result->cases.push_back(c);
}

}  // namespace

std::uint64_t CampaignCaseHash(const CampaignCase& c) {
  // Order-independent: the campaign digest XOR-accumulates these per-case
  // hashes, so it does not depend on sweep enumeration or merge order.
  std::uint64_t h = NameHash(c.site);
  h = common::HashCombine(h, static_cast<std::uint64_t>(c.probability * 1e6));
  h = common::HashCombine(h, NameHash(c.advisor));
  h = common::HashCombine(h, static_cast<std::uint64_t>(c.workload_index));
  h = common::HashCombine(h, static_cast<std::uint64_t>(c.code));
  h = common::HashCombine(h, static_cast<std::uint64_t>(c.attempts));
  h = common::HashCombine(h, c.config_fp);
  return h;
}

void LogCampaignCase(std::FILE* log, const CampaignCase& c) {
  if (log == nullptr) return;
  std::fprintf(log,
               "campaign %-28s p=%.2f %-10s w%d -> %s attempts=%d "
               "triggers=%lld%s%s%s\n",
               c.site.c_str(), c.probability, c.advisor.c_str(),
               c.workload_index, common::StatusCodeName(c.code), c.attempts,
               static_cast<long long>(c.triggers),
               c.degraded ? " degraded" : "", c.note.empty() ? "" : "  !! ",
               c.note.c_str());
}

std::vector<CampaignCaseSpec> EnumerateCampaignCases(
    const FaultCampaignOptions& opts) {
  std::vector<CampaignCaseSpec> out;
  auto add = [&](FaultSite site, double p, const std::string& advisor,
                 int wi) {
    CampaignCaseSpec spec;
    spec.case_index = static_cast<int>(out.size());
    spec.site = common::FaultSiteName(site);
    spec.probability = p;
    spec.advisor = advisor;
    spec.workload_index = wi;
    out.push_back(std::move(spec));
  };
  for (FaultSite site : kSweptSites) {
    for (double p : opts.probabilities) {
      if (site == FaultSite::kPerturberInvalidTree) {
        for (int wi = 0; wi < opts.workloads; ++wi) {
          add(site, p, "perturber", wi);
        }
        continue;
      }
      for (const char* advisor_name : kAdvisors) {
        for (int wi = 0; wi < opts.workloads; ++wi) {
          add(site, p, advisor_name, wi);
        }
      }
    }
  }
  return out;
}

std::vector<ShardSpec> MakeShardPlan(int num_cases, int num_shards) {
  std::vector<ShardSpec> out;
  if (num_cases <= 0 || num_shards <= 0) return out;
  const int shards = std::min(num_shards, num_cases);
  const int base = num_cases / shards;
  const int extra = num_cases % shards;
  int begin = 0;
  for (int s = 0; s < shards; ++s) {
    const int size = base + (s < extra ? 1 : 0);
    out.push_back(ShardSpec{s, begin, begin + size});
    begin += size;
  }
  return out;
}

// ---------------------------------------------------------------------------
// CampaignEnv
// ---------------------------------------------------------------------------

struct CampaignEnv::Impl {
  FaultCampaignOptions opts;
  catalog::Schema schema;
  sql::Vocabulary vocab;
  std::vector<workload::Workload> workloads;
  advisor::TuningConstraint constraint;
  // Fault-free recommendation fingerprint per (advisor, workload) -- the
  // reference a succeeding fault-run case must match bit-for-bit.
  std::map<std::pair<std::string, int>, std::uint64_t> baseline;

  Impl(FaultCampaignOptions opts_in, catalog::Schema schema_in)
      : opts(std::move(opts_in)),
        schema(std::move(schema_in)),
        vocab(schema, 8),
        constraint(advisor::TuningConstraint::IndexCount(
            3, schema.DataSizeBytes() / 2)) {}
};

CampaignEnv::CampaignEnv(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CampaignEnv::~CampaignEnv() = default;
CampaignEnv::CampaignEnv(CampaignEnv&&) noexcept = default;
CampaignEnv& CampaignEnv::operator=(CampaignEnv&&) noexcept = default;

const FaultCampaignOptions& CampaignEnv::options() const {
  return impl_->opts;
}

common::StatusOr<CampaignEnv> CampaignEnv::Make(
    const FaultCampaignOptions& opts) {
  std::optional<catalog::Schema> schema = MakeSchemaByName(opts.schema);
  if (!schema.has_value()) {
    return common::Status::InvalidArgument("unknown schema: " + opts.schema);
  }
  auto impl = std::make_unique<Impl>(opts, *std::move(schema));
  impl->workloads = MakeWorkloads(impl->vocab, opts.seed, opts.workloads);
  // Reference fingerprints before any fault is armed.
  for (const char* name : kAdvisors) {
    for (size_t wi = 0; wi < impl->workloads.size(); ++wi) {
      engine::WhatIfOptimizer optimizer(impl->schema);
      std::unique_ptr<advisor::IndexAdvisor> adv =
          MakeAdvisorByName(name, optimizer);
      common::CancelToken token(opts.step_budget);
      common::EvalContext ctx;
      ctx.cancel = &token;
      ctx.fault_salt = common::HashCombine(opts.seed, wi);
      advisor::RecommendOutcome outcome = advisor::RecommendWithRetry(
          *adv, impl->workloads[wi], impl->constraint, ctx,
          advisor::RetryPolicy{});
      impl->baseline[{name, static_cast<int>(wi)}] =
          outcome.status.ok() ? outcome.config.Fingerprint() : 0;
    }
  }
  return CampaignEnv(std::move(impl));
}

CampaignCase CampaignEnv::RunCase(const CampaignCaseSpec& spec) const {
  const Impl& env = *impl_;
  const FaultCampaignOptions& opts = env.opts;
  const size_t wi = static_cast<size_t>(spec.workload_index);

  CampaignCase c;
  c.case_index = spec.case_index;
  c.site = spec.site;
  c.probability = spec.probability;
  c.advisor = spec.advisor;
  c.workload_index = spec.workload_index;

  std::optional<FaultSite> site = common::FaultSiteFromName(spec.site);
  if (!site.has_value() || wi >= env.workloads.size()) {
    c.note = "malformed case spec: " + spec.site;
    return c;
  }

  common::FaultRegistry& registry = common::FaultRegistry::Global();
  std::string arm = common::StrFormat("%s@p=%.6f", spec.site.c_str(),
                                      spec.probability);
  common::ScopedFaultSpec scoped(arm, opts.seed);

  common::CancelToken token(opts.step_budget);
  common::EvalContext ctx;
  ctx.cancel = &token;
  ctx.fault_salt = common::HashCombine(opts.seed, wi);
  const std::int64_t hits_before = registry.hits(*site);

  if (spec.advisor == "perturber") {
    // Perturber leg: generation degrades fired queries to their originals
    // and stays OK -- an invalid tree never escapes.
    ::trap::trap::GeneratorConfig config;
    config.method = ::trap::trap::GenerationMethod::kRandom;
    config.epsilon = 5;
    config.seed = opts.seed ^ 0xa11;
    ::trap::trap::AdversarialWorkloadGenerator generator(env.vocab, config);
    common::StatusOr<workload::Workload> perturbed =
        generator.TryGenerate(env.workloads[wi], ctx);
    c.attempts = 1;
    c.triggers = registry.hits(*site) - hits_before;
    c.degraded = generator.num_degraded_queries() > 0;
    if (!perturbed.ok()) {
      c.code = perturbed.status().code();
      c.note = "perturber must degrade, not fail: " +
               perturbed.status().ToString();
    } else {
      c.code = common::StatusCode::kOk;
      c.config_fp = advisor::WorkloadFingerprint(*perturbed);
      if (perturbed->queries.size() != env.workloads[wi].queries.size()) {
        c.note = "perturbed workload lost queries";
      } else if (c.triggers > 0 && !c.degraded) {
        c.note = "fault fired but no query was degraded";
      } else if (spec.probability >= 1.0 && c.triggers == 0) {
        c.note = "p=1 fault never triggered";
      }
    }
    return c;
  }

  // Fresh optimizer (fresh shape cache and call counter) per cell so no
  // engine state leaks across sweep cells.
  engine::WhatIfOptimizer optimizer(env.schema);
  std::unique_ptr<advisor::IndexAdvisor> adv =
      MakeAdvisorByName(spec.advisor, optimizer);
  advisor::RecommendOutcome outcome = advisor::RecommendWithRetry(
      *adv, env.workloads[wi], env.constraint, ctx, advisor::RetryPolicy{});
  c.code = outcome.status.code();
  c.attempts = outcome.attempts;
  c.degraded = outcome.degraded;
  c.triggers = registry.hits(*site) - hits_before;
  if (outcome.status.ok()) {
    c.config_fp = outcome.config.Fingerprint();
    auto baseline_it =
        env.baseline.find({spec.advisor, spec.workload_index});
    const std::uint64_t expected =
        baseline_it != env.baseline.end() ? baseline_it->second : 0;
    if (c.triggers > 0 && c.attempts == 1) {
      c.note = "fault fired but succeeded without retry";
    } else if (c.config_fp != expected) {
      c.note = "silent wrong answer: recommendation differs from "
               "fault-free baseline";
    } else if (spec.probability >= 1.0 && c.triggers == 0) {
      c.note = "p=1 fault never triggered";
    }
  } else {
    if (!outcome.degraded) {
      c.note = "failed without degrading to the no-index fallback";
    } else if (!CodeMatchesSite(*site, c.code)) {
      c.note = common::StrFormat("unexpected status %s for site %s",
                                 common::StatusCodeName(c.code),
                                 c.site.c_str());
    } else if (c.triggers == 0) {
      c.note = "failure reported but the site never triggered";
    }
  }
  return c;
}

CampaignResult RunFaultCampaign(const FaultCampaignOptions& opts,
                                std::FILE* log) {
  CampaignResult result;
  common::StatusOr<CampaignEnv> env = CampaignEnv::Make(opts);
  if (!env.ok()) {
    CampaignCase c;
    c.site = "setup";
    c.note = env.status().message();
    FoldCase(&result, c);
    LogCampaignCase(log, c);
    return result;
  }
  for (const CampaignCaseSpec& spec : EnumerateCampaignCases(opts)) {
    CampaignCase c = env->RunCase(spec);
    FoldCase(&result, c);
    LogCampaignCase(log, c);
  }
  if (log != nullptr) {
    std::fprintf(log, "campaign digest: %016llx\n",
                 static_cast<unsigned long long>(result.digest));
    std::fprintf(log, "campaign: %zu case(s), %d violation(s)\n",
                 result.cases.size(), result.violations);
  }
  return result;
}

}  // namespace trap::proptest
