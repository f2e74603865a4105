#include "trap/perturber.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "sql/query.h"

namespace trap::trap {

namespace {

// Perturber observability. Generation is serial, so counts are deterministic
// for a given seed and call schedule.
struct PerturberMetrics {
  obs::Counter* generated;
  obs::Counter* degraded;
};

PerturberMetrics& Metrics() {
  static PerturberMetrics* m = [] {
    obs::MetricRegistry& reg = obs::MetricRegistry::Global();
    return new PerturberMetrics{
        reg.counter("trap.perturber.workloads_generated"),
        reg.counter("trap.perturber.queries_degraded")};
  }();
  return *m;
}

// Phase-1 pretraining is victim-independent (Section IV-C): it reads the
// vocabulary, the agent's options, the pool, the constraint, epsilon and
// PretrainOptions, nothing else. So generators that agree on all of them --
// one assessment protocol applied to many victims -- share one result. A
// memo entry holds the encoder parameters' value/m/v after Pretrain (every
// Adam step leaves grads at zero) plus the NLL trace. Decoder parameters
// are re-drawn from the agent's own RNG right after, so restoring the
// encoder and then calling ReinitDecoder is bit-identical to pretraining.
struct PretrainKey {
  AgentOptions agent;
  PretrainOptions pretrain;
  PerturbationConstraint constraint;
  int epsilon;
  std::vector<sql::Query> pool;  // compared query by query, not by hash
  friend bool operator==(const PretrainKey&, const PretrainKey&) = default;
};

struct PretrainEntry {
  PretrainKey key;
  std::vector<nn::Matrix> value, m, v;  // encoder parameters, store order
  std::vector<double> trace;
};

// Entries are scoped to one Vocabulary instance through its id, so a fresh
// environment never reuses an earlier one's pretraining, and the memo holds
// at most kMaxEntries encoders of the latest vocabulary id.
class PretrainMemo {
 public:
  static constexpr size_t kMaxEntries = 4;

  std::shared_ptr<const PretrainEntry> Find(uint64_t vocab_id,
                                            const PretrainKey& key) {
    std::lock_guard<std::mutex> lock(mu_);
    SwitchTo(vocab_id);
    for (const std::shared_ptr<const PretrainEntry>& e : entries_) {
      if (e->key == key) return e;
    }
    return nullptr;
  }

  void Insert(uint64_t vocab_id, std::shared_ptr<const PretrainEntry> entry) {
    std::lock_guard<std::mutex> lock(mu_);
    SwitchTo(vocab_id);
    for (const std::shared_ptr<const PretrainEntry>& e : entries_) {
      if (e->key == entry->key) return;  // a concurrent miss inserted it
    }
    if (entries_.size() == kMaxEntries) entries_.erase(entries_.begin());
    entries_.push_back(std::move(entry));
  }

 private:
  // Drops the entries of an earlier vocabulary (freed before the caller
  // pretrains, so they never add to its peak memory).
  void SwitchTo(uint64_t vocab_id) {
    if (vocab_id == vocab_id_) return;
    entries_.clear();
    vocab_id_ = vocab_id;
  }

  std::mutex mu_;
  uint64_t vocab_id_ = 0;
  std::vector<std::shared_ptr<const PretrainEntry>> entries_;
};

PretrainMemo& GlobalPretrainMemo() {
  static PretrainMemo* memo = new PretrainMemo();
  return *memo;
}

// Registered on first use, so registries of runs that never pretrain gain
// no names. The counts are deterministic as long as Fits on one key run one
// after another, as every caller's do; two concurrent misses both count as
// runs.
struct PretrainMetrics {
  obs::Counter* runs;
  obs::Counter* reused;
};

PretrainMetrics& PretrainCounters() {
  static PretrainMetrics* m = [] {
    obs::MetricRegistry& reg = obs::MetricRegistry::Global();
    return new PretrainMetrics{reg.counter("trap.pretrain.runs"),
                               reg.counter("trap.pretrain.reused")};
  }();
  return *m;
}

// Pretrains `agent` (encoder and decoder) or restores the encoder from the
// memo; either way the caller re-draws the decoder next.
std::vector<double> PretrainOrReuse(TrapAgent& agent,
                                    const std::vector<sql::Query>& pool,
                                    PerturbationConstraint constraint,
                                    int epsilon,
                                    const PretrainOptions& options) {
  PretrainKey key{agent.options(), options, constraint, epsilon, pool};
  const uint64_t vocab_id = agent.vocab().id();
  const std::vector<nn::Parameter*> params = agent.store().parameters();
  const size_t encoder_params =
      static_cast<size_t>(agent.NumEncoderParameters());
  PretrainMemo& memo = GlobalPretrainMemo();
  if (std::shared_ptr<const PretrainEntry> hit = memo.Find(vocab_id, key)) {
    for (size_t i = 0; i < encoder_params; ++i) {
      params[i]->value = hit->value[i];
      params[i]->m = hit->m[i];
      params[i]->v = hit->v[i];
    }
    PretrainCounters().reused->Add();
    return hit->trace;
  }
  auto entry = std::make_shared<PretrainEntry>();
  entry->trace = Pretrain(agent, pool, constraint, epsilon, options);
  PretrainCounters().runs->Add();
  for (size_t i = 0; i < encoder_params; ++i) {
    entry->value.push_back(params[i]->value);
    entry->m.push_back(params[i]->m);
    entry->v.push_back(params[i]->v);
  }
  entry->key = std::move(key);
  std::vector<double> trace = entry->trace;
  memo.Insert(vocab_id, std::move(entry));
  return trace;
}

}  // namespace

const char* MethodName(GenerationMethod m) {
  switch (m) {
    case GenerationMethod::kRandom: return "Random";
    case GenerationMethod::kGru: return "GRU";
    case GenerationMethod::kSeq2Seq: return "Seq2Seq";
    case GenerationMethod::kTrap: return "TRAP";
    case GenerationMethod::kTransformer: return "Transformer";
  }
  return "?";
}

common::StatusOr<AgentOptions> PlmAgentOptions(const std::string& plm_name,
                                               uint64_t seed) {
  AgentOptions options;
  options.encoder = EncoderKind::kTransformer;
  options.attention = true;
  options.seed = seed;
  nn::TransformerConfig& t = options.transformer;
  // Sizes scale with the real models' relative parameter counts
  // (Bert 110M < CodeBert/StarEncoder ~126M < Bart 141M), shrunk ~400x.
  if (plm_name == "Bert") {
    options.embed_dim = 96;
    t = {96, 4, 384, 3};
  } else if (plm_name == "Bart") {
    options.embed_dim = 112;
    t = {112, 4, 448, 3};
  } else if (plm_name == "CodeBert") {
    options.embed_dim = 104;
    t = {104, 4, 416, 3};
  } else if (plm_name == "StarEncoder") {
    options.embed_dim = 104;
    t = {104, 4, 408, 3};
  } else {
    return common::Status::InvalidArgument("unknown PLM name: " + plm_name);
  }
  options.hidden_dim = options.embed_dim % 2 == 0 ? options.embed_dim
                                                  : options.embed_dim + 1;
  return options;
}

AdversarialWorkloadGenerator::AdversarialWorkloadGenerator(
    const sql::Vocabulary& vocab, GeneratorConfig config)
    : vocab_(&vocab), config_(config), rng_(config.seed) {
  AgentOptions agent_options = config_.agent;
  agent_options.seed = config_.seed ^ 0xa6;
  switch (config_.method) {
    case GenerationMethod::kRandom:
      return;  // no model
    case GenerationMethod::kGru:
      agent_options.encoder = EncoderKind::kNone;
      agent_options.attention = false;
      break;
    case GenerationMethod::kSeq2Seq:
      agent_options.encoder = EncoderKind::kBiGru;
      agent_options.attention = false;
      break;
    case GenerationMethod::kTrap:
      agent_options.encoder = EncoderKind::kBiGru;
      agent_options.attention = true;
      break;
    case GenerationMethod::kTransformer:
      agent_options.encoder = EncoderKind::kTransformer;
      // transformer config supplied by the caller (PlmAgentOptions).
      agent_options.attention = config_.agent.attention;
      agent_options.embed_dim = config_.agent.embed_dim;
      agent_options.hidden_dim = config_.agent.hidden_dim;
      agent_options.transformer = config_.agent.transformer;
      break;
  }
  agent_ = std::make_unique<TrapAgent>(vocab, agent_options);
}

AdversarialWorkloadGenerator::~AdversarialWorkloadGenerator() = default;

void AdversarialWorkloadGenerator::Fit(
    advisor::IndexAdvisor* victim, advisor::IndexAdvisor* victim_baseline,
    const engine::WhatIfOptimizer* optimizer,
    const gbdt::LearnedUtilityModel* utility,
    const std::vector<sql::Query>& pretrain_pool,
    const std::vector<workload::Workload>& training,
    advisor::TuningConstraint tuning) {
  RlOptions rl = config_.rl;
  if (config_.method == GenerationMethod::kRandom) {
    // Random has no policy; keep a trainer around purely to score attempts.
    trainer_ = std::make_unique<RlTrainer>(
        nullptr, victim, victim_baseline, optimizer,
        rl.use_learned_utility ? utility : nullptr, config_.constraint,
        config_.epsilon, tuning, rl);
    return;
  }
  if (config_.method == GenerationMethod::kTrap && config_.pretrain_enabled) {
    // The memo holds results for a freshly built agent; a repeated Fit
    // pretrains the already trained one further, as it always did.
    pretrain_trace_ =
        trainer_ == nullptr
            ? PretrainOrReuse(*agent_, pretrain_pool, config_.constraint,
                              config_.epsilon, config_.pretrain)
            : Pretrain(*agent_, pretrain_pool, config_.constraint,
                       config_.epsilon, config_.pretrain);
    // Only the encoder's knowledge transfers into RL (Section IV-C).
    agent_->ReinitDecoder();
  }
  trainer_ = std::make_unique<RlTrainer>(
      agent_.get(), victim, victim_baseline, optimizer,
      rl.use_learned_utility ? utility : nullptr, config_.constraint,
      config_.epsilon, tuning, rl);
  rl_trace_ = trainer_->Train(training);
}

common::StatusOr<workload::Workload>
AdversarialWorkloadGenerator::TryRandomPerturb(const workload::Workload& w,
                                               const common::EvalContext& ctx) {
  workload::Workload out;
  for (const workload::WorkloadQuery& wq : w.queries) {
    TRAP_RETURN_IF_ERROR(ctx.CheckContinue());
    // The invalid-tree fault is keyed on the *original* query, so the same
    // query degrades on every run and thread count.
    const uint64_t key =
        common::HashCombine(sql::Fingerprint(wq.query), ctx.fault_salt);
    if (common::FaultShouldFire(common::FaultSite::kPerturberInvalidTree,
                                key)) {
      obs::CountFaultFire(
          common::FaultSiteName(common::FaultSite::kPerturberInvalidTree));
      ++num_degraded_queries_;
      Metrics().degraded->Add();
      out.queries.push_back(wq);
      continue;
    }
    ReferenceTree tree(wq.query, *vocab_, config_.constraint, config_.epsilon);
    while (!tree.Done()) {
      tree.Advance(rng_.Choice(tree.LegalTokens()));
    }
    out.queries.push_back(workload::WorkloadQuery{tree.Materialize(), wq.weight});
  }
  return out;
}

workload::Workload AdversarialWorkloadGenerator::Generate(
    const workload::Workload& w) {
  // Legacy facade: any failure (including calling before Fit) degrades to
  // the unperturbed workload -- a valid, conservative answer -- rather than
  // aborting the whole assessment.
  return TryGenerate(w).value_or(w);
}

common::StatusOr<workload::Workload> AdversarialWorkloadGenerator::TryGenerate(
    const workload::Workload& w, const common::EvalContext& ctx) {
  Metrics().generated->Add();
  obs::TraceSpan span(ctx, "perturber.generate",
                      advisor::WorkloadFingerprint(w));
  const common::EvalContext& sctx = span.ctx();
  if (config_.method == GenerationMethod::kRandom) {
    // Random has no adversarial signal: it simply perturbs. Its 5x larger
    // generation budget (Sec. V-B) is realized by the assessment harness
    // averaging over `random_attempts` generated workloads.
    return TryRandomPerturb(w, sctx);
  }
  if (trainer_ == nullptr) {
    return common::Status::InvalidArgument("Fit must be called first");
  }
  // Greedy decode plus a few policy samples; keep the candidate with the
  // highest estimated IUDR (the same selection budget Random receives).
  // Every candidate decodes w under the same weights, so each query is
  // encoded once.
  TrapAgent::Encodings encodings;
  TRAP_RETURN_IF_ERROR(sctx.CheckContinue());
  workload::Workload best = trainer_->Perturb(w, sctx, &encodings);
  RlTrainer::UtilityMemo u;  // u(W), shared by every candidate
  std::optional<double> best_score = trainer_->EstimatedIudr(w, best, &u);
  for (int i = 1; i < config_.model_attempts; ++i) {
    TRAP_RETURN_IF_ERROR(sctx.CheckContinue());
    workload::Workload attempt =
        trainer_->PerturbSampled(w, rng_, sctx, &encodings);
    // An unscored candidate (a failed probe) is never picked; with none
    // scored the greedy decode stands.
    const std::optional<double> score =
        trainer_->EstimatedIudr(w, attempt, &u);
    if (score.has_value() &&
        (!best_score.has_value() || *score > *best_score)) {
      best_score = score;
      best = std::move(attempt);
    }
  }
  // Per-query invalid-tree degradation: a fired query falls back to its
  // unperturbed original (still edit-budget-legal by construction).
  for (size_t i = 0; i < best.queries.size() && i < w.queries.size(); ++i) {
    const uint64_t key = common::HashCombine(
        sql::Fingerprint(w.queries[i].query), ctx.fault_salt);
    if (common::FaultShouldFire(common::FaultSite::kPerturberInvalidTree,
                                key)) {
      obs::CountFaultFire(
          common::FaultSiteName(common::FaultSite::kPerturberInvalidTree));
      ++num_degraded_queries_;
      Metrics().degraded->Add();
      best.queries[i] = w.queries[i];
    }
  }
  return best;
}

int64_t AdversarialWorkloadGenerator::NumParameters() const {
  return agent_ == nullptr ? 0 : agent_->NumParameters();
}

TrapAgent* AdversarialWorkloadGenerator::agent() { return agent_.get(); }

}  // namespace trap::trap
