#include "trap/agent.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace trap::trap {

namespace {

// Episode-level observability. Decode is serial per episode, so every count
// is deterministic for a given seed and schedule of calls.
struct AgentMetrics {
  obs::Counter* episodes;
  obs::Counter* decode_steps;
  obs::Counter* truncations;
  obs::Counter* encodes;         // encoder runs
  obs::Counter* encodes_reused;  // decodes that read a recorded encoding
};

AgentMetrics& Metrics() {
  static AgentMetrics* m = [] {
    obs::MetricRegistry& reg = obs::MetricRegistry::Global();
    return new AgentMetrics{reg.counter("trap.agent.episodes"),
                            reg.counter("trap.agent.decode_steps"),
                            reg.counter("trap.agent.truncations"),
                            reg.counter("trap.agent.encodes"),
                            reg.counter("trap.agent.encodes_reused")};
  }();
  return *m;
}

// Uniform-weights row vector used to mean-pool encoder states.
nn::Matrix MeanPoolWeights(int n) {
  nn::Matrix m(1, n);
  m.Fill(1.0 / static_cast<double>(n));
  return m;
}

}  // namespace

struct TrapAgent::Impl {
  Impl(const sql::Vocabulary& vocabulary, AgentOptions opts)
      : vocab(&vocabulary), options(opts), rng(opts.seed) {
    TRAP_CHECK(options.hidden_dim % 2 == 0);
    if (options.encoder == EncoderKind::kTransformer) {
      TRAP_CHECK(options.transformer.dim == options.embed_dim);
    }
    Build();
  }

  void Build() {
    embed = nn::Embedding(&store, vocab->size(), options.embed_dim, rng);
    if (options.encoder == EncoderKind::kBiGru) {
      enc_fwd = nn::GruCell(&store, options.embed_dim, options.hidden_dim / 2,
                            rng);
      enc_bwd = nn::GruCell(&store, options.embed_dim, options.hidden_dim / 2,
                            rng);
      enc_out_dim = options.hidden_dim;
    } else if (options.encoder == EncoderKind::kTransformer) {
      transformer = std::make_unique<nn::TransformerEncoder>(
          &store, options.transformer, rng);
      enc_out_dim = options.transformer.dim;
    } else {
      enc_out_dim = 0;
    }
    encoder_param_count = static_cast<int>(store.parameters().size());

    // Decoder side (refreshed at the start of RL).
    if (enc_out_dim > 0) {
      init_state = nn::Linear(&store, enc_out_dim, options.hidden_dim, rng);
    }
    decoder = nn::GruCell(&store, options.embed_dim, options.hidden_dim, rng);
    if (enc_out_dim > 0 && options.attention) {
      att_dim = options.hidden_dim;
      att_h = nn::Linear(&store, enc_out_dim, att_dim, rng);
      att_s = nn::Linear(&store, options.hidden_dim, att_dim, rng);
      att_v = store.Create(att_dim, 1, rng);
    }
    feat_dim = (enc_out_dim > 0 && options.attention ? enc_out_dim : 0) +
               options.hidden_dim + options.embed_dim;
    out_w = store.Create(vocab->size(), feat_dim, rng);
    out_b = store.CreateZero(vocab->size(), 1);
  }

  // Encodes `ids`; returns the encoder state matrix VarId, or -1 for kNone.
  nn::Graph::VarId Encode(nn::Graph& g, const std::vector<int>& ids) const {
    if (options.encoder == EncoderKind::kNone) return -1;
    Metrics().encodes->Add();
    int n = static_cast<int>(ids.size());
    if (options.encoder == EncoderKind::kTransformer) {
      nn::Graph::VarId x = embed.Forward(g, ids);  // n x e
      nn::Graph::VarId pe = g.Input(nn::PositionalEncoding(n, options.embed_dim));
      return transformer->Forward(g, g.Add(x, pe));
    }
    // Bi-GRU: run both directions token by token and concatenate.
    int h2 = options.hidden_dim / 2;
    std::vector<nn::Graph::VarId> fwd(static_cast<size_t>(n));
    std::vector<nn::Graph::VarId> bwd(static_cast<size_t>(n));
    nn::Graph::VarId hf = g.Input(nn::Matrix(1, h2));
    for (int i = 0; i < n; ++i) {
      nn::Graph::VarId xi = embed.Forward(g, {ids[static_cast<size_t>(i)]});
      hf = enc_fwd.Step(g, xi, hf);
      fwd[static_cast<size_t>(i)] = hf;
    }
    nn::Graph::VarId hb = g.Input(nn::Matrix(1, h2));
    for (int i = n - 1; i >= 0; --i) {
      nn::Graph::VarId xi = embed.Forward(g, {ids[static_cast<size_t>(i)]});
      hb = enc_bwd.Step(g, xi, hb);
      bwd[static_cast<size_t>(i)] = hb;
    }
    // Stack the per-position states h_i = [h^f_i ; h^b_i] into an
    // (n x hidden) matrix. Rows are assembled in transposed space so each
    // append is a column concatenation.
    nn::Graph::VarId stacked_t = -1;  // hidden x i
    for (int i = 0; i < n; ++i) {
      nn::Graph::VarId hi = g.Transpose(g.ConcatCols(
          fwd[static_cast<size_t>(i)], bwd[static_cast<size_t>(i)]));
      stacked_t = stacked_t < 0 ? hi : g.ConcatCols(stacked_t, hi);
    }
    return g.Transpose(stacked_t);
  }

  // Concatenates two matrices along rows via transpose+concat-cols.
  static nn::Graph::VarId ConcatRows(nn::Graph& g, nn::Graph::VarId a,
                                     nn::Graph::VarId b) {
    return g.Transpose(g.ConcatCols(g.Transpose(a), g.Transpose(b)));
  }

  // Shared decode loop. If `forced` is non-null, choices are replayed from
  // it (teacher forcing); otherwise they are sampled/argmaxed per `mode`.
  // An encoder run is recorded in `encodings` (when non-null); with `reuse`
  // a recorded encoding is entered as values instead.
  EpisodeResult Decode(nn::Graph& g, ReferenceTree tree, Mode mode,
                       common::Rng* sample_rng, const std::vector<int>* forced,
                       common::CancelToken* cancel = nullptr,
                       Encodings* encodings = nullptr,
                       bool reuse = false) const {
    const std::vector<int> input_ids = [&] {
      std::vector<int> ids;
      for (const sql::Token& t : sql::ToTokens(tree.original_query(), *vocab)) {
        ids.push_back(vocab->TokenToId(t));
      }
      return ids;
    }();

    nn::Graph::VarId enc = -1;
    nn::Graph::VarId att_keys = -1;  // Wh H, computed once
    nn::Graph::VarId s;
    const Encoding* known = nullptr;
    if (encodings != nullptr && reuse) {
      auto it = encodings->find(input_ids);
      if (it != encodings->end()) known = &it->second;
    }
    if (options.encoder == EncoderKind::kNone) {
      s = g.Input(nn::Matrix(1, options.hidden_dim));
    } else if (known != nullptr) {
      enc = g.Input(known->states);
      if (options.attention) att_keys = g.Input(known->keys);
      s = g.Input(known->init);
      Metrics().encodes_reused->Add();
    } else {
      enc = Encode(g, input_ids);
      if (options.attention) att_keys = att_h.Forward(g, enc);
      nn::Graph::VarId pooled =
          g.MatMul(g.Input(MeanPoolWeights(static_cast<int>(input_ids.size()))),
                   enc);
      s = g.Tanh(init_state.Forward(g, pooled));
      if (encodings != nullptr) {
        encodings->emplace(
            input_ids,
            Encoding{g.value(enc),
                     att_keys >= 0 ? g.value(att_keys) : nn::Matrix(),
                     g.value(s)});
      }
    }

    EpisodeResult result;
    nn::Graph::VarId logp_sum = g.Input(nn::Matrix(1, 1));
    int prev_id = vocab->TokenToId(
        sql::Token::Special(sql::SpecialToken::kBos));
    size_t forced_pos = 0;

    while (!tree.Done()) {
      if (!result.truncated && forced == nullptr && cancel != nullptr &&
          !cancel->Charge()) {
        result.truncated = true;
      }
      if (result.truncated) {
        // Budget exhausted: finish the walk with the first legal token at
        // every remaining node. Deterministic, always tree-legal, and no
        // network evaluation is spent past the deadline.
        int chosen = tree.LegalTokens()[0];
        tree.Advance(chosen);
        result.choices.push_back(chosen);
        prev_id = chosen;
        continue;
      }
      nn::Graph::VarId x = embed.Forward(g, {prev_id});
      s = decoder.Step(g, x, s);
      const std::vector<int>& legal = tree.LegalTokens();
      int chosen;
      if (legal.size() == 1) {
        chosen = legal[0];
        if (forced != nullptr) {
          TRAP_CHECK(forced_pos < forced->size());
          TRAP_CHECK((*forced)[forced_pos] == chosen);
          ++forced_pos;
        }
      } else {
        // Score the legitimate vocabulary (Eq. 4) via a sparse gather.
        nn::Graph::VarId feat;
        if (att_keys >= 0) {
          nn::Graph::VarId scores = g.MatMul(
              g.Tanh(g.Add(att_keys, att_s.Forward(g, s))), g.Param(att_v));
          nn::Graph::VarId weights = g.Softmax(g.Transpose(scores));  // 1 x n
          nn::Graph::VarId context = g.MatMul(weights, enc);          // 1 x enc
          feat = g.ConcatCols(context, g.ConcatCols(s, x));
        } else {
          feat = g.ConcatCols(s, x);
        }
        nn::Graph::VarId sub_w = g.Gather(out_w, legal);   // k x feat
        nn::Graph::VarId sub_b = g.Gather(out_b, legal);   // k x 1
        nn::Graph::VarId logits =
            g.Add(g.MatMul(feat, g.Transpose(sub_w)), g.Transpose(sub_b));
        nn::Graph::VarId logp_row = g.LogSoftmax(logits);
        int idx;
        if (forced != nullptr) {
          TRAP_CHECK(forced_pos < forced->size());
          int target = (*forced)[forced_pos++];
          auto it = std::find(legal.begin(), legal.end(), target);
          TRAP_CHECK_MSG(it != legal.end(), "forced choice not legal");
          idx = static_cast<int>(it - legal.begin());
        } else if (mode == Mode::kGreedy) {
          idx = 0;
          const nn::Matrix& lp = g.value(logp_row);
          for (int j = 1; j < lp.cols(); ++j) {
            if (lp.at(0, j) > lp.at(0, idx)) idx = j;
          }
        } else {
          TRAP_CHECK(sample_rng != nullptr);
          const nn::Matrix& lp = g.value(logp_row);
          std::vector<double> probs(static_cast<size_t>(lp.cols()));
          for (int j = 0; j < lp.cols(); ++j) {
            probs[static_cast<size_t>(j)] = std::exp(lp.at(0, j));
          }
          idx = sample_rng->WeightedIndex(probs);
        }
        logp_sum = g.Add(logp_sum, g.Pick(logp_row, 0, idx));
        chosen = legal[static_cast<size_t>(idx)];
      }
      tree.Advance(chosen);
      result.choices.push_back(chosen);
      prev_id = chosen;
    }
    result.output = tree.output();
    result.edit_distance = tree.edit_distance();
    result.log_prob_var = logp_sum;
    result.total_log_prob = g.value(logp_sum).at(0, 0);
    return result;
  }

  const sql::Vocabulary* vocab;
  AgentOptions options;
  common::Rng rng;

  nn::ParameterStore store;
  nn::Embedding embed;
  nn::GruCell enc_fwd, enc_bwd;
  std::unique_ptr<nn::TransformerEncoder> transformer;
  nn::Linear init_state;
  nn::GruCell decoder;
  nn::Linear att_h, att_s;
  nn::Parameter* att_v = nullptr;
  nn::Parameter* out_w = nullptr;
  nn::Parameter* out_b = nullptr;
  int enc_out_dim = 0;
  int att_dim = 0;
  int feat_dim = 0;
  int encoder_param_count = 0;
};

TrapAgent::TrapAgent(const sql::Vocabulary& vocab, AgentOptions options)
    : impl_(std::make_unique<Impl>(vocab, options)) {}

TrapAgent::~TrapAgent() = default;

TrapAgent::EpisodeResult TrapAgent::RunEpisode(
    nn::Graph* g, ReferenceTree tree, Mode mode, common::Rng* rng,
    const common::EvalContext& ctx, Encodings* encodings) const {
  EpisodeResult result;
  if (g != nullptr) {
    result = impl_->Decode(*g, std::move(tree), mode, rng, nullptr, ctx.cancel,
                           encodings);
  } else {
    nn::Graph local;
    result = impl_->Decode(local, std::move(tree), mode, rng, nullptr,
                           ctx.cancel, encodings, /*reuse=*/true);
    result.log_prob_var = -1;
  }
  Metrics().episodes->Add();
  Metrics().decode_steps->Add(static_cast<int64_t>(result.choices.size()));
  if (result.truncated) Metrics().truncations->Add();
  return result;
}

nn::Graph::VarId TrapAgent::ForcedNll(nn::Graph& g, ReferenceTree tree,
                                      const std::vector<int>& choices) const {
  EpisodeResult r =
      impl_->Decode(g, std::move(tree), Mode::kGreedy, nullptr, &choices);
  return g.Scale(r.log_prob_var, -1.0);
}

std::vector<double> TrapAgent::EncodeQueryVector(
    const std::vector<int>& ids) const {
  nn::Graph g;
  nn::Graph::VarId enc = impl_->Encode(g, ids);
  if (enc < 0) {
    enc = impl_->embed.Forward(g, ids);
  }
  nn::Graph::VarId pooled =
      g.MatMul(g.Input(MeanPoolWeights(static_cast<int>(ids.size()))), enc);
  const nn::Matrix& m = g.value(pooled);
  std::vector<double> out(static_cast<size_t>(m.cols()));
  for (int i = 0; i < m.cols(); ++i) out[static_cast<size_t>(i)] = m.at(0, i);
  return out;
}

void TrapAgent::ReinitDecoder() {
  std::vector<nn::Parameter*> params = impl_->store.parameters();
  for (size_t i = static_cast<size_t>(impl_->encoder_param_count);
       i < params.size(); ++i) {
    params[i]->value.InitXavier(impl_->rng);
    params[i]->grad.Zero();
    params[i]->m.Zero();
    params[i]->v.Zero();
  }
}

nn::ParameterStore& TrapAgent::store() { return impl_->store; }

int64_t TrapAgent::NumParameters() const { return impl_->store.NumParameters(); }

int TrapAgent::NumEncoderParameters() const {
  return impl_->encoder_param_count;
}

const AgentOptions& TrapAgent::options() const { return impl_->options; }

const sql::Vocabulary& TrapAgent::vocab() const { return *impl_->vocab; }

}  // namespace trap::trap
