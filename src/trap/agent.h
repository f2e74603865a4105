#ifndef TRAP_TRAP_AGENT_H_
#define TRAP_TRAP_AGENT_H_

#include <map>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "trap/reference_tree.h"

namespace trap::trap {

// Which encoder backs the generation module — the axis of the paper's
// Fig. 7 / Table IV ablation:
//   kNone        — decoder-only GRU language model (the "GRU" baseline);
//   kBiGru       — bidirectional GRU encoder (Seq2Seq and TRAP);
//   kTransformer — transformer encoder (the PLM stand-ins).
enum class EncoderKind { kNone, kBiGru, kTransformer };

struct AgentOptions {
  EncoderKind encoder = EncoderKind::kBiGru;
  bool attention = true;  // the SQL-context attention of Eq. 3
  int embed_dim = 64;
  int hidden_dim = 64;    // decoder GRU hidden; Bi-GRU directions use half
  nn::TransformerConfig transformer;  // used when encoder == kTransformer
  uint64_t seed = 0x7a9;
  friend bool operator==(const AgentOptions&, const AgentOptions&) = default;
};

// The sequence-to-sequence perturbation agent of Section IV-A. Decoding is
// driven by a ReferenceTree: at each step the network scores only the
// tree's legitimate vocabulary (computing logits via a sparse gather of the
// output projection — the masking that also gives TRAP its scalability on
// wide schemas, Fig. 10). Steps with a single legal token are consumed into
// the decoder state without scoring.
class TrapAgent {
 public:
  TrapAgent(const sql::Vocabulary& vocab, AgentOptions options);
  ~TrapAgent();
  TrapAgent(const TrapAgent&) = delete;
  TrapAgent& operator=(const TrapAgent&) = delete;

  enum class Mode { kSample, kGreedy };

  struct EpisodeResult {
    std::vector<sql::Token> output;
    std::vector<int> choices;  // every Advance'd token id, in order
    int edit_distance = 0;
    // Sum of log-probabilities of the scored decisions; a graph VarId when
    // recorded on a graph, and its double value always.
    double total_log_prob = 0.0;
    nn::Graph::VarId log_prob_var = -1;  // -1 when g == nullptr
    // True when the step budget expired mid-decode and the walk was
    // completed with first-legal tokens (still a valid query).
    bool truncated = false;
  };

  // What decoding reads from the encoder for one query, as values: the
  // encoder states, the attention keys (empty without attention) and the
  // initial decoder state.
  struct Encoding {
    nn::Matrix states;
    nn::Matrix keys;
    nn::Matrix init;
  };
  // Encodings by the query's token ids. They hold only while the weights do
  // not change, so a caller keeps one for one generation or one RL step.
  using Encodings = std::map<std::vector<int>, Encoding>;

  // Decodes a perturbed query along `tree`. With `g` non-null the episode
  // is recorded for back-propagation (log_prob_var is the differentiable sum
  // of chosen-token log-probabilities). Each scored decision charges one
  // step to `ctx.cancel` (when provided); once the budget expires the
  // remaining walk is completed deterministically with the first legal token
  // at each node and the result is marked truncated — the caller observes
  // the kDeadlineExceeded status on the token itself. With `encodings`
  // non-null, a decode that runs the encoder records its outputs there, and
  // one with `g` null enters a recorded query's encoding as values instead
  // of running the encoder (with `g` non-null the encoder always runs, so
  // its gradient reaches the encoder). The result is the same either way.
  EpisodeResult RunEpisode(nn::Graph* g, ReferenceTree tree, Mode mode,
                           common::Rng* rng,
                           const common::EvalContext& ctx = {},
                           Encodings* encodings = nullptr) const;

  // Teacher-forced negative log-likelihood of replaying `choices` on `tree`
  // (Eq. 7, pretraining). Returns the 1x1 loss VarId.
  nn::Graph::VarId ForcedNll(nn::Graph& g, ReferenceTree tree,
                             const std::vector<int>& choices) const;

  // Mean encoder hidden state for a token id sequence (the query embedding
  // used in Fig. 17's distribution analysis). Requires an encoder.
  std::vector<double> EncodeQueryVector(const std::vector<int>& ids) const;

  // Re-initializes the decoder (and output head) parameters while keeping
  // the encoder: the paper transfers only the pre-trained encoder into RL.
  void ReinitDecoder();

  nn::ParameterStore& store();
  int64_t NumParameters() const;
  // The encoder's parameters are the first this many in store(); the rest
  // belong to the decoder that ReinitDecoder re-draws.
  int NumEncoderParameters() const;
  const AgentOptions& options() const;
  const sql::Vocabulary& vocab() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trap::trap

#endif  // TRAP_TRAP_AGENT_H_
