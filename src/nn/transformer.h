#ifndef TRAP_NN_TRANSFORMER_H_
#define TRAP_NN_TRANSFORMER_H_

#include <vector>

#include "nn/layers.h"

namespace trap::nn {

// A pre-LN transformer encoder stack. Used as the stand-in for the
// pre-trained-language-model baselines of the paper's Fig. 7 / Table IV
// (Bert / Bart / CodeBert / StarEncoder): same architecture family, scaled to
// a size trainable on this machine, so the parameter-count and
// generation-time comparisons keep their shape.
struct TransformerConfig {
  int dim = 64;
  int num_heads = 4;
  int ff_dim = 256;
  int num_layers = 2;
  friend bool operator==(const TransformerConfig&,
                         const TransformerConfig&) = default;
};

class TransformerEncoderLayer {
 public:
  TransformerEncoderLayer(ParameterStore* store, const TransformerConfig& cfg,
                          common::Rng& rng);

  // x: (n x dim) -> (n x dim).
  Graph::VarId Forward(Graph& g, Graph::VarId x) const;

 private:
  TransformerConfig cfg_;
  // Per-head projections.
  std::vector<Linear> wq_, wk_, wv_;
  Linear wo_;
  Linear ff1_, ff2_;
  Parameter* ln1_gain_;
  Parameter* ln1_bias_;
  Parameter* ln2_gain_;
  Parameter* ln2_bias_;
};

class TransformerEncoder {
 public:
  TransformerEncoder(ParameterStore* store, const TransformerConfig& cfg,
                     common::Rng& rng);

  Graph::VarId Forward(Graph& g, Graph::VarId x) const;

  const TransformerConfig& config() const { return cfg_; }

 private:
  TransformerConfig cfg_;
  std::vector<TransformerEncoderLayer> layers_;
};

// Sinusoidal positional encodings, (n x dim).
Matrix PositionalEncoding(int n, int dim);

}  // namespace trap::nn

#endif  // TRAP_NN_TRANSFORMER_H_
