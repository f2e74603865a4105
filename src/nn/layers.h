#ifndef TRAP_NN_LAYERS_H_
#define TRAP_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/graph.h"

namespace trap::nn {

// Base for anything owning trainable parameters. Layers register their
// Parameters with the owning Model so the optimizer can reach them.
class ParameterStore {
 public:
  Parameter* Create(int rows, int cols, common::Rng& rng);
  Parameter* CreateZero(int rows, int cols);
  Parameter* CreateConst(int rows, int cols, double value);

  std::vector<Parameter*> parameters();
  std::vector<const Parameter*> parameters() const;
  int64_t NumParameters() const;
  void ZeroGrad();

  // Deep-copies parameter values from another store of identical layout.
  void CopyValuesFrom(const ParameterStore& other);

 private:
  std::vector<std::unique_ptr<Parameter>> params_;
};

// y = x W + b.
class Linear {
 public:
  Linear() = default;
  Linear(ParameterStore* store, int in, int out, common::Rng& rng);

  Graph::VarId Forward(Graph& g, Graph::VarId x) const;

  Parameter* weight() const { return w_; }
  Parameter* bias() const { return b_; }

 private:
  Parameter* w_ = nullptr;
  Parameter* b_ = nullptr;
};

// Token embedding table (V x D); lookup via sparse gather.
class Embedding {
 public:
  Embedding() = default;
  Embedding(ParameterStore* store, int vocab, int dim, common::Rng& rng);

  // Returns an (ids.size() x dim) matrix of embeddings.
  Graph::VarId Forward(Graph& g, const std::vector<int>& ids) const;

  int dim() const { return dim_; }
  Parameter* table() const { return table_; }

 private:
  Parameter* table_ = nullptr;
  int dim_ = 0;
};

// Standard GRU cell (update gate z, reset gate r, candidate n):
//   z = sigmoid(x Wxz + bxz + h Whz + bhz)
//   r = sigmoid(x Wxr + bxr + h Whr + bhr)
//   n = tanh(x Wxn + bxn + (r*h) Whn + bhn)
//   h' = h + z * (n - h)
class GruCell {
 public:
  GruCell() = default;
  GruCell(ParameterStore* store, int input, int hidden, common::Rng& rng);

  // One fused Graph::GruStep node.
  Graph::VarId Step(Graph& g, Graph::VarId x, Graph::VarId h) const;

  int hidden() const { return hidden_; }

 private:
  GruWeights w_;
  int hidden_ = 0;
};

// Multi-layer perceptron with ReLU activations between layers.
class Mlp {
 public:
  Mlp() = default;
  Mlp(ParameterStore* store, const std::vector<int>& dims, common::Rng& rng);

  Graph::VarId Forward(Graph& g, Graph::VarId x) const;

 private:
  std::vector<Linear> layers_;
};

}  // namespace trap::nn

#endif  // TRAP_NN_LAYERS_H_
