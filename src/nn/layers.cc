#include "nn/layers.h"

namespace trap::nn {

Parameter* ParameterStore::Create(int rows, int cols, common::Rng& rng) {
  auto p = std::make_unique<Parameter>(rows, cols);
  p->value.InitXavier(rng);
  params_.push_back(std::move(p));
  return params_.back().get();
}

Parameter* ParameterStore::CreateZero(int rows, int cols) {
  params_.push_back(std::make_unique<Parameter>(rows, cols));
  return params_.back().get();
}

Parameter* ParameterStore::CreateConst(int rows, int cols, double value) {
  auto p = std::make_unique<Parameter>(rows, cols);
  p->value.Fill(value);
  params_.push_back(std::move(p));
  return params_.back().get();
}

std::vector<Parameter*> ParameterStore::parameters() {
  std::vector<Parameter*> out;
  out.reserve(params_.size());
  for (auto& p : params_) out.push_back(p.get());
  return out;
}

std::vector<const Parameter*> ParameterStore::parameters() const {
  std::vector<const Parameter*> out;
  for (const auto& p : params_) out.push_back(p.get());
  return out;
}

int64_t ParameterStore::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : params_) total += p->value.size();
  return total;
}

void ParameterStore::ZeroGrad() {
  for (auto& p : params_) p->grad.Zero();
}

void ParameterStore::CopyValuesFrom(const ParameterStore& other) {
  TRAP_CHECK(params_.size() == other.params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    TRAP_CHECK(params_[i]->value.size() == other.params_[i]->value.size());
    params_[i]->value = other.params_[i]->value;
  }
}

Linear::Linear(ParameterStore* store, int in, int out, common::Rng& rng)
    : w_(store->Create(in, out, rng)), b_(store->CreateZero(1, out)) {}

Graph::VarId Linear::Forward(Graph& g, Graph::VarId x) const {
  return g.Add(g.MatMul(x, g.Param(w_)), g.Param(b_));
}

Embedding::Embedding(ParameterStore* store, int vocab, int dim,
                     common::Rng& rng)
    : table_(store->Create(vocab, dim, rng)), dim_(dim) {}

Graph::VarId Embedding::Forward(Graph& g, const std::vector<int>& ids) const {
  return g.Gather(table_, ids);
}

GruCell::GruCell(ParameterStore* store, int input, int hidden,
                 common::Rng& rng)
    : hidden_(hidden) {
  // Gates z, r, n; per gate the input map, then the hidden map (a braced
  // list evaluates left to right, so the weight draws before the bias).
  for (int gate = 0; gate < 3; ++gate) {
    w_.x[gate] = {store->Create(input, hidden, rng),
                  store->CreateZero(1, hidden)};
    w_.h[gate] = {store->Create(hidden, hidden, rng),
                  store->CreateZero(1, hidden)};
  }
}

Graph::VarId GruCell::Step(Graph& g, Graph::VarId x, Graph::VarId h) const {
  return g.GruStep(x, h, w_);
}

Mlp::Mlp(ParameterStore* store, const std::vector<int>& dims,
         common::Rng& rng) {
  TRAP_CHECK(dims.size() >= 2);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(store, dims[i], dims[i + 1], rng);
  }
}

Graph::VarId Mlp::Forward(Graph& g, Graph::VarId x) const {
  Graph::VarId h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(g, h);
    if (i + 1 < layers_.size()) h = g.Relu(h);
  }
  return h;
}

}  // namespace trap::nn
