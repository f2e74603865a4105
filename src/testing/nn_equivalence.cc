#include "testing/nn_equivalence.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "nn/adam.h"
#include "nn/graph.h"
#include "testing/reference_graph.h"

namespace trap::proptest {

namespace {

constexpr int kMaxDim = 5;
// ConcatCols only fires while the result stays this narrow, which bounds
// every shape on the tape at kMaxCols.
constexpr int kMaxCols = 10;
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Bit-for-bit equality, except that any NaN matches any NaN: which operand's
// payload and sign a NaN-on-NaN add or multiply keeps depends on how the
// compiler ordered the commutative operands, not on the kernel's arithmetic.
std::optional<std::string> CompareBits(const nn::Matrix& fast,
                                       const nn::Matrix& ref,
                                       const std::string& what) {
  if (fast.rows() != ref.rows() || fast.cols() != ref.cols()) {
    return common::StrFormat("%s: shape %dx%d, reference %dx%d", what.c_str(),
                             fast.rows(), fast.cols(), ref.rows(), ref.cols());
  }
  for (int i = 0; i < fast.size(); ++i) {
    uint64_t fb = 0;
    uint64_t rb = 0;
    std::memcpy(&fb, fast.data() + i, sizeof fb);
    std::memcpy(&rb, ref.data() + i, sizeof rb);
    const bool both_nan =
        std::isnan(fast.data()[i]) && std::isnan(ref.data()[i]);
    if (fb != rb && !both_nan) {
      return common::StrFormat("%s[%d]: %.17g, reference %.17g", what.c_str(),
                               i, fast.data()[i], ref.data()[i]);
    }
  }
  return std::nullopt;
}

// What both differential tapes share: one RNG, the nn::Graph tape and the
// ReferenceGraph tape, and the parameters, each with its own identical copy
// per tape.
class Twin {
 protected:
  explicit Twin(uint64_t seed) : rng_(seed) {}

  struct ParamPair {
    std::unique_ptr<nn::Parameter> fast;
    std::unique_ptr<nn::Parameter> ref;
  };
  // A node's id on each tape.
  struct Ids {
    int fast;
    int ref;
  };

  int Dim() { return static_cast<int>(rng_.UniformInt(1, kMaxDim)); }
  size_t Index(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  }
  // Gaussian entries with about one in five an exact zero of either sign
  // and, of the others, a share inf_rate_ (by default one in a hundred) an
  // infinity.
  nn::Matrix RandomMatrix(int rows, int cols);
  // An existing parameter of this shape (with probability `reuse`, when
  // there is one) or a fresh one; returns its index in params_.
  size_t ParamOfShape(int rows, int cols, double reuse = 0.6);
  // An Input, Param or Gather leaf of this shape on both tapes.
  Ids NewLeaf(int rows, int cols);
  std::optional<std::string> CompareParams(const char* pass);
  // Two Adam steps on both parameter copies, compared after each.
  std::optional<std::string> CompareAdamSteps();

  common::Rng rng_;
  nn::Graph fast_;
  ReferenceGraph ref_;
  std::vector<ParamPair> params_;
  double inf_rate_ = 0.01;
};

// One random tape recorded op for op on nn::Graph and on ReferenceGraph.
// Both append the same nodes in the same order, so a node has one id on
// both tapes.
class TwinTape : public Twin {
 public:
  explicit TwinTape(uint64_t seed) : Twin(seed) {}

  std::optional<std::string> Run(int ops);

 private:
  struct Var {
    int id;
    int rows;
    int cols;
  };

  Var Record(int fast_id, int ref_id, int rows, int cols);
  Var Leaf(int rows, int cols);
  // An existing node of this shape (half the time, when there is one) or a
  // fresh leaf.
  Var WithShape(int rows, int cols);
  void Step();
  std::optional<std::string> CompareTape(int loss, const char* pass);

  std::vector<Var> vars_;
  std::string id_mismatch_;
};

// A random chain of GRU steps: Graph::GruStep on nn::Graph against the
// unfused chain it replaced, on ReferenceGraph. A step is one node on the
// first tape and 35 on the second, so every var keeps both ids.
class GruTwin : public Twin {
 public:
  explicit GruTwin(uint64_t seed) : Twin(seed) {}

  std::optional<std::string> Run(int steps);

 private:
  struct Var {
    Ids id;
    int rows;
    int cols;
  };
  // One cell's twelve parameters, as each tape sees them.
  struct Cell {
    nn::GruWeights fast;
    nn::GruWeights ref;
  };

  Var Leaf(int rows, int cols);
  Cell NewCell(int in, int hid);
  // The unfused chain, in the node order graph.cc gives for kGru.
  int RefStep(int x, int h, const nn::GruWeights& w);
  // An existing var of this shape (two times in five, when there is one)
  // or a fresh leaf.
  Var WithShape(int rows, int cols);
  std::optional<std::string> CompareVars(bool grads, const char* pass);

  std::vector<Var> vars_;
};

nn::Matrix Twin::RandomMatrix(int rows, int cols) {
  nn::Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    if (rng_.Bernoulli(0.2)) {
      m.data()[i] = rng_.Bernoulli(0.5) ? 0.0 : -0.0;
    } else if (rng_.Bernoulli(inf_rate_)) {
      // A rare infinity makes 0 * inf = NaN observable, so a kernel that
      // drops one of the reference's zero skips cannot pass.
      m.data()[i] = rng_.Bernoulli(0.5) ? kInf : -kInf;
    } else {
      m.data()[i] = rng_.Gaussian();
    }
  }
  return m;
}

size_t Twin::ParamOfShape(int rows, int cols, double reuse) {
  std::vector<size_t> same;
  for (size_t i = 0; i < params_.size(); ++i) {
    const nn::Matrix& v = params_[i].fast->value;
    if (v.rows() == rows && v.cols() == cols) same.push_back(i);
  }
  if (!same.empty() && rng_.Bernoulli(reuse)) return same[Index(same.size())];
  ParamPair pair;
  pair.fast = std::make_unique<nn::Parameter>(rows, cols);
  pair.fast->value = RandomMatrix(rows, cols);
  pair.ref = std::make_unique<nn::Parameter>(rows, cols);
  pair.ref->value = pair.fast->value;
  params_.push_back(std::move(pair));
  return params_.size() - 1;
}

TwinTape::Var TwinTape::Record(int fast_id, int ref_id, int rows, int cols) {
  if (fast_id != ref_id && id_mismatch_.empty()) {
    id_mismatch_ = common::StrFormat("node id %d, reference id %d", fast_id,
                                     ref_id);
  }
  return Var{fast_id, rows, cols};
}

Twin::Ids Twin::NewLeaf(int rows, int cols) {
  switch (rng_.UniformInt(0, 2)) {
    case 0: {
      nn::Matrix m = RandomMatrix(rows, cols);
      return {fast_.Input(m), ref_.Input(m)};
    }
    case 1: {
      const ParamPair& p = params_[ParamOfShape(rows, cols)];
      return {fast_.Param(p.fast.get()), ref_.Param(p.ref.get())};
    }
    default: {
      const ParamPair& p = params_[ParamOfShape(Dim(), cols)];
      std::vector<int> ids(static_cast<size_t>(rows));
      for (int& id : ids) {
        id = static_cast<int>(rng_.UniformInt(0, p.fast->value.rows() - 1));
      }
      return {fast_.Gather(p.fast.get(), ids), ref_.Gather(p.ref.get(), ids)};
    }
  }
}

TwinTape::Var TwinTape::Leaf(int rows, int cols) {
  const Ids ids = NewLeaf(rows, cols);
  return Record(ids.fast, ids.ref, rows, cols);
}

TwinTape::Var TwinTape::WithShape(int rows, int cols) {
  std::vector<size_t> same;
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].rows == rows && vars_[i].cols == cols) same.push_back(i);
  }
  if (!same.empty() && rng_.Bernoulli(0.5)) {
    return vars_[same[Index(same.size())]];
  }
  Var leaf = Leaf(rows, cols);
  vars_.push_back(leaf);
  return leaf;
}

void TwinTape::Step() {
  const Var a = vars_[Index(vars_.size())];
  Var out = a;
  // MatMul, the heaviest kernel, is drawn twice as often as other ops.
  switch (rng_.UniformInt(0, 16)) {
    case 0:
    case 16: {
      const Var b = a.rows == a.cols && rng_.Bernoulli(0.5)
                        ? a
                        : WithShape(a.cols, Dim());
      out = Record(fast_.MatMul(a.id, b.id), ref_.MatMul(a.id, b.id), a.rows,
                   b.cols);
      break;
    }
    case 1:
      out = Record(fast_.Transpose(a.id), ref_.Transpose(a.id), a.cols,
                   a.rows);
      break;
    case 2: {
      const Var b = rng_.Bernoulli(0.25)
                        ? a
                        : WithShape(rng_.Bernoulli(0.3) ? 1 : a.rows, a.cols);
      out = Record(fast_.Add(a.id, b.id), ref_.Add(a.id, b.id), a.rows,
                   a.cols);
      break;
    }
    case 3: {
      const Var b = WithShape(rng_.Bernoulli(0.3) ? 1 : a.rows, a.cols);
      out = Record(fast_.Sub(a.id, b.id), ref_.Sub(a.id, b.id), a.rows,
                   a.cols);
      break;
    }
    case 4: {
      const Var b = rng_.Bernoulli(0.3) ? a : WithShape(a.rows, a.cols);
      out = Record(fast_.Mul(a.id, b.id), ref_.Mul(a.id, b.id), a.rows,
                   a.cols);
      break;
    }
    case 5: {
      const double scales[] = {0.0, -1.0, 0.5, rng_.Gaussian()};
      const double s = scales[Index(4)];
      out = Record(fast_.Scale(a.id, s), ref_.Scale(a.id, s), a.rows, a.cols);
      break;
    }
    case 6:
      out = Record(fast_.Tanh(a.id), ref_.Tanh(a.id), a.rows, a.cols);
      break;
    case 7:
      out = Record(fast_.Sigmoid(a.id), ref_.Sigmoid(a.id), a.rows, a.cols);
      break;
    case 8:
      out = Record(fast_.Relu(a.id), ref_.Relu(a.id), a.rows, a.cols);
      break;
    case 9:
      out = Record(fast_.Softmax(a.id), ref_.Softmax(a.id), a.rows, a.cols);
      break;
    case 10:
      out = Record(fast_.LogSoftmax(a.id), ref_.LogSoftmax(a.id), a.rows,
                   a.cols);
      break;
    case 11: {
      const Var b = rng_.Bernoulli(0.25) ? a : WithShape(a.rows, Dim());
      if (a.cols + b.cols > kMaxCols) return;
      out = Record(fast_.ConcatCols(a.id, b.id), ref_.ConcatCols(a.id, b.id),
                   a.rows, a.cols + b.cols);
      break;
    }
    case 12: {
      const int r = static_cast<int>(rng_.UniformInt(0, a.rows - 1));
      const int c = static_cast<int>(rng_.UniformInt(0, a.cols - 1));
      out = Record(fast_.Pick(a.id, r, c), ref_.Pick(a.id, r, c), 1, 1);
      break;
    }
    case 13:
      out = rng_.Bernoulli(0.5)
                ? Record(fast_.Sum(a.id), ref_.Sum(a.id), 1, 1)
                : Record(fast_.Mean(a.id), ref_.Mean(a.id), 1, 1);
      break;
    case 14: {
      // Indexes, not references: the second lookup may grow params_.
      const size_t gain = ParamOfShape(1, a.cols);
      const size_t bias = ParamOfShape(1, a.cols);
      out = Record(fast_.LayerNorm(a.id, params_[gain].fast.get(),
                                   params_[bias].fast.get()),
                   ref_.LayerNorm(a.id, params_[gain].ref.get(),
                                  params_[bias].ref.get()),
                   a.rows, a.cols);
      break;
    }
    default:
      out = Leaf(Dim(), Dim());
      break;
  }
  vars_.push_back(out);
}

std::optional<std::string> TwinTape::CompareTape(int loss, const char* pass) {
  for (int id = 0; id < fast_.num_nodes(); ++id) {
    std::optional<std::string> diff = CompareBits(
        fast_.value(id), ref_.value(id),
        common::StrFormat("value of node %d", id));
    if (diff.has_value()) return diff;
  }
  if (loss < 0) return std::nullopt;
  for (int id = 0; id <= loss; ++id) {
    std::optional<std::string> diff = CompareBits(
        fast_.grad(id), ref_.grad(id),
        common::StrFormat("%s: grad of node %d", pass, id));
    if (diff.has_value()) return diff;
  }
  return std::nullopt;
}

std::optional<std::string> Twin::CompareParams(const char* pass) {
  for (size_t i = 0; i < params_.size(); ++i) {
    const nn::Parameter& f = *params_[i].fast;
    const nn::Parameter& r = *params_[i].ref;
    const std::pair<const nn::Matrix*, const nn::Matrix*> parts[] = {
        {&f.value, &r.value}, {&f.grad, &r.grad}, {&f.m, &r.m}, {&f.v, &r.v}};
    const char* names[] = {"value", "grad", "m", "v"};
    for (size_t k = 0; k < 4; ++k) {
      std::optional<std::string> diff = CompareBits(
          *parts[k].first, *parts[k].second,
          common::StrFormat("%s: param %zu %s", pass, i, names[k]));
      if (diff.has_value()) return diff;
    }
  }
  return std::nullopt;
}

std::optional<std::string> TwinTape::Run(int ops) {
  vars_.push_back(Leaf(Dim(), Dim()));
  for (int i = 0; i < ops; ++i) Step();

  // Loss: a sum of <v, W> over the newest node and about half of the
  // others, so most of the tape receives a gradient; W carries exact zeros
  // so upstream gradients do too.
  std::vector<Var> terms = {vars_.back()};
  for (size_t i = 0; i + 1 < vars_.size(); ++i) {
    if (rng_.Bernoulli(0.5)) terms.push_back(vars_[i]);
  }
  Var loss{-1, 1, 1};
  for (const Var& v : terms) {
    nn::Matrix w = RandomMatrix(v.rows, v.cols);
    const Var wv = Record(fast_.Input(w), ref_.Input(w), v.rows, v.cols);
    const Var prod = Record(fast_.Mul(v.id, wv.id), ref_.Mul(v.id, wv.id),
                            v.rows, v.cols);
    const Var term = Record(fast_.Sum(prod.id), ref_.Sum(prod.id), 1, 1);
    loss = loss.id < 0 ? term
                       : Record(fast_.Add(loss.id, term.id),
                                ref_.Add(loss.id, term.id), 1, 1);
  }
  if (!id_mismatch_.empty()) return id_mismatch_;
  if (fast_.num_nodes() != ref_.num_nodes()) {
    return common::StrFormat("%d nodes, reference %d", fast_.num_nodes(),
                             ref_.num_nodes());
  }
  if (std::optional<std::string> d = CompareTape(-1, "forward")) return d;

  const bool twice = rng_.Bernoulli(0.3);
  for (int pass = 0; pass < (twice ? 2 : 1); ++pass) {
    const char* name = pass == 0 ? "backward" : "second backward";
    fast_.Backward(loss.id);
    ref_.Backward(loss.id);
    if (std::optional<std::string> d = CompareTape(loss.id, name)) return d;
    if (std::optional<std::string> d = CompareParams(name)) return d;
  }
  return CompareAdamSteps();
}

// Two Adam steps, one clipped and one not (in either order); the second
// runs on fresh gradients with exact zeros.
std::optional<std::string> Twin::CompareAdamSteps() {
  std::vector<nn::Parameter*> fast_params;
  std::vector<nn::Parameter*> ref_params;
  for (const ParamPair& p : params_) {
    fast_params.push_back(p.fast.get());
    ref_params.push_back(p.ref.get());
  }
  const double lr = rng_.Uniform(1e-4, 1e-1);
  // 1e-3 always clips a nonzero gradient; 1e9 enables clipping without
  // ever scaling.
  const double clip = rng_.Bernoulli(0.5) ? 1e-3 : 1e9;
  const bool clip_first = rng_.Bernoulli(0.5);
  nn::Adam adam(fast_params, lr, kBeta1, kBeta2, kAdamEps);
  for (int step = 0; step < 2; ++step) {
    const double max_norm = (step == 0) == clip_first ? clip : 0.0;
    if (step == 1) {
      for (ParamPair& p : params_) {
        p.fast->grad = RandomMatrix(p.fast->grad.rows(), p.fast->grad.cols());
        p.ref->grad = p.fast->grad;
      }
    }
    adam.set_max_grad_norm(max_norm);
    adam.Step();
    ReferenceAdamStep(ref_params, step + 1, lr, kBeta1, kBeta2, kAdamEps,
                      max_norm);
    const char* name = step == 0 ? "adam step 1" : "adam step 2";
    if (std::optional<std::string> d = CompareParams(name)) return d;
  }
  return std::nullopt;
}

GruTwin::Var GruTwin::Leaf(int rows, int cols) {
  const Var leaf{NewLeaf(rows, cols), rows, cols};
  vars_.push_back(leaf);
  return leaf;
}

GruTwin::Var GruTwin::WithShape(int rows, int cols) {
  std::vector<size_t> same;
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].rows == rows && vars_[i].cols == cols) same.push_back(i);
  }
  if (!same.empty() && rng_.Bernoulli(0.4)) {
    return vars_[same[Index(same.size())]];
  }
  return Leaf(rows, cols);
}

GruTwin::Cell GruTwin::NewCell(int in, int hid) {
  Cell cell;
  // Now and then one parameter fills two slots of a cell, or a slot and a
  // Param leaf.
  for (int g = 0; g < 3; ++g) {
    for (int s = 0; s < 2; ++s) {
      // Indexes, not references: the second lookup may grow params_.
      const size_t w = ParamOfShape(s == 0 ? in : hid, hid, 0.1);
      const size_t b = ParamOfShape(1, hid, 0.1);
      nn::GruWeights::Affine& fast = s == 0 ? cell.fast.x[g] : cell.fast.h[g];
      nn::GruWeights::Affine& ref = s == 0 ? cell.ref.x[g] : cell.ref.h[g];
      fast = {params_[w].fast.get(), params_[b].fast.get()};
      ref = {params_[w].ref.get(), params_[b].ref.get()};
    }
  }
  return cell;
}

int GruTwin::RefStep(int x, int h, const nn::GruWeights& w) {
  ReferenceGraph& g = ref_;
  auto affine = [&](int in, const nn::GruWeights::Affine& p) {
    const int b = g.Param(p.b);
    return g.Add(g.MatMul(in, g.Param(p.w)), b);
  };
  // Hidden side first, then input side.
  auto gate = [&](int gate_index, int hin) {
    const int lh = affine(hin, w.h[gate_index]);
    const int lx = affine(x, w.x[gate_index]);
    return g.Add(lx, lh);
  };
  const int z = g.Sigmoid(gate(nn::GruWeights::kZ, h));
  const int r = g.Sigmoid(gate(nn::GruWeights::kR, h));
  const int rh = g.Mul(r, h);
  const int n = g.Tanh(gate(nn::GruWeights::kN, rh));
  const int d = g.Sub(n, h);
  return g.Add(h, g.Mul(z, d));
}

std::optional<std::string> GruTwin::CompareVars(bool grads, const char* pass) {
  for (size_t i = 0; i < vars_.size(); ++i) {
    const Var& v = vars_[i];
    std::optional<std::string> diff =
        grads ? CompareBits(fast_.grad(v.id.fast), ref_.grad(v.id.ref),
                            common::StrFormat("%s: grad of var %zu", pass, i))
              : CompareBits(fast_.value(v.id.fast), ref_.value(v.id.ref),
                            common::StrFormat("value of var %zu", i));
    if (diff.has_value()) return diff;
  }
  return std::nullopt;
}

std::optional<std::string> GruTwin::Run(int steps) {
  // Infinities in only some tapes: one in the weights turns most of a chain
  // into NaN, which compares equal to any NaN.
  inf_rate_ = rng_.Bernoulli(0.25) ? 0.01 : 0.0;
  const int rows = Dim();
  const int in = Dim();
  const int hid = rng_.Bernoulli(0.3) ? in : Dim();
  const Cell cells[2] = {NewCell(in, hid), NewCell(in, hid)};
  Var h = Leaf(rows, hid);
  for (int t = 0; t < steps; ++t) {
    // A fresh input, or an earlier one (with in == hid, maybe h itself).
    const Var x = WithShape(rows, in);
    // Sometimes x or h gets a consumer besides the step.
    if (rng_.Bernoulli(0.3)) {
      const Var& a = rng_.Bernoulli(0.5) ? x : h;
      vars_.push_back(Var{{fast_.Tanh(a.id.fast), ref_.Tanh(a.id.ref)},
                          a.rows, a.cols});
    }
    const Cell& c = cells[Index(2)];
    h = Var{{fast_.GruStep(x.id.fast, h.id.fast, c.fast),
             RefStep(x.id.ref, h.id.ref, c.ref)},
            rows, hid};
    vars_.push_back(h);
  }

  // Loss: a sum of <v, W> over the last state and about half of the other
  // vars, with exact zeros in W.
  std::vector<Var> terms = {h};
  for (size_t i = 0; i + 1 < vars_.size(); ++i) {
    if (rng_.Bernoulli(0.5)) terms.push_back(vars_[i]);
  }
  Ids loss{-1, -1};
  for (const Var& v : terms) {
    nn::Matrix w = RandomMatrix(v.rows, v.cols);
    const Ids wv{fast_.Input(w), ref_.Input(w)};
    const Ids term{fast_.Sum(fast_.Mul(v.id.fast, wv.fast)),
                   ref_.Sum(ref_.Mul(v.id.ref, wv.ref))};
    loss = loss.fast < 0 ? term
                         : Ids{fast_.Add(loss.fast, term.fast),
                               ref_.Add(loss.ref, term.ref)};
  }
  if (std::optional<std::string> d = CompareVars(false, "forward")) return d;

  const bool twice = rng_.Bernoulli(0.5);
  for (int pass = 0; pass < (twice ? 2 : 1); ++pass) {
    const char* name = pass == 0 ? "backward" : "second backward";
    fast_.Backward(loss.fast);
    ref_.Backward(loss.ref);
    if (std::optional<std::string> d = CompareVars(true, name)) return d;
    if (std::optional<std::string> d = CompareParams(name)) return d;
  }
  return CompareAdamSteps();
}

}  // namespace

std::optional<std::string> CheckNnKernelEquivalence(uint64_t seed, int ops) {
  TwinTape tape(seed);
  return tape.Run(ops);
}

std::optional<std::string> CheckNnGruEquivalence(uint64_t seed, int steps) {
  GruTwin tape(seed);
  return tape.Run(steps);
}

}  // namespace trap::proptest
