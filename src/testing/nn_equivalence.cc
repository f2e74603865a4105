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

// One random tape recorded op for op on nn::Graph and on ReferenceGraph.
// Both append the same nodes in the same order, so a node has one id on
// both tapes.
class TwinTape {
 public:
  explicit TwinTape(uint64_t seed) : rng_(seed) {}

  std::optional<std::string> Run(int ops);

 private:
  struct Var {
    int id;
    int rows;
    int cols;
  };
  struct ParamPair {
    std::unique_ptr<nn::Parameter> fast;
    std::unique_ptr<nn::Parameter> ref;
  };

  int Dim() { return static_cast<int>(rng_.UniformInt(1, kMaxDim)); }
  size_t Index(size_t n) {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
  }
  // Gaussian entries with about one in five an exact zero of either sign
  // and about one in a hundred an infinity.
  nn::Matrix RandomMatrix(int rows, int cols);
  // An existing parameter of this shape (usually, when there is one) or a
  // fresh one; returns its index in params_.
  size_t ParamOfShape(int rows, int cols);
  Var Record(int fast_id, int ref_id, int rows, int cols);
  Var Leaf(int rows, int cols);
  // An existing node of this shape (half the time, when there is one) or a
  // fresh leaf.
  Var WithShape(int rows, int cols);
  void Step();
  std::optional<std::string> CompareTape(int loss, const char* pass);
  std::optional<std::string> CompareParams(const char* pass);

  common::Rng rng_;
  nn::Graph fast_;
  ReferenceGraph ref_;
  std::vector<ParamPair> params_;
  std::vector<Var> vars_;
  std::string id_mismatch_;
};

nn::Matrix TwinTape::RandomMatrix(int rows, int cols) {
  nn::Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    if (rng_.Bernoulli(0.2)) {
      m.data()[i] = rng_.Bernoulli(0.5) ? 0.0 : -0.0;
    } else if (rng_.Bernoulli(0.01)) {
      // A rare infinity makes 0 * inf = NaN observable, so a kernel that
      // drops one of the reference's zero skips cannot pass.
      m.data()[i] = rng_.Bernoulli(0.5) ? kInf : -kInf;
    } else {
      m.data()[i] = rng_.Gaussian();
    }
  }
  return m;
}

size_t TwinTape::ParamOfShape(int rows, int cols) {
  std::vector<size_t> same;
  for (size_t i = 0; i < params_.size(); ++i) {
    const nn::Matrix& v = params_[i].fast->value;
    if (v.rows() == rows && v.cols() == cols) same.push_back(i);
  }
  if (!same.empty() && rng_.Bernoulli(0.6)) return same[Index(same.size())];
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

TwinTape::Var TwinTape::Leaf(int rows, int cols) {
  switch (rng_.UniformInt(0, 2)) {
    case 0: {
      nn::Matrix m = RandomMatrix(rows, cols);
      return Record(fast_.Input(m), ref_.Input(m), rows, cols);
    }
    case 1: {
      const ParamPair& p = params_[ParamOfShape(rows, cols)];
      return Record(fast_.Param(p.fast.get()), ref_.Param(p.ref.get()), rows,
                    cols);
    }
    default: {
      const ParamPair& p = params_[ParamOfShape(Dim(), cols)];
      std::vector<int> ids(static_cast<size_t>(rows));
      for (int& id : ids) {
        id = static_cast<int>(rng_.UniformInt(0, p.fast->value.rows() - 1));
      }
      return Record(fast_.Gather(p.fast.get(), ids),
                    ref_.Gather(p.ref.get(), ids), rows, cols);
    }
  }
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

std::optional<std::string> TwinTape::CompareParams(const char* pass) {
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

  // Two Adam steps, one clipped and one not (in either order); the second
  // runs on fresh gradients with exact zeros.
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

}  // namespace

std::optional<std::string> CheckNnKernelEquivalence(uint64_t seed, int ops) {
  TwinTape tape(seed);
  return tape.Run(ops);
}

}  // namespace trap::proptest
