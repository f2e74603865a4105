#include "nn/graph.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ranges>

namespace trap::nn {

// Every kernel below walks raw row pointers. Shapes and indices are checked
// once, when the op is added; the element loops then perform exactly the
// floating-point operations of the plain at()-based formulation, in the same
// order, so results are bit-identical to it (the nn-kernel-equivalence
// oracle in src/testing holds the two to that).

namespace {

double* Row(Matrix& m, int r) {
  return m.data() + static_cast<size_t>(r) * static_cast<size_t>(m.cols());
}
const double* Row(const Matrix& m, int r) {
  return m.data() + static_cast<size_t>(r) * static_cast<size_t>(m.cols());
}

// Runs body(i) for every i in [0, n), two indices per iteration. In the
// kernels below, whose buffers are __restrict parameters, this lets the
// compiler use 16-byte vector instructions at -O2. Vector lanes perform the
// same IEEE operations as scalar code, so every element still gets exactly
// the scalar expression.
template <typename Body>
inline void ForPairs(int n, Body body) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    body(i);
    body(i + 1);
  }
  for (; i < n; ++i) body(i);
}

// Elementwise kernels. The written buffer never overlaps a read one.

// y += x
void AddTo(double* __restrict y, const double* __restrict x, int n) {
  ForPairs(n, [=](int i) { y[i] += x[i]; });
}

// y += c
void AddConstTo(double* __restrict y, double c, int n) {
  ForPairs(n, [=](int i) { y[i] += c; });
}

// y += a * x
void AddScaledTo(double* __restrict y, double a, const double* __restrict x,
                 int n) {
  ForPairs(n, [=](int i) { y[i] += a * x[i]; });
}

// y += a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3, added left to right: the four
// updates AddScaledTo would make one after another, in one sweep over y.
void AddScaled4To(double* __restrict y, const double* a,
                  const double* __restrict b0, const double* __restrict b1,
                  const double* __restrict b2, const double* __restrict b3,
                  int n) {
  const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  ForPairs(n, [=](int j) {
    y[j] = y[j] + a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
  });
}

// y += x * z
void AddProductTo(double* __restrict y, const double* __restrict x,
                  const double* __restrict z, int n) {
  ForPairs(n, [=](int i) { y[i] += x[i] * z[i]; });
}

// y *= x
void MulBy(double* __restrict y, const double* __restrict x, int n) {
  ForPairs(n, [=](int i) { y[i] *= x[i]; });
}

// y *= s
void ScaleBy(double* __restrict y, double s, int n) {
  ForPairs(n, [=](int i) { y[i] *= s; });
}

// dx += dy * (1 - y^2)
void TanhBackward(double* __restrict dx, const double* __restrict dy,
                  const double* __restrict y, int n) {
  ForPairs(n, [=](int i) { dx[i] += dy[i] * (1.0 - y[i] * y[i]); });
}

// dx += dy * y * (1 - y)
void SigmoidBackward(double* __restrict dx, const double* __restrict dy,
                     const double* __restrict y, int n) {
  ForPairs(n, [=](int i) { dx[i] += dy[i] * y[i] * (1.0 - y[i]); });
}

// Returns true when dOut row `grow` holds no zero. Otherwise collects its
// nonzero columns, ascending, into `nz`.
bool NonzeroColumns(const double* grow, int m, std::vector<int>& nz) {
  nz.clear();
  if (std::find(grow, grow + m, 0.0) == grow + m) return true;
  for (int j = 0; j < m; ++j) {
    if (grow[j] != 0.0) nz.push_back(j);
  }
  return false;
}

// MatMul's dB pass for one row i: dB[k, :] += A[i, k] * dOut[i, :] over the
// nonzero dOut entries (every entry when `dense`, else those in `nz`). A zero
// A[i, k] is skipped too when the row of dOut is finite: its terms are then
// all +-0, and a gradient buffer, which starts at +0 and is only ever added
// to, never holds -0, so adding them changes nothing. An infinite dOut entry
// makes 0 * inf = NaN, which must still land.
void AddOuterRow(const double* arow, const double* grow, int inner, int m,
                 bool dense, const std::vector<int>& nz, Matrix& db) {
  if (!dense && nz.empty()) return;
  const bool finite =
      std::all_of(grow, grow + m, [](double g) { return std::isfinite(g); });
  for (int k = 0; k < inner; ++k) {
    if (finite && arow[k] == 0.0) continue;
    double* dbrow = Row(db, k);
    if (dense) {
      AddScaledTo(dbrow, arow[k], grow, m);
      continue;
    }
    for (int j : nz) dbrow[j] += arow[k] * grow[j];
  }
}

// MatMul's forward for one row: orow[j] += a[k] * B[k, j] over the nonzero
// a[k] in ascending k, four rows of B per sweep over orow.
void AddRowTimes(double* orow, const double* arow, int inner,
                 const Matrix& B) {
  const int m = B.cols();
  int ks[4];
  double as[4];
  int pending = 0;
  for (int k = 0; k < inner; ++k) {
    if (arow[k] == 0.0) continue;
    ks[pending] = k;
    as[pending] = arow[k];
    if (++pending < 4) continue;
    pending = 0;
    AddScaled4To(orow, as, Row(B, ks[0]), Row(B, ks[1]), Row(B, ks[2]),
                 Row(B, ks[3]), m);
  }
  for (int t = 0; t < pending; ++t) {
    AddScaledTo(orow, as[t], Row(B, ks[t]), m);
  }
}

// MatMul's dA pass for one row: darow[k] += dOut[i, j] * B[k, j] over the
// nonzero dOut entries of the row in ascending j (every entry when `dense`,
// else those in `nz`). Four k at a time: four independent accumulation
// chains.
void AddRowTimesTransposed(double* darow, const double* grow, const Matrix& B,
                           bool dense, const std::vector<int>& nz) {
  const int inner = B.rows(), m = B.cols();
  auto pass = [&](const auto& js) {
    int k = 0;
    for (; k + 4 <= inner; k += 4) {
      const double* b0 = Row(B, k);
      const double* b1 = b0 + m;
      const double* b2 = b1 + m;
      const double* b3 = b2 + m;
      double s0 = darow[k], s1 = darow[k + 1];
      double s2 = darow[k + 2], s3 = darow[k + 3];
      for (int j : js) {
        const double g = grow[j];
        s0 += g * b0[j];
        s1 += g * b1[j];
        s2 += g * b2[j];
        s3 += g * b3[j];
      }
      darow[k] = s0;
      darow[k + 1] = s1;
      darow[k + 2] = s2;
      darow[k + 3] = s3;
    }
    for (; k < inner; ++k) {
      const double* brow = Row(B, k);
      double acc = darow[k];
      for (int j : js) acc += grow[j] * brow[j];
      darow[k] = acc;
    }
  };
  dense ? pass(std::views::iota(0, m)) : pass(nz);
}

// A kGru node has the bits of this 35-node chain, which the
// nn-gru-equivalence oracle builds on ReferenceGraph. Per gate, hidden side
// first, then input side:
//   z: Param bhz, Param Whz, MatMul(h, Whz), Add; the same for x with
//      bxz, Wxz; Add(x side, h side); Sigmoid;
//   r: the same with bhr, Whr, bxr, Wxr; Sigmoid;
//   n: Mul(r, h); the hidden side on r*h with bhn, Whn; the input side with
//      bxn, Wxn; Add; Tanh;
// then Scale(h, -1), Add(n, -h), Mul(z, n - h), Add(h, z * (n - h)).
// Backward visits that chain last node first. Its intermediate nodes'
// gradient buffers are the planes below, each R x H, in one
// (kGruPlanes x R*H) matrix: gate g's output and pre-activation sum, and
// per side s (0 = x, 1 = h) the affine map's value after and before its
// bias Add, then r*h, n - h, -h and z * (n - h).
constexpr int kGruOut = 0;   // + g
constexpr int kGruPre = 3;   // + g
constexpr int kGruL = 6;     // + 2 * g + s
constexpr int kGruM = 12;    // + 2 * g + s
constexpr int kGruRh = 18;
constexpr int kGruD = 19;
constexpr int kGruNegH = 20;
constexpr int kGruZd = 21;
constexpr int kGruPlanes = 22;
// Planes of GruNode::saved: z, r and n at their gate's index, then these.
constexpr int kSavedRh = 3;
constexpr int kSavedD = 4;
constexpr int kSavedPlanes = 5;

}  // namespace

Graph::VarId Graph::Push(Op op, Matrix value, VarId a, VarId b) {
  Node& n = nodes_.emplace_back();
  n.op = op;
  n.a = a;
  n.b = b;
  n.value = std::move(value);
  return num_nodes() - 1;
}

Graph::VarId Graph::Input(Matrix value) {
  return Push(Op::kInput, std::move(value));
}

Graph::VarId Graph::Param(Parameter* p) {
  VarId id = Push(Op::kParam, Matrix());
  nodes_.back().param = p;
  return id;
}

Graph::VarId Graph::Gather(Parameter* p, const std::vector<int>& ids) {
  const Matrix& table = p->value;
  const int rows = static_cast<int>(ids.size());
  const int cols = table.cols();
  for (int src : ids) TRAP_CHECK(src >= 0 && src < table.rows());
  Matrix out(rows, cols);
  for (int i = 0; i < rows; ++i) {
    std::copy_n(Row(table, ids[static_cast<size_t>(i)]), cols, Row(out, i));
  }
  const int offset = static_cast<int>(gather_ids_.size());
  gather_ids_.insert(gather_ids_.end(), ids.begin(), ids.end());
  VarId id = Push(Op::kGather, std::move(out));
  nodes_.back().param = p;
  nodes_.back().row = offset;
  return id;
}

Graph::VarId Graph::MatMul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.cols() == B.rows());
  const int n = A.rows(), inner = A.cols(), m = B.cols();
  Matrix out(n, m);
  for (int i = 0; i < n; ++i) AddRowTimes(Row(out, i), Row(A, i), inner, B);
  return Push(Op::kMatMul, std::move(out), a, b);
}

Graph::VarId Graph::Transpose(VarId a) {
  const Matrix& A = value(a);
  Matrix out(A.cols(), A.rows());
  double* o = out.data();
  const int rows = A.rows(), cols = A.cols();
  for (int i = 0; i < rows; ++i) {
    const double* arow = Row(A, i);
    for (int j = 0; j < cols; ++j) {
      o[static_cast<size_t>(j) * rows + i] = arow[j];
    }
  }
  return Push(Op::kTranspose, std::move(out), a);
}

Graph::VarId Graph::Add(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  const bool broadcast = B.rows() == 1 && A.rows() != 1;
  TRAP_CHECK(A.cols() == B.cols());
  TRAP_CHECK(broadcast || A.rows() == B.rows());
  Matrix out = A;
  for (int i = 0; i < A.rows(); ++i) {
    AddTo(Row(out, i), Row(B, broadcast ? 0 : i), A.cols());
  }
  VarId id = Push(Op::kAdd, std::move(out), a, b);
  nodes_.back().broadcast = broadcast;
  return id;
}

Graph::VarId Graph::Sub(VarId a, VarId b) {
  return Add(a, Scale(b, -1.0));
}

Graph::VarId Graph::Mul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows() && A.cols() == B.cols());
  Matrix out = A;
  MulBy(out.data(), B.data(), out.size());
  return Push(Op::kMul, std::move(out), a, b);
}

Graph::VarId Graph::Scale(VarId a, double s) {
  Matrix out = value(a);
  ScaleBy(out.data(), s, out.size());
  VarId id = Push(Op::kScale, std::move(out), a);
  nodes_.back().scale = s;
  return id;
}

Graph::VarId Graph::Tanh(VarId a) {
  Matrix out = value(a);
  double* o = out.data();
  for (int i = 0; i < out.size(); ++i) o[i] = std::tanh(o[i]);
  return Push(Op::kTanh, std::move(out), a);
}

Graph::VarId Graph::Sigmoid(VarId a) {
  Matrix out = value(a);
  double* o = out.data();
  for (int i = 0; i < out.size(); ++i) o[i] = 1.0 / (1.0 + std::exp(-o[i]));
  return Push(Op::kSigmoid, std::move(out), a);
}

Graph::VarId Graph::Relu(VarId a) {
  Matrix out = value(a);
  double* o = out.data();
  for (int i = 0; i < out.size(); ++i) o[i] = std::max(0.0, o[i]);
  return Push(Op::kRelu, std::move(out), a);
}

Graph::VarId Graph::Softmax(VarId a) {
  Matrix out = value(a);
  const int cols = out.cols();
  TRAP_CHECK(out.rows() == 0 || cols > 0);
  for (int i = 0; i < out.rows(); ++i) {
    double* o = Row(out, i);
    double mx = o[0];
    for (int j = 1; j < cols; ++j) mx = std::max(mx, o[j]);
    double sum = 0.0;
    for (int j = 0; j < cols; ++j) {
      o[j] = std::exp(o[j] - mx);
      sum += o[j];
    }
    for (int j = 0; j < cols; ++j) o[j] /= sum;
  }
  return Push(Op::kSoftmax, std::move(out), a);
}

Graph::VarId Graph::LogSoftmax(VarId a) {
  Matrix out = value(a);
  const int cols = out.cols();
  TRAP_CHECK(out.rows() == 0 || cols > 0);
  for (int i = 0; i < out.rows(); ++i) {
    double* o = Row(out, i);
    double mx = o[0];
    for (int j = 1; j < cols; ++j) mx = std::max(mx, o[j]);
    double sum = 0.0;
    for (int j = 0; j < cols; ++j) sum += std::exp(o[j] - mx);
    double lse = mx + std::log(sum);
    for (int j = 0; j < cols; ++j) o[j] -= lse;
  }
  return Push(Op::kLogSoftmax, std::move(out), a);
}

Graph::VarId Graph::ConcatCols(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows());
  const int ac = A.cols(), bc = B.cols();
  Matrix out(A.rows(), ac + bc);
  for (int i = 0; i < A.rows(); ++i) {
    double* orow = Row(out, i);
    std::copy_n(Row(A, i), ac, orow);
    std::copy_n(Row(B, i), bc, orow + ac);
  }
  VarId id = Push(Op::kConcatCols, std::move(out), a, b);
  nodes_.back().col = ac;
  return id;
}

Graph::VarId Graph::Pick(VarId a, int r, int c) {
  const Matrix& A = value(a);
  TRAP_CHECK(r >= 0 && r < A.rows() && c >= 0 && c < A.cols());
  Matrix out(1, 1);
  out.data()[0] = Row(A, r)[c];
  VarId id = Push(Op::kPick, std::move(out), a);
  nodes_.back().row = r;
  nodes_.back().col = c;
  return id;
}

Graph::VarId Graph::Sum(VarId a) {
  const Matrix& A = value(a);
  const double* av = A.data();
  double total = 0.0;
  for (int i = 0; i < A.size(); ++i) total += av[i];
  Matrix out(1, 1);
  out.data()[0] = total;
  return Push(Op::kSum, std::move(out), a);
}

Graph::VarId Graph::Mean(VarId a) {
  int count = value(a).size();
  TRAP_CHECK(count > 0);
  return Scale(Sum(a), 1.0 / count);
}

Graph::VarId Graph::LayerNorm(VarId a, Parameter* gain, Parameter* bias) {
  const Matrix& A = value(a);
  TRAP_CHECK(gain->value.rows() == 1 && gain->value.cols() == A.cols());
  TRAP_CHECK(bias->value.rows() == 1 && bias->value.cols() == A.cols());
  constexpr double kEps = 1e-5;
  const int cols = A.cols();
  const double* gv = gain->value.data();
  const double* bv = bias->value.data();
  // normalized = (x - mean) / sqrt(var + eps), out = normalized * g + b.
  // aux row i holds normalized[i, :] followed by inv_std[i].
  Matrix aux(A.rows(), cols + 1);
  Matrix out(A.rows(), cols);
  for (int i = 0; i < A.rows(); ++i) {
    const double* x = Row(A, i);
    double* norm = Row(aux, i);
    double mean = 0.0;
    for (int j = 0; j < cols; ++j) mean += x[j];
    mean /= cols;
    double var = 0.0;
    for (int j = 0; j < cols; ++j) var += (x[j] - mean) * (x[j] - mean);
    var /= cols;
    const double inv_std = 1.0 / std::sqrt(var + kEps);
    norm[cols] = inv_std;
    for (int j = 0; j < cols; ++j) norm[j] = (x[j] - mean) * inv_std;
  }
  for (int i = 0; i < A.rows(); ++i) {
    const double* norm = Row(aux, i);
    double* o = Row(out, i);
    for (int j = 0; j < cols; ++j) o[j] = norm[j] * gv[j] + bv[j];
  }
  VarId id = Push(Op::kLayerNorm, std::move(out), a);
  Node& n = nodes_.back();
  n.param = gain;
  n.bias = bias;
  n.row = static_cast<int>(aux_.size());
  aux_.push_back(std::move(aux));
  return id;
}

Graph::VarId Graph::GruStep(VarId x, VarId h, const GruWeights& weights) {
  const Matrix& X = value(x);
  const Matrix& Hm = value(h);
  const int rows = X.rows(), in = X.cols(), hid = Hm.cols();
  TRAP_CHECK(Hm.rows() == rows);
  for (int g = 0; g < 3; ++g) {
    for (const auto& [p, inner] : {std::pair{weights.x[g], in},
                                   std::pair{weights.h[g], hid}}) {
      TRAP_CHECK(p.w->value.rows() == inner && p.w->value.cols() == hid);
      TRAP_CHECK(p.b->value.rows() == 1 && p.b->value.cols() == hid);
    }
  }
  const int plane = rows * hid;
  Matrix saved(kSavedPlanes, plane);
  Matrix out(rows, hid);
  gru_row_.resize(2 * static_cast<size_t>(hid));
  double* ax = gru_row_.data();
  double* ah = ax + hid;
  // dst = arow * p.w + p.b, as the chain's MatMul and bias Add compute it.
  auto affine = [hid](double* dst, const double* arow, int inner,
                      const GruWeights::Affine& p) {
    std::fill_n(dst, hid, 0.0);
    AddRowTimes(dst, arow, inner, p.w->value);
    AddTo(dst, p.b->value.data(), hid);
  };
  for (int i = 0; i < rows; ++i) {
    const double* xrow = Row(X, i);
    const double* hrow = Row(Hm, i);
    const size_t at = static_cast<size_t>(i) * static_cast<size_t>(hid);
    double* z = Row(saved, GruWeights::kZ) + at;
    double* r = Row(saved, GruWeights::kR) + at;
    double* n = Row(saved, GruWeights::kN) + at;
    double* rh = Row(saved, kSavedRh) + at;
    double* d = Row(saved, kSavedD) + at;
    double* o = Row(out, i);
    affine(ax, xrow, in, weights.x[GruWeights::kZ]);
    affine(ah, hrow, hid, weights.h[GruWeights::kZ]);
    for (int j = 0; j < hid; ++j) z[j] = 1.0 / (1.0 + std::exp(-(ax[j] + ah[j])));
    affine(ax, xrow, in, weights.x[GruWeights::kR]);
    affine(ah, hrow, hid, weights.h[GruWeights::kR]);
    for (int j = 0; j < hid; ++j) {
      r[j] = 1.0 / (1.0 + std::exp(-(ax[j] + ah[j])));
      rh[j] = r[j] * hrow[j];
    }
    affine(ax, xrow, in, weights.x[GruWeights::kN]);
    affine(ah, rh, hid, weights.h[GruWeights::kN]);
    for (int j = 0; j < hid; ++j) {
      n[j] = std::tanh(ax[j] + ah[j]);
      d[j] = n[j] + hrow[j] * -1.0;
      o[j] = hrow[j] + z[j] * d[j];
    }
  }
  VarId id = Push(Op::kGru, std::move(out), x, h);
  nodes_.back().row = static_cast<int>(gru_.size());
  gru_.push_back(GruNode{weights, std::move(saved), Matrix(), {}});
  return id;
}

Matrix Graph::grad(VarId id) const {
  at(id);  // range check
  const size_t i = static_cast<size_t>(id);
  if (i < fold_.size() && fold_[i] >= 0) {
    // A folded leaf never had a buffer: rebuild the one it would have had.
    const Matrix& v = ValueOf(nodes_[i]);
    Matrix g(v.rows(), v.cols());
    std::vector<int> nz;
    AddFoldedTerms(id, g, nz);
    return g;
  }
  return i < grads_.size() ? grads_[i] : Matrix();
}

// A Param leaf folds when its one consumer adds a single term per element
// of its gradient: a 1-row MatMul or a 1-row Add (no broadcast) taking it
// as `b`. Its buffer would hold 0.0 + t, and Parameter::grad never holds -0
// (it starts at +0, Adam and ZeroGrad write +0, and a round-to-nearest sum
// starting at +0 never becomes -0), so adding t itself at the leaf's visit
// leaves the same bits as adding the buffer there.
void Graph::FoldParamLeaves(VarId loss) {
  const size_t count = static_cast<size_t>(loss) + 1;
  std::vector<int> uses(count, 0);
  for (size_t id = 0; id < count; ++id) {
    const Node& n = nodes_[id];
    if (n.a >= 0) ++uses[static_cast<size_t>(n.a)];
    if (n.b >= 0) ++uses[static_cast<size_t>(n.b)];
  }
  fold_.assign(count, -1);
  for (size_t id = 0; id < count; ++id) {
    const Node& n = nodes_[id];
    const bool single_term =
        n.op == Op::kMatMul || (n.op == Op::kAdd && !n.broadcast);
    if (!single_term || n.a == n.b) continue;
    const size_t b = static_cast<size_t>(n.b);
    if (nodes_[b].op == Op::kParam && uses[b] == 1 &&
        ValueOf(nodes_[static_cast<size_t>(n.a)]).rows() == 1) {
      fold_[b] = static_cast<VarId>(id);
    }
  }
}

// Adds folded leaf `leaf`'s terms into `dst`: exactly the additions its
// consumer's backward pass would have made into its buffer.
void Graph::AddFoldedTerms(VarId leaf, Matrix& dst,
                           std::vector<int>& nz) const {
  const size_t consumer = static_cast<size_t>(fold_[static_cast<size_t>(leaf)]);
  const Node& c = nodes_[consumer];
  const Matrix& gc = grads_[consumer];
  if (c.op == Op::kAdd) {
    AddTo(dst.data(), gc.data(), gc.size());
    return;
  }
  const Matrix& A = ValueOf(nodes_[static_cast<size_t>(c.a)]);
  const int m = gc.cols();
  AddOuterRow(A.data(), gc.data(), A.cols(), m,
              NonzeroColumns(gc.data(), m, nz), nz, dst);
}

void Graph::Backward(VarId loss) {
  TRAP_CHECK(loss >= 0 && loss < num_nodes());
  TRAP_CHECK(value(loss).rows() == 1 && value(loss).cols() == 1);
  // Gradients are allocated here, not per op, so inference-only tapes never
  // pay for them. A second Backward keeps what the first accumulated: it
  // first gives each folded leaf the buffer it would have had, then runs
  // every node buffered.
  const size_t count = static_cast<size_t>(loss) + 1;
  if (grads_.empty()) {
    FoldParamLeaves(loss);
  } else {
    for (size_t id = 0; id < fold_.size(); ++id) {
      if (fold_[id] >= 0) grads_[id] = grad(static_cast<VarId>(id));
    }
    fold_.assign(count, -1);
  }
  if (grads_.size() < count) grads_.resize(count);
  for (size_t id = 0; id < count; ++id) {
    if (fold_[id] >= 0) continue;
    const Matrix& v = ValueOf(nodes_[id]);
    Matrix& g = grads_[id];
    if (g.rows() != v.rows() || g.cols() != v.cols()) {
      g = Matrix(v.rows(), v.cols());
    }
  }
  grads_[static_cast<size_t>(loss)].data()[0] = 1.0;
  // Nodes were appended in topological order; walk backwards.
  for (int id = loss; id >= 0; --id) BackwardNode(id);
}

// Adds node `id`'s gradient contribution to its inputs' gradients or, for a
// Param or Gather leaf, folds it into Parameter::grad. A node is never its
// own input, so its gradient never aliases the buffer being written. When
// a == b, every element still receives the a-side contribution before the
// b-side one, as in the interleaved formulation.
void Graph::BackwardNode(VarId id) {
  const Node& n = nodes_[static_cast<size_t>(id)];
  const Matrix& gn = grads_[static_cast<size_t>(id)];
  const double* go = gn.data();
  const int size = gn.size();
  switch (n.op) {
    case Op::kInput:
      return;
    case Op::kParam:
      if (fold_[static_cast<size_t>(id)] >= 0) {
        AddFoldedTerms(id, n.param->grad, nz_);
        return;
      }
      AddTo(n.param->grad.data(), go, size);
      return;
    case Op::kGather: {
      const int* ids = gather_ids_.data() + n.row;
      for (int i = 0; i < gn.rows(); ++i) {
        AddTo(Row(n.param->grad, ids[i]), Row(gn, i), gn.cols());
      }
      return;
    }
    case Op::kGru:
      BackwardGru(n, gn);
      return;
    default:
      break;
  }

  const Node& na = nodes_[static_cast<size_t>(n.a)];
  Matrix& gna = grads_[static_cast<size_t>(n.a)];
  double* ga = gna.data();
  switch (n.op) {
    case Op::kMatMul: {
      const Node& nb = nodes_[static_cast<size_t>(n.b)];
      Matrix& gnb = grads_[static_cast<size_t>(n.b)];
      const Matrix& A = ValueOf(na);
      const Matrix& B = ValueOf(nb);
      const int rows = A.rows(), inner = A.cols(), m = B.cols();
      // dA += dOut * B^T ; dB += A^T * dOut
      if (n.a == n.b) {
        // MatMul(x, x): both gradients land in one buffer, so keep the
        // interleaved order in which the two contributions meet.
        for (int i = 0; i < rows; ++i) {
          const double* grow = Row(gn, i);
          const double* arow = Row(A, i);
          double* darow = Row(gna, i);
          for (int j = 0; j < m; ++j) {
            const double g = grow[j];
            if (g == 0.0) continue;
            for (int k = 0; k < inner; ++k) {
              darow[k] += g * Row(B, k)[j];
              Row(gna, k)[j] += arow[k] * g;
            }
          }
        }
        return;
      }
      // Two passes over contiguous rows, each visiting only the nonzero
      // dOut entries of the row (ascending). dA[i, k] sums its terms in
      // ascending j and dB[k, j] in ascending i, as the interleaved loop did.
      // A folded `b` gets its dB terms at its own visit instead.
      const bool fold_b = fold_[static_cast<size_t>(n.b)] == id;
      for (int i = 0; i < rows; ++i) {
        const double* grow = Row(gn, i);
        const bool dense = NonzeroColumns(grow, m, nz_);
        AddRowTimesTransposed(Row(gna, i), grow, B, dense, nz_);
        if (!fold_b) AddOuterRow(Row(A, i), grow, inner, m, dense, nz_, gnb);
      }
      return;
    }
    case Op::kTranspose: {
      const int rows = gna.rows(), cols = gna.cols();
      for (int i = 0; i < rows; ++i) {
        double* darow = Row(gna, i);
        for (int j = 0; j < cols; ++j) {
          darow[j] += go[static_cast<size_t>(j) * rows + i];
        }
      }
      return;
    }
    case Op::kAdd: {
      AddTo(ga, go, size);
      if (fold_[static_cast<size_t>(n.b)] == id) return;
      Matrix& gb = grads_[static_cast<size_t>(n.b)];
      for (int i = 0; i < gn.rows(); ++i) {
        AddTo(Row(gb, n.broadcast ? 0 : i), Row(gn, i), gn.cols());
      }
      return;
    }
    case Op::kMul: {
      const Node& nb = nodes_[static_cast<size_t>(n.b)];
      Matrix& gnb = grads_[static_cast<size_t>(n.b)];
      AddProductTo(ga, go, ValueOf(nb).data(), size);
      AddProductTo(gnb.data(), go, ValueOf(na).data(), size);
      return;
    }
    case Op::kScale:
      AddScaledTo(ga, n.scale, go, size);
      return;
    case Op::kTanh:
      TanhBackward(ga, go, n.value.data(), size);
      return;
    case Op::kSigmoid:
      SigmoidBackward(ga, go, n.value.data(), size);
      return;
    case Op::kRelu: {
      const double* y = n.value.data();
      for (int i = 0; i < size; ++i) {
        if (y[i] > 0.0) ga[i] += go[i];
      }
      return;
    }
    case Op::kSoftmax: {
      const int cols = n.value.cols();
      for (int i = 0; i < n.value.rows(); ++i) {
        const double* grow = Row(gn, i);
        const double* y = Row(n.value, i);
        double* darow = Row(gna, i);
        double dot = 0.0;
        for (int j = 0; j < cols; ++j) dot += grow[j] * y[j];
        for (int j = 0; j < cols; ++j) darow[j] += y[j] * (grow[j] - dot);
      }
      return;
    }
    case Op::kLogSoftmax: {
      const int cols = n.value.cols();
      for (int i = 0; i < n.value.rows(); ++i) {
        const double* grow = Row(gn, i);
        const double* y = Row(n.value, i);
        double* darow = Row(gna, i);
        double gsum = 0.0;
        for (int j = 0; j < cols; ++j) gsum += grow[j];
        for (int j = 0; j < cols; ++j) {
          darow[j] += grow[j] - std::exp(y[j]) * gsum;
        }
      }
      return;
    }
    case Op::kConcatCols: {
      Matrix& gb = grads_[static_cast<size_t>(n.b)];
      const int ac = n.col;
      for (int i = 0; i < gn.rows(); ++i) {
        const double* grow = Row(gn, i);
        AddTo(Row(gna, i), grow, ac);
        AddTo(Row(gb, i), grow + ac, gb.cols());
      }
      return;
    }
    case Op::kPick:
      Row(gna, n.row)[n.col] += go[0];
      return;
    case Op::kSum:
      AddConstTo(ga, go[0], gna.size());
      return;
    case Op::kLayerNorm: {
      const int cols = n.value.cols();
      const Matrix& aux = aux_[static_cast<size_t>(n.row)];
      double* gain_grad = n.param->grad.data();
      double* bias_grad = n.bias->grad.data();
      const double* gain = n.param->value.data();
      std::vector<double> dnorm(static_cast<size_t>(cols));
      for (int i = 0; i < n.value.rows(); ++i) {
        const double* grow = Row(gn, i);
        const double* norm = Row(aux, i);
        const double inv_std = norm[cols];
        // d norm and parameter grads.
        double sum_dnorm = 0.0, sum_dnorm_norm = 0.0;
        for (int j = 0; j < cols; ++j) {
          const double g = grow[j];
          gain_grad[j] += g * norm[j];
          bias_grad[j] += g;
          dnorm[static_cast<size_t>(j)] = g * gain[j];
          sum_dnorm += dnorm[static_cast<size_t>(j)];
          sum_dnorm_norm += dnorm[static_cast<size_t>(j)] * norm[j];
        }
        double* darow = Row(gna, i);
        for (int j = 0; j < cols; ++j) {
          darow[j] += inv_std * (dnorm[static_cast<size_t>(j)] -
                                 sum_dnorm / cols -
                                 norm[j] * sum_dnorm_norm / cols);
        }
      }
      return;
    }
    case Op::kInput:
    case Op::kParam:
    case Op::kGather:
    case Op::kGru:
      return;
  }
}

// The chain's backward, node by node (see kGruOut), on the planes of
// GruNode::grads. Its Param leaves fold as Backward folds any leaf: on the
// node's first pass with one row, each weight and bias term goes straight
// into Parameter::grad at its leaf's turn; with more rows, through a zeroed
// buffer filled in ascending row order. A later pass first rebuilds those
// buffers from the planes, as Backward rebuilds a folded leaf's buffer, and
// keeps them from then on.
void Graph::BackwardGru(const Node& n, const Matrix& gn) {
  GruNode& st = gru_[static_cast<size_t>(n.row)];
  const GruWeights& w = st.w;
  const Matrix& sv = st.saved;
  const Matrix& X = ValueOf(nodes_[static_cast<size_t>(n.a)]);
  const Matrix& Hm = ValueOf(nodes_[static_cast<size_t>(n.b)]);
  // x and h may be one node, so dx and dh may be one buffer: every addition
  // below lands in the order the chain makes it.
  double* dx = grads_[static_cast<size_t>(n.a)].data();
  double* dh = grads_[static_cast<size_t>(n.b)].data();
  const int rows = gn.rows(), hid = gn.cols(), size = gn.size();
  const bool first = st.grads.rows() == 0;
  const bool fold = first && rows == 1;
  if (first) st.grads = Matrix(kGruPlanes, size);
  auto plane = [&](int p) { return Row(st.grads, p); };
  // Affine map (g, s) reads x, h or r*h, whose gradient buffer its MatMul's
  // dA pass adds to; `row` offsets a row of either.
  struct Input {
    const double* a;
    int inner;
    double* da;
    size_t row(int i) const { return static_cast<size_t>(i) * inner; }
  };
  auto input = [&](int g, int s) -> Input {
    if (s == 0) return {X.data(), X.cols(), dx};
    if (g == GruWeights::kN) return {Row(sv, kSavedRh), hid, plane(kGruRh)};
    return {Hm.data(), hid, dh};
  };
  // Map (g, s)'s leaf terms from the planes, in ascending row order: the
  // weight's from its MatMul's gradient, the bias's from its Add's.
  auto leaf_terms = [&](int g, int s, Matrix& wdst, Matrix& bdst) {
    const Input in = input(g, s);
    const double* l = plane(kGruL + 2 * g + s);
    const double* m = plane(kGruM + 2 * g + s);
    for (int i = 0; i < rows; ++i) {
      const double* grow = m + i * hid;
      AddOuterRow(in.a + in.row(i), grow, in.inner, hid,
                  NonzeroColumns(grow, hid, nz_), nz_, wdst);
      AddTo(bdst.data(), l + i * hid, hid);
    }
  };
  // The chain visits the affine maps n/x, n/h, r/x, r/h, z/x, z/h; map t's
  // weight and bias leaves are leaves[2 * t] and leaves[2 * t + 1].
  auto leaf = [&](int g, int s, int bias) -> Matrix& {
    return st.leaves[static_cast<size_t>(4 * (GruWeights::kN - g) + 2 * s +
                                         bias)];
  };
  if (!first && st.leaves.empty()) {
    st.leaves.resize(12);
    for (int g = 0; g < 3; ++g) {
      for (int s = 0; s < 2; ++s) {
        leaf(g, s, 0) = Matrix(input(g, s).inner, hid);
        leaf(g, s, 1) = Matrix(1, hid);
        leaf_terms(g, s, leaf(g, s, 0), leaf(g, s, 1));
      }
    }
  }
  // The bias Add, the MatMul, the weight leaf and the bias leaf of map (g, s).
  auto affine_backward = [&](int g, int s) {
    const GruWeights::Affine& p = s == 0 ? w.x[g] : w.h[g];
    const Input in = input(g, s);
    double* m = plane(kGruM + 2 * g + s);
    AddTo(m, plane(kGruL + 2 * g + s), size);
    for (int i = 0; i < rows; ++i) {
      const double* grow = m + i * hid;
      AddRowTimesTransposed(in.da + in.row(i), grow, p.w->value,
                            NonzeroColumns(grow, hid, nz_), nz_);
    }
    if (fold) {
      leaf_terms(g, s, p.w->grad, p.b->grad);
      return;
    }
    Matrix wtmp;
    Matrix btmp;
    if (st.leaves.empty()) {
      wtmp = Matrix(in.inner, hid);
      btmp = Matrix(1, hid);
    }
    Matrix& wbuf = st.leaves.empty() ? wtmp : leaf(g, s, 0);
    Matrix& bbuf = st.leaves.empty() ? btmp : leaf(g, s, 1);
    leaf_terms(g, s, wbuf, bbuf);
    AddTo(p.w->grad.data(), wbuf.data(), wbuf.size());
    AddTo(p.b->grad.data(), bbuf.data(), hid);
  };
  // From the gate's Add(x side, h side) down to its last leaf.
  auto gate_backward = [&](int g) {
    AddTo(plane(kGruL + 2 * g), plane(kGruPre + g), size);
    AddTo(plane(kGruL + 2 * g + 1), plane(kGruPre + g), size);
    affine_backward(g, 0);
    affine_backward(g, 1);
  };
  using G = GruWeights;
  const double* go = gn.data();
  // Add(h, z * (n - h)), Mul(z, n - h), Add(n, -h), Scale(h, -1), Tanh.
  AddTo(dh, go, size);
  AddTo(plane(kGruZd), go, size);
  AddProductTo(plane(kGruOut + G::kZ), plane(kGruZd), Row(sv, kSavedD), size);
  AddProductTo(plane(kGruD), plane(kGruZd), Row(sv, G::kZ), size);
  AddTo(plane(kGruOut + G::kN), plane(kGruD), size);
  AddTo(plane(kGruNegH), plane(kGruD), size);
  AddScaledTo(dh, -1.0, plane(kGruNegH), size);
  TanhBackward(plane(kGruPre + G::kN), plane(kGruOut + G::kN), Row(sv, G::kN),
               size);
  gate_backward(G::kN);
  // Mul(r, h), then the reset and update gates.
  AddProductTo(plane(kGruOut + G::kR), plane(kGruRh), Hm.data(), size);
  AddProductTo(dh, plane(kGruRh), Row(sv, G::kR), size);
  SigmoidBackward(plane(kGruPre + G::kR), plane(kGruOut + G::kR),
                  Row(sv, G::kR), size);
  gate_backward(G::kR);
  SigmoidBackward(plane(kGruPre + G::kZ), plane(kGruOut + G::kZ),
                  Row(sv, G::kZ), size);
  gate_backward(G::kZ);
}

}  // namespace trap::nn
