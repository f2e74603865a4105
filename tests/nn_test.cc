#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <ostream>
#include <string>

#include "nn/adam.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "testing/reference_graph.h"

namespace trap::nn {
namespace {

// Checks d(loss)/d(param) for every element of `p` against central finite
// differences of `loss_fn` (which must build a fresh graph and return the
// scalar loss). `build_and_backward` must run forward+backward accumulating
// into p->grad.
void CheckParameterGradient(Parameter* p,
                            const std::function<double()>& loss_fn,
                            const std::function<void()>& build_and_backward,
                            double tol = 1e-6) {
  p->grad.Zero();
  build_and_backward();
  Matrix analytic = p->grad;
  const double eps = 1e-5;
  for (int i = 0; i < p->value.size(); ++i) {
    double orig = p->value.data()[i];
    p->value.data()[i] = orig + eps;
    double up = loss_fn();
    p->value.data()[i] = orig - eps;
    double down = loss_fn();
    p->value.data()[i] = orig;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric,
                tol * std::max(1.0, std::abs(numeric)))
        << "param element " << i;
  }
}

TEST(GraphTest, MatMulForward) {
  Graph g;
  Matrix a(2, 3);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
  a.at(1, 0) = 4; a.at(1, 1) = 5; a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7; b.at(1, 0) = 8; b.at(2, 0) = 9;
  b.at(0, 1) = 1; b.at(1, 1) = 2; b.at(2, 1) = 3;
  auto c = g.MatMul(g.Input(a), g.Input(b));
  EXPECT_DOUBLE_EQ(g.value(c).at(0, 0), 1 * 7 + 2 * 8 + 3 * 9);
  EXPECT_DOUBLE_EQ(g.value(c).at(1, 1), 4 * 1 + 5 * 2 + 6 * 3);
}

TEST(GraphTest, AddBroadcastsRow) {
  Graph g;
  Matrix a(2, 2);
  a.Fill(1.0);
  Matrix b(1, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 7;
  auto c = g.Add(g.Input(a), g.Input(b));
  EXPECT_DOUBLE_EQ(g.value(c).at(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(g.value(c).at(1, 1), 8.0);
}

TEST(GraphTest, SoftmaxRowsSumToOne) {
  Graph g;
  common::Rng rng(3);
  Matrix a(3, 5);
  for (int i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  auto s = g.Softmax(g.Input(a));
  for (int i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 5; ++j) sum += g.value(s).at(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(GraphTest, LogSoftmaxMatchesSoftmax) {
  Graph g;
  Matrix a(1, 4);
  a.at(0, 0) = 0.1; a.at(0, 1) = -2.0; a.at(0, 2) = 3.0; a.at(0, 3) = 0.0;
  auto ls = g.LogSoftmax(g.Input(a));
  auto sm = g.Softmax(g.Input(a));
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(std::exp(g.value(ls).at(0, j)), g.value(sm).at(0, j), 1e-12);
  }
}

// One op under the gradient check below.
struct OpCase {
  const char* name;
  std::function<Graph::VarId(Graph&, Graph::VarId)> op;
};

// Prints only the op name, so the listed test name (which carries the
// printed parameter) holds no pointer value that changes from build to build.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

// Parameterized gradient check across ops: builds loss = Sum(op(x W)) for a
// variety of ops and validates dW numerically.
class OpGradientTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradientTest, MatchesFiniteDifference) {
  const auto& op = GetParam().op;
  common::Rng rng(11);
  ParameterStore store;
  Parameter* w = store.Create(3, 4, rng);
  Matrix x(2, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian(0.0, 0.7);

  auto loss_value = [&]() {
    Graph g;
    auto y = op(g, g.MatMul(g.Input(x), g.Param(w)));
    return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
  };
  auto run = [&]() {
    Graph g;
    auto y = op(g, g.MatMul(g.Input(x), g.Param(w)));
    g.Backward(g.Sum(g.Mul(y, y)));
  };
  CheckParameterGradient(w, loss_value, run, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradientTest,
    ::testing::Values(
        OpCase{"identity",
               [](Graph& g, Graph::VarId v) { (void)g; return v; }},
        OpCase{"tanh", [](Graph& g, Graph::VarId v) { return g.Tanh(v); }},
        OpCase{"sigmoid",
               [](Graph& g, Graph::VarId v) { return g.Sigmoid(v); }},
        OpCase{"relu", [](Graph& g, Graph::VarId v) { return g.Relu(v); }},
        OpCase{"softmax",
               [](Graph& g, Graph::VarId v) { return g.Softmax(v); }},
        OpCase{"logsoftmax",
               [](Graph& g, Graph::VarId v) { return g.LogSoftmax(v); }},
        OpCase{"transpose",
               [](Graph& g, Graph::VarId v) { return g.Transpose(v); }},
        OpCase{"scale",
               [](Graph& g, Graph::VarId v) { return g.Scale(v, -1.7); }},
        // Ops whose two inputs are one node: both gradient contributions
        // land in the same buffer.
        OpCase{"add_self",
               [](Graph& g, Graph::VarId v) { return g.Add(v, v); }},
        OpCase{"mul_self",
               [](Graph& g, Graph::VarId v) { return g.Mul(v, v); }},
        OpCase{"concat_self",
               [](Graph& g, Graph::VarId v) { return g.ConcatCols(v, v); }},
        OpCase{"matmul_self",
               [](Graph& g, Graph::VarId v) {
                 Graph::VarId sq = g.MatMul(v, g.Transpose(v));
                 return g.MatMul(sq, sq);  // MatMul(x, x)
               }}),
    [](const auto& suite_info) { return std::string(suite_info.param.name); });

TEST(GradientTest, GatherScattersGradientsSparsely) {
  common::Rng rng(5);
  ParameterStore store;
  Parameter* table = store.Create(6, 3, rng);
  std::vector<int> ids = {4, 1, 4};  // repeated row: gradients must add
  auto loss_value = [&]() {
    Graph g;
    auto e = g.Gather(table, ids);
    return g.value(g.Sum(g.Mul(e, e))).at(0, 0);
  };
  auto run = [&]() {
    Graph g;
    auto e = g.Gather(table, ids);
    g.Backward(g.Sum(g.Mul(e, e)));
  };
  CheckParameterGradient(table, loss_value, run);
  // Rows never gathered must have zero gradient.
  table->grad.Zero();
  run();
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(table->grad.at(0, c), 0.0);
    EXPECT_EQ(table->grad.at(2, c), 0.0);
    EXPECT_EQ(table->grad.at(3, c), 0.0);
    EXPECT_EQ(table->grad.at(5, c), 0.0);
  }
}

// Two Param() leaves of one parameter each keep their own gradient buffer
// and both fold into Parameter::grad.
TEST(GradientTest, ParamLeafUsedTwice) {
  common::Rng rng(37);
  ParameterStore store;
  Parameter* w = store.Create(3, 3, rng);
  Matrix x(2, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  auto build = [&](Graph& g) {
    Graph::VarId h = g.Tanh(g.MatMul(g.Input(x), g.Param(w)));
    Graph::VarId y = g.MatMul(h, g.Param(w));
    return g.Sum(g.Mul(y, y));
  };
  auto loss_value = [&]() {
    Graph g;
    return g.value(build(g)).at(0, 0);
  };
  auto run = [&]() {
    Graph g;
    g.Backward(build(g));
  };
  CheckParameterGradient(w, loss_value, run, 1e-5);
}

TEST(GradientTest, GruCellGradient) {
  common::Rng rng(7);
  ParameterStore store;
  GruCell cell(&store, 3, 4, rng);
  Matrix x(1, 3);
  Matrix h(1, 4);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  for (int i = 0; i < h.size(); ++i) h.data()[i] = rng.Gaussian(0.0, 0.5);

  for (Parameter* p : store.parameters()) {
    auto loss_value = [&]() {
      Graph g;
      auto out = cell.Step(g, g.Input(x), g.Input(h));
      return g.value(g.Sum(g.Mul(out, out))).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      auto out = cell.Step(g, g.Input(x), g.Input(h));
      g.Backward(g.Sum(g.Mul(out, out)));
    };
    CheckParameterGradient(p, loss_value, run, 1e-5);
  }
}

TEST(GradientTest, LayerNormGradient) {
  common::Rng rng(13);
  ParameterStore store;
  Parameter* w = store.Create(3, 4, rng);
  Parameter* gain = store.CreateConst(1, 4, 1.0);
  Parameter* bias = store.CreateZero(1, 4);
  // Perturb gain/bias so their gradients are non-trivial.
  for (int i = 0; i < 4; ++i) {
    gain->value.at(0, i) = 1.0 + 0.1 * i;
    bias->value.at(0, i) = 0.05 * i;
  }
  Matrix x(2, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  for (Parameter* p : {w, gain, bias}) {
    auto loss_value = [&]() {
      Graph g;
      auto y = g.LayerNorm(g.MatMul(g.Input(x), g.Param(w)), gain, bias);
      return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      auto y = g.LayerNorm(g.MatMul(g.Input(x), g.Param(w)), gain, bias);
      g.Backward(g.Sum(g.Mul(y, y)));
    };
    CheckParameterGradient(p, loss_value, run, 1e-4);
  }
}

TEST(GradientTest, TransformerLayerGradient) {
  common::Rng rng(17);
  ParameterStore store;
  TransformerConfig cfg;
  cfg.dim = 8;
  cfg.num_heads = 2;
  cfg.ff_dim = 16;
  cfg.num_layers = 1;
  TransformerEncoder enc(&store, cfg, rng);
  Matrix x(3, 8);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian(0.0, 0.5);
  // Spot-check a few parameters (full sweep is slow).
  std::vector<Parameter*> params = store.parameters();
  for (size_t pi : {size_t{0}, params.size() / 2, params.size() - 1}) {
    Parameter* p = params[pi];
    auto loss_value = [&]() {
      Graph g;
      auto y = enc.Forward(g, g.Input(x));
      return g.value(g.Sum(g.Mul(y, y))).at(0, 0);
    };
    auto run = [&]() {
      Graph g;
      auto y = enc.Forward(g, g.Input(x));
      g.Backward(g.Sum(g.Mul(y, y)));
    };
    CheckParameterGradient(p, loss_value, run, 1e-4);
  }
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.size()) * sizeof(double)) == 0);
}

// A small GRU-like tape that builds on either tape implementation: a zero
// initial state, a Gather, and Param u read three times per step.
template <typename G>
int BuildRecurrentTape(G& g, Parameter* w, Parameter* u, Parameter* table,
                       const Matrix& x) {
  int h = g.Input(Matrix(1, 4));
  for (int step = 0; step < 3; ++step) {
    int e = g.Gather(table, {step % 3});
    int z = g.Sigmoid(g.Add(g.MatMul(g.Input(x), g.Param(w)),
                            g.MatMul(h, g.Param(u))));
    int n = g.Tanh(g.Add(g.MatMul(g.Mul(z, h), g.Param(u)), e));
    h = g.Add(h, g.Mul(z, g.Sub(n, h)));
  }
  return g.Add(g.Sum(g.LogSoftmax(h)), g.Pick(h, 0, 1));
}

// Calling Backward twice on one tape accumulates exactly as the reference
// tape does: node gradients carry over, the loss seed is reset to 1, and
// every Param leaf folds its whole buffer into Parameter::grad again.
TEST(GraphTest, BackwardTwiceAccumulatesLikeReference) {
  common::Rng rng(41);
  ParameterStore fast_store;
  Parameter* w = fast_store.Create(3, 4, rng);
  Parameter* u = fast_store.Create(4, 4, rng);
  Parameter* table = fast_store.Create(3, 4, rng);
  ParameterStore ref_store;
  Parameter* rw = ref_store.CreateZero(3, 4);
  Parameter* ru = ref_store.CreateZero(4, 4);
  Parameter* rtable = ref_store.CreateZero(3, 4);
  ref_store.CopyValuesFrom(fast_store);
  Matrix x(1, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();

  Graph g;
  proptest::ReferenceGraph ref;
  int loss = BuildRecurrentTape(g, w, u, table, x);
  ASSERT_EQ(BuildRecurrentTape(ref, rw, ru, rtable, x), loss);
  g.Backward(loss);
  Matrix once = w->grad;
  g.Backward(loss);
  ref.Backward(loss);
  ref.Backward(loss);
  EXPECT_FALSE(SameBits(w->grad, once));  // the second pass did add
  for (int id = 0; id <= loss; ++id) {
    EXPECT_TRUE(SameBits(g.grad(id), ref.grad(id))) << "node " << id;
  }
  EXPECT_TRUE(SameBits(w->grad, rw->grad));
  EXPECT_TRUE(SameBits(u->grad, ru->grad));
  EXPECT_TRUE(SameBits(table->grad, rtable->grad));
}

// A tape that never runs Backward computes the same values as one that
// does, and allocates no gradients.
TEST(GraphTest, InferenceTapeMatchesTrainingTape) {
  common::Rng rng(43);
  ParameterStore store;
  Parameter* w = store.Create(3, 4, rng);
  Parameter* u = store.Create(4, 4, rng);
  Parameter* table = store.Create(3, 4, rng);
  Matrix x(1, 3);
  for (int i = 0; i < x.size(); ++i) x.data()[i] = rng.Gaussian();
  Graph infer;
  Graph train;
  int loss = BuildRecurrentTape(infer, w, u, table, x);
  ASSERT_EQ(BuildRecurrentTape(train, w, u, table, x), loss);
  train.Backward(loss);
  ASSERT_EQ(infer.num_nodes(), train.num_nodes());
  for (int id = 0; id < infer.num_nodes(); ++id) {
    EXPECT_TRUE(SameBits(infer.value(id), train.value(id))) << "node " << id;
    EXPECT_EQ(infer.grad(id).size(), 0) << "node " << id;
  }
}

// MatMul's dB pass skips a zero A[i, k] only when row i of dOut is finite:
// with an infinity in the row, 0 * inf = NaN must still reach dB, exactly as
// in the reference tape.
TEST(GraphTest, MatMulZeroSkipKeepsNaNFromInfiniteGradient) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  common::Rng rng(53);
  ParameterStore fast_store;
  Parameter* w = fast_store.Create(4, 3, rng);
  ParameterStore ref_store;
  Parameter* rw = ref_store.CreateZero(4, 3);
  ref_store.CopyValuesFrom(fast_store);
  Matrix a(3, 4);
  Matrix dout(3, 3);
  for (int i = 0; i < a.size(); ++i) a.data()[i] = rng.Gaussian();
  for (int i = 0; i < dout.size(); ++i) dout.data()[i] = rng.Gaussian();
  a.at(0, 1) = 0.0;  // finite row of dOut: the zero is skipped
  a.at(1, 2) = 0.0;  // dOut row 1 holds +inf
  a.at(2, 0) = -0.0;
  a.at(2, 3) = 0.0;  // dOut row 2 holds -inf and a zero
  dout.at(1, 0) = kInf;
  dout.at(2, 1) = -kInf;
  dout.at(2, 2) = 0.0;
  // Sum(MatMul(A, W) * G) back-propagates G as dOut.
  auto build = [&](auto& g, Parameter* p) {
    return g.Sum(g.Mul(g.MatMul(g.Input(a), g.Param(p)), g.Input(dout)));
  };
  Graph g;
  proptest::ReferenceGraph ref;
  int loss = build(g, w);
  ASSERT_EQ(build(ref, rw), loss);
  g.Backward(loss);
  ref.Backward(loss);
  for (int id = 0; id <= loss; ++id) {
    EXPECT_TRUE(SameBits(g.grad(id), ref.grad(id))) << "node " << id;
  }
  EXPECT_TRUE(SameBits(w->grad, rw->grad));
  EXPECT_TRUE(std::isnan(w->grad.at(2, 0)));  // 0 * inf from row 1
  EXPECT_TRUE(std::isnan(w->grad.at(0, 1)));  // -0 * -inf from row 2
}

// A Linear on a 1-row input: its W and b leaves have one consumer each,
// whose terms Backward may fold straight into Parameter::grad. The input
// row holds zeros of both signs and an infinity; one dOut row is finite with
// zeros (A's zeros are skipped), the other holds infinities (they are not).
// So the terms include -0, +-inf and 0 * inf = NaN, and A's infinity meets
// a zero of dOut that must stay skipped. Every node gradient, the leaves'
// included, and Parameter::grad match the reference bit for bit, after one
// Backward and after a second on the same tape.
TEST(GraphTest, SingleUseParamLeavesMatchReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Matrix x(1, 5);
  x.at(0, 0) = 1.5;
  x.at(0, 1) = 0.0;
  x.at(0, 2) = -0.0;
  x.at(0, 3) = kInf;
  x.at(0, 4) = -2.0;
  Matrix finite(1, 4);
  finite.at(0, 0) = 0.75;
  finite.at(0, 1) = -0.0;
  finite.at(0, 2) = -3.0;
  finite.at(0, 3) = 0.0;
  Matrix infinite = finite;
  infinite.at(0, 0) = -kInf;
  infinite.at(0, 2) = kInf;
  for (const Matrix& dout : {finite, infinite}) {
    common::Rng rng(61);
    ParameterStore fast_store;
    Linear linear(&fast_store, 5, 4, rng);
    linear.bias()->value.InitXavier(rng);
    ParameterStore ref_store;
    Parameter* rw = ref_store.CreateZero(5, 4);
    Parameter* rb = ref_store.CreateZero(1, 4);
    ref_store.CopyValuesFrom(fast_store);
    // Sum(Linear(x) * dOut) back-propagates dOut into the Add. The
    // reference mirrors Linear::Forward's expression, so both tapes push
    // their nodes in one order.
    Graph g;
    const int y = linear.Forward(g, g.Input(x));
    const int loss = g.Sum(g.Mul(y, g.Input(dout)));
    proptest::ReferenceGraph ref;
    const int rx = ref.Input(x);
    const int ry = ref.Add(ref.MatMul(rx, ref.Param(rw)), ref.Param(rb));
    ASSERT_EQ(ry, y);
    ASSERT_EQ(ref.Sum(ref.Mul(ry, ref.Input(dout))), loss);
    for (int pass = 0; pass < 2; ++pass) {
      g.Backward(loss);
      ref.Backward(loss);
      for (int id = 0; id <= loss; ++id) {
        EXPECT_TRUE(SameBits(g.grad(id), ref.grad(id)))
            << "pass " << pass << " node " << id;
      }
      EXPECT_TRUE(SameBits(linear.weight()->grad, rw->grad)) << pass;
      EXPECT_TRUE(SameBits(linear.bias()->grad, rb->grad)) << pass;
    }
  }
}

// Three single-use leaves of one 1x1 parameter, each read by its own 1-row
// MatMul, with the first leaf's consumer last on the tape. Its term must
// land at the leaf's own visit, after the other two leaves' terms: the
// terms 1, 1e16 and -1e16 sum to 1 in that order and to 0 in the order of
// the consumers' visits.
TEST(GraphTest, FoldedLeafTermLandsAtTheLeafsVisit) {
  Parameter fast(1, 1);
  Parameter ref_param(1, 1);
  Matrix one(1, 1);
  one.at(0, 0) = 1.0;
  auto build = [&](auto& g, Parameter* p) {
    const int l1 = g.Param(p);
    const int l2 = g.Param(p);
    const int l3 = g.Param(p);
    const int x = g.Input(one);
    const int c2 = g.MatMul(x, l2);
    const int c3 = g.MatMul(x, l3);
    const int c1 = g.MatMul(x, l1);
    int loss = g.Scale(c1, 1.0);
    loss = g.Add(loss, g.Scale(c2, 1e16));
    return g.Add(loss, g.Scale(c3, -1e16));
  };
  Graph g;
  proptest::ReferenceGraph ref;
  const int loss = build(g, &fast);
  ASSERT_EQ(build(ref, &ref_param), loss);
  g.Backward(loss);
  ref.Backward(loss);
  EXPECT_EQ(ref_param.grad.at(0, 0), 1.0);
  EXPECT_TRUE(SameBits(fast.grad, ref_param.grad));
  for (int id = 0; id <= loss; ++id) {
    EXPECT_TRUE(SameBits(g.grad(id), ref.grad(id))) << "node " << id;
  }
}

// A batched update (one forward over all samples, row r holding sample
// B-1-r, per-sample loss nodes appended in sample order) leaves
// Parameter::grad bit-identical to one forward per sample on one tape.
TEST(GraphTest, ReversedRowBatchMatchesPerSampleTapes) {
  common::Rng rng(59);
  ParameterStore store;
  Mlp mlp(&store, {6, 8, 5}, rng);
  constexpr int kBatch = 7;
  Matrix states(kBatch, 6);
  std::vector<double> targets;
  for (int b = 0; b < kBatch; ++b) {
    // Sparse rows, as the RL state encodings are.
    for (int c = 0; c < 6; ++c) {
      states.at(b, c) = rng.Bernoulli(0.5) ? 0.0 : rng.Gaussian();
    }
    targets.push_back(rng.Gaussian());
  }
  auto squared_error = [&](Graph& g, Graph::VarId q, int row, int b) {
    Matrix t(1, 1);
    t.at(0, 0) = targets[static_cast<size_t>(b)];
    Graph::VarId err = g.Sub(g.Pick(q, row, b % 5), g.Input(t));
    return g.Mul(err, err);
  };

  Graph per_sample;
  Graph::VarId loss = per_sample.Input(Matrix(1, 1));
  for (int b = 0; b < kBatch; ++b) {
    Matrix x(1, 6);
    for (int c = 0; c < 6; ++c) x.at(0, c) = states.at(b, c);
    Graph::VarId q = mlp.Forward(per_sample, per_sample.Input(x));
    loss = per_sample.Add(loss, squared_error(per_sample, q, 0, b));
  }
  per_sample.Backward(per_sample.Scale(loss, 1.0 / kBatch));
  std::vector<Matrix> expected;
  for (Parameter* p : store.parameters()) {
    expected.push_back(p->grad);
    p->grad.Zero();
  }

  Matrix reversed(kBatch, 6);
  for (int b = 0; b < kBatch; ++b) {
    for (int c = 0; c < 6; ++c) {
      reversed.at(kBatch - 1 - b, c) = states.at(b, c);
    }
  }
  Graph batched;
  Graph::VarId q = mlp.Forward(batched, batched.Input(reversed));
  loss = batched.Input(Matrix(1, 1));
  for (int b = 0; b < kBatch; ++b) {
    loss = batched.Add(loss, squared_error(batched, q, kBatch - 1 - b, b));
  }
  batched.Backward(batched.Scale(loss, 1.0 / kBatch));
  std::vector<Parameter*> params = store.parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(SameBits(params[i]->grad, expected[i])) << "parameter " << i;
  }
}

// Every check the bounds-checked Matrix::at() used to make inside the ops
// now happens once, at op entry, and still aborts through TRAP_CHECK.
TEST(GraphDeathTest, GatherRejectsOutOfRangeId) {
  common::Rng rng(47);
  ParameterStore store;
  Parameter* table = store.Create(3, 2, rng);
  Graph g;
  EXPECT_DEATH(g.Gather(table, {0, 3}), "TRAP_CHECK failed");
  EXPECT_DEATH(g.Gather(table, {-1}), "TRAP_CHECK failed");
}

TEST(GraphDeathTest, PickRejectsElementOutsideMatrix) {
  Graph g;
  Graph::VarId x = g.Input(Matrix(2, 3));
  EXPECT_DEATH(g.Pick(x, 2, 0), "TRAP_CHECK failed");
  EXPECT_DEATH(g.Pick(x, 0, 3), "TRAP_CHECK failed");
  EXPECT_DEATH(g.Pick(x, -1, 0), "TRAP_CHECK failed");
}

TEST(GraphDeathTest, ShapeMismatchesAbort) {
  Graph g;
  Graph::VarId a = g.Input(Matrix(2, 3));
  Graph::VarId b = g.Input(Matrix(2, 2));
  Graph::VarId c = g.Input(Matrix(3, 3));
  EXPECT_DEATH(g.MatMul(a, b), "TRAP_CHECK failed");
  EXPECT_DEATH(g.Add(a, b), "TRAP_CHECK failed");  // column mismatch
  EXPECT_DEATH(g.Add(a, c), "TRAP_CHECK failed");  // rows, no broadcast
  EXPECT_DEATH(g.ConcatCols(a, c), "TRAP_CHECK failed");
}

TEST(GraphDeathTest, BackwardRequiresScalarLoss) {
  Graph g;
  Graph::VarId x = g.Input(Matrix(1, 2));
  EXPECT_DEATH(g.Backward(x), "TRAP_CHECK failed");
}

TEST(LayersTest, LinearShapesAndParamCount) {
  common::Rng rng(19);
  ParameterStore store;
  Linear lin(&store, 5, 3, rng);
  EXPECT_EQ(store.NumParameters(), 5 * 3 + 3);
  Graph g;
  Matrix x(2, 5);
  auto y = lin.Forward(g, g.Input(x));
  EXPECT_EQ(g.value(y).rows(), 2);
  EXPECT_EQ(g.value(y).cols(), 3);
}

TEST(LayersTest, MlpReducesLossOnToyRegression) {
  common::Rng rng(23);
  ParameterStore store;
  Mlp mlp(&store, {2, 16, 1}, rng);
  Adam opt(store.parameters(), 0.01);
  // Learn f(x) = x0 - 2*x1.
  auto sample_loss = [&](bool train) {
    double total = 0.0;
    for (int i = 0; i < 32; ++i) {
      Matrix x(1, 2);
      x.at(0, 0) = rng.Uniform(-1, 1);
      x.at(0, 1) = rng.Uniform(-1, 1);
      double target = x.at(0, 0) - 2.0 * x.at(0, 1);
      Graph g;
      auto pred = mlp.Forward(g, g.Input(x));
      Matrix t(1, 1);
      t.at(0, 0) = target;
      auto diff = g.Sub(pred, g.Input(t));
      auto loss = g.Sum(g.Mul(diff, diff));
      total += g.value(loss).at(0, 0);
      if (train) {
        g.Backward(loss);
        opt.Step();
      }
    }
    return total / 32.0;
  };
  double initial = sample_loss(false);
  for (int epoch = 0; epoch < 30; ++epoch) sample_loss(true);
  double trained = sample_loss(false);
  EXPECT_LT(trained, initial * 0.15);
}

TEST(AdamTest, GradientClippingBoundsNorm) {
  common::Rng rng(29);
  ParameterStore store;
  Parameter* p = store.Create(2, 2, rng);
  Adam opt(store.parameters(), 0.1);
  opt.set_max_grad_norm(1.0);
  p->grad.Fill(100.0);
  Matrix before = p->value;
  opt.Step();
  // With clipped norm 1 and lr 0.1, no element can move more than ~0.1/|g|.
  for (int i = 0; i < p->value.size(); ++i) {
    EXPECT_LT(std::abs(p->value.data()[i] - before.data()[i]), 0.2);
  }
}

TEST(TransformerTest, PositionalEncodingBounds) {
  Matrix pe = PositionalEncoding(10, 8);
  for (int i = 0; i < pe.size(); ++i) {
    EXPECT_LE(std::abs(pe.data()[i]), 1.0);
  }
  // Different positions yield different encodings.
  bool differs = false;
  for (int c = 0; c < 8; ++c) {
    if (pe.at(1, c) != pe.at(2, c)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(ParameterStoreTest, CopyValuesFrom) {
  common::Rng rng(31);
  ParameterStore a;
  ParameterStore b;
  Parameter* pa = a.Create(2, 3, rng);
  Parameter* pb = b.Create(2, 3, rng);
  EXPECT_NE(pa->value.at(0, 0), pb->value.at(0, 0));
  b.CopyValuesFrom(a);
  for (int i = 0; i < pa->value.size(); ++i) {
    EXPECT_EQ(pa->value.data()[i], pb->value.data()[i]);
  }
}

}  // namespace
}  // namespace trap::nn
