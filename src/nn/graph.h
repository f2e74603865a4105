#ifndef TRAP_NN_GRAPH_H_
#define TRAP_NN_GRAPH_H_

#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace trap::nn {

// A trainable parameter: value plus accumulated gradient. Parameters are
// owned by layers/models; Graph borrows them for the duration of one
// forward/backward pass.
struct Parameter {
  Matrix value;
  Matrix grad;
  // Adam moments (managed by the optimizer).
  Matrix m;
  Matrix v;

  explicit Parameter(int rows, int cols)
      : value(rows, cols), grad(rows, cols), m(rows, cols), v(rows, cols) {}
};

// The twelve parameters of a GRU cell. Gate g (update z, reset r,
// candidate n) adds an affine map of the input, x * x[g].w + x[g].b, to one
// of the hidden state, h * h[g].w + h[g].b; the candidate's hidden map reads
// r * h instead of h.
struct GruWeights {
  enum Gate { kZ = 0, kR = 1, kN = 2 };
  struct Affine {
    Parameter* w = nullptr;
    Parameter* b = nullptr;
  };
  Affine x[3];
  Affine h[3];
};

// Reverse-mode autograd on a tape. One Graph instance is one forward pass;
// Backward() propagates into Parameter::grad. Keeping the engine explicit
// and minimal (about twenty ops, one of them a whole GRU step) gives exact
// gradients for the GRU encoder-decoder, the attention mechanism, and the
// transformer baselines without hand-derived backward passes.
//
// The tape is an arena of plain nodes, each tagged with an Op; Backward is
// one switch over it. Node gradients are allocated only when Backward runs,
// so an inference-only tape never allocates one, and a Param() leaf whose
// one consumer adds a single term per element (a 1-row MatMul or Add) gets
// none: its terms go straight into Parameter::grad. A Param() leaf reads the
// parameter's value in place instead of copying it, and so does GruStep:
// do not update a parameter (e.g. Adam::Step) while a tape that reads it is
// still in use.
class Graph {
 public:
  using VarId = int;

  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // Leaf holding a constant (no gradient).
  VarId Input(Matrix value);
  // Leaf bound to a trainable parameter (gradient accumulated on Backward).
  VarId Param(Parameter* p);
  // Row-gather from a parameter matrix: out[i, :] = p->value[ids[i], :].
  // Gradients scatter back into the gathered rows only (sparse update).
  VarId Gather(Parameter* p, const std::vector<int>& ids);

  VarId MatMul(VarId a, VarId b);
  VarId Transpose(VarId a);
  // Elementwise add; `b` may also be a 1-row matrix broadcast over a's rows.
  VarId Add(VarId a, VarId b);
  VarId Sub(VarId a, VarId b);
  VarId Mul(VarId a, VarId b);  // elementwise (Hadamard)
  VarId Scale(VarId a, double s);
  VarId Tanh(VarId a);
  VarId Sigmoid(VarId a);
  VarId Relu(VarId a);
  // Row-wise softmax.
  VarId Softmax(VarId a);
  // Row-wise log-softmax (numerically stable).
  VarId LogSoftmax(VarId a);
  // Concatenate along columns: [a, b] (same row count).
  VarId ConcatCols(VarId a, VarId b);
  // 1x1 matrix picking element (r, c) of `a`.
  VarId Pick(VarId a, int r, int c);
  // 1x1 sum of all elements.
  VarId Sum(VarId a);
  // 1x1 mean of all elements.
  VarId Mean(VarId a);
  // Row-wise layer normalization with learnable gain/bias parameters
  // (gain/bias are 1xC parameters).
  VarId LayerNorm(VarId a, Parameter* gain, Parameter* bias);
  // One GRU step as one node: h' = h + z * (n - h), with
  //   z = sigmoid((x Wxz + bxz) + (h Whz + bhz)),
  //   r = sigmoid((x Wxr + bxr) + (h Whr + bhr)),
  //   n = tanh((x Wxn + bxn) + ((r * h) Whn + bhn)).
  // x is R x I and h is R x H, for any R >= 0. Forward values, node
  // gradients and Parameter::grad have the bits of the unfused chain of
  // Param, MatMul, Add, Sigmoid, Tanh, Mul and Scale nodes these formulas
  // spell (see graph.cc for its order), also when x == h or a parameter
  // fills more than one slot, and across repeated Backward calls.
  VarId GruStep(VarId x, VarId h, const GruWeights& weights);

  // The node's value. The reference stays valid until the next op is added.
  const Matrix& value(VarId id) const { return ValueOf(at(id)); }
  // The node's accumulated gradient; empty until Backward has reached it.
  // A folded Param leaf's is rebuilt from its consumer on each call.
  Matrix grad(VarId id) const;

  // Back-propagates d(loss)/d(everything) from `loss`, which must be 1x1.
  // Parameter gradients are *accumulated* (call ZeroGrad on the optimizer
  // side between steps).
  void Backward(VarId loss);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  enum class Op : uint8_t {
    kInput,
    kParam,
    kGather,
    kMatMul,
    kTranspose,
    kAdd,
    kMul,
    kScale,
    kTanh,
    kSigmoid,
    kRelu,
    kSoftmax,
    kLogSoftmax,
    kConcatCols,
    kPick,
    kSum,
    kLayerNorm,
    kGru,
  };

  struct Node {
    Op op = Op::kInput;
    bool broadcast = false;  // kAdd: b is one row spread over a's rows
    VarId a = -1;            // first input
    VarId b = -1;            // second input
    int row = 0;  // kPick row; kGather offset into gather_ids_;
                  // kLayerNorm index into aux_; kGru index into gru_
    int col = 0;  // kPick column; kConcatCols split column
    double scale = 0.0;          // kScale factor
    Parameter* param = nullptr;  // kParam, kGather; kLayerNorm gain
    Parameter* bias = nullptr;   // kLayerNorm bias
    Matrix value;  // empty for kParam, which reads param->value
  };

  const Node& at(VarId id) const {
    TRAP_CHECK(id >= 0 && id < num_nodes());
    return nodes_[static_cast<size_t>(id)];
  }
  static const Matrix& ValueOf(const Node& n) {
    return n.op == Op::kParam ? n.param->value : n.value;
  }
  // A kGru node's side state.
  struct GruNode {
    GruWeights w;
    // Forward values the backward pass reads: planes z | r | n | r*h | n-h,
    // each R x H, one per row of this (5 x R*H) matrix.
    Matrix saved;
    // The gradient buffers of the unfused chain's intermediate nodes, one
    // plane each (see graph.cc); empty until Backward first reaches the
    // node, then kept, so a later Backward accumulates into them.
    Matrix grads;
    // The unfused chain's twelve Param leaf buffers (see BackwardGru):
    // empty until a second Backward reaches the node.
    std::vector<Matrix> leaves;
  };

  // Appends a node; invalidates references into the arena.
  VarId Push(Op op, Matrix value, VarId a = -1, VarId b = -1);
  void FoldParamLeaves(VarId loss);
  void AddFoldedTerms(VarId leaf, Matrix& dst, std::vector<int>& nz) const;
  void BackwardNode(VarId id);
  void BackwardGru(const Node& n, const Matrix& gn);

  std::vector<Node> nodes_;
  std::vector<Matrix> grads_;    // by node id, up to the last Backward's loss;
                                 // empty for a folded leaf
  std::vector<VarId> fold_;  // by node id: the consumer a folded Param leaf
                             // takes its terms from, else -1
  std::vector<int> gather_ids_;  // row ids of every kGather node
  std::vector<Matrix> aux_;      // kLayerNorm: rows x (cols + 1) matrices
                                 // [normalized | inv_std]
  std::vector<GruNode> gru_;     // kGru side state
  std::vector<int> nz_;  // MatMul backward: a dOut row's nonzero columns
  std::vector<double> gru_row_;  // GruStep: one row's two affine maps
};

}  // namespace trap::nn

#endif  // TRAP_NN_GRAPH_H_
