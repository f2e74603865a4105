#ifndef TRAP_TESTING_REFERENCE_GRAPH_H_
#define TRAP_TESTING_REFERENCE_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/graph.h"
#include "nn/matrix.h"

namespace trap::proptest {

// Test-only reference autograd tape: the straightforward implementation
// nn::Graph replaced. Every op reads and writes through bounds-checked
// Matrix::at(), keeps one heap-allocated node and one backward closure per
// op, copies Param() values, and allocates every node's gradient up front.
// It is slow on purpose and serves one job: the nn-kernel-equivalence oracle
// compares nn::Graph against it bit for bit (forward values, node gradients
// and Parameter::grad). Nothing outside src/testing and the tests links it.
class ReferenceGraph {
 public:
  using VarId = int;

  ReferenceGraph() = default;
  ReferenceGraph(const ReferenceGraph&) = delete;
  ReferenceGraph& operator=(const ReferenceGraph&) = delete;

  VarId Input(nn::Matrix value);
  VarId Param(nn::Parameter* p);
  VarId Gather(nn::Parameter* p, std::vector<int> ids);

  VarId MatMul(VarId a, VarId b);
  VarId Transpose(VarId a);
  VarId Add(VarId a, VarId b);
  VarId Sub(VarId a, VarId b);
  VarId Mul(VarId a, VarId b);
  VarId Scale(VarId a, double s);
  VarId Tanh(VarId a);
  VarId Sigmoid(VarId a);
  VarId Relu(VarId a);
  VarId Softmax(VarId a);
  VarId LogSoftmax(VarId a);
  VarId ConcatCols(VarId a, VarId b);
  VarId Pick(VarId a, int r, int c);
  VarId Sum(VarId a);
  VarId Mean(VarId a);
  VarId LayerNorm(VarId a, nn::Parameter* gain, nn::Parameter* bias);

  const nn::Matrix& value(VarId id) const;
  // The node's accumulated gradient (all zeros until Backward reaches it).
  const nn::Matrix& grad(VarId id) const;

  void Backward(VarId loss);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    nn::Matrix value;
    nn::Matrix grad;
    std::vector<VarId> inputs;
    std::function<void(ReferenceGraph&, Node&)> backward;  // empty for leaves
    nn::Parameter* param = nullptr;                        // Param leaves
    std::vector<int> gather_ids;                           // Gather leaves
  };

  VarId AddNode(nn::Matrix value, std::vector<VarId> inputs,
                std::function<void(ReferenceGraph&, Node&)> backward);
  Node& node(VarId id) { return *nodes_[static_cast<size_t>(id)]; }

  std::vector<std::unique_ptr<Node>> nodes_;
};

// The plain Adam::Step that nn::Adam's hoisted-pointer loop replaced: step
// number `t` (1-based) over `params`, with global-norm clipping when
// `max_grad_norm` > 0. Zeroes the gradients afterwards, as Adam::Step does.
void ReferenceAdamStep(const std::vector<nn::Parameter*>& params, int64_t t,
                       double lr, double beta1, double beta2, double eps,
                       double max_grad_norm);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_REFERENCE_GRAPH_H_
