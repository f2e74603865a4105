#ifndef TRAP_TESTING_NN_EQUIVALENCE_H_
#define TRAP_TESTING_NN_EQUIVALENCE_H_

#include <cstdint>
#include <optional>
#include <string>

namespace trap::proptest {

// The nn-kernel-equivalence property. Builds one random tape of `ops`
// operations, seeded by `seed`, twice: on nn::Graph and on the at()-based
// ReferenceGraph, each over its own identical copy of the parameters. The
// tape covers every op on random shapes of 1..5, including 1-row broadcast,
// exact (signed) zeros in values and upstream gradients, MatMul(x, x),
// Add/Mul/ConcatCols(x, x) aliasing and Param leaves used more than once.
// Forward values, every node gradient and every Parameter::grad must agree
// bit for bit, after one Backward and, in some cases, after a second one on
// the same tape. Two Adam steps then run on both parameter copies, one with
// global-norm clipping and one without, and values, moments and gradients
// must still agree bit for bit. Returns the first mismatch, or nullopt.
std::optional<std::string> CheckNnKernelEquivalence(uint64_t seed, int ops);

// The nn-gru-equivalence property. Builds one random chain of `steps` GRU
// steps, seeded by `seed`: nn::Graph::GruStep nodes on nn::Graph, and on
// ReferenceGraph the unfused chain of Param, MatMul, Add, Sigmoid, Tanh, Mul
// and Sub nodes each step stands for. Shapes are 1..5 rows, inputs and
// hidden widths; values carry signed zeros and, in some chains, rare
// infinities; inputs are reused across steps (x == h when the widths
// agree), x and h sometimes feed another op too, and now and then one
// parameter fills two slots. Every var's value and gradient, and every
// Parameter::grad, must agree bit for bit after one Backward and, in half
// the chains, after a second one; then two Adam steps as above. Returns the
// first mismatch, or nullopt.
std::optional<std::string> CheckNnGruEquivalence(uint64_t seed, int steps);

}  // namespace trap::proptest

#endif  // TRAP_TESTING_NN_EQUIVALENCE_H_
