#ifndef TRAP_NN_ADAM_H_
#define TRAP_NN_ADAM_H_

#include <vector>

#include "nn/graph.h"

namespace trap::nn {

// Adam optimizer (Kingma & Ba) over a fixed parameter list, with optional
// global-norm gradient clipping (useful for the RL phase).
class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  // Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  double learning_rate() const { return lr_; }

  // 0 disables clipping.
  void set_max_grad_norm(double norm) { max_grad_norm_ = norm; }

 private:
  std::vector<Parameter*> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double max_grad_norm_ = 0.0;
  int64_t t_ = 0;
};

}  // namespace trap::nn

#endif  // TRAP_NN_ADAM_H_
