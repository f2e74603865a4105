#include "nn/adam.h"

#include <cmath>

namespace trap::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {}

void Adam::Step() {
  ++t_;
  if (max_grad_norm_ > 0.0) {
    double sq = 0.0;
    for (Parameter* p : params_) {
      const double* g = p->grad.data();
      const int n = p->grad.size();
      for (int i = 0; i < n; ++i) sq += g[i] * g[i];
    }
    double norm = std::sqrt(sq);
    if (norm > max_grad_norm_) {
      double scale = max_grad_norm_ / norm;
      for (Parameter* p : params_) {
        double* g = p->grad.data();
        const int n = p->grad.size();
        for (int i = 0; i < n; ++i) g[i] *= scale;
      }
    }
  }
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const double beta1 = beta1_, beta2 = beta2_;
  const double one_minus_beta1 = 1.0 - beta1_;
  const double one_minus_beta2 = 1.0 - beta2_;
  const double lr = lr_, eps = eps_;
  for (Parameter* p : params_) {
    double* value = p->value.data();
    double* grad = p->grad.data();
    double* m = p->m.data();
    double* v = p->v.data();
    const int n = p->value.size();
    for (int i = 0; i < n; ++i) {
      const double gi = grad[i];
      grad[i] = 0.0;
      m[i] = beta1 * m[i] + one_minus_beta1 * gi;
      v[i] = beta2 * v[i] + one_minus_beta2 * gi * gi;
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      value[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
  }
}

}  // namespace trap::nn
