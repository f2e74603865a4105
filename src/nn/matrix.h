#ifndef TRAP_NN_MATRIX_H_
#define TRAP_NN_MATRIX_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace trap::nn {

// Dense row-major matrix of doubles. The nn library is deliberately small:
// the paper's models are tiny (embedding size 128, ~2.8M parameters), so
// clarity and exact gradients beat BLAS-grade throughput.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0) {
    TRAP_CHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }

  double& at(int r, int c) {
    TRAP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }
  double at(int r, int c) const {
    TRAP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * static_cast<size_t>(cols_) +
                 static_cast<size_t>(c)];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0); }

  // Xavier/Glorot uniform initialization.
  void InitXavier(common::Rng& rng) {
    double limit = std::sqrt(6.0 / (rows_ + cols_));
    for (double& v : data_) v = rng.Uniform(-limit, limit);
  }

  static Matrix RowVector(const std::vector<double>& values) {
    Matrix m(1, static_cast<int>(values.size()));
    std::copy(values.begin(), values.end(), m.data_.begin());
    return m;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

}  // namespace trap::nn

#endif  // TRAP_NN_MATRIX_H_
