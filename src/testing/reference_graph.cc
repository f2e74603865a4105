#include "testing/reference_graph.h"

#include <algorithm>
#include <cmath>

namespace trap::proptest {

using nn::Matrix;
using nn::Parameter;

ReferenceGraph::VarId ReferenceGraph::AddNode(
    Matrix value, std::vector<VarId> inputs,
    std::function<void(ReferenceGraph&, Node&)> backward) {
  auto n = std::make_unique<Node>();
  n->value = std::move(value);
  n->grad = Matrix(n->value.rows(), n->value.cols());
  n->inputs = std::move(inputs);
  n->backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return static_cast<VarId>(nodes_.size()) - 1;
}

const Matrix& ReferenceGraph::value(VarId id) const {
  return nodes_[static_cast<size_t>(id)]->value;
}

const Matrix& ReferenceGraph::grad(VarId id) const {
  return nodes_[static_cast<size_t>(id)]->grad;
}

ReferenceGraph::VarId ReferenceGraph::Input(Matrix value) {
  return AddNode(std::move(value), {}, nullptr);
}

ReferenceGraph::VarId ReferenceGraph::Param(Parameter* p) {
  VarId id = AddNode(p->value, {}, nullptr);
  node(id).param = p;
  return id;
}

ReferenceGraph::VarId ReferenceGraph::Gather(Parameter* p,
                                             std::vector<int> ids) {
  Matrix out(static_cast<int>(ids.size()), p->value.cols());
  for (int i = 0; i < out.rows(); ++i) {
    int src = ids[static_cast<size_t>(i)];
    for (int c = 0; c < out.cols(); ++c) out.at(i, c) = p->value.at(src, c);
  }
  VarId id = AddNode(std::move(out), {}, nullptr);
  node(id).param = p;
  node(id).gather_ids = std::move(ids);
  return id;
}

ReferenceGraph::VarId ReferenceGraph::MatMul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.cols() == B.rows());
  Matrix out(A.rows(), B.cols());
  for (int i = 0; i < A.rows(); ++i) {
    for (int k = 0; k < A.cols(); ++k) {
      double av = A.at(i, k);
      if (av == 0.0) continue;
      for (int j = 0; j < B.cols(); ++j) out.at(i, j) += av * B.at(k, j);
    }
  }
  return AddNode(std::move(out), {a, b}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    Node& nb = g.node(n.inputs[1]);
    // dA += dOut * B^T ; dB += A^T * dOut
    for (int i = 0; i < na.value.rows(); ++i) {
      for (int j = 0; j < nb.value.cols(); ++j) {
        double go = n.grad.at(i, j);
        if (go == 0.0) continue;
        for (int k = 0; k < na.value.cols(); ++k) {
          na.grad.at(i, k) += go * nb.value.at(k, j);
          nb.grad.at(k, j) += na.value.at(i, k) * go;
        }
      }
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Transpose(VarId a) {
  const Matrix& A = value(a);
  Matrix out(A.cols(), A.rows());
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < A.cols(); ++j) out.at(j, i) = A.at(i, j);
  }
  return AddNode(std::move(out), {a}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < na.value.rows(); ++i) {
      for (int j = 0; j < na.value.cols(); ++j) {
        na.grad.at(i, j) += n.grad.at(j, i);
      }
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Add(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  bool broadcast = B.rows() == 1 && A.rows() != 1;
  TRAP_CHECK(A.cols() == B.cols());
  TRAP_CHECK(broadcast || A.rows() == B.rows());
  Matrix out = A;
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < A.cols(); ++j) {
      out.at(i, j) += B.at(broadcast ? 0 : i, j);
    }
  }
  return AddNode(std::move(out), {a, b},
                 [broadcast](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    Node& nb = g.node(n.inputs[1]);
    for (int i = 0; i < n.grad.rows(); ++i) {
      for (int j = 0; j < n.grad.cols(); ++j) {
        na.grad.at(i, j) += n.grad.at(i, j);
        nb.grad.at(broadcast ? 0 : i, j) += n.grad.at(i, j);
      }
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Sub(VarId a, VarId b) {
  return Add(a, Scale(b, -1.0));
}

ReferenceGraph::VarId ReferenceGraph::Mul(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows() && A.cols() == B.cols());
  Matrix out = A;
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= B.data()[i];
  return AddNode(std::move(out), {a, b}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    Node& nb = g.node(n.inputs[1]);
    for (int i = 0; i < n.grad.size(); ++i) {
      na.grad.data()[i] += n.grad.data()[i] * nb.value.data()[i];
      nb.grad.data()[i] += n.grad.data()[i] * na.value.data()[i];
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Scale(VarId a, double s) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) out.data()[i] *= s;
  return AddNode(std::move(out), {a}, [s](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < n.grad.size(); ++i) {
      na.grad.data()[i] += n.grad.data()[i] * s;
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Tanh(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::tanh(out.data()[i]);
  return AddNode(std::move(out), {a}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < n.grad.size(); ++i) {
      double y = n.value.data()[i];
      na.grad.data()[i] += n.grad.data()[i] * (1.0 - y * y);
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Sigmoid(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) {
    out.data()[i] = 1.0 / (1.0 + std::exp(-out.data()[i]));
  }
  return AddNode(std::move(out), {a}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < n.grad.size(); ++i) {
      double y = n.value.data()[i];
      na.grad.data()[i] += n.grad.data()[i] * y * (1.0 - y);
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Relu(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.size(); ++i) out.data()[i] = std::max(0.0, out.data()[i]);
  return AddNode(std::move(out), {a}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < n.grad.size(); ++i) {
      if (n.value.data()[i] > 0.0) na.grad.data()[i] += n.grad.data()[i];
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Softmax(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.rows(); ++i) {
    double mx = out.at(i, 0);
    for (int j = 1; j < out.cols(); ++j) mx = std::max(mx, out.at(i, j));
    double sum = 0.0;
    for (int j = 0; j < out.cols(); ++j) {
      out.at(i, j) = std::exp(out.at(i, j) - mx);
      sum += out.at(i, j);
    }
    for (int j = 0; j < out.cols(); ++j) out.at(i, j) /= sum;
  }
  return AddNode(std::move(out), {a}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < n.value.rows(); ++i) {
      double dot = 0.0;
      for (int j = 0; j < n.value.cols(); ++j) {
        dot += n.grad.at(i, j) * n.value.at(i, j);
      }
      for (int j = 0; j < n.value.cols(); ++j) {
        na.grad.at(i, j) += n.value.at(i, j) * (n.grad.at(i, j) - dot);
      }
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::LogSoftmax(VarId a) {
  Matrix out = value(a);
  for (int i = 0; i < out.rows(); ++i) {
    double mx = out.at(i, 0);
    for (int j = 1; j < out.cols(); ++j) mx = std::max(mx, out.at(i, j));
    double sum = 0.0;
    for (int j = 0; j < out.cols(); ++j) sum += std::exp(out.at(i, j) - mx);
    double lse = mx + std::log(sum);
    for (int j = 0; j < out.cols(); ++j) out.at(i, j) -= lse;
  }
  return AddNode(std::move(out), {a}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < n.value.rows(); ++i) {
      double gsum = 0.0;
      for (int j = 0; j < n.value.cols(); ++j) gsum += n.grad.at(i, j);
      for (int j = 0; j < n.value.cols(); ++j) {
        na.grad.at(i, j) +=
            n.grad.at(i, j) - std::exp(n.value.at(i, j)) * gsum;
      }
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::ConcatCols(VarId a, VarId b) {
  const Matrix& A = value(a);
  const Matrix& B = value(b);
  TRAP_CHECK(A.rows() == B.rows());
  Matrix out(A.rows(), A.cols() + B.cols());
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < A.cols(); ++j) out.at(i, j) = A.at(i, j);
    for (int j = 0; j < B.cols(); ++j) out.at(i, A.cols() + j) = B.at(i, j);
  }
  int ac = A.cols();
  return AddNode(std::move(out), {a, b}, [ac](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    Node& nb = g.node(n.inputs[1]);
    for (int i = 0; i < n.grad.rows(); ++i) {
      for (int j = 0; j < ac; ++j) na.grad.at(i, j) += n.grad.at(i, j);
      for (int j = 0; j < nb.value.cols(); ++j) {
        nb.grad.at(i, j) += n.grad.at(i, ac + j);
      }
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Pick(VarId a, int r, int c) {
  Matrix out(1, 1);
  out.at(0, 0) = value(a).at(r, c);
  return AddNode(std::move(out), {a}, [r, c](ReferenceGraph& g, Node& n) {
    g.node(n.inputs[0]).grad.at(r, c) += n.grad.at(0, 0);
  });
}

ReferenceGraph::VarId ReferenceGraph::Sum(VarId a) {
  Matrix out(1, 1);
  const Matrix& A = value(a);
  for (int i = 0; i < A.size(); ++i) out.at(0, 0) += A.data()[i];
  return AddNode(std::move(out), {a}, [](ReferenceGraph& g, Node& n) {
    Node& na = g.node(n.inputs[0]);
    for (int i = 0; i < na.grad.size(); ++i) {
      na.grad.data()[i] += n.grad.at(0, 0);
    }
  });
}

ReferenceGraph::VarId ReferenceGraph::Mean(VarId a) {
  int count = value(a).size();
  TRAP_CHECK(count > 0);
  return Scale(Sum(a), 1.0 / count);
}

ReferenceGraph::VarId ReferenceGraph::LayerNorm(VarId a, Parameter* gain,
                                                Parameter* bias) {
  const Matrix& A = value(a);
  TRAP_CHECK(gain->value.rows() == 1 && gain->value.cols() == A.cols());
  TRAP_CHECK(bias->value.rows() == 1 && bias->value.cols() == A.cols());
  constexpr double kEps = 1e-5;
  // normalized = (x - mean) / sqrt(var + eps), out = normalized * g + b.
  Matrix norm(A.rows(), A.cols());
  std::vector<double> inv_std(static_cast<size_t>(A.rows()));
  for (int i = 0; i < A.rows(); ++i) {
    double mean = 0.0;
    for (int j = 0; j < A.cols(); ++j) mean += A.at(i, j);
    mean /= A.cols();
    double var = 0.0;
    for (int j = 0; j < A.cols(); ++j) {
      var += (A.at(i, j) - mean) * (A.at(i, j) - mean);
    }
    var /= A.cols();
    inv_std[static_cast<size_t>(i)] = 1.0 / std::sqrt(var + kEps);
    for (int j = 0; j < A.cols(); ++j) {
      norm.at(i, j) = (A.at(i, j) - mean) * inv_std[static_cast<size_t>(i)];
    }
  }
  Matrix out(A.rows(), A.cols());
  for (int i = 0; i < A.rows(); ++i) {
    for (int j = 0; j < A.cols(); ++j) {
      out.at(i, j) = norm.at(i, j) * gain->value.at(0, j) + bias->value.at(0, j);
    }
  }
  VarId id = AddNode(
      std::move(out), {a},
      [norm, inv_std, gain, bias](ReferenceGraph& g, Node& n) {
        Node& na = g.node(n.inputs[0]);
        int cols = n.value.cols();
        for (int i = 0; i < n.value.rows(); ++i) {
          // d norm and parameter grads.
          double sum_dnorm = 0.0, sum_dnorm_norm = 0.0;
          std::vector<double> dnorm(static_cast<size_t>(cols));
          for (int j = 0; j < cols; ++j) {
            double go = n.grad.at(i, j);
            gain->grad.at(0, j) += go * norm.at(i, j);
            bias->grad.at(0, j) += go;
            dnorm[static_cast<size_t>(j)] = go * gain->value.at(0, j);
            sum_dnorm += dnorm[static_cast<size_t>(j)];
            sum_dnorm_norm += dnorm[static_cast<size_t>(j)] * norm.at(i, j);
          }
          for (int j = 0; j < cols; ++j) {
            na.grad.at(i, j) +=
                inv_std[static_cast<size_t>(i)] *
                (dnorm[static_cast<size_t>(j)] - sum_dnorm / cols -
                 norm.at(i, j) * sum_dnorm_norm / cols);
          }
        }
      });
  return id;
}

void ReferenceGraph::Backward(VarId loss) {
  Node& ln = node(loss);
  TRAP_CHECK(ln.value.rows() == 1 && ln.value.cols() == 1);
  ln.grad.at(0, 0) = 1.0;
  // Nodes were appended in topological order; walk backwards.
  for (int id = loss; id >= 0; --id) {
    Node& n = node(id);
    if (n.backward) {
      n.backward(*this, n);
    } else if (n.param != nullptr) {
      if (n.gather_ids.empty()) {
        for (int i = 0; i < n.grad.size(); ++i) {
          n.param->grad.data()[i] += n.grad.data()[i];
        }
      } else {
        for (int i = 0; i < n.grad.rows(); ++i) {
          int dst = n.gather_ids[static_cast<size_t>(i)];
          for (int c = 0; c < n.grad.cols(); ++c) {
            n.param->grad.at(dst, c) += n.grad.at(i, c);
          }
        }
      }
    }
  }
}

void ReferenceAdamStep(const std::vector<Parameter*>& params, int64_t t,
                       double lr, double beta1, double beta2, double eps,
                       double max_grad_norm) {
  if (max_grad_norm > 0.0) {
    double sq = 0.0;
    for (Parameter* p : params) {
      for (int i = 0; i < p->grad.size(); ++i) {
        sq += p->grad.data()[i] * p->grad.data()[i];
      }
    }
    double norm = std::sqrt(sq);
    if (norm > max_grad_norm) {
      double scale = max_grad_norm / norm;
      for (Parameter* p : params) {
        for (int i = 0; i < p->grad.size(); ++i) p->grad.data()[i] *= scale;
      }
    }
  }
  double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
  double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
  for (Parameter* p : params) {
    for (int i = 0; i < p->value.size(); ++i) {
      double gi = p->grad.data()[i];
      p->m.data()[i] = beta1 * p->m.data()[i] + (1.0 - beta1) * gi;
      p->v.data()[i] = beta2 * p->v.data()[i] + (1.0 - beta2) * gi * gi;
      double mhat = p->m.data()[i] / bc1;
      double vhat = p->v.data()[i] / bc2;
      p->value.data()[i] -= lr * mhat / (std::sqrt(vhat) + eps);
    }
    p->grad.Zero();
  }
}

}  // namespace trap::proptest
