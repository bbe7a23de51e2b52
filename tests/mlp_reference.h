// Reference dense layer and MLP forward for tests and bench_perf's floor:
// one running sum per output row.
//
// Each output is its bias (+0.0 without one), then += w[o][i] * a[i] for
// i = 0, 1, ..., in that order, with ReLU on hidden layers and the identity
// on the output layer. Mlp::Predict (src/nn/mlp.h) runs input-major weights
// through the output-lane dense kernel (src/nn/dense.h), several outputs per
// vector, and skips the exactly-zero inputs instead; tests compare the two
// bit for bit.
#ifndef TESTS_MLP_REFERENCE_H_
#define TESTS_MLP_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/nn/mlp.h"

namespace litereconfig {

// One layer over row-major weights (w is out x in); `bias` is null for a
// +0.0 start on every output.
inline std::vector<double> ReferenceDenseLayer(const Matrix& w, const double* bias,
                                               const std::vector<double>& a,
                                               bool relu) {
  std::vector<double> z(w.rows(), 0.0);
  for (size_t o = 0; o < w.rows(); ++o) {
    const double* wrow = w.RowPtr(o);
    double sum = bias != nullptr ? bias[o] : 0.0;
    for (size_t i = 0; i < w.cols(); ++i) {
      sum += wrow[i] * a[i];
    }
    z[o] = relu ? std::max(0.0, sum) : sum;
  }
  return z;
}

// The forward over row-major weights (weights[l] is out x in) and biases, as
// Mlp::weights() and Mlp::biases() export them.
inline std::vector<double> ReferenceMlpPredict(
    const std::vector<Matrix>& weights, const std::vector<std::vector<double>>& biases,
    const std::vector<double>& input) {
  std::vector<double> a = input;
  for (size_t l = 0; l < weights.size(); ++l) {
    // ReLU on hidden layers, identity on the output layer.
    a = ReferenceDenseLayer(weights[l], biases[l].data(), a, l + 1 < weights.size());
  }
  return a;
}

inline std::vector<double> ReferenceMlpPredict(const Mlp& mlp,
                                               const std::vector<double>& input) {
  return ReferenceMlpPredict(mlp.weights(), mlp.biases(), input);
}

}  // namespace litereconfig

#endif  // TESTS_MLP_REFERENCE_H_
