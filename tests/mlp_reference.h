// Reference MLP forward for tests and the perf-smoke floor: one running sum
// per output row.
//
// Each output is bias, then += w[o][i] * a[i] for i = 0, 1, ..., in that
// order, with ReLU on hidden layers and the identity on the output layer.
// Mlp::Predict (src/nn/mlp.h) computes eight rows per pass over the input,
// two per register, and skips the exactly-zero inputs instead; tests compare
// the two bit for bit.
#ifndef TESTS_MLP_REFERENCE_H_
#define TESTS_MLP_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/nn/mlp.h"

namespace litereconfig {

inline std::vector<double> ReferenceMlpPredict(const Mlp& mlp,
                                               const std::vector<double>& input) {
  const std::vector<size_t>& dims = mlp.config().layer_dims;
  size_t num_layers = mlp.weights().size();
  std::vector<std::vector<double>> activations(num_layers + 1);
  activations[0] = input;
  for (size_t l = 0; l < num_layers; ++l) {
    size_t in = dims[l];
    size_t out = dims[l + 1];
    std::vector<double>& z = activations[l + 1];
    z.assign(out, 0.0);
    const std::vector<double>& a = activations[l];
    for (size_t o = 0; o < out; ++o) {
      const double* wrow = mlp.weights()[l].RowPtr(o);
      double sum = mlp.biases()[l][o];
      for (size_t i = 0; i < in; ++i) {
        sum += wrow[i] * a[i];
      }
      // ReLU on hidden layers, identity on the output layer.
      z[o] = (l + 1 < num_layers) ? std::max(0.0, sum) : sum;
    }
  }
  return activations.back();
}

}  // namespace litereconfig

#endif  // TESTS_MLP_REFERENCE_H_
