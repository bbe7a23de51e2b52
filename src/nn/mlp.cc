#include "src/nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "src/nn/dense.h"
#include "src/util/rng.h"

namespace litereconfig {

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  if (config_.layer_dims.size() < 2) {
    throw std::invalid_argument("Mlp: layer_dims needs an input and an output width");
  }
  for (size_t l = 0; l + 1 < config_.layer_dims.size(); ++l) {
    size_t in = config_.layer_dims[l];
    size_t out = config_.layer_dims[l + 1];
    // Drawn row-major (the draw order fixes every initial weight, so trained
    // weights and the model-cache bytes depend on it), then stored
    // input-major.
    weights_.push_back(
        Matrix::XavierUniform(out, in, HashKeys({config_.seed, l})).Transposed());
    biases_.emplace_back(out, 0.0);
  }
}

namespace {

// The input-major copy of row-major layer weights; throws unless weights[l]
// is dims[l+1] x dims[l] for every layer.
std::vector<Matrix> InputMajorCopy(const std::vector<size_t>& dims,
                                   const std::vector<Matrix>& weights) {
  bool ok = dims.size() >= 2 && weights.size() + 1 == dims.size();
  for (size_t l = 0; ok && l < weights.size(); ++l) {
    ok = weights[l].rows() == dims[l + 1] && weights[l].cols() == dims[l];
  }
  if (!ok) {
    throw std::invalid_argument("Mlp: parameter shapes do not match layer_dims");
  }
  std::vector<Matrix> input_major;
  input_major.reserve(weights.size());
  for (const Matrix& w : weights) {
    input_major.push_back(w.Transposed());
  }
  return input_major;
}

}  // namespace

Mlp::Mlp(const MlpConfig& config, const std::vector<Matrix>& weights,
         std::vector<std::vector<double>> biases)
    : Mlp(config, InputMajorCopy(config.layer_dims, weights), std::move(biases),
          InputMajor{}) {}

Mlp Mlp::FromInputMajor(const MlpConfig& config, std::vector<Matrix> weights,
                        std::vector<std::vector<double>> biases) {
  return Mlp(config, std::move(weights), std::move(biases), InputMajor{});
}

Mlp::Mlp(const MlpConfig& config, std::vector<Matrix> weights,
         std::vector<std::vector<double>> biases, InputMajor)
    : config_(config), weights_(std::move(weights)), biases_(std::move(biases)) {
  const std::vector<size_t>& dims = config_.layer_dims;
  bool ok = dims.size() >= 2 && weights_.size() + 1 == dims.size() &&
            biases_.size() == weights_.size();
  for (size_t l = 0; ok && l < weights_.size(); ++l) {
    ok = weights_[l].rows() == dims[l] && weights_[l].cols() == dims[l + 1] &&
         biases_[l].size() == dims[l + 1];
  }
  if (!ok) {
    throw std::invalid_argument("Mlp: parameter shapes do not match layer_dims");
  }
  for (size_t l = 0; l < weights_.size(); ++l) {
    if (!AllFinite(weights_[l].data()) || !AllFinite(biases_[l])) {
      throw std::invalid_argument("Mlp: non-finite weight or bias");
    }
  }
}

std::vector<Matrix> Mlp::weights() const {
  std::vector<Matrix> row_major;
  row_major.reserve(weights_.size());
  for (const Matrix& w : weights_) {
    row_major.push_back(w.Transposed());
  }
  return row_major;
}

namespace {

// Two doubles in one SSE2 register (the GCC/Clang vector extension). Each lane
// of an operation is the scalar IEEE operation on that lane, so one Double2
// accumulator holds two independent single-chain sums.
typedef double Double2 __attribute__((vector_size(16)));

// Rows [r, r + 2 * kPairs) of m times d, two rows per Double2: each row is
// +0.0, then += m(r, c) * d[c] over the listed columns c, in list order.
template <size_t kPairs>
void RowPairs(const Matrix& m, size_t r, const double* d,
              std::span<const uint32_t> terms, double* out) {
  const size_t cols = m.cols();
  const double* m0 = m.RowPtr(r);
  Double2 s[kPairs];
  for (size_t p = 0; p < kPairs; ++p) {
    s[p] = Double2{0.0, 0.0};
  }
  for (size_t c : terms) {
    Double2 dc = {d[c], d[c]};
    for (size_t p = 0; p < kPairs; ++p) {
      const double* mc = m0 + 2 * p * cols + c;
      Double2 mp = {mc[0], mc[cols]};
      s[p] += mp * dc;
    }
  }
  for (size_t p = 0; p < kPairs; ++p) {
    out[r + 2 * p] = s[p][0];
    out[r + 2 * p + 1] = s[p][1];
  }
}

// out = m d, each row one +0.0-start chain over the non-zero entries of d in
// order, eight rows per pass over them. Backprop runs it on an input-major
// weight matrix, whose rows are the layer's inputs: out is W^T d, each entry
// the sum the row-major W gave column by column, term for term.
void RowProduct(const Matrix& m, const double* d, std::vector<uint32_t>& live,
                double* out) {
  size_t num_live = 0;
  for (size_t c = 0; c < m.cols(); ++c) {
    live[num_live] = static_cast<uint32_t>(c);
    num_live += d[c] != 0.0 ? 1 : 0;
  }
  std::span<const uint32_t> terms(live.data(), num_live);
  size_t r = 0;
  for (; r + 8 <= m.rows(); r += 8) {
    RowPairs<4>(m, r, d, terms, out);
  }
  for (; r + 2 <= m.rows(); r += 2) {
    RowPairs<1>(m, r, d, terms, out);
  }
  if (r < m.rows()) {
    const double* mrow = m.RowPtr(r);
    double sum = 0.0;
    for (size_t c : terms) {
      sum += mrow[c] * d[c];
    }
    out[r] = sum;
  }
}

}  // namespace

void Mlp::Forward(const double* input,
                  std::vector<std::vector<double>>& activations,
                  const uint8_t* needed) const {
  const std::vector<size_t>& dims = config_.layer_dims;
  size_t num_layers = weights_.size();
  activations.resize(num_layers + 1);
  activations[0].assign(input, input + dims[0]);
  std::vector<uint32_t> live(*std::max_element(dims.begin(), dims.end() - 1));
  for (size_t l = 0; l < num_layers; ++l) {
    activations[l + 1].resize(dims[l + 1]);
    // ReLU on hidden layers, identity on the output layer.
    DenseForward({.weights = &weights_[l],
                  .bias = biases_[l].data(),
                  .input = activations[l].data(),
                  .relu = l + 1 < num_layers,
                  .live = live.data(),
                  .output = activations[l + 1].data(),
                  .needed = l + 1 < num_layers ? nullptr : needed});
  }
}

std::vector<double> Mlp::Predict(const std::vector<double>& input,
                                 std::span<const uint8_t> needed) const {
  if (input.size() != config_.layer_dims.front()) {
    throw std::invalid_argument(
        "Mlp::Predict: input width does not match layer_dims");
  }
  if (!needed.empty() && needed.size() != config_.layer_dims.back()) {
    throw std::invalid_argument(
        "Mlp::Predict: output mask width does not match layer_dims");
  }
  // Fresh activations: the outputs a mask skips keep their 0.0.
  std::vector<std::vector<double>> activations;
  Forward(input.data(), activations, needed.empty() ? nullptr : needed.data());
  return std::move(activations.back());
}

double Mlp::Train(const Matrix& x, const Matrix& y) {
  if (x.cols() != config_.layer_dims.front()) {
    throw std::invalid_argument("Mlp::Train: x width does not match layer_dims");
  }
  if (y.cols() != config_.layer_dims.back()) {
    throw std::invalid_argument("Mlp::Train: y width does not match layer_dims");
  }
  if (x.rows() != y.rows()) {
    throw std::invalid_argument("Mlp::Train: x and y row counts differ");
  }
  size_t n = x.rows();
  if (n == 0) {
    return 0.0;
  }
  size_t num_layers = weights_.size();
  Pcg32 rng(HashKeys({config_.seed, 0x5d8ull}));
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  // Warm-start the output layer at the per-output target means: regression
  // converges from the mean rather than from zero, which matters at the small
  // epoch budgets the offline pass uses.
  {
    std::vector<double>& out_bias = biases_.back();
    std::fill(out_bias.begin(), out_bias.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = y.RowPtr(i);
      for (size_t o = 0; o < out_bias.size(); ++o) {
        out_bias[o] += row[o];
      }
    }
    for (double& b : out_bias) {
      b /= static_cast<double>(n);
    }
  }

  std::vector<std::vector<double>> activations;
  // Per-layer error terms (dL/dz).
  std::vector<std::vector<double>> deltas(num_layers);
  std::vector<uint32_t> live(
      *std::max_element(config_.layer_dims.begin(), config_.layer_dims.end()));
  // Minibatch gradient accumulators, row-major (out x in) so that a sample's
  // gradient adds along contiguous rows; the velocities are input-major like
  // the weights they update.
  std::vector<Matrix> grad_w;
  std::vector<std::vector<double>> grad_b;
  std::vector<Matrix> weight_velocity;
  std::vector<std::vector<double>> bias_velocity;
  for (size_t l = 0; l < num_layers; ++l) {
    grad_w.emplace_back(config_.layer_dims[l + 1], config_.layer_dims[l]);
    grad_b.emplace_back(config_.layer_dims[l + 1], 0.0);
    weight_velocity.emplace_back(config_.layer_dims[l], config_.layer_dims[l + 1]);
    bias_velocity.emplace_back(config_.layer_dims[l + 1], 0.0);
  }

  double prev_loss = -1.0;
  double epoch_loss = 0.0;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // Fisher-Yates shuffle.
    for (size_t i = n; i-- > 1;) {
      size_t j = rng.UniformInt(static_cast<uint32_t>(i + 1));
      std::swap(order[i], order[j]);
    }
    epoch_loss = 0.0;
    for (size_t batch_start = 0; batch_start < n; batch_start += config_.batch_size) {
      size_t batch_end = std::min(n, batch_start + config_.batch_size);
      double batch_n = static_cast<double>(batch_end - batch_start);
      for (size_t l = 0; l < num_layers; ++l) {
        std::fill(grad_w[l].data().begin(), grad_w[l].data().end(), 0.0);
        std::fill(grad_b[l].begin(), grad_b[l].end(), 0.0);
      }
      for (size_t s = batch_start; s < batch_end; ++s) {
        size_t idx = order[s];
        Forward(x.RowPtr(idx), activations);
        // Output delta: dMSE/dz = 2 (pred - target) / out_dim.
        size_t out_dim = config_.layer_dims.back();
        deltas[num_layers - 1].assign(out_dim, 0.0);
        const double* target = y.RowPtr(idx);
        for (size_t o = 0; o < out_dim; ++o) {
          double diff = activations[num_layers][o] - target[o];
          deltas[num_layers - 1][o] = 2.0 * diff / static_cast<double>(out_dim);
          epoch_loss += diff * diff / static_cast<double>(out_dim);
        }
        // Backpropagate: deltas[l] = W[l+1]^T deltas[l+1], a product whose
        // rows are the rows of the input-major W[l+1].
        for (size_t l = num_layers - 1; l-- > 0;) {
          size_t dim = config_.layer_dims[l + 1];
          deltas[l].resize(dim);
          RowProduct(weights_[l + 1], deltas[l + 1].data(), live, deltas[l].data());
          // ReLU derivative.
          for (size_t i = 0; i < dim; ++i) {
            if (activations[l + 1][i] <= 0.0) {
              deltas[l][i] = 0.0;
            }
          }
        }
        // Accumulate gradients.
        for (size_t l = 0; l < num_layers; ++l) {
          const std::vector<double>& a = activations[l];
          const std::vector<double>& d = deltas[l];
          for (size_t o = 0; o < d.size(); ++o) {
            if (d[o] == 0.0) {
              continue;
            }
            double* grow = grad_w[l].RowPtr(o);
            for (size_t i = 0; i < a.size(); ++i) {
              grow[i] += d[o] * a[i];
            }
            grad_b[l][o] += d[o];
          }
        }
      }
      // SGD with momentum and L2 weight decay.
      for (size_t l = 0; l < num_layers; ++l) {
        Matrix& w = weights_[l];
        Matrix& velocity = weight_velocity[l];
        const Matrix& g = grad_w[l];
        for (size_t i = 0; i < w.rows(); ++i) {
          double* wrow = w.RowPtr(i);
          double* vrow = velocity.RowPtr(i);
          for (size_t o = 0; o < w.cols(); ++o) {
            double grad = g(o, i) / batch_n + config_.l2 * wrow[o];
            vrow[o] = config_.momentum * vrow[o] - config_.learning_rate * grad;
            wrow[o] += vrow[o];
          }
        }
        for (size_t o = 0; o < biases_[l].size(); ++o) {
          double grad = grad_b[l][o] / batch_n;
          bias_velocity[l][o] =
              config_.momentum * bias_velocity[l][o] - config_.learning_rate * grad;
          biases_[l][o] += bias_velocity[l][o];
        }
      }
    }
    epoch_loss /= static_cast<double>(n);
    if (config_.early_stop_rel_tol > 0.0 && prev_loss >= 0.0) {
      double rel = std::abs(prev_loss - epoch_loss) / std::max(prev_loss, 1e-12);
      if (rel < config_.early_stop_rel_tol) {
        break;
      }
    }
    prev_loss = epoch_loss;
  }
  return epoch_loss;
}

}  // namespace litereconfig
