#include "src/nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "src/util/rng.h"

namespace litereconfig {

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  assert(config_.layer_dims.size() >= 2);
  for (size_t l = 0; l + 1 < config_.layer_dims.size(); ++l) {
    size_t in = config_.layer_dims[l];
    size_t out = config_.layer_dims[l + 1];
    weights_.push_back(Matrix::XavierUniform(out, in, HashKeys({config_.seed, l})));
    biases_.emplace_back(out, 0.0);
  }
}

Mlp::Mlp(const MlpConfig& config, std::vector<Matrix> weights,
         std::vector<std::vector<double>> biases)
    : config_(config), weights_(std::move(weights)), biases_(std::move(biases)) {
  const std::vector<size_t>& dims = config_.layer_dims;
  bool ok = dims.size() >= 2 && weights_.size() + 1 == dims.size() &&
            biases_.size() == weights_.size();
  for (size_t l = 0; ok && l < weights_.size(); ++l) {
    ok = weights_[l].rows() == dims[l + 1] && weights_[l].cols() == dims[l] &&
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

namespace {

// Two doubles in one SSE2 register (the GCC/Clang vector extension). Each lane
// of an operation is the scalar IEEE operation on that lane, so one Double2
// accumulator holds two independent single-chain sums.
typedef double Double2 __attribute__((vector_size(16)));

bool IsNegativeZero(double v) { return v == 0.0 && std::signbit(v); }

// Whether any of rows [o, o + rows) starts its chain at -0.0, the one start
// on which dropping a zero term can change the sum (DESIGN.md, "Dead-unit
// skipping").
bool AnyNegativeZero(const double* bias, size_t o, size_t rows) {
  return std::any_of(bias + o, bias + o + rows, IsNegativeZero);
}

double Activate(double sum, bool relu) { return relu ? std::max(0.0, sum) : sum; }

// Rows [o, o + 2 * kPairs) of one layer, two rows per Double2: each row is its
// bias, then += w[r][i] * a[i] over the listed input indices, in list order.
template <size_t kPairs>
void ForwardRowPairs(const Matrix& w, const double* bias, size_t o,
                     const double* a, std::span<const size_t> terms, bool relu,
                     double* z) {
  const size_t in = w.cols();
  const double* w0 = w.RowPtr(o);
  Double2 s[kPairs];
  for (size_t p = 0; p < kPairs; ++p) {
    Double2 b = {bias[o + 2 * p], bias[o + 2 * p + 1]};
    s[p] = b;
  }
  for (size_t i : terms) {
    Double2 ai = {a[i], a[i]};
    for (size_t p = 0; p < kPairs; ++p) {
      const double* wi = w0 + 2 * p * in + i;
      Double2 wp = {wi[0], wi[in]};
      s[p] += wp * ai;
    }
  }
  for (size_t p = 0; p < kPairs; ++p) {
    z[o + 2 * p] = Activate(s[p][0], relu);
    z[o + 2 * p + 1] = Activate(s[p][1], relu);
  }
}

// One row on a scalar chain over the listed input indices.
void ForwardRow(const Matrix& w, const double* bias, size_t o, const double* a,
                std::span<const size_t> terms, bool relu, double* z) {
  const double* wrow = w.RowPtr(o);
  double sum = bias[o];
  for (size_t i : terms) {
    sum += wrow[i] * a[i];
  }
  z[o] = Activate(sum, relu);
}

}  // namespace

void Mlp::Forward(const double* input,
                  std::vector<std::vector<double>>& activations) const {
  const std::vector<size_t>& dims = config_.layer_dims;
  size_t num_layers = weights_.size();
  activations.resize(num_layers + 1);
  activations[0].assign(input, input + dims[0]);
  size_t max_in = *std::max_element(dims.begin(), dims.end() - 1);
  // live: the input indices whose term remains; every: all of them, in order.
  std::vector<size_t> live(max_in);
  std::vector<size_t> every;
  for (size_t l = 0; l < num_layers; ++l) {
    size_t in = dims[l];
    size_t out = dims[l + 1];
    const Matrix& w = weights_[l];
    const double* a = activations[l].data();
    const double* bias = biases_[l].data();
    std::vector<double>& z = activations[l + 1];
    z.resize(out);
    // ReLU on hidden layers, identity on the output layer.
    bool relu = l + 1 < num_layers;
    // Skip the exactly-zero inputs (ReLU-dead units, zero features): with
    // finite weights their terms are +-0.0, which leave every sum unchanged
    // unless the sum is -0.0 — only possible on a row whose bias is -0.0, so
    // such rows keep every term.
    size_t num_live = 0;
    for (size_t i = 0; i < in; ++i) {
      live[num_live] = i;
      num_live += a[i] != 0.0 ? 1 : 0;
    }
    auto terms_for = [&](size_t o, size_t rows) {
      if (!AnyNegativeZero(bias, o, rows)) {
        return std::span<const size_t>(live.data(), num_live);
      }
      if (every.size() < in) {
        every.resize(in);
        std::iota(every.begin(), every.end(), size_t{0});
      }
      return std::span<const size_t>(every.data(), in);
    };
    // Eight rows per pass over the terms, then pairs, then a last odd row.
    size_t o = 0;
    for (; o + 8 <= out; o += 8) {
      ForwardRowPairs<4>(w, bias, o, a, terms_for(o, 8), relu, z.data());
    }
    for (; o + 2 <= out; o += 2) {
      ForwardRowPairs<1>(w, bias, o, a, terms_for(o, 2), relu, z.data());
    }
    if (o < out) {
      ForwardRow(w, bias, o, a, terms_for(o, 1), relu, z.data());
    }
  }
}

std::vector<double> Mlp::Predict(const std::vector<double>& input) const {
  if (input.size() != config_.layer_dims.front()) {
    throw std::invalid_argument(
        "Mlp::Predict: input width does not match layer_dims");
  }
  std::vector<std::vector<double>> activations;
  Forward(input.data(), activations);
  return activations.back();
}

size_t Mlp::ForwardMacs() const {
  size_t macs = 0;
  for (size_t l = 0; l + 1 < config_.layer_dims.size(); ++l) {
    macs += config_.layer_dims[l] * config_.layer_dims[l + 1];
  }
  return macs;
}

double Mlp::Train(const Matrix& x, const Matrix& y) {
  assert(x.cols() == config_.layer_dims.front());
  assert(y.cols() == config_.layer_dims.back());
  assert(x.rows() == y.rows());
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
  // Minibatch gradient accumulators.
  std::vector<Matrix> grad_w;
  std::vector<std::vector<double>> grad_b;
  std::vector<Matrix> weight_velocity;
  std::vector<std::vector<double>> bias_velocity;
  for (size_t l = 0; l < num_layers; ++l) {
    grad_w.emplace_back(config_.layer_dims[l + 1], config_.layer_dims[l]);
    grad_b.emplace_back(config_.layer_dims[l + 1], 0.0);
    weight_velocity.emplace_back(config_.layer_dims[l + 1], config_.layer_dims[l]);
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
        // Backpropagate.
        for (size_t l = num_layers - 1; l-- > 0;) {
          size_t dim = config_.layer_dims[l + 1];
          deltas[l].assign(dim, 0.0);
          const Matrix& w_next = weights_[l + 1];
          const std::vector<double>& delta_next = deltas[l + 1];
          for (size_t o = 0; o < delta_next.size(); ++o) {
            double d = delta_next[o];
            if (d == 0.0) {
              continue;
            }
            const double* wrow = w_next.RowPtr(o);
            for (size_t i = 0; i < dim; ++i) {
              deltas[l][i] += d * wrow[i];
            }
          }
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
        std::vector<double>& wdata = weights_[l].data();
        std::vector<double>& vdata = weight_velocity[l].data();
        const std::vector<double>& gdata = grad_w[l].data();
        for (size_t i = 0; i < wdata.size(); ++i) {
          double grad = gdata[i] / batch_n + config_.l2 * wdata[i];
          vdata[i] = config_.momentum * vdata[i] - config_.learning_rate * grad;
          wdata[i] += vdata[i];
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
