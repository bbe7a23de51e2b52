#include "src/nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
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
}

void Mlp::Forward(const double* input,
                  std::vector<std::vector<double>>& activations) const {
  size_t num_layers = weights_.size();
  activations.resize(num_layers + 1);
  activations[0].assign(input, input + config_.layer_dims[0]);
  for (size_t l = 0; l < num_layers; ++l) {
    size_t in = config_.layer_dims[l];
    size_t out = config_.layer_dims[l + 1];
    const double* a = activations[l].data();
    const double* bias = biases_[l].data();
    std::vector<double>& z = activations[l + 1];
    z.resize(out);
    // ReLU on hidden layers, identity on the output layer.
    bool relu = l + 1 < num_layers;
    // Eight rows per pass over the input, each in its own accumulator and in
    // the single-chain order (bias, then w[o][i] * a[i] for i = 0, 1, ...):
    // bit-identical to one row at a time, with the add latency overlapped.
    size_t o = 0;
    for (; o + 8 <= out; o += 8) {
      const double* w0 = weights_[l].RowPtr(o);
      const double* w1 = w0 + in;
      const double* w2 = w1 + in;
      const double* w3 = w2 + in;
      const double* w4 = w3 + in;
      const double* w5 = w4 + in;
      const double* w6 = w5 + in;
      const double* w7 = w6 + in;
      double s0 = bias[o], s1 = bias[o + 1], s2 = bias[o + 2], s3 = bias[o + 3];
      double s4 = bias[o + 4], s5 = bias[o + 5], s6 = bias[o + 6], s7 = bias[o + 7];
      for (size_t i = 0; i < in; ++i) {
        double ai = a[i];
        s0 += w0[i] * ai;
        s1 += w1[i] * ai;
        s2 += w2[i] * ai;
        s3 += w3[i] * ai;
        s4 += w4[i] * ai;
        s5 += w5[i] * ai;
        s6 += w6[i] * ai;
        s7 += w7[i] * ai;
      }
      double sums[8] = {s0, s1, s2, s3, s4, s5, s6, s7};
      for (size_t r = 0; r < 8; ++r) {
        z[o + r] = relu ? std::max(0.0, sums[r]) : sums[r];
      }
    }
    // Leftover rows: the single chain.
    for (; o < out; ++o) {
      const double* wrow = weights_[l].RowPtr(o);
      double sum = bias[o];
      for (size_t i = 0; i < in; ++i) {
        sum += wrow[i] * a[i];
      }
      z[o] = relu ? std::max(0.0, sum) : sum;
    }
  }
}

std::vector<double> Mlp::Predict(const std::vector<double>& input) const {
  assert(input.size() == config_.layer_dims.front());
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
