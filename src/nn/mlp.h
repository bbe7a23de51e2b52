// Fully-connected network with ReLU hidden activations, trained with minibatch
// SGD + momentum, MSE loss, and L2 regularization — exactly the recipe the paper
// uses for its content-aware accuracy prediction model (Section 4). Each layer
// is stored input-major, and the forward pass (Predict, and Train's) runs it
// through the output-lane dense kernel (src/nn/dense.h): every output is
// bit-identical to a single running sum per output in input order (DESIGN.md,
// "Blocked MLP forward" and "Dead-unit skipping").
#ifndef SRC_NN_MLP_H_
#define SRC_NN_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/matrix.h"

namespace litereconfig {

struct MlpConfig {
  // Layer widths including input and output, e.g. {260, 256, 256, 204}.
  std::vector<size_t> layer_dims;
  double learning_rate = 0.01;
  double momentum = 0.9;
  double l2 = 1e-4;
  size_t batch_size = 64;
  size_t epochs = 60;
  uint64_t seed = 1;
  // Stop early once the epoch's mean training loss improves by less than this
  // relative amount (0 disables early stopping).
  double early_stop_rel_tol = 1e-4;
};

class Mlp {
 public:
  // A Xavier-initialised network, ready to Train. Throws
  // std::invalid_argument unless layer_dims has at least two widths.
  explicit Mlp(const MlpConfig& config);
  // A network with the given row-major parameters. Throws
  // std::invalid_argument unless every weights[l] is layer_dims[l+1] x
  // layer_dims[l], every biases[l] has layer_dims[l+1] entries, and every
  // parameter is finite (the forward's dead-unit skip relies on it).
  Mlp(const MlpConfig& config, const std::vector<Matrix>& weights,
      std::vector<std::vector<double>> biases);
  // The same from input-major weights, the net's own layout, taken as they
  // are (the model-cache loader): every weights[l] must be layer_dims[l] x
  // layer_dims[l+1].
  static Mlp FromInputMajor(const MlpConfig& config, std::vector<Matrix> weights,
                            std::vector<std::vector<double>> biases);

  // X: n x input_dim, Y: n x output_dim. Returns the final epoch's mean MSE.
  // Throws std::invalid_argument unless x has input_dim columns, y has
  // output_dim columns and both have the same number of rows.
  double Train(const Matrix& x, const Matrix& y);

  // With a non-empty `needed` (one flag per output), only the flagged
  // outputs are computed, each bit-identical to the unmasked forward; the
  // others read 0.0. Throws std::invalid_argument unless input has
  // layer_dims.front() entries and `needed` is empty or has
  // layer_dims.back().
  std::vector<double> Predict(const std::vector<double>& input,
                              std::span<const uint8_t> needed = {}) const;

  const MlpConfig& config() const { return config_; }

  // The weights exported row-major (weights()[l] is layer_dims[l+1] x
  // layer_dims[l]), a copy: for the model-cache writer, the CPU-family graft
  // and tests, never a hot path.
  std::vector<Matrix> weights() const;
  const std::vector<std::vector<double>>& biases() const { return biases_; }

 private:
  struct InputMajor {};
  Mlp(const MlpConfig& config, std::vector<Matrix> weights,
      std::vector<std::vector<double>> biases, InputMajor);

  // `needed` masks the output layer (DenseArgs::needed).
  void Forward(const double* input, std::vector<std::vector<double>>& activations,
               const uint8_t* needed = nullptr) const;

  MlpConfig config_;
  // weights_[l] is input-major, dims[l] x dims[l+1]; biases_[l] has dims[l+1].
  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
};

}  // namespace litereconfig

#endif  // SRC_NN_MLP_H_
