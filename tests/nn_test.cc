#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "src/nn/dense.h"
#include "src/nn/matrix.h"
#include "src/nn/mlp.h"
#include "src/nn/ridge.h"
#include "src/util/rng.h"
#include "tests/mlp_reference.h"

namespace litereconfig {
namespace {

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a = Matrix::XavierUniform(4, 7, 3);
  Matrix att = a.Transposed().Transposed();
  EXPECT_EQ(att.data(), a.data());
}

TEST(MatrixTest, XavierBoundsAndDeterminism) {
  Matrix a = Matrix::XavierUniform(16, 16, 5);
  Matrix b = Matrix::XavierUniform(16, 16, 5);
  EXPECT_EQ(a.data(), b.data());
  double limit = std::sqrt(6.0 / 32.0);
  for (double v : a.data()) {
    EXPECT_LE(std::abs(v), limit);
  }
}

TEST(CholeskyTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [6, 5] -> x = [1, 1].
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  std::vector<double> x = CholeskySolve(a, {6, 5}, 0.0);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(CholeskyTest, ThrowsOnIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW(CholeskySolve(a, {1, 1}, 0.0), std::runtime_error);
}

TEST(RidgeTest, RecoversLinearFunction) {
  Pcg32 rng(7);
  size_t n = 200;
  Matrix x(n, 3);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.Uniform(-2, 2);
    }
    y[i] = 2.0 * x(i, 0) - 1.5 * x(i, 1) + 0.5 * x(i, 2) + 4.0;
  }
  RidgeRegression model = RidgeRegression::Fit(x, y, 1e-8);
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-6);
  EXPECT_NEAR(model.weights()[1], -1.5, 1e-6);
  EXPECT_NEAR(model.weights()[2], 0.5, 1e-6);
  EXPECT_NEAR(model.bias(), 4.0, 1e-6);
  EXPECT_NEAR(model.Predict({1.0, 1.0, 1.0}), 5.0, 1e-6);
}

TEST(RidgeTest, HandlesConstantTarget) {
  Matrix x(10, 2);
  Pcg32 rng(9);
  for (size_t i = 0; i < 10; ++i) {
    x(i, 0) = rng.Uniform(0, 1);
    x(i, 1) = rng.Uniform(0, 1);
  }
  std::vector<double> y(10, 3.5);
  RidgeRegression model = RidgeRegression::Fit(x, y, 1e-6);
  EXPECT_NEAR(model.Predict({0.5, 0.5}), 3.5, 1e-6);
}

TEST(RidgeTest, RegularizationShrinksWeights) {
  Pcg32 rng(11);
  size_t n = 50;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y[i] = 3.0 * x(i, 0) + rng.Normal(0, 0.1);
  }
  RidgeRegression weak = RidgeRegression::Fit(x, y, 1e-8);
  RidgeRegression strong = RidgeRegression::Fit(x, y, 100.0);
  EXPECT_LT(std::abs(strong.weights()[0]), std::abs(weak.weights()[0]));
}

TEST(RidgeTest, FromPartsRoundTrip) {
  RidgeRegression model = RidgeRegression::FromParts({1.0, -2.0}, 0.5);
  EXPECT_DOUBLE_EQ(model.Predict({2.0, 1.0}), 0.5 + 2.0 - 2.0);
}

MlpConfig SmallConfig(std::vector<size_t> dims, size_t epochs = 300) {
  MlpConfig config;
  config.layer_dims = std::move(dims);
  config.learning_rate = 0.05;
  config.epochs = epochs;
  config.batch_size = 16;
  config.l2 = 0.0;
  config.seed = 3;
  config.early_stop_rel_tol = 0.0;
  return config;
}

TEST(MlpTest, LearnsLinearMap) {
  Pcg32 rng(13);
  size_t n = 256;
  Matrix x(n, 2);
  Matrix y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y(i, 0) = 0.7 * x(i, 0) - 0.3 * x(i, 1) + 0.1;
  }
  Mlp mlp(SmallConfig({2, 16, 1}));
  double loss = mlp.Train(x, y);
  EXPECT_LT(loss, 1e-3);
  EXPECT_NEAR(mlp.Predict({0.5, 0.5})[0], 0.7 * 0.5 - 0.3 * 0.5 + 0.1, 0.05);
}

TEST(MlpTest, LearnsNonlinearFunction) {
  // XOR-like: y = 1 if x0*x1 > 0 else 0. Needs a hidden layer.
  Pcg32 rng(17);
  size_t n = 512;
  Matrix x(n, 2);
  Matrix y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y(i, 0) = x(i, 0) * x(i, 1) > 0 ? 1.0 : 0.0;
  }
  Mlp mlp(SmallConfig({2, 32, 32, 1}, 400));
  double loss = mlp.Train(x, y);
  EXPECT_LT(loss, 0.05);
  EXPECT_GT(mlp.Predict({0.5, 0.5})[0], 0.7);
  EXPECT_LT(mlp.Predict({0.5, -0.5})[0], 0.3);
}

TEST(MlpTest, MultiOutputRegression) {
  Pcg32 rng(19);
  size_t n = 200;
  Matrix x(n, 3);
  Matrix y(n, 4);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.Uniform(-1, 1);
    }
    for (size_t o = 0; o < 4; ++o) {
      y(i, o) = 0.2 * static_cast<double>(o) * x(i, 0) + 0.1 * x(i, 2);
    }
  }
  Mlp mlp(SmallConfig({3, 24, 4}));
  EXPECT_LT(mlp.Train(x, y), 1e-3);
}

TEST(MlpTest, DeterministicTraining) {
  Pcg32 rng(23);
  Matrix x(64, 2);
  Matrix y(64, 1);
  for (size_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y(i, 0) = x(i, 0);
  }
  Mlp a(SmallConfig({2, 8, 1}, 50));
  Mlp b(SmallConfig({2, 8, 1}, 50));
  a.Train(x, y);
  b.Train(x, y);
  EXPECT_EQ(a.Predict({0.3, -0.2}), b.Predict({0.3, -0.2}));
}

TEST(MlpTest, EarlyStoppingStops) {
  MlpConfig config = SmallConfig({2, 8, 1}, 10000);
  config.early_stop_rel_tol = 1e-3;
  Matrix x(32, 2);
  Matrix y(32, 1);
  Pcg32 rng(29);
  for (size_t i = 0; i < 32; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y(i, 0) = 0.0;  // trivially learnable
  }
  Mlp mlp(config);
  // Must terminate quickly (the test would time out otherwise) and fit well.
  EXPECT_LT(mlp.Train(x, y), 1e-3);
}

TEST(MlpTest, ParameterConstructorRoundTrip) {
  MlpConfig config = SmallConfig({2, 4, 1}, 20);
  Mlp original(config);
  Matrix x(16, 2);
  Matrix y(16, 1);
  Pcg32 rng(31);
  for (size_t i = 0; i < 16; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y(i, 0) = x(i, 0) + x(i, 1);
  }
  original.Train(x, y);
  Mlp copy(config, original.weights(), original.biases());
  EXPECT_EQ(copy.Predict({0.4, -0.1}), original.Predict({0.4, -0.1}));
}

TEST(MlpTest, ParameterConstructorRejectsWrongShapes) {
  MlpConfig config = SmallConfig({3, 5, 2}, 1);
  std::vector<Matrix> weights = {Matrix(5, 3), Matrix(2, 5)};
  std::vector<std::vector<double>> biases = {std::vector<double>(5, 0.0),
                                             std::vector<double>(2, 0.0)};
  EXPECT_NO_THROW(Mlp(config, weights, biases));

  std::vector<Matrix> transposed = weights;
  transposed[0] = Matrix(3, 5);
  EXPECT_THROW(Mlp(config, transposed, biases), std::invalid_argument);
  std::vector<Matrix> missing_layer = {weights[0]};
  EXPECT_THROW(Mlp(config, missing_layer, biases), std::invalid_argument);

  std::vector<std::vector<double>> short_bias = biases;
  short_bias[1].pop_back();
  EXPECT_THROW(Mlp(config, weights, short_bias), std::invalid_argument);
}

TEST(MlpTest, ParameterConstructorRejectsNonFiniteParameters) {
  MlpConfig config = SmallConfig({3, 5, 2}, 1);
  std::vector<Matrix> weights = {Matrix(5, 3), Matrix(2, 5)};
  std::vector<std::vector<double>> biases = {std::vector<double>(5, 0.0),
                                             std::vector<double>(2, 0.0)};
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    std::vector<Matrix> bad_weights = weights;
    bad_weights[1](1, 4) = bad;
    EXPECT_THROW(Mlp(config, bad_weights, biases), std::invalid_argument);
    std::vector<std::vector<double>> bad_biases = biases;
    bad_biases[0][2] = bad;
    EXPECT_THROW(Mlp(config, weights, bad_biases), std::invalid_argument);
  }
}

TEST(MlpTest, PredictRejectsWrongInputWidth) {
  Mlp mlp(SmallConfig({3, 5, 2}, 1));
  EXPECT_NO_THROW(mlp.Predict({0.1, 0.2, 0.3}));
  EXPECT_THROW(mlp.Predict({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW(mlp.Predict({0.1, 0.2, 0.3, 0.4}), std::invalid_argument);
}

// A chain that starts at -0.0 is the one a zero term can change: -0.0 + 0.0
// is +0.0. Rows with a -0.0 bias keep every term, so the output sign matches
// the single chain; the +0.0-bias row may skip its zero terms.
TEST(MlpTest, NegativeZeroBiasKeepsEveryTerm) {
  for (size_t width : {1u, 2u, 9u}) {
    MlpConfig config = SmallConfig({2, width}, 1);
    Matrix w(width, 2);
    std::fill(w.data().begin(), w.data().end(), 1.0);
    std::vector<double> bias(width, -0.0);
    bias[0] = 0.0;
    Mlp mlp(config, {w}, {bias});
    std::vector<double> got = mlp.Predict({0.0, 0.0});
    std::vector<double> want = ReferenceMlpPredict(mlp, {0.0, 0.0});
    ASSERT_EQ(got.size(), width);
    for (size_t o = 0; o < width; ++o) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got[o]), std::bit_cast<uint64_t>(want[o]))
          << "width " << width << " output " << o;
      EXPECT_FALSE(std::signbit(got[o])) << "width " << width << " output " << o;
    }
  }
}

// Draws a value that is exactly 0.0 or -0.0 one time in eight each and
// otherwise uniform in [-1, 1). Always two draws, so the stream stays aligned.
double SparseValue(Pcg32& rng) {
  uint32_t pick = rng.UniformInt(8);
  double uniform = rng.Uniform(-1, 1);
  return pick == 0 ? 0.0 : pick == 1 ? -0.0 : uniform;
}

// The blocked forward against the single-chain oracle, bit for bit, on random
// architectures whose widths fall below, at and above the 8-row block and
// leave remainder rows: exact-zero weights and inputs, negative inputs, and
// strongly negative biases that keep some ReLU units dead.
TEST(MlpTest, RandomizedForwardMatchesSingleChainReference) {
  constexpr size_t kWidths[] = {1, 7, 8, 9, 17, 96, 204};
  Pcg32 rng(20231);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    MlpConfig config;
    size_t depth = 2 + rng.UniformInt(4);
    for (size_t d = 0; d < depth; ++d) {
      config.layer_dims.push_back(kWidths[rng.UniformInt(std::size(kWidths))]);
    }
    std::vector<Matrix> weights;
    std::vector<std::vector<double>> biases;
    for (size_t l = 0; l + 1 < depth; ++l) {
      Matrix w(config.layer_dims[l + 1], config.layer_dims[l]);
      for (double& v : w.data()) {
        v = SparseValue(rng);
      }
      std::vector<double> b(config.layer_dims[l + 1]);
      for (double& v : b) {
        bool dead = rng.UniformInt(5) == 0;
        double value = SparseValue(rng);
        v = dead ? -10.0 : value;
      }
      weights.push_back(std::move(w));
      biases.push_back(std::move(b));
    }
    Mlp mlp(config, std::move(weights), std::move(biases));
    for (int sample = 0; sample < 3; ++sample) {
      std::vector<double> input(config.layer_dims.front());
      for (double& v : input) {
        v = 4.0 * SparseValue(rng);
      }
      std::vector<double> got = mlp.Predict(input);
      std::vector<double> want = ReferenceMlpPredict(mlp, input);
      ASSERT_EQ(got.size(), want.size());
      for (size_t o = 0; o < got.size(); ++o) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[o]), std::bit_cast<uint64_t>(want[o]))
            << "output " << o << ": " << got[o] << " vs " << want[o];
      }
    }
  }
}

// Folds the bit pattern of every weight and bias, layer by layer, into one hash.
uint64_t ParameterHash(const Mlp& mlp) {
  HashState h;
  std::vector<Matrix> weights = mlp.weights();
  for (size_t l = 0; l < weights.size(); ++l) {
    for (double v : weights[l].data()) {
      h.Mix(std::bit_cast<uint64_t>(v));
    }
    for (double v : mlp.biases()[l]) {
      h.Mix(std::bit_cast<uint64_t>(v));
    }
  }
  return h.Get();
}

// Pins the training arithmetic (forward, backprop, momentum SGD, L2, the
// output-bias warm start and early stopping) to its exact bits. Widths 11 and
// 17 straddle the forward's 8-row blocks; the labels use only +, - and * so
// no libm result enters the pinned values.
TEST(MlpTest, TrainingIsBitPinned) {
  Pcg32 rng(41);
  Matrix x(96, 6);
  Matrix y(96, 3);
  for (size_t i = 0; i < 96; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      x(i, j) = rng.Uniform(-1, 1);
    }
    for (size_t o = 0; o < 3; ++o) {
      y(i, o) = x(i, o) * x(i, o + 3) - 0.5 * x(i, o) + 0.1 * static_cast<double>(o);
    }
  }
  MlpConfig config = SmallConfig({6, 11, 17, 3}, 40);
  config.l2 = 1e-3;
  config.early_stop_rel_tol = 1e-6;
  Mlp mlp(config);
  double loss = mlp.Train(x, y);
  EXPECT_EQ(std::bit_cast<uint64_t>(loss), 0x3f91654c906066f5ull);
  EXPECT_EQ(ParameterHash(mlp), 0x96d8406864a61178ull);
}

// The same pin on widths that are no multiple of any kernel block: hidden 45
// and 21 and output 37 leave whole-vector tails and single leftover outputs
// at both vector widths, and odd rows in backprop. The values were computed
// with row-major weights and the eight-rows-per-pass forward.
TEST(MlpTest, TrainingIsBitPinnedAtRaggedWidths) {
  Pcg32 rng(43);
  Matrix x(128, 7);
  Matrix y(128, 37);
  for (size_t i = 0; i < 128; ++i) {
    for (size_t j = 0; j < 7; ++j) {
      x(i, j) = rng.Uniform(-1, 1);
    }
    for (size_t o = 0; o < 37; ++o) {
      y(i, o) = x(i, o % 7) * x(i, (o + 3) % 7) - 0.25 * x(i, (o + 1) % 7) +
                0.01 * static_cast<double>(o);
    }
  }
  MlpConfig config = SmallConfig({7, 45, 21, 37}, 25);
  config.l2 = 1e-3;
  config.early_stop_rel_tol = 1e-6;
  Mlp mlp(config);
  double loss = mlp.Train(x, y);
  EXPECT_EQ(std::bit_cast<uint64_t>(loss), 0x3fb9aca3a2be5228ull);
  EXPECT_EQ(ParameterHash(mlp), 0x46fc4545fe5e0997ull);
}

TEST(MlpTest, ConfigConstructorRejectsFewerThanTwoWidths) {
  EXPECT_THROW(Mlp(SmallConfig({})), std::invalid_argument);
  EXPECT_THROW(Mlp(SmallConfig({4})), std::invalid_argument);
  EXPECT_NO_THROW(Mlp(SmallConfig({4, 1})));
}

TEST(MlpTest, TrainRejectsWrongInputWidth) {
  Mlp mlp(SmallConfig({3, 5, 2}, 1));
  EXPECT_THROW(mlp.Train(Matrix(4, 2), Matrix(4, 2)), std::invalid_argument);
  EXPECT_THROW(mlp.Train(Matrix(4, 4), Matrix(4, 2)), std::invalid_argument);
}

TEST(MlpTest, TrainRejectsWrongOutputWidth) {
  Mlp mlp(SmallConfig({3, 5, 2}, 1));
  EXPECT_THROW(mlp.Train(Matrix(4, 3), Matrix(4, 1)), std::invalid_argument);
  EXPECT_THROW(mlp.Train(Matrix(4, 3), Matrix(4, 3)), std::invalid_argument);
}

TEST(MlpTest, TrainRejectsMismatchedRowCounts) {
  Mlp mlp(SmallConfig({3, 5, 2}, 1));
  EXPECT_THROW(mlp.Train(Matrix(4, 3), Matrix(5, 2)), std::invalid_argument);
  EXPECT_NO_THROW(mlp.Train(Matrix(4, 3), Matrix(4, 2)));
}

// Runs one kernel instantiation against the single-chain reference, bit for
// bit, over output widths below, at and above every block and vector of both
// widths, with and without biases (a +0.0 start). Trials put a -0.0 bias at
// each position of a block of the widest kernel, so every block shape meets
// the dense chain; inputs are +-0.0 one time in four each (all of them in
// some samples, where only the signs of zeros decide a -0.0 chain), negative
// or positive otherwise, and biases of -10 keep ReLU units dead.
void ExpectKernelMatchesReference(void (*kernel)(const DenseArgs&)) {
  constexpr size_t kOutWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                   13, 14, 15, 16, 17, 96, 204};
  constexpr size_t kInWidths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 35, 100};
  constexpr size_t kWidestBlock = 32;  // eight four-lane vectors
  Pcg32 rng(20251);
  for (size_t out : kOutWidths) {
    for (size_t in : kInWidths) {
      for (size_t zero_at = 0; zero_at <= kWidestBlock; ++zero_at) {
        SCOPED_TRACE(testing::Message() << "out " << out << " in " << in
                                        << " -0.0 bias at " << zero_at);
        Matrix w(out, in);  // row-major, for the reference
        for (double& v : w.data()) {
          v = SparseValue(rng);
        }
        std::vector<double> bias(out);
        for (double& v : bias) {
          v = rng.UniformInt(5) == 0 ? -10.0 : SparseValue(rng);
        }
        // zero_at == kWidestBlock: no -0.0 placed.
        for (size_t o = zero_at; zero_at < kWidestBlock && o < out; o += kWidestBlock) {
          bias[o] = -0.0;
        }
        Matrix input_major = w.Transposed();
        std::vector<uint32_t> live(in);
        for (int sample = 0; sample < 3; ++sample) {
          bool all_zero = sample == 0;
          std::vector<double> a(in);
          for (double& v : a) {
            uint32_t pick = rng.UniformInt(4);
            double value = 3.0 * rng.Uniform(-1, 1);
            v = all_zero || pick == 0 ? (rng.UniformInt(2) == 0 ? 0.0 : -0.0)
                : pick == 1           ? -0.0
                                      : value;
          }
          for (bool relu : {false, true}) {
            for (const double* b : {static_cast<const double*>(bias.data()),
                                    static_cast<const double*>(nullptr)}) {
              std::vector<double> got(out);
              kernel({.weights = &input_major,
                      .bias = b,
                      .input = a.data(),
                      .relu = relu,
                      .live = live.data(),
                      .output = got.data()});
              std::vector<double> want = ReferenceDenseLayer(w, b, a, relu);
              for (size_t o = 0; o < out; ++o) {
                ASSERT_EQ(std::bit_cast<uint64_t>(got[o]), std::bit_cast<uint64_t>(want[o]))
                    << "output " << o << " relu " << relu << " bias "
                    << (b != nullptr) << ": " << got[o] << " vs " << want[o];
              }
            }
          }
        }
      }
    }
  }
}

TEST(DenseKernelTest, Sse2MatchesSingleChainReference) {
  ExpectKernelMatchesReference(DenseForwardSse2);
}

TEST(DenseKernelTest, Avx2MatchesSingleChainReference) {
  if (!CpuHasAvx2()) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  ExpectKernelMatchesReference(DenseForwardAvx2);
}

// Output masks for a layer `out` wide: none needed, each single output at
// the edges and in the middle, every output, runs that cross the block edges
// of both kernels (16 outputs for SSE2, 32 for AVX2) and the vector edges
// inside them, and scattered outputs at two densities.
std::vector<std::vector<uint8_t>> OutputMasks(size_t out, Pcg32& rng) {
  std::vector<std::vector<uint8_t>> masks;
  masks.emplace_back(out, 0);
  for (size_t o : {size_t{0}, out / 2, out - 1}) {
    masks.emplace_back(out, 0);
    masks.back()[o] = 1;
  }
  masks.emplace_back(out, 1);
  for (size_t edge : {size_t{2}, size_t{4}, size_t{16}, size_t{32}, size_t{64}, size_t{192}}) {
    for (size_t half : {size_t{1}, size_t{3}, size_t{9}}) {
      if (edge >= out + half) {
        continue;
      }
      masks.emplace_back(out, 0);
      for (size_t o = edge >= half ? edge - half : 0; o < std::min(out, edge + half); ++o) {
        masks.back()[o] = 1;
      }
    }
  }
  for (uint32_t one_in : {3u, 12u}) {
    masks.emplace_back(out, 0);
    for (uint8_t& flag : masks.back()) {
      flag = rng.UniformInt(one_in) == 0 ? 1 : 0;
    }
  }
  return masks;
}

// Runs one kernel instantiation with output masks against the single-chain
// reference: every needed output bit for bit, every other output still the
// sentinel it held. Each mask meets a -0.0 bias on a needed output inside a
// partly needed block (when it needs any output but not all), and all-zero
// inputs in one sample, where only the dense rule keeps that chain exact.
void ExpectMaskedKernelMatchesReference(void (*kernel)(const DenseArgs&)) {
  constexpr size_t kOutWidths[] = {1, 2, 3, 5, 8, 9, 15, 17, 31, 33, 64, 97, 204};
  constexpr size_t kInWidths[] = {1, 7, 35, 100};
  constexpr double kSentinel = -1234.5;
  Pcg32 rng(20261);
  for (size_t out : kOutWidths) {
    for (size_t in : kInWidths) {
      Matrix w(out, in);  // row-major, for the reference
      for (double& v : w.data()) {
        v = SparseValue(rng);
      }
      Matrix input_major = w.Transposed();
      std::vector<uint32_t> live(in);
      std::vector<std::vector<uint8_t>> masks = OutputMasks(out, rng);
      for (size_t m = 0; m < masks.size(); ++m) {
        const std::vector<uint8_t>& needed = masks[m];
        std::vector<double> bias(out);
        for (double& v : bias) {
          v = rng.UniformInt(5) == 0 ? -10.0 : SparseValue(rng);
        }
        std::vector<size_t> picked;
        for (size_t o = 0; o < out; ++o) {
          if (needed[o] != 0) {
            picked.push_back(o);
          }
        }
        if (!picked.empty() && picked.size() < out) {
          bias[picked[rng.UniformInt(static_cast<uint32_t>(picked.size()))]] = -0.0;
        }
        for (int sample = 0; sample < 2; ++sample) {
          std::vector<double> a(in);
          for (double& v : a) {
            v = sample == 0 ? (rng.UniformInt(2) == 0 ? 0.0 : -0.0) : SparseValue(rng);
          }
          for (bool relu : {false, true}) {
            for (const double* b : {static_cast<const double*>(bias.data()),
                                    static_cast<const double*>(nullptr)}) {
              SCOPED_TRACE(testing::Message()
                           << "out " << out << " in " << in << " mask " << m << " sample "
                           << sample << " relu " << relu << " bias " << (b != nullptr));
              std::vector<double> got(out, kSentinel);
              kernel({.weights = &input_major,
                      .bias = b,
                      .input = a.data(),
                      .relu = relu,
                      .live = live.data(),
                      .output = got.data(),
                      .needed = needed.data()});
              std::vector<double> want = ReferenceDenseLayer(w, b, a, relu);
              for (size_t o = 0; o < out; ++o) {
                double expected = needed[o] != 0 ? want[o] : kSentinel;
                ASSERT_EQ(std::bit_cast<uint64_t>(got[o]), std::bit_cast<uint64_t>(expected))
                    << "output " << o << " needed " << int{needed[o]} << ": " << got[o]
                    << " vs " << expected;
              }
            }
          }
        }
      }
    }
  }
}

TEST(DenseKernelTest, Sse2MaskedOutputsMatchSingleChainReference) {
  ExpectMaskedKernelMatchesReference(DenseForwardSse2);
}

TEST(DenseKernelTest, Avx2MaskedOutputsMatchSingleChainReference) {
  if (!CpuHasAvx2()) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  ExpectMaskedKernelMatchesReference(DenseForwardAvx2);
}

// A masked Predict computes the flagged outputs of the whole net bit for bit
// and leaves the rest at 0.0; a mask of the wrong width throws.
TEST(MlpTest, MaskedPredictMatchesUnmaskedOnNeededOutputs) {
  MlpConfig config;
  config.layer_dims = {6, 9, 37};
  Mlp mlp(config);
  Pcg32 rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> input(6);
    for (double& v : input) {
      v = SparseValue(rng);
    }
    std::vector<uint8_t> needed(37);
    for (uint8_t& flag : needed) {
      flag = rng.UniformInt(4) == 0 ? 1 : 0;
    }
    std::vector<double> full = mlp.Predict(input);
    std::vector<double> masked = mlp.Predict(input, needed);
    ASSERT_EQ(masked.size(), full.size());
    for (size_t o = 0; o < full.size(); ++o) {
      EXPECT_EQ(std::bit_cast<uint64_t>(masked[o]),
                std::bit_cast<uint64_t>(needed[o] != 0 ? full[o] : 0.0))
          << "trial " << trial << " output " << o;
    }
  }
  EXPECT_THROW(mlp.Predict(std::vector<double>(6), std::vector<uint8_t>(36)),
               std::invalid_argument);
}

TEST(MlpTest, L2ShrinksWeights) {
  Pcg32 rng(37);
  Matrix x(128, 2);
  Matrix y(128, 1);
  for (size_t i = 0; i < 128; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y(i, 0) = 5.0 * x(i, 0);
  }
  MlpConfig weak_config = SmallConfig({2, 1}, 400);
  MlpConfig strong_config = weak_config;
  strong_config.l2 = 0.5;
  Mlp weak(weak_config);
  Mlp strong(strong_config);
  weak.Train(x, y);
  strong.Train(x, y);
  double weak_norm = 0.0;
  double strong_norm = 0.0;
  // weights() is a copy: keep it alive across the loop.
  std::vector<Matrix> weak_weights = weak.weights();
  std::vector<Matrix> strong_weights = strong.weights();
  for (double v : weak_weights[0].data()) {
    weak_norm += v * v;
  }
  for (double v : strong_weights[0].data()) {
    strong_norm += v * v;
  }
  EXPECT_LT(strong_norm, weak_norm);
}

}  // namespace
}  // namespace litereconfig
