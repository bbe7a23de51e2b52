// Reference ResNet50 and MobileNetV2 embeddings for tests: the row-major
// projection ComputeResNetFeature and ComputeMobileNetFeature
// (src/features/embedding.cc) ran before both layers moved onto the dense
// kernel (src/nn/dense.h).
//
// A backbone masks the frame latent, then hidden[h] = tanh(3 * sum) over
// w1[h][i] * latent[i] and out[o] = tanh(2 * sum) over w2[o][h] * hidden[h],
// plus Normal observation noise drawn in output order. Every sum is one chain
// from +0.0 in index order, over row-major weights of one hash per entry, and
// every tanh and Normal is one scalar call (detmath's scalar Tanh). Tests
// compare the two bit for bit.
#ifndef TESTS_EMBEDDING_REFERENCE_H_
#define TESTS_EMBEDDING_REFERENCE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/features/embedding.h"
#include "src/util/detmath.h"
#include "src/util/rng.h"
#include "src/video/latent.h"

namespace litereconfig {
namespace embedding_reference {

constexpr int kHiddenDim = 64;

// A fixed random weight in [-limit, limit].
inline double FixedWeight(uint64_t seed, int row, int col, double limit) {
  uint64_t h = HashKeys({seed, static_cast<uint64_t>(row), static_cast<uint64_t>(col)});
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return (2.0 * u - 1.0) * limit;
}

struct Backbone {
  Backbone(uint64_t seed, int out, double sigma)
      : weight_seed(seed), out_dim(out), noise_sigma(sigma) {
    double limit1 = std::sqrt(3.0 / kFrameLatentDim);
    for (int h = 0; h < kHiddenDim; ++h) {
      for (int i = 0; i < kFrameLatentDim; ++i) {
        w1.push_back(FixedWeight(weight_seed, h, i, limit1));
      }
    }
    double limit2 = std::sqrt(3.0 / kHiddenDim);
    for (int o = 0; o < out_dim; ++o) {
      for (int h = 0; h < kHiddenDim; ++h) {
        w2.push_back(FixedWeight(weight_seed + 1, o, h, limit2));
      }
    }
  }

  uint64_t weight_seed;
  int out_dim;
  double noise_sigma;
  std::vector<double> w1;  // kHiddenDim rows x kFrameLatentDim cols
  std::vector<double> w2;  // out_dim rows x kHiddenDim cols
};

inline std::vector<double> Project(const Backbone& b, const std::vector<double>& latent,
                                   const SyntheticVideo& video, int t) {
  std::vector<double> hidden(kHiddenDim);
  for (int h = 0; h < kHiddenDim; ++h) {
    double sum = 0.0;
    for (int i = 0; i < kFrameLatentDim; ++i) {
      sum += b.w1[static_cast<size_t>(h * kFrameLatentDim + i)] *
             latent[static_cast<size_t>(i)];
    }
    hidden[static_cast<size_t>(h)] = Tanh(3.0 * sum);
  }
  std::vector<double> out(static_cast<size_t>(b.out_dim));
  for (int o = 0; o < b.out_dim; ++o) {
    double sum = 0.0;
    for (int h = 0; h < kHiddenDim; ++h) {
      sum += b.w2[static_cast<size_t>(o * kHiddenDim + h)] *
             hidden[static_cast<size_t>(h)];
    }
    out[static_cast<size_t>(o)] = sum;
  }
  Pcg32 noise(HashKeys({video.spec().seed, static_cast<uint64_t>(t), b.weight_seed,
                        0x4e4e4eull}));
  for (double& v : out) {
    v = Tanh(2.0 * v) + noise.Normal(0.0, b.noise_sigma);
  }
  return out;
}

}  // namespace embedding_reference

inline std::vector<double> ReferenceResNetFeature(const SyntheticVideo& video, int t) {
  static const embedding_reference::Backbone backbone(0x2e54e7ull, kResNetDim, 0.04);
  std::vector<double> latent = ComputeFrameLatent(video, t);
  // The backbone's mask: weak motion cues (the other factors are 1.0).
  latent[3] *= 0.6;  // speed
  latent[4] *= 0.6;
  latent[5] *= 0.7;  // occlusion
  latent[7] *= 0.4;  // phase
  return embedding_reference::Project(backbone, latent, video, t);
}

inline std::vector<double> ReferenceMobileNetFeature(const SyntheticVideo& video, int t) {
  static const embedding_reference::Backbone backbone(0x30b11eull, kMobileNetDim, 0.03);
  // MobileNetV2 sees the whole latent: every mask factor is 1.0.
  return embedding_reference::Project(backbone, ComputeFrameLatent(video, t), video, t);
}

}  // namespace litereconfig

#endif  // TESTS_EMBEDDING_REFERENCE_H_
