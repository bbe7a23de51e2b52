#include "src/features/embedding.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "src/nn/dense.h"
#include "src/nn/matrix.h"
#include "src/util/detmath.h"
#include "src/util/rng.h"
#include "src/video/classes.h"
#include "src/video/latent.h"
#include "src/video/scene.h"

namespace litereconfig {

namespace {

constexpr int kHiddenDim = 64;

// Latent layout indices (see src/video/latent.cc).
struct LatentMask {
  double count = 1.0;
  double size = 1.0;
  double speed = 1.0;
  double occlusion = 1.0;
  double clutter = 1.0;
  double phase = 1.0;
  double appearance = 1.0;  // object rgb + texture
  double background = 1.0;
  double classes = 1.0;
};

void ApplyMask(std::vector<double>& latent, const LatentMask& mask) {
  latent[0] *= mask.count;
  latent[1] *= mask.size;
  latent[2] *= mask.size;
  latent[3] *= mask.speed;
  latent[4] *= mask.speed;
  latent[5] *= mask.occlusion;
  latent[6] *= mask.clutter;
  latent[7] *= mask.phase;
  for (int i = 8; i <= 11; ++i) {
    latent[static_cast<size_t>(i)] *= mask.appearance;
  }
  for (int i = 12; i <= 17; ++i) {
    latent[static_cast<size_t>(i)] *= mask.background;
  }
  for (int i = 18; i < kFrameLatentDim; ++i) {
    latent[static_cast<size_t>(i)] *= mask.classes;
  }
}

// Deterministic fixed random weight in [-limit, limit].
double FixedWeight(uint64_t seed, int row, int col, double limit) {
  uint64_t h = HashKeys({seed, static_cast<uint64_t>(row), static_cast<uint64_t>(col)});
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return (2.0 * u - 1.0) * limit;
}

// The fixed projection matrices of one embedding backbone, input-major for
// the dense kernel (src/nn/dense.h). The weights are a pure function of the
// weight seed (one hash per entry), so each backbone materializes them
// exactly once (thread-safe magic static in its Compute* entry point) instead
// of re-hashing ~out_dim x hidden entries per frame.
struct EmbeddingWeights {
  Matrix w1;  // kFrameLatentDim x kHiddenDim: w1(i, h) maps latent i to unit h
  Matrix w2;  // kHiddenDim x out_dim: w2(h, o) maps unit h to output o
};

EmbeddingWeights MakeWeights(uint64_t weight_seed, int out_dim) {
  EmbeddingWeights w{Matrix(kFrameLatentDim, kHiddenDim),
                     Matrix(kHiddenDim, static_cast<size_t>(out_dim))};
  double limit1 = std::sqrt(3.0 / kFrameLatentDim);
  for (int h = 0; h < kHiddenDim; ++h) {
    for (int i = 0; i < kFrameLatentDim; ++i) {
      w.w1(static_cast<size_t>(i), static_cast<size_t>(h)) =
          FixedWeight(weight_seed, h, i, limit1);
    }
  }
  double limit2 = std::sqrt(3.0 / kHiddenDim);
  for (int o = 0; o < out_dim; ++o) {
    for (int h = 0; h < kHiddenDim; ++h) {
      w.w2(static_cast<size_t>(h), static_cast<size_t>(o)) =
          FixedWeight(weight_seed + 1, o, h, limit2);
    }
  }
  return w;
}

std::vector<double> ProjectLatent(const SyntheticVideo& video, int t,
                                  const LatentMask& mask, int out_dim,
                                  uint64_t weight_seed, double noise_sigma,
                                  const EmbeddingWeights& weights) {
  std::vector<double> latent = ComputeFrameLatent(video, t);
  ApplyMask(latent, mask);
  // Both layers are one +0.0-start chain per output in input order, run by
  // the dense kernel. tanh and the noise run on detmath's lane forms, each
  // element bit-identical to its scalar form, and the noise draws its
  // uniforms in output order as one Normal call per output would.
  std::array<uint32_t, std::max(kFrameLatentDim, kHiddenDim)> live{};
  std::vector<double> hidden(kHiddenDim);
  DenseForward({.weights = &weights.w1,
                .input = latent.data(),
                .live = live.data(),
                .output = hidden.data()});
  for (double& h : hidden) {
    h = 3.0 * h;
  }
  Tanh(hidden);
  std::vector<double> out(static_cast<size_t>(out_dim));
  DenseForward({.weights = &weights.w2,
                .input = hidden.data(),
                .live = live.data(),
                .output = out.data()});
  for (double& o : out) {
    o = 2.0 * o;
  }
  Tanh(out);
  std::array<double, kMobileNetDim> noise_values{};  // the widest backbone's outputs
  std::span<double> noise = std::span(noise_values).first(out.size());
  Pcg32(HashKeys({video.spec().seed, static_cast<uint64_t>(t), weight_seed, 0x4e4e4eull}))
      .FillNormal(noise, 0.0, noise_sigma);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] += noise[i];
  }
  return out;
}

}  // namespace

std::vector<double> ComputeResNetFeature(const SyntheticVideo& video, int t) {
  LatentMask mask;
  // A single-frame backbone observes dynamics only through motion blur, a
  // real but partial speed cue.
  mask.speed = 0.6;
  mask.phase = 0.4;
  mask.occlusion = 0.7;
  static const EmbeddingWeights weights = MakeWeights(0x2e54e7ull, kResNetDim);
  return ProjectLatent(video, t, mask, kResNetDim, 0x2e54e7ull, 0.04, weights);
}

std::vector<double> ComputeMobileNetFeature(const SyntheticVideo& video, int t) {
  LatentMask mask;  // sees everything, including strong blur-based motion cues
  mask.speed = 1.0;
  mask.phase = 1.0;
  static const EmbeddingWeights weights = MakeWeights(0x30b11eull, kMobileNetDim);
  return ProjectLatent(video, t, mask, kMobileNetDim, 0x30b11eull, 0.03, weights);
}

std::vector<double> ComputeCpopFeature(const SyntheticVideo& video, int t,
                                       const DetectionList& anchor_detections) {
  const ArchetypeParams& params = GetArchetypeParams(video.spec().archetype);
  std::vector<double> logits(kCpopDim, 0.0);
  // Background logit tracks scene clutter (clutter produces background proposals).
  logits[0] = std::log1p(4.0 * params.clutter);
  double total_score = 0.0;
  for (const Detection& det : anchor_detections) {
    logits[static_cast<size_t>(1 + det.class_id)] += det.score;
    total_score += det.score;
  }
  if (total_score > 0.0) {
    for (int c = 1; c < kCpopDim; ++c) {
      logits[static_cast<size_t>(c)] =
          2.5 * logits[static_cast<size_t>(c)] / total_score;
    }
  }
  // Mild observation noise: head logits fluctuate between nearby frames.
  Pcg32 noise(HashKeys({video.spec().seed, static_cast<uint64_t>(t), 0xc0b0bull}));
  for (double& v : logits) {
    v += noise.Normal(0.0, 0.05);
  }
  return logits;
}

}  // namespace litereconfig
