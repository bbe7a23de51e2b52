#include "src/sched/accuracy_predictor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/features/light.h"
#include "src/util/rng.h"

namespace litereconfig {

namespace {

// The hashed content feature's width: the kind's own width, capped.
int ContentDim(FeatureKind kind) {
  return std::min(FeatureDimension(kind), kHashedFeatureDim);
}

uint64_t ContentHashSeed(FeatureKind kind) {
  return HashKeys({0x4a54ull, static_cast<uint64_t>(kind)});
}

// The hashing projection of each kind's content feature at its full width,
// built once per process.
const HashProjection& ContentProjection(FeatureKind kind) {
  static const std::vector<HashProjection> projections = [] {
    std::vector<HashProjection> p;
    p.reserve(kNumFeatureKinds);
    for (int k = 0; k < kNumFeatureKinds; ++k) {
      FeatureKind kind_k = static_cast<FeatureKind>(k);
      p.emplace_back(static_cast<size_t>(FeatureDimension(kind_k)),
                     ContentDim(kind_k), ContentHashSeed(kind_k));
    }
    return p;
  }();
  return projections[static_cast<size_t>(kind)];
}

}  // namespace

size_t AccuracyPredictor::InputDim(FeatureKind kind) {
  if (kind == FeatureKind::kLight) {
    return kLightFeatureDim;
  }
  return static_cast<size_t>(kLightFeatureDim + ContentDim(kind));
}

MlpConfig AccuracyPredictor::DefaultMlpConfig(FeatureKind kind, size_t num_branches,
                                              size_t hidden_width, size_t epochs) {
  MlpConfig config;
  config.layer_dims = {InputDim(kind), hidden_width, hidden_width, hidden_width,
                       num_branches};
  config.learning_rate = 0.02;
  config.momentum = 0.9;
  config.l2 = 5e-5;
  config.batch_size = 64;
  config.epochs = epochs;
  config.seed = HashKeys({0xacc0ull, static_cast<uint64_t>(kind)});
  return config;
}

AccuracyPredictor::AccuracyPredictor(FeatureKind kind, Mlp mlp)
    : kind_(kind), mlp_(std::move(mlp)) {
  if (mlp_.config().layer_dims.front() != InputDim(kind)) {
    throw std::invalid_argument(
        "AccuracyPredictor: net input width is not InputDim(kind)");
  }
}

double AccuracyPredictor::Train(const Matrix& x, const Matrix& y) {
  return mlp_.Train(x, y);
}

std::vector<double> AccuracyPredictor::BuildInput(
    const std::vector<double>& light_features,
    const std::vector<double>& content_feature) const {
  if (light_features.size() != kLightFeatureDim) {
    throw std::invalid_argument(
        "AccuracyPredictor: light features are not kLightFeatureDim wide");
  }
  std::vector<double> input = light_features;
  if (kind_ != FeatureKind::kLight) {
    const HashProjection& projection = ContentProjection(kind_);
    std::vector<double> hashed =
        content_feature.size() == projection.in_dim()
            ? projection.Project(content_feature)
            : HashProject(content_feature, ContentDim(kind_), ContentHashSeed(kind_));
    input.insert(input.end(), hashed.begin(), hashed.end());
  }
  return input;
}

std::vector<double> AccuracyPredictor::Predict(
    const std::vector<double>& light_features,
    const std::vector<double>& content_feature,
    std::span<const uint8_t> needed) const {
  std::vector<double> out =
      mlp_.Predict(BuildInput(light_features, content_feature), needed);
  for (double& v : out) {
    v = std::clamp(v, 0.0, 1.0);
  }
  return out;
}

}  // namespace litereconfig
