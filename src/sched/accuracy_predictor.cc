#include "src/sched/accuracy_predictor.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/features/light.h"
#include "src/util/rng.h"

namespace litereconfig {

size_t AccuracyPredictor::InputDim(FeatureKind kind) {
  if (kind == FeatureKind::kLight) {
    return kLightFeatureDim;
  }
  size_t content_dim = std::min(FeatureDimension(kind), kHashedFeatureDim);
  return kLightFeatureDim + content_dim;
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
    size_t content_dim = std::min(FeatureDimension(kind_), kHashedFeatureDim);
    std::vector<double> hashed =
        HashProject(content_feature, static_cast<int>(content_dim),
                    HashKeys({0x4a54ull, static_cast<uint64_t>(kind_)}));
    input.insert(input.end(), hashed.begin(), hashed.end());
  }
  return input;
}

std::vector<double> AccuracyPredictor::Predict(
    const std::vector<double>& light_features,
    const std::vector<double>& content_feature) const {
  std::vector<double> out = mlp_.Predict(BuildInput(light_features, content_feature));
  for (double& v : out) {
    v = std::clamp(v, 0.0, 1.0);
  }
  return out;
}

}  // namespace litereconfig
