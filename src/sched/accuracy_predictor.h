// The content-aware accuracy prediction model A(b, f) (paper Sections 3.3, 4).
//
// One network per content feature, following the paper's architecture: the light
// features and the content feature are projected and concatenated by the first
// layer, followed by fully-connected ReLU layers and an M-wide linear output (one
// predicted snippet mAP per execution branch). Heavy features pass through a
// fixed seeded hashing projection first so the from-scratch trainer stays
// tractable at HOG/MobileNetV2 widths (see src/features/hashing.h).
//
// A predictor with kind == kLight is the content-agnostic model: it sees only
// the light features.
#ifndef SRC_SCHED_ACCURACY_PREDICTOR_H_
#define SRC_SCHED_ACCURACY_PREDICTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/features/feature.h"
#include "src/features/hashing.h"
#include "src/nn/mlp.h"

namespace litereconfig {

class AccuracyPredictor {
 public:
  // Net input width for a feature kind: light dims plus the hashed content dims.
  static size_t InputDim(FeatureKind kind);

  // Builds the paper's architecture for this feature over `num_branches` outputs.
  static MlpConfig DefaultMlpConfig(FeatureKind kind, size_t num_branches,
                                    size_t hidden_width, size_t epochs);

  // Wraps a net for this kind: untrained (Mlp(config)) or restored from
  // stored parameters. Throws std::invalid_argument unless the net's input
  // width is InputDim(kind).
  AccuracyPredictor(FeatureKind kind, Mlp mlp);

  // Training rows: x = [light | hashed(content)] built with BuildInput;
  // y = per-branch snippet mAP labels. Returns the final training MSE.
  double Train(const Matrix& x, const Matrix& y);

  // Assembles a net input from the raw feature vectors. Throws
  // std::invalid_argument unless light_features has kLightFeatureDim entries.
  std::vector<double> BuildInput(const std::vector<double>& light_features,
                                 const std::vector<double>& content_feature) const;

  // Per-branch predicted accuracy, clamped to [0, 1]. With a non-empty
  // `needed` (one flag per branch), only the flagged branches are computed,
  // and the others read 0.0 (Mlp::Predict).
  std::vector<double> Predict(const std::vector<double>& light_features,
                              const std::vector<double>& content_feature,
                              std::span<const uint8_t> needed = {}) const;

  FeatureKind kind() const { return kind_; }
  const Mlp& mlp() const { return mlp_; }

 private:
  FeatureKind kind_;
  Mlp mlp_;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_ACCURACY_PREDICTOR_H_
