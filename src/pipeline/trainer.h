// The offline training pass (paper Section 4 / Section 5.2).
//
// The paper trains the scheduler on the held-out 10% of the ILSVRC training
// videos: the latency predictor, the content-aware accuracy prediction model per
// feature, the switching-overhead model, and the Ben(F) benefit table. This
// trainer reproduces the pass end-to-end on the synthetic corpus:
//   1. generate per-(snippet, branch) accuracy labels by actually running every
//      execution branch over every training snippet and scoring mAP;
//   2. extract all scheduler features on each snippet's first frame;
//   3. fit the per-branch latency regressions against the platform profile;
//   4. train one accuracy MLP per feature (plus the light-only model);
//   5. tabulate Ben(F) on held-out training videos: the realized end-to-end
//      accuracy improvement of scheduling with feature f (its overhead ignored,
//      as in Eq. 4 where the cost enters the constraint separately) over
//      scheduling with the light features only, per SLO bucket.
#ifndef SRC_PIPELINE_TRAINER_H_
#define SRC_PIPELINE_TRAINER_H_

#include <cstdint>

#include "src/sched/scheduler.h"
#include "src/video/dataset.h"

namespace litereconfig {

struct TrainConfig {
  DatasetSpec train_spec{/*base_seed=*/42, /*num_videos=*/100,
                         /*frames_per_video=*/160};
  int snippet_length = 40;
  int snippet_stride = 8;
  int max_snippets = 2400;
  size_t hidden_width = 96;
  size_t epochs = 150;
  DeviceType device = DeviceType::kTx2;
  // Fraction of training VIDEOS held out for the Ben(F) tabulation (their
  // snippets never enter predictor training). The tabulation is an end-to-end
  // measurement, so it needs a substantial slice to be reliable.
  double holdout_fraction = 0.25;

  // A down-scaled configuration for unit tests.
  static TrainConfig Tiny();

  // Stable content hash (cache key for serialized models).
  uint64_t Fingerprint() const;
};

// Per-snippet training rows, exposed for tests and ablations.
struct SnippetData {
  // x: one feature vector per kind; y: per-branch accuracy labels.
  std::vector<std::vector<double>> features;  // indexed by FeatureKind
  std::vector<double> labels;
};

class OfflineTrainer {
 public:
  // Runs the full pass and returns the trained bundle. `space` must outlive the
  // returned models (use BranchSpace::Default()).
  static TrainedModels Train(const TrainConfig& config, const BranchSpace& space);

  // Label/feature generation only (reused by tests).
  static std::vector<SnippetData> BuildSnippetData(const TrainConfig& config,
                                                   const BranchSpace& space,
                                                   const Dataset& dataset);
};

}  // namespace litereconfig

#endif  // SRC_PIPELINE_TRAINER_H_
