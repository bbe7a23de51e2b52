// The classification scheduler: the LiteReconfig recipe applied verbatim to the
// second domain (paper Section 6). It reuses the detection stack's building
// blocks unchanged — AccuracyPredictor (one net per feature, light + HoC),
// the Table-1 feature cost model, and the constrained argmax under a per-frame
// latency objective with the feature's cost charged against the window budget.
#ifndef SRC_CLS_SCHEDULER_H_
#define SRC_CLS_SCHEDULER_H_

#include <map>
#include <optional>

#include "src/cls/kernel.h"
#include "src/platform/latency.h"
#include "src/sched/accuracy_predictor.h"
#include "src/video/dataset.h"

namespace litereconfig {

struct ClsTrainedModels {
  const ClsBranchSpace* space = nullptr;
  DeviceType device = DeviceType::kTx2;
  // Light-only (content-agnostic) and HoC-based (content-aware) predictors.
  std::map<FeatureKind, AccuracyPredictor> accuracy;
  // Per-branch per-window latency on the device at zero contention (ms).
  std::vector<double> latency_ms;
  // HoC extract+predict cost on the device (ms per scheduling point).
  double hoc_cost_ms = 0.0;
};

struct ClsTrainConfig {
  DatasetSpec train_spec{/*base_seed=*/77, /*num_videos=*/40,
                         /*frames_per_video=*/96};
  // Independent kernel runs averaged into each correctness label.
  int label_salts = 4;
  size_t hidden_width = 48;
  size_t epochs = 120;
};

class ClsTrainer {
 public:
  static ClsTrainedModels Train(const ClsTrainConfig& config, DeviceType device);
};

struct ClsDecision {
  size_t branch_index = 0;
  bool used_content = false;
  double predicted_accuracy = 0.0;
  // Scheduler cost charged at this window (ms).
  double scheduler_cost_ms = 0.0;
};

class ClsScheduler {
 public:
  // content_aware: always use the HoC feature (charged against the budget);
  // otherwise schedule on the light features only.
  ClsScheduler(const ClsTrainedModels* models, bool content_aware);

  // slo_ms is the per-FRAME objective; the classifier and the scheduler run
  // once per kClsWindowFrames-frame window and amortize over it.
  ClsDecision Decide(const SyntheticVideo& video, int window_start,
                     double slo_ms) const;

 private:
  const ClsTrainedModels* models_;
  bool content_aware_;
};

// End-to-end evaluation of one policy over a dataset: top-1 accuracy and the
// mean per-frame latency actually charged.
struct ClsEvalResult {
  double top1 = 0.0;
  double mean_frame_ms = 0.0;
  size_t windows = 0;
};

ClsEvalResult RunClsPolicy(const ClsTrainedModels& models, bool content_aware,
                           const Dataset& dataset, double slo_ms,
                           uint64_t run_salt = 1);

}  // namespace litereconfig

#endif  // SRC_CLS_SCHEDULER_H_
