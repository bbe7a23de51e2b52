// The LiteReconfig scheduler: cost-benefit feature selection (Eq. 4) followed by
// the switching-cost-aware constrained branch optimization (Eq. 3).
//
// Variants (paper Section 4):
//   * kFull         — cost-benefit analysis over all content features;
//   * kMinCost      — content-agnostic: light features only;
//   * kForceFeature — always extracts and uses one given feature. With its
//     cost charged this is MaxContent-ResNet/-MobileNet (Table 2); with
//     charge_feature_overhead = false it is the Table-4 protocol (the latency
//     objective applies to the MBEK only and the feature overhead is ignored).
#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/features/costs.h"
#include "src/mbek/branch.h"
#include "src/platform/switching.h"
#include "src/sched/accuracy_predictor.h"
#include "src/sched/ben_table.h"
#include "src/sched/latency_predictor.h"
#include "src/video/synthetic_video.h"

namespace litereconfig {

// Everything the scheduler learns offline (paper Section 4: trained on the
// held-out 10% of the training videos; produced by src/pipeline/trainer).
struct TrainedModels {
  const BranchSpace* space = nullptr;
  DeviceType device = DeviceType::kTx2;
  LatencyPredictor latency;
  // One accuracy predictor per feature, including the content-agnostic
  // (FeatureKind::kLight) model.
  std::map<FeatureKind, AccuracyPredictor> accuracy;
  BenefitTable ben;
  // Per-feature costs at zero contention on the target device (ms).
  std::array<double, kNumFeatureKinds> feature_extract_ms = {};
  std::array<double, kNumFeatureKinds> feature_predict_ms = {};

  // The offline switching-cost estimates the optimizer consults.
  std::optional<SwitchingCostModel> switching;

  double FeatureCostMs(FeatureKind kind, double gpu_cal, double cpu_cal) const;

  // Dataset-mean accuracy per branch: the fully content-agnostic view used by
  // the ApproxDet baseline and the serving menus.
  const std::vector<double>& mean_branch_accuracy() const {
    return mean_branch_accuracy_;
  }
  // The branch indices by descending mean accuracy, the lower index first
  // among equal accuracies: the order the serving menu walks
  // (src/sched/branch_menu.h). Derived here, never stored in the model cache.
  const std::vector<uint32_t>& branches_by_mean_accuracy() const {
    return branches_by_mean_accuracy_;
  }
  // Sets the mean accuracies and derives the order from them.
  void SetMeanBranchAccuracy(std::vector<double> mean_accuracy);

 private:
  std::vector<double> mean_branch_accuracy_;
  std::vector<uint32_t> branches_by_mean_accuracy_;
};

// Minimum predicted-accuracy improvement required to leave the current branch
// (cost-aware anti-thrashing on top of the C(b0, b) constraint term).
inline constexpr double kSwitchHysteresis = 0.003;
// The greedy feature selection adds at most this many heavy features.
inline constexpr int kMaxHeavyFeatures = 2;
// Minimum benefit-objective gain required to add another feature.
inline constexpr double kMinFeatureGain = 0.001;
// The constraint targets this fraction of the SLO: the P95 guarantee needs
// headroom above the predicted mean for execution noise and count drift
// (paper Section 5.5: "using up its latency budget prudently").
inline constexpr double kSloMargin = 0.90;

enum class LiteReconfigMode {
  kFull,
  kMinCost,
  kForceFeature,
};

struct SchedulerConfig {
  LiteReconfigMode mode = LiteReconfigMode::kFull;
  FeatureKind forced_feature = FeatureKind::kHoc;  // for kForceFeature
  // Table-4 protocol: do not charge feature costs against the latency budget.
  bool charge_feature_overhead = true;

  // Ablation switches (all on in the real system; see bench_ablation):
  // include the C(b0, b) switching-cost term in the constraint (paper S3.5);
  bool use_switching_cost = true;
  // apply the anti-thrashing hysteresis when leaving the current branch;
  bool use_hysteresis = true;
  // let the runtime calibrate latency predictions against observed kernel
  // times (contention adaptation).
  bool use_contention_calibration = true;
};

struct DecisionContext {
  const SyntheticVideo* video = nullptr;
  int frame = 0;
  // The most recent detector output (source of light features and CPoP).
  const DetectionList* anchor_detections = nullptr;
  std::optional<size_t> current_branch;
  double slo_ms = 33.3;
  // Frames left in the stream (caps GoF amortization at the tail); 0 = unknown.
  int frames_remaining = 0;
  // Online latency calibration: observed/profiled ratios for GPU and CPU
  // kernels (contention adaptation).
  double gpu_cal = 1.0;
  double cpu_cal = 1.0;
  // Recovery-aware staging: under forecast contention pressure pick the
  // cheapest SLO-feasible branch (maximize headroom) instead of the most
  // accurate feasible one.
  bool prefer_headroom = false;
  // Weight on the content-aware refinement when blending heavy-feature
  // predictions with the light-only model; drift re-anchoring raises it.
  double heavy_blend = 0.5;
  // Allocator-assigned per-frame budget cap (multi-tenant serving): the
  // feasibility constraint tightens to min(slo_ms, budget_ms) so one stream
  // cannot spend GPU time the global allocator granted to another. 0 (the
  // default) means unconstrained — single-tenant behaviour is unchanged.
  double budget_ms = 0.0;
  // GPU availability mask. False during a GPU-denied fault interval: every
  // branch whose detector needs the GPU prices as +inf — infeasible but still
  // enumerated, so menus, hysteresis, and the identity with the reference
  // scheduler are untouched — and only CPU-only branches (if the space has
  // them) remain schedulable.
  bool gpu_available = true;
};

// The margin-adjusted feasibility threshold the DecisionCostTable (and the
// reference scheduler in tests/decide_reference.h) constrain against:
// min(slo, allocator budget) * kSloMargin.
double SloLimitMs(const DecisionContext& ctx);

struct SchedulerDecision {
  size_t branch_index = 0;
  // Heavy features extracted for this decision.
  std::vector<FeatureKind> heavy_features;
  // Cost charged for this decision: light + heavy extraction and prediction, ms.
  double scheduler_cost_ms = 0.0;
  // Offline switching-cost estimate for the chosen transition, ms.
  double switch_cost_ms = 0.0;
  double predicted_accuracy = 0.0;
  double predicted_frame_ms = 0.0;
  // No branch satisfied the SLO; the cheapest branch was chosen instead.
  bool infeasible = false;
  // The light features the decision was computed from, carried out so the
  // runtime (drift monitoring, latency references) never recomputes them.
  std::vector<double> light_features;
};

class DecisionCostTable;

class LiteReconfigScheduler {
 public:
  LiteReconfigScheduler(const TrainedModels* models, SchedulerConfig config);

  // One decision: a DecisionCostTable prices every branch once (src/sched/
  // cost_table.h), and feature selection, the branch scan and the hysteresis
  // check read their feasibility probes off it. Only the branches that fit at
  // the light-only charge are probed after that, and only the accuracy rows
  // the decision reads are computed (DESIGN.md, "A decision reads only the
  // branches that fit"). Bit-identical to the reference scheduler in
  // tests/decide_reference.h (tests/sched_fastpath_test.cc).
  SchedulerDecision Decide(const DecisionContext& ctx) const;
  // The same decision through a table the caller keeps across the decisions
  // of one stream: `table` is rebuilt in place, which reuses its capacity and,
  // while the current branch holds, its switch-cost row.
  SchedulerDecision Decide(const DecisionContext& ctx,
                           DecisionCostTable& table) const;

  // Greedy cost-benefit feature selection (Eq. 4) over `fits`, the branches
  // that meet the SLO in `table` at the light-only charge, in index order
  // (DecisionCostTable::FittingBranches): every candidate charges at least
  // that much, so no other branch can meet it. Reads light_pred only at
  // `fits`.
  std::vector<FeatureKind> SelectFeatures(const std::vector<double>& light_pred,
                                          const DecisionContext& ctx,
                                          std::span<const uint32_t> fits,
                                          const DecisionCostTable& table) const;

  // Extracts the chosen heavy features and blends their accuracy predictions
  // with the light-only model. With a non-empty `needed` (one flag per
  // branch), every heavy forward computes only the flagged rows, and only
  // those rows of the result are meaningful.
  std::vector<double> PredictAccuracy(const std::vector<FeatureKind>& heavy,
                                      const std::vector<double>& light,
                                      const std::vector<double>& light_pred,
                                      const DecisionContext& ctx,
                                      std::span<const uint8_t> needed = {}) const;

  const SchedulerConfig& config() const { return config_; }

 private:
  // Which heavy features the configured mode requests; kFull runs the greedy
  // selection.
  std::vector<FeatureKind> ChooseHeavyFeatures(const std::vector<double>& light_pred,
                                               const DecisionContext& ctx,
                                               std::span<const uint32_t> fits,
                                               const DecisionCostTable& table) const;

  const TrainedModels* models_;
  SchedulerConfig config_;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_SCHEDULER_H_
