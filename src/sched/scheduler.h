// The LiteReconfig scheduler: cost-benefit feature selection (Eq. 4) followed by
// the switching-cost-aware constrained branch optimization (Eq. 3).
//
// Variants (paper Section 4):
//   * kFull               — cost-benefit analysis over all content features;
//   * kMinCost            — content-agnostic: light features only;
//   * kMaxContentResNet   — always extracts and uses the ResNet50 feature;
//   * kMaxContentMobileNet— always extracts and uses the MobileNetV2 feature;
//   * kForceFeature       — always uses one given feature; with
//     charge_feature_overhead = false this is the Table-4 protocol (the latency
//     objective applies to the MBEK only and the feature overhead is ignored).
#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <algorithm>
#include <array>
#include <map>
#include <optional>
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
  // Dataset-mean accuracy per branch (the fully content-agnostic view used by
  // the ApproxDet baseline).
  std::vector<double> mean_branch_accuracy;
  BenefitTable ben;
  // Per-feature costs at zero contention on the target device (ms).
  std::array<double, kNumFeatureKinds> feature_extract_ms = {};
  std::array<double, kNumFeatureKinds> feature_predict_ms = {};

  // The offline switching-cost estimates the optimizer consults.
  std::optional<SwitchingCostModel> switching;

  double FeatureCostMs(FeatureKind kind, double gpu_cal, double cpu_cal) const;
};

enum class LiteReconfigMode {
  kFull,
  kMinCost,
  kMaxContentResNet,
  kMaxContentMobileNet,
  kForceFeature,
};

struct SchedulerConfig {
  LiteReconfigMode mode = LiteReconfigMode::kFull;
  FeatureKind forced_feature = FeatureKind::kHoc;  // for kForceFeature
  // Table-4 protocol: do not charge feature costs against the latency budget.
  bool charge_feature_overhead = true;
  // The greedy selection adds at most this many heavy features.
  int max_heavy_features = 2;
  // Minimum benefit-objective gain required to add another feature.
  double min_feature_gain = 0.001;
  // Minimum predicted-accuracy improvement required to leave the current branch
  // (cost-aware anti-thrashing on top of the C(b0, b) constraint term).
  double switch_hysteresis = 0.003;
  // The constraint targets this fraction of the SLO: the P95 guarantee needs
  // headroom above the predicted mean for execution noise and count drift
  // (paper Section 5.5: "using up its latency budget prudently").
  double slo_margin = 0.90;

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
// min(slo, allocator budget) * margin.
double SloLimitMs(const SchedulerConfig& config, const DecisionContext& ctx);

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
  // check read their feasibility probes off it. Bit-identical to the
  // reference scheduler in tests/decide_reference.h
  // (tests/sched_fastpath_test.cc).
  SchedulerDecision Decide(const DecisionContext& ctx) const;
  // The same decision through a table the caller keeps across the decisions
  // of one stream: `table` is rebuilt in place, which reuses its capacity and,
  // while the current branch holds, its switch-cost row.
  SchedulerDecision Decide(const DecisionContext& ctx,
                           DecisionCostTable& table) const;

  // Greedy cost-benefit feature selection (Eq. 4) over a table built for
  // `ctx`. Public so the perf harness can time the selection stage alone.
  std::vector<FeatureKind> SelectFeatures(const std::vector<double>& light,
                                          const std::vector<double>& light_pred,
                                          const DecisionContext& ctx) const;
  // The greedy loop itself. `feasible(branch, sched_ms)` says whether a branch
  // meets the SLO when the decision charges `sched_ms` of scheduler cost; the
  // product passes DecisionCostTable::Feasible.
  template <typename FeasibleFn>
  std::vector<FeatureKind> SelectFeatures(const std::vector<double>& light_pred,
                                          const DecisionContext& ctx,
                                          const FeasibleFn& feasible) const;

  // Which heavy features the configured mode requests; kFull runs the greedy
  // selection with `feasible`.
  template <typename FeasibleFn>
  std::vector<FeatureKind> ChooseHeavyFeatures(const std::vector<double>& light_pred,
                                               const DecisionContext& ctx,
                                               const FeasibleFn& feasible) const;

  // Extracts the chosen heavy features and blends their accuracy predictions
  // with the light-only model.
  std::vector<double> PredictAccuracy(const std::vector<FeatureKind>& heavy,
                                      const std::vector<double>& light,
                                      const std::vector<double>& light_pred,
                                      const DecisionContext& ctx) const;

  const SchedulerConfig& config() const { return config_; }

 private:
  const TrainedModels* models_;
  SchedulerConfig config_;
};

template <typename FeasibleFn>
std::vector<FeatureKind> LiteReconfigScheduler::SelectFeatures(
    const std::vector<double>& light_pred, const DecisionContext& ctx,
    const FeasibleFn& feasible) const {
  double s0 = models_->FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  // Best achievable light-only predicted accuracy under a given scheduler cost.
  auto base_best = [&](double sched_ms) {
    double best = -1.0;
    for (size_t b = 0; b < models_->space->size(); ++b) {
      if (feasible(b, sched_ms)) {
        best = std::max(best, light_pred[b]);
      }
    }
    return best;
  };

  std::vector<FeatureKind> selected;
  double selected_cost = 0.0;
  double objective = base_best(s0);
  if (objective < 0.0) {
    // Not even the cheapest branch fits: no budget for content features.
    return selected;
  }
  while (static_cast<int>(selected.size()) < config_.max_heavy_features) {
    FeatureKind best_kind = FeatureKind::kLight;
    double best_objective = objective;
    for (FeatureKind kind : kHeavyFeatures) {
      if (std::find(selected.begin(), selected.end(), kind) != selected.end()) {
        continue;
      }
      std::vector<FeatureKind> candidate = selected;
      candidate.push_back(kind);
      double cand_cost =
          selected_cost + models_->FeatureCostMs(kind, ctx.gpu_cal, ctx.cpu_cal);
      double charged = config_.charge_feature_overhead ? s0 + cand_cost : s0;
      double base = base_best(charged);
      if (base < 0.0) {
        continue;  // the feature's cost leaves no feasible branch
      }
      double obj = base + models_->ben.BenSubset(candidate, ctx.slo_ms);
      if (obj > best_objective + config_.min_feature_gain) {
        best_objective = obj;
        best_kind = kind;
      }
    }
    if (best_kind == FeatureKind::kLight) {
      break;
    }
    selected.push_back(best_kind);
    selected_cost += models_->FeatureCostMs(best_kind, ctx.gpu_cal, ctx.cpu_cal);
    objective = best_objective;
  }
  return selected;
}

template <typename FeasibleFn>
std::vector<FeatureKind> LiteReconfigScheduler::ChooseHeavyFeatures(
    const std::vector<double>& light_pred, const DecisionContext& ctx,
    const FeasibleFn& feasible) const {
  switch (config_.mode) {
    case LiteReconfigMode::kFull:
      return SelectFeatures(light_pred, ctx, feasible);
    case LiteReconfigMode::kMinCost:
      return {};
    case LiteReconfigMode::kMaxContentResNet:
      return {FeatureKind::kResNet50};
    case LiteReconfigMode::kMaxContentMobileNet:
      return {FeatureKind::kMobileNetV2};
    case LiteReconfigMode::kForceFeature:
      return {config_.forced_feature};
  }
  return {};
}

}  // namespace litereconfig

#endif  // SRC_SCHED_SCHEDULER_H_
