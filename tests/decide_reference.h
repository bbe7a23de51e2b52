// Reference scheduler for tests and bench_perf's floor: every feasibility
// probe re-runs the latency predictor for one branch, over every branch.
//
// FrameCostMs prices one branch with its own latency-predictor pass, and
// DecideReference scans the branches with it. The product's
// LiteReconfigScheduler::Decide (src/sched/scheduler.h) prices each branch
// once into a DecisionCostTable, probes only the branches that fit at the
// light-only charge, and computes only the accuracy rows it reads; the
// oracle keeps its own copy of the unrestricted greedy feature selection and
// computes every row, so it does not share the restriction it checks. Tests
// compare the two paths field for field with EXPECT_EQ.
#ifndef TESTS_DECIDE_REFERENCE_H_
#define TESTS_DECIDE_REFERENCE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "src/features/light.h"
#include "src/sched/scheduler.h"

namespace litereconfig {

// Amortized per-frame latency of branch `index` including the scheduler cost
// `sched_ms` and the switch cost from ctx.current_branch.
inline double FrameCostMs(const TrainedModels& models, const SchedulerConfig& config,
                          const DecisionContext& ctx,
                          const std::vector<double>& light, size_t index,
                          double sched_ms) {
  const Branch& branch = models.space->at(index);
  int effective_gof = branch.gof;
  if (ctx.frames_remaining > 0) {
    effective_gof = std::min(effective_gof, ctx.frames_remaining);
  }
  // Conservative constraint evaluation: the tracked-object count can grow by
  // the time the GoF runs, so the tracker cost is predicted at count + 1.
  std::vector<double> conservative = light;
  conservative[2] += 1.0 / 8.0;
  // Availability mask: a GPU-backed branch under a denied GPU prices as +inf.
  double frame_ms =
      (!ctx.gpu_available && !branch.detector.cpu)
          ? std::numeric_limits<double>::infinity()
          : models.latency.PredictFrameMs(index, conservative, ctx.gpu_cal,
                                          ctx.cpu_cal, effective_gof);
  double switch_ms = 0.0;
  if (config.use_switching_cost && ctx.current_branch.has_value() &&
      models.switching.has_value()) {
    switch_ms = models.switching->OfflineCostMs(
        models.space->at(*ctx.current_branch), branch);
  }
  // Scheduler and switching costs occur once per GoF; amortize over its frames.
  return frame_ms + (sched_ms + switch_ms) / static_cast<double>(effective_gof);
}

// The per-probe feasibility test the greedy feature selection runs with.
inline auto ReferenceFeasible(const TrainedModels& models, const SchedulerConfig& config,
                              const DecisionContext& ctx,
                              const std::vector<double>& light) {
  return [&models, &config, &ctx, &light, slo_limit = SloLimitMs(ctx)](
             size_t b, double sched_ms) {
    return FrameCostMs(models, config, ctx, light, b, sched_ms) <= slo_limit;
  };
}

// Greedy cost-benefit feature selection (Eq. 4), probing every branch at
// every candidate charge.
inline std::vector<FeatureKind> SelectFeaturesReference(
    const TrainedModels& models, const SchedulerConfig& config,
    const std::vector<double>& light, const std::vector<double>& light_pred,
    const DecisionContext& ctx) {
  auto feasible = ReferenceFeasible(models, config, ctx, light);
  double s0 = models.FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  // Best achievable light-only predicted accuracy under a given scheduler cost.
  auto base_best = [&](double sched_ms) {
    double best = -1.0;
    for (size_t b = 0; b < models.space->size(); ++b) {
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
    return selected;
  }
  while (static_cast<int>(selected.size()) < kMaxHeavyFeatures) {
    FeatureKind best_kind = FeatureKind::kLight;
    double best_objective = objective;
    for (FeatureKind kind : kHeavyFeatures) {
      if (std::find(selected.begin(), selected.end(), kind) != selected.end()) {
        continue;
      }
      std::vector<FeatureKind> candidate = selected;
      candidate.push_back(kind);
      double cand_cost =
          selected_cost + models.FeatureCostMs(kind, ctx.gpu_cal, ctx.cpu_cal);
      double charged = config.charge_feature_overhead ? s0 + cand_cost : s0;
      double base = base_best(charged);
      if (base < 0.0) {
        continue;
      }
      double obj = base + models.ben.BenSubset(candidate, ctx.slo_ms);
      if (obj > best_objective + kMinFeatureGain) {
        best_objective = obj;
        best_kind = kind;
      }
    }
    if (best_kind == FeatureKind::kLight) {
      break;
    }
    selected.push_back(best_kind);
    selected_cost += models.FeatureCostMs(best_kind, ctx.gpu_cal, ctx.cpu_cal);
    objective = best_objective;
  }
  return selected;
}

inline std::vector<FeatureKind> ChooseHeavyFeaturesReference(
    const TrainedModels& models, const SchedulerConfig& config,
    const std::vector<double>& light, const std::vector<double>& light_pred,
    const DecisionContext& ctx) {
  switch (config.mode) {
    case LiteReconfigMode::kFull:
      return SelectFeaturesReference(models, config, light, light_pred, ctx);
    case LiteReconfigMode::kMinCost:
      return {};
    case LiteReconfigMode::kForceFeature:
      return {config.forced_feature};
  }
  return {};
}

inline SchedulerDecision DecideReference(const TrainedModels& models,
                                         const SchedulerConfig& config,
                                         const DecisionContext& ctx) {
  assert(ctx.video != nullptr && ctx.anchor_detections != nullptr);
  LiteReconfigScheduler scheduler(&models, config);
  const VideoSpec& spec = ctx.video->spec();
  std::vector<double> light =
      ComputeLightFeatures(spec.width, spec.height, *ctx.anchor_detections);
  std::vector<double> light_pred =
      models.accuracy.at(FeatureKind::kLight).Predict(light, {});

  // 1. Which heavy features to use.
  std::vector<FeatureKind> heavy =
      ChooseHeavyFeaturesReference(models, config, light, light_pred, ctx);

  // 2. Extract the selected features and run their accuracy models.
  double s0 = models.FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  double heavy_cost = 0.0;
  for (FeatureKind kind : heavy) {
    heavy_cost += models.FeatureCostMs(kind, ctx.gpu_cal, ctx.cpu_cal);
  }
  std::vector<double> accuracy =
      scheduler.PredictAccuracy(heavy, light, light_pred, ctx);

  // 3. Constrained optimization over branches (Eq. 3).
  double charged = config.charge_feature_overhead ? s0 + heavy_cost : s0;
  SchedulerDecision decision;
  decision.heavy_features = std::move(heavy);
  decision.scheduler_cost_ms = s0 + heavy_cost;
  double slo_limit = SloLimitMs(ctx);
  double best_acc = -1.0;
  size_t best_branch = 0;
  double cheapest_ms = std::numeric_limits<double>::infinity();
  size_t cheapest_branch = 0;
  double feasible_cheapest_ms = std::numeric_limits<double>::infinity();
  size_t feasible_cheapest_branch = 0;
  for (size_t b = 0; b < models.space->size(); ++b) {
    double frame_ms = FrameCostMs(models, config, ctx, light, b, charged);
    if (frame_ms < cheapest_ms) {
      cheapest_ms = frame_ms;
      cheapest_branch = b;
    }
    if (frame_ms > slo_limit) {
      continue;
    }
    if (frame_ms < feasible_cheapest_ms) {
      feasible_cheapest_ms = frame_ms;
      feasible_cheapest_branch = b;
    }
    if (accuracy[b] > best_acc) {
      best_acc = accuracy[b];
      best_branch = b;
    }
  }
  if (best_acc < 0.0) {
    // Nothing feasible: degrade to the cheapest branch.
    decision.infeasible = true;
    best_branch = cheapest_branch;
    best_acc = accuracy[cheapest_branch];
  } else if (ctx.prefer_headroom) {
    // Staged degradation: the feasible branch with the most headroom.
    best_branch = feasible_cheapest_branch;
    best_acc = accuracy[feasible_cheapest_branch];
  } else if (config.use_hysteresis && ctx.current_branch.has_value()) {
    // Anti-thrashing: keep the current branch unless the winner is clearly
    // better.
    size_t cur = *ctx.current_branch;
    double cur_ms = FrameCostMs(models, config, ctx, light, cur, charged);
    if (cur_ms <= slo_limit && accuracy[cur] >= best_acc - kSwitchHysteresis) {
      best_branch = cur;
      best_acc = accuracy[cur];
    }
  }
  decision.branch_index = best_branch;
  decision.predicted_accuracy = best_acc;
  decision.predicted_frame_ms =
      models.latency.PredictFrameMs(best_branch, light, ctx.gpu_cal, ctx.cpu_cal);
  if (ctx.current_branch.has_value() && models.switching.has_value() &&
      *ctx.current_branch != best_branch) {
    decision.switch_cost_ms = models.switching->OfflineCostMs(
        models.space->at(*ctx.current_branch), models.space->at(best_branch));
  }
  decision.light_features = std::move(light);
  return decision;
}

}  // namespace litereconfig

#endif  // TESTS_DECIDE_REFERENCE_H_
