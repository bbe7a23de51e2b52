#include "src/sched/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/features/light.h"
#include "src/sched/cost_table.h"
#include "src/sched/scheduler_session.h"

namespace litereconfig {

double TrainedModels::FeatureCostMs(FeatureKind kind, double gpu_cal,
                                    double cpu_cal) const {
  const FeatureCost& cost = GetFeatureCost(kind);
  size_t idx = static_cast<size_t>(kind);
  double extract =
      feature_extract_ms[idx] * (cost.extract_on_gpu ? gpu_cal : cpu_cal);
  double predict =
      feature_predict_ms[idx] * (cost.predict_on_gpu ? gpu_cal : cpu_cal);
  return extract + predict;
}

double SloLimitMs(const SchedulerConfig& config, const DecisionContext& ctx) {
  double slo = ctx.slo_ms;
  if (ctx.budget_ms > 0.0 && ctx.budget_ms < slo) {
    slo = ctx.budget_ms;
  }
  return slo * config.slo_margin;
}

LiteReconfigScheduler::LiteReconfigScheduler(const TrainedModels* models,
                                             SchedulerConfig config)
    : models_(models), config_(config) {
  assert(models_ != nullptr && models_->space != nullptr);
}

double LiteReconfigScheduler::FrameCostMs(size_t index,
                                          const std::vector<double>& light,
                                          double sched_ms,
                                          const DecisionContext& ctx) const {
  const Branch& branch = models_->space->at(index);
  int effective_gof = branch.gof;
  if (ctx.frames_remaining > 0) {
    effective_gof = std::min(effective_gof, ctx.frames_remaining);
  }
  // Conservative constraint evaluation: the tracked-object count can grow by
  // the time the GoF runs (new objects enter, confidences rise), so the
  // tracker cost is predicted at count + 1. Without this headroom, the
  // per-object cost of heavy trackers (CSRT ~8 ms/object/frame) makes P95
  // violations routine at mid SLOs.
  std::vector<double> conservative = light;
  conservative[2] += 1.0 / 8.0;
  // Availability mask (same form as DecisionCostTable::Build): a GPU-backed
  // branch under a denied GPU prices as +inf — enumerated, never feasible.
  // inf + finite = inf keeps this expression bit-identical to the table's.
  double frame_ms =
      (!ctx.gpu_available && !branch.detector.cpu)
          ? std::numeric_limits<double>::infinity()
          : models_->latency.PredictFrameMs(index, conservative, ctx.gpu_cal,
                                            ctx.cpu_cal, effective_gof);
  double switch_ms = 0.0;
  if (config_.use_switching_cost && ctx.current_branch.has_value() &&
      models_->switching.has_value()) {
    switch_ms = models_->switching->OfflineCostMs(
        models_->space->at(*ctx.current_branch), branch);
  }
  // Scheduler and switching costs occur once per GoF; amortize over its frames.
  return frame_ms + (sched_ms + switch_ms) / static_cast<double>(effective_gof);
}

std::vector<FeatureKind> LiteReconfigScheduler::SelectFeaturesReference(
    const std::vector<double>& light, const std::vector<double>& light_pred,
    const DecisionContext& ctx) const {
  double s0 = models_->FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  double slo_limit = SloLimitMs(config_, ctx);
  // Best achievable light-only predicted accuracy under a given scheduler cost.
  auto base_best = [&](double sched_ms) {
    double best = -1.0;
    for (size_t b = 0; b < models_->space->size(); ++b) {
      if (FrameCostMs(b, light, sched_ms, ctx) <= slo_limit) {
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

std::vector<FeatureKind> LiteReconfigScheduler::SelectFeaturesWithTable(
    const std::vector<double>& light_pred, const DecisionContext& ctx,
    const DecisionCostTable& table) const {
  double s0 = models_->FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  // Best achievable light-only predicted accuracy under a given scheduler
  // cost. Identical comparisons to the reference form: the table holds the
  // same predicted branch costs, so feasibility is the same predicate on the
  // same doubles — only now it is three flops instead of a predictor pass.
  auto base_best = [&](double sched_ms) {
    double best = -1.0;
    for (size_t b = 0; b < table.size(); ++b) {
      if (table.Feasible(b, sched_ms)) {
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

std::vector<FeatureKind> LiteReconfigScheduler::SelectFeatures(
    const std::vector<double>& light, const std::vector<double>& light_pred,
    const DecisionContext& ctx) const {
  DecisionCostTable table = DecisionCostTable::Build(*models_, config_, ctx, light);
  return SelectFeaturesWithTable(light_pred, ctx, table);
}

std::vector<FeatureKind> LiteReconfigScheduler::ChooseHeavyFeatures(
    const std::vector<double>& light, const std::vector<double>& light_pred,
    const DecisionContext& ctx, const DecisionCostTable* table) const {
  switch (config_.mode) {
    case LiteReconfigMode::kFull:
      return table != nullptr ? SelectFeaturesWithTable(light_pred, ctx, *table)
                              : SelectFeaturesReference(light, light_pred, ctx);
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

std::vector<double> LiteReconfigScheduler::PredictAccuracy(
    const std::vector<FeatureKind>& heavy, const std::vector<double>& light,
    const std::vector<double>& light_pred, const DecisionContext& ctx) const {
  if (heavy.empty()) {
    return light_pred;
  }
  std::vector<double> combined(models_->space->size(), 0.0);
  // Raster-backed features (HoC, HOG) share one frame render: the raster is
  // the dominant extraction cost and is identical for every feature of the
  // same frame.
  Image rendered;
  bool have_render = false;
  for (FeatureKind kind : heavy) {
    const bool needs_raster = FeatureNeedsRaster(kind);
    if (needs_raster && !have_render) {
      rendered = RenderFrame(*ctx.video, ctx.frame);
      have_render = true;
    }
    std::vector<double> content =
        ExtractFeature(kind, *ctx.video, ctx.frame, *ctx.anchor_detections,
                       needs_raster ? &rendered : nullptr);
    std::vector<double> pred = models_->accuracy.at(kind).Predict(light, content);
    for (size_t b = 0; b < combined.size(); ++b) {
      combined[b] += pred[b];
    }
  }
  // The content-aware models refine (not replace) the content-agnostic
  // prediction: blending with the light-only model bounds the estimation
  // variance the heavy models add on top of their content signal. The
  // blend == 0.5 form is kept verbatim so the default path stays bit-exact.
  for (size_t b = 0; b < combined.size(); ++b) {
    if (ctx.heavy_blend == 0.5) {
      combined[b] = 0.5 * (combined[b] / static_cast<double>(heavy.size()) +
                           light_pred[b]);
    } else {
      combined[b] =
          ctx.heavy_blend * (combined[b] / static_cast<double>(heavy.size())) +
          (1.0 - ctx.heavy_blend) * light_pred[b];
    }
  }
  return combined;
}

SchedulerDecision LiteReconfigScheduler::Decide(const DecisionContext& ctx,
                                                SchedulerSession* session) const {
  if (!config_.use_fast_path) {
    return DecideReference(ctx);
  }
  assert(ctx.video != nullptr && ctx.anchor_detections != nullptr);
  const VideoSpec& spec = ctx.video->spec();
  std::vector<double> light =
      ComputeLightFeatures(spec.width, spec.height, *ctx.anchor_detections);
  if (session != nullptr) {
    // Whole-decision replay: when every key field matches the cached decision
    // (and that decision used no heavy features), the pass below would
    // recompute the identical result — skip it.
    SchedulerDecision replayed;
    if (session->LookupDecision(*models_, config_, ctx, light, &replayed)) {
      return replayed;
    }
  }
  const AccuracyPredictor& light_model = models_->accuracy.at(FeatureKind::kLight);
  std::vector<double> light_pred = light_model.Predict(light, {});

  // The per-decision cost table: one latency-predictor pass per branch, shared
  // by feature selection, the branch scan, and the hysteresis check below.
  // Sessions serve it from their cross-GoF cache instead of rebuilding.
  DecisionCostTable local_table;
  const DecisionCostTable* table_ptr;
  if (session != nullptr) {
    table_ptr = &session->TableFor(*models_, config_);
  } else {
    local_table = DecisionCostTable::Build(*models_, config_, ctx, light);
    table_ptr = &local_table;
  }
  const DecisionCostTable& table = *table_ptr;

  // 1. Which heavy features to use.
  std::vector<FeatureKind> heavy = ChooseHeavyFeatures(light, light_pred, ctx, &table);

  // 2. Extract the selected features and run their accuracy models.
  double s0 = models_->FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  double heavy_cost = 0.0;
  for (FeatureKind kind : heavy) {
    heavy_cost += models_->FeatureCostMs(kind, ctx.gpu_cal, ctx.cpu_cal);
  }
  std::vector<double> accuracy = PredictAccuracy(heavy, light, light_pred, ctx);

  // 3. Constrained optimization over branches (Eq. 3).
  double charged = config_.charge_feature_overhead ? s0 + heavy_cost : s0;
  SchedulerDecision decision;
  decision.heavy_features = std::move(heavy);
  decision.scheduler_cost_ms = s0 + heavy_cost;
  double best_acc = -1.0;
  size_t best_branch = 0;
  size_t cheapest_branch = table.Cheapest(charged);
  double feasible_cheapest_ms = std::numeric_limits<double>::infinity();
  size_t feasible_cheapest_branch = 0;
  for (size_t b = 0; b < table.size(); ++b) {
    double frame_ms = table.CostMs(b, charged);
    if (frame_ms > table.slo_limit_ms()) {
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
    // Staged degradation under forecast pressure: take the feasible branch
    // with the most latency headroom, not the most accurate one, so the
    // forecast contention can land without blowing the SLO. Hysteresis is
    // skipped — sticking with an expensive current branch is exactly the
    // failure mode this stage exists to avoid.
    best_branch = feasible_cheapest_branch;
    best_acc = accuracy[feasible_cheapest_branch];
  } else if (config_.use_hysteresis && ctx.current_branch.has_value()) {
    // Anti-thrashing: keep the current branch unless the winner is clearly
    // better (the switching cost itself is already inside the constraint).
    size_t cur = *ctx.current_branch;
    double cur_ms = table.CostMs(cur, charged);
    if (cur_ms <= table.slo_limit_ms() &&
        accuracy[cur] >= best_acc - config_.switch_hysteresis) {
      best_branch = cur;
      best_acc = accuracy[cur];
    }
  }
  decision.branch_index = best_branch;
  decision.predicted_accuracy = best_acc;
  decision.predicted_frame_ms =
      models_->latency.PredictFrameMs(best_branch, light, ctx.gpu_cal, ctx.cpu_cal);
  if (ctx.current_branch.has_value() && models_->switching.has_value() &&
      *ctx.current_branch != best_branch) {
    decision.switch_cost_ms = models_->switching->OfflineCostMs(
        models_->space->at(*ctx.current_branch), models_->space->at(best_branch));
  }
  decision.light_features = std::move(light);
  if (session != nullptr) {
    session->StoreDecision(decision);
  }
  return decision;
}

SchedulerDecision LiteReconfigScheduler::DecideReference(
    const DecisionContext& ctx) const {
  assert(ctx.video != nullptr && ctx.anchor_detections != nullptr);
  const VideoSpec& spec = ctx.video->spec();
  std::vector<double> light =
      ComputeLightFeatures(spec.width, spec.height, *ctx.anchor_detections);
  const AccuracyPredictor& light_model = models_->accuracy.at(FeatureKind::kLight);
  std::vector<double> light_pred = light_model.Predict(light, {});

  // 1. Which heavy features to use (reference greedy selection for kFull).
  std::vector<FeatureKind> heavy =
      ChooseHeavyFeatures(light, light_pred, ctx, nullptr);

  // 2. Extract the selected features and run their accuracy models.
  double s0 = models_->FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  double heavy_cost = 0.0;
  for (FeatureKind kind : heavy) {
    heavy_cost += models_->FeatureCostMs(kind, ctx.gpu_cal, ctx.cpu_cal);
  }
  std::vector<double> accuracy = PredictAccuracy(heavy, light, light_pred, ctx);

  // 3. Constrained optimization over branches (Eq. 3).
  double charged = config_.charge_feature_overhead ? s0 + heavy_cost : s0;
  SchedulerDecision decision;
  decision.heavy_features = std::move(heavy);
  decision.scheduler_cost_ms = s0 + heavy_cost;
  double slo_limit = SloLimitMs(config_, ctx);
  double best_acc = -1.0;
  size_t best_branch = 0;
  double cheapest_ms = std::numeric_limits<double>::infinity();
  size_t cheapest_branch = 0;
  double feasible_cheapest_ms = std::numeric_limits<double>::infinity();
  size_t feasible_cheapest_branch = 0;
  for (size_t b = 0; b < models_->space->size(); ++b) {
    double frame_ms = FrameCostMs(b, light, charged, ctx);
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
    // Staged degradation under forecast pressure: take the feasible branch
    // with the most latency headroom, not the most accurate one, so the
    // forecast contention can land without blowing the SLO. Hysteresis is
    // skipped — sticking with an expensive current branch is exactly the
    // failure mode this stage exists to avoid.
    best_branch = feasible_cheapest_branch;
    best_acc = accuracy[feasible_cheapest_branch];
  } else if (config_.use_hysteresis && ctx.current_branch.has_value()) {
    // Anti-thrashing: keep the current branch unless the winner is clearly
    // better (the switching cost itself is already inside the constraint).
    size_t cur = *ctx.current_branch;
    double cur_ms = FrameCostMs(cur, light, charged, ctx);
    if (cur_ms <= slo_limit &&
        accuracy[cur] >= best_acc - config_.switch_hysteresis) {
      best_branch = cur;
      best_acc = accuracy[cur];
    }
  }
  decision.branch_index = best_branch;
  decision.predicted_accuracy = best_acc;
  decision.predicted_frame_ms =
      models_->latency.PredictFrameMs(best_branch, light, ctx.gpu_cal, ctx.cpu_cal);
  if (ctx.current_branch.has_value() && models_->switching.has_value() &&
      *ctx.current_branch != best_branch) {
    decision.switch_cost_ms = models_->switching->OfflineCostMs(
        models_->space->at(*ctx.current_branch), models_->space->at(best_branch));
  }
  decision.light_features = std::move(light);
  return decision;
}

}  // namespace litereconfig
