#include "src/sched/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/features/light.h"
#include "src/sched/cost_table.h"

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

std::vector<FeatureKind> LiteReconfigScheduler::SelectFeatures(
    const std::vector<double>& light, const std::vector<double>& light_pred,
    const DecisionContext& ctx) const {
  DecisionCostTable table = DecisionCostTable::Build(*models_, config_, ctx, light);
  return SelectFeatures(light_pred, ctx, [&table](size_t b, double sched_ms) {
    return table.Feasible(b, sched_ms);
  });
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

SchedulerDecision LiteReconfigScheduler::Decide(const DecisionContext& ctx) const {
  DecisionCostTable table;
  return Decide(ctx, table);
}

SchedulerDecision LiteReconfigScheduler::Decide(const DecisionContext& ctx,
                                                DecisionCostTable& table) const {
  assert(ctx.video != nullptr && ctx.anchor_detections != nullptr);
  const VideoSpec& spec = ctx.video->spec();
  std::vector<double> light =
      ComputeLightFeatures(spec.width, spec.height, *ctx.anchor_detections);
  const AccuracyPredictor& light_model = models_->accuracy.at(FeatureKind::kLight);
  std::vector<double> light_pred = light_model.Predict(light, {});

  // The per-decision cost table: one latency-predictor pass per branch, shared
  // by feature selection, the branch scan, and the hysteresis check below.
  table.Rebuild(*models_, config_, ctx, light);

  // 1. Which heavy features to use.
  std::vector<FeatureKind> heavy = ChooseHeavyFeatures(
      light_pred, ctx,
      [&table](size_t b, double sched_ms) { return table.Feasible(b, sched_ms); });

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
  return decision;
}

}  // namespace litereconfig
