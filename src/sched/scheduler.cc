#include "src/sched/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

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

void TrainedModels::SetMeanBranchAccuracy(std::vector<double> mean_accuracy) {
  mean_branch_accuracy_ = std::move(mean_accuracy);
  branches_by_mean_accuracy_.resize(mean_branch_accuracy_.size());
  std::iota(branches_by_mean_accuracy_.begin(), branches_by_mean_accuracy_.end(), 0u);
  std::stable_sort(branches_by_mean_accuracy_.begin(), branches_by_mean_accuracy_.end(),
                   [this](uint32_t a, uint32_t b) {
                     return mean_branch_accuracy_[a] > mean_branch_accuracy_[b];
                   });
}

double SloLimitMs(const DecisionContext& ctx) {
  double slo = ctx.slo_ms;
  if (ctx.budget_ms > 0.0 && ctx.budget_ms < slo) {
    slo = ctx.budget_ms;
  }
  return slo * kSloMargin;
}

LiteReconfigScheduler::LiteReconfigScheduler(const TrainedModels* models,
                                             SchedulerConfig config)
    : models_(models), config_(config) {
  assert(models_ != nullptr && models_->space != nullptr);
}

std::vector<FeatureKind> LiteReconfigScheduler::SelectFeatures(
    const std::vector<double>& light_pred, const DecisionContext& ctx,
    std::span<const uint32_t> fits, const DecisionCostTable& table) const {
  double s0 = models_->FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  // Best achievable light-only predicted accuracy under a given scheduler cost.
  auto base_best = [&](double sched_ms) {
    double best = -1.0;
    for (uint32_t b : fits) {
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
          selected_cost + models_->FeatureCostMs(kind, ctx.gpu_cal, ctx.cpu_cal);
      double charged = config_.charge_feature_overhead ? s0 + cand_cost : s0;
      double base = base_best(charged);
      if (base < 0.0) {
        continue;  // the feature's cost leaves no feasible branch
      }
      double obj = base + models_->ben.BenSubset(candidate, ctx.slo_ms);
      if (obj > best_objective + kMinFeatureGain) {
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

std::vector<FeatureKind> LiteReconfigScheduler::ChooseHeavyFeatures(
    const std::vector<double>& light_pred, const DecisionContext& ctx,
    std::span<const uint32_t> fits, const DecisionCostTable& table) const {
  switch (config_.mode) {
    case LiteReconfigMode::kFull:
      return SelectFeatures(light_pred, ctx, fits, table);
    case LiteReconfigMode::kMinCost:
      return {};
    case LiteReconfigMode::kForceFeature:
      return {config_.forced_feature};
  }
  return {};
}

std::vector<double> LiteReconfigScheduler::PredictAccuracy(
    const std::vector<FeatureKind>& heavy, const std::vector<double>& light,
    const std::vector<double>& light_pred, const DecisionContext& ctx,
    std::span<const uint8_t> needed) const {
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
    std::vector<double> pred =
        models_->accuracy.at(kind).Predict(light, content, needed);
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

  // The per-decision cost table: one latency-predictor pass per branch, shared
  // by feature selection, the branch scan, and the hysteresis check below.
  table.Rebuild(*models_, config_, ctx, light);

  // The branches that fit at the light-only charge s0. Every later step
  // charges at least s0, so these are the only branches the decision can
  // choose, and the light-only rows feature selection reads.
  double s0 = models_->FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);
  std::vector<uint32_t> fits = table.FittingBranches(s0);
  // One flag per branch: the accuracy rows a forward computes.
  std::vector<uint8_t> needed(table.size(), 0);
  auto need_only = [&needed](std::span<const uint32_t> rows) {
    std::fill(needed.begin(), needed.end(), 0);
    for (uint32_t b : rows) {
      needed[b] = 1;
    }
  };
  need_only(fits);
  const AccuracyPredictor& light_model = models_->accuracy.at(FeatureKind::kLight);
  std::vector<double> light_pred = fits.empty()
                                       ? std::vector<double>(table.size(), 0.0)
                                       : light_model.Predict(light, {}, needed);

  // 1. Which heavy features to use.
  std::vector<FeatureKind> heavy = ChooseHeavyFeatures(light_pred, ctx, fits, table);
  double heavy_cost = 0.0;
  for (FeatureKind kind : heavy) {
    heavy_cost += models_->FeatureCostMs(kind, ctx.gpu_cal, ctx.cpu_cal);
  }
  double charged = config_.charge_feature_overhead ? s0 + heavy_cost : s0;

  // 2. The rows the decision reads: the branches that still fit at the final
  // charge or, when none does, the cheapest branch at that charge. Only a
  // decision where nothing fits at s0, or a mode whose forced features leave
  // nothing feasible, can fall back to a branch outside `fits`; its light-only
  // row is computed here.
  std::erase_if(fits, [&](uint32_t b) { return !table.Feasible(b, charged); });
  SchedulerDecision decision;
  decision.infeasible = fits.empty();
  if (decision.infeasible) {
    const uint32_t cheapest = static_cast<uint32_t>(table.Cheapest(charged));
    if (needed[cheapest] == 0) {
      need_only({&cheapest, 1});
      light_pred[cheapest] = light_model.Predict(light, {}, needed)[cheapest];
    }
    fits.push_back(cheapest);
  }
  need_only(fits);

  // 3. Extract the selected features and run their accuracy models.
  std::vector<double> accuracy = PredictAccuracy(heavy, light, light_pred, ctx, needed);

  // 4. Constrained optimization over branches (Eq. 3).
  decision.heavy_features = std::move(heavy);
  decision.scheduler_cost_ms = s0 + heavy_cost;
  double best_acc = -1.0;
  size_t best_branch = 0;
  if (decision.infeasible) {
    // Nothing feasible: degrade to the cheapest branch.
    best_branch = fits.front();
    best_acc = accuracy[best_branch];
  } else {
    double feasible_cheapest_ms = std::numeric_limits<double>::infinity();
    size_t feasible_cheapest_branch = 0;
    for (uint32_t b : fits) {
      double frame_ms = table.CostMs(b, charged);
      if (frame_ms < feasible_cheapest_ms) {
        feasible_cheapest_ms = frame_ms;
        feasible_cheapest_branch = b;
      }
      if (accuracy[b] > best_acc) {
        best_acc = accuracy[b];
        best_branch = b;
      }
    }
    if (ctx.prefer_headroom) {
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
      // A current branch that fits at the final charge is one of `fits`.
      size_t cur = *ctx.current_branch;
      double cur_ms = table.CostMs(cur, charged);
      if (cur_ms <= table.slo_limit_ms() &&
          accuracy[cur] >= best_acc - kSwitchHysteresis) {
        best_branch = cur;
        best_acc = accuracy[cur];
      }
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
