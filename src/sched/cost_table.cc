#include "src/sched/cost_table.h"

#include <algorithm>
#include <limits>

namespace litereconfig {

size_t CheapestBranchIndex(size_t branch_count,
                           const std::function<double(size_t)>& cost_ms) {
  size_t cheapest = 0;
  double cheapest_ms = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < branch_count; ++b) {
    double ms = cost_ms(b);
    if (ms < cheapest_ms) {
      cheapest_ms = ms;
      cheapest = b;
    }
  }
  return cheapest;
}

DecisionCostTable DecisionCostTable::Build(const TrainedModels& models,
                                           const SchedulerConfig& config,
                                           const DecisionContext& ctx,
                                           const std::vector<double>& light) {
  DecisionCostTable table;
  table.Rebuild(models, config, ctx, light);
  return table;
}

void DecisionCostTable::Rebuild(const TrainedModels& models,
                                const SchedulerConfig& config,
                                const DecisionContext& ctx,
                                const std::vector<double>& light) {
  const BranchSpace& space = *models.space;
  const size_t n = space.size();
  slo_limit_ms_ = SloLimitMs(config, ctx);
  effective_gof_.resize(n);
  gof_.resize(n);
  for (size_t b = 0; b < n; ++b) {
    effective_gof_[b] = space.at(b).gof;
    if (ctx.frames_remaining > 0) {
      effective_gof_[b] = std::min(effective_gof_[b], ctx.frames_remaining);
    }
    gof_[b] = static_cast<double>(effective_gof_[b]);
  }

  const bool charge_switch = config.use_switching_cost &&
                             ctx.current_branch.has_value() &&
                             models.switching.has_value();
  const size_t current = charge_switch ? *ctx.current_branch : 0;
  if (row_models_ == &models && row_charged_ == charge_switch &&
      row_current_ == current) {
    ++switch_row_reuses_;
  } else {
    if (charge_switch) {
      models.switching->OfflineCostRow(space.at(current), space.branches(),
                                       switch_ms_);
    } else {
      switch_ms_.assign(n, 0.0);
    }
    row_models_ = &models;
    row_charged_ = charge_switch;
    row_current_ = current;
  }

  // The same conservative count headroom the reference scheduler applies:
  // the tracked-object population can grow by the time the GoF runs, so the
  // tracker cost is predicted at count + 1.
  std::vector<double> conservative = light;
  conservative[2] += 1.0 / 8.0;
  models.latency.PredictAllFrameMs(conservative, ctx.gpu_cal, ctx.cpu_cal,
                                   effective_gof_, branch_ms_);
  if (ctx.gpu_available) {
    return;
  }
  // Availability mask: with the GPU denied, GPU-backed branches price as +inf
  // — present in the table but infeasible and never cheapest while any
  // finite-cost branch exists. inf + finite = inf keeps CostMs bit-identical
  // to the reference scheduler, which applies the same mask.
  for (size_t b = 0; b < n; ++b) {
    if (!space.at(b).detector.cpu) {
      branch_ms_[b] = std::numeric_limits<double>::infinity();
    }
  }
}

size_t DecisionCostTable::Cheapest(double sched_ms) const {
  return CheapestBranchIndex(
      size(), [this, sched_ms](size_t b) { return CostMs(b, sched_ms); });
}

}  // namespace litereconfig
