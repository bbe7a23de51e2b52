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
  const BranchSpace& space = *models.space;
  const size_t n = space.size();
  DecisionCostTable table;
  table.slo_limit_ms_ = SloLimitMs(config, ctx);
  const Branch* current = ctx.current_branch.has_value()
                              ? &space.at(*ctx.current_branch)
                              : nullptr;
  const bool charge_switch = config.use_switching_cost && current != nullptr &&
                             models.switching.has_value();
  std::vector<int> effective_gof(n);
  table.gof_.resize(n);
  for (size_t b = 0; b < n; ++b) {
    effective_gof[b] = space.at(b).gof;
    if (ctx.frames_remaining > 0) {
      effective_gof[b] = std::min(effective_gof[b], ctx.frames_remaining);
    }
    table.gof_[b] = static_cast<double>(effective_gof[b]);
  }
  if (charge_switch) {
    models.switching->OfflineCostRow(*current, space.branches(), table.switch_ms_);
  } else {
    table.switch_ms_.assign(n, 0.0);
  }
  table.PriceBranches(models, light, ctx.gpu_cal, ctx.cpu_cal, ctx.gpu_available,
                      effective_gof);
  return table;
}

void DecisionCostTable::PriceBranches(const TrainedModels& models,
                                      const std::vector<double>& light,
                                      double gpu_cal, double cpu_cal,
                                      bool gpu_available,
                                      const std::vector<int>& effective_gof) {
  // The same conservative count headroom the reference FrameCostMs applies:
  // the tracked-object population can grow by the time the GoF runs, so the
  // tracker cost is predicted at count + 1.
  std::vector<double> conservative = light;
  conservative[2] += 1.0 / 8.0;
  models.latency.PredictAllFrameMs(conservative, gpu_cal, cpu_cal, effective_gof,
                                   branch_ms_);
  if (gpu_available) {
    return;
  }
  // Availability mask: with the GPU denied, GPU-backed branches price as +inf
  // — present in the table but infeasible and never cheapest while any
  // finite-cost branch exists. inf + finite = inf keeps CostMs bit-identical
  // to the reference FrameCostMs, which applies the same mask.
  const BranchSpace& space = *models.space;
  for (size_t b = 0; b < branch_ms_.size(); ++b) {
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
