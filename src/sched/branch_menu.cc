#include "src/sched/branch_menu.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

namespace litereconfig {

std::vector<BranchOption> BuildBranchMenu(const TrainedModels& models,
                                          const SchedulerConfig& config,
                                          const DecisionContext& ctx,
                                          const std::vector<double>& light,
                                          DecisionCostTable& table) {
  // Price the menu at the full SLO: the budget cap is what the allocator is
  // about to compute from this menu.
  DecisionContext unbudgeted = ctx;
  unbudgeted.budget_ms = 0.0;
  table.Rebuild(models, config, unbudgeted, light);
  double s0 =
      models.FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);

  // One pass from the most accurate branch down. At each accuracy level the
  // feasible branch with the least (frame_ms, branch) joins the frontier when
  // that key is below the key of every feasible branch at a higher level:
  // exactly the options an ascending (frame_ms, branch) sort keeps when it
  // keeps only strict accuracy gains (DESIGN.md, "A decision reads only the
  // branches that fit").
  const std::vector<double>& accuracy = models.mean_branch_accuracy();
  const std::vector<uint32_t>& order = models.branches_by_mean_accuracy();
  assert(order.size() == table.size());
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  std::vector<BranchOption> menu;
  // The least key of the feasible branches at higher levels.
  double floor_ms = std::numeric_limits<double>::infinity();
  size_t floor_branch = kNone;
  for (size_t i = 0; i < order.size();) {
    const double level = accuracy[order[i]];
    double level_ms = std::numeric_limits<double>::infinity();
    size_t level_branch = kNone;
    // A level's branches come in index order, so the first of equal costs
    // is the least key.
    for (; i < order.size() && accuracy[order[i]] == level; ++i) {
      size_t b = order[i];
      double frame_ms = table.CostMs(b, s0);
      if (frame_ms > table.slo_limit_ms()) {
        continue;
      }
      if (level_branch == kNone || frame_ms < level_ms) {
        level_ms = frame_ms;
        level_branch = b;
      }
    }
    if (level_branch != kNone &&
        (level_ms < floor_ms || (level_ms == floor_ms && level_branch < floor_branch))) {
      menu.push_back({level_branch, level_ms, level});
      floor_ms = level_ms;
      floor_branch = level_branch;
    }
  }
  std::reverse(menu.begin(), menu.end());
  return menu;
}

}  // namespace litereconfig
