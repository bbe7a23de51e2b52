// Reference allocation menu for tests: a fresh cost table, every feasible
// branch sorted by (frame_ms, branch), then only strict accuracy gains kept.
//
// The product's BuildBranchMenu (src/sched/branch_menu.h) prices the menu on
// a table the stream keeps and finds the same frontier in one pass over the
// branches in descending mean accuracy, without a sort; tests compare the
// two option for option.
#ifndef TESTS_MENU_REFERENCE_H_
#define TESTS_MENU_REFERENCE_H_

#include <algorithm>
#include <vector>

#include "src/sched/branch_menu.h"
#include "src/sched/cost_table.h"

namespace litereconfig {

inline std::vector<BranchOption> BuildBranchMenuReference(
    const TrainedModels& models, const SchedulerConfig& config,
    const DecisionContext& ctx, const std::vector<double>& light) {
  DecisionContext unbudgeted = ctx;
  unbudgeted.budget_ms = 0.0;
  DecisionCostTable table;
  table.Rebuild(models, config, unbudgeted, light);
  double s0 =
      models.FeatureCostMs(FeatureKind::kLight, ctx.gpu_cal, ctx.cpu_cal);

  std::vector<BranchOption> feasible;
  for (size_t b = 0; b < table.size(); ++b) {
    double frame_ms = table.CostMs(b, s0);
    if (frame_ms > table.slo_limit_ms()) {
      continue;
    }
    feasible.push_back({b, frame_ms, models.mean_branch_accuracy()[b]});
  }
  // Ascending cost; equal costs tie-break on branch index.
  std::sort(feasible.begin(), feasible.end(),
            [](const BranchOption& a, const BranchOption& b) {
              if (a.frame_ms != b.frame_ms) {
                return a.frame_ms < b.frame_ms;
              }
              return a.branch < b.branch;
            });
  // Pareto reduction: keep an option only if it strictly improves accuracy
  // over everything cheaper.
  std::vector<BranchOption> menu;
  double best_accuracy = -1.0;
  for (const BranchOption& option : feasible) {
    if (menu.empty() || option.accuracy > best_accuracy) {
      menu.push_back(option);
      best_accuracy = option.accuracy;
    }
  }
  return menu;
}

}  // namespace litereconfig

#endif  // TESTS_MENU_REFERENCE_H_
