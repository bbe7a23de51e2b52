// The allocation menu: the Pareto frontier of (per-frame cost, mean accuracy)
// over the branch space for one stream's current decision context.
//
// The global cost-benefit allocator (src/serve/allocator.h) splits the GPU
// budget across streams by marginal accuracy per millisecond; this is the
// curve it trades along. Costs come from the same DecisionCostTable the
// scheduler decides with — branch latency under the stream's calibration,
// switch cost from its current branch, light-feature scheduler cost — so a
// budget granted off the menu is a budget the scheduler can actually spend.
// Accuracy is the dataset-mean per-branch accuracy (the content-agnostic
// view): the allocator runs before features are extracted, so it prices
// streams on priors and leaves content-aware refinement to each stream's own
// scheduler within its granted budget.
#ifndef SRC_SCHED_BRANCH_MENU_H_
#define SRC_SCHED_BRANCH_MENU_H_

#include <cstddef>
#include <vector>

#include "src/sched/cost_table.h"
#include "src/sched/scheduler.h"

namespace litereconfig {

struct BranchOption {
  size_t branch = 0;
  // Amortized per-frame cost (branch + amortized scheduler/switch overhead)
  // under the context's calibration, comparable to the scheduler's constraint.
  double frame_ms = 0.0;
  // Dataset-mean accuracy of the branch.
  double accuracy = 0.0;
};

// Builds the menu for one stream on `table`, which it rebuilds in place for
// ctx (so a stream's own table keeps its switch-cost row for the round's
// decision): every SLO-feasible branch priced at the light-only scheduler
// charge, reduced to the Pareto frontier (ascending cost, strictly increasing
// accuracy, equal costs ordered by branch index). The first entry is the
// cheapest feasible option. Empty when no branch fits the margin-adjusted
// SLO (ctx.budget_ms is ignored here: the menu is an input to budget
// assignment, not an output of it).
std::vector<BranchOption> BuildBranchMenu(const TrainedModels& models,
                                          const SchedulerConfig& config,
                                          const DecisionContext& ctx,
                                          const std::vector<double>& light,
                                          DecisionCostTable& table);

}  // namespace litereconfig

#endif  // SRC_SCHED_BRANCH_MENU_H_
