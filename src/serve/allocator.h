// The global cost-benefit budget allocator.
//
// Each planning round the service splits the device's per-frame compute
// budget across the admitted streams. Two policies:
//
//   * kEqualSplit   — every stream gets capacity / N (the baseline a
//                     contention-oblivious server would use);
//   * kCostBenefit  — every stream starts at its cheapest feasible option,
//                     then the remaining budget goes, one menu upgrade at a
//                     time, to the stream whose upgrade buys the most
//                     (SLO-class-weighted) accuracy per millisecond.
//
// Budgets are returned in the margin-adjusted domain the scheduler constrains
// against (DecisionContext::budget_ms): a granted budget admits exactly the
// menu options the allocator paid for. Fully deterministic — greedy ties
// break on the lowest stream index.
#ifndef SRC_SERVE_ALLOCATOR_H_
#define SRC_SERVE_ALLOCATOR_H_

#include <optional>
#include <string_view>
#include <vector>

#include "src/sched/branch_menu.h"
#include "src/serve/slo_class.h"

namespace litereconfig {

enum class AllocatorMode {
  kCostBenefit = 0,
  kEqualSplit = 1,
};

std::string_view AllocatorModeName(AllocatorMode mode);
std::optional<AllocatorMode> AllocatorModeFromName(std::string_view name);

struct AllocatorConfig {
  AllocatorMode mode = AllocatorMode::kCostBenefit;
};

// One stream's demand for the round.
struct StreamDemand {
  double slo_ms = 33.3;
  SloClass slo_class = SloClass::kStandard;
  // Pareto menu at the round's contention level (see BuildBranchMenu); may be
  // empty when nothing is feasible for the stream this round.
  std::vector<BranchOption> menu;
};

// Splits `capacity_ms` of per-frame compute across the demands. Budgets are
// divided by the scheduler's kSloMargin so that budget * kSloMargin lands
// exactly on the menu cost the allocator granted. Returns one budget_ms per
// demand (0 = unconstrained, used when a stream is alone or nothing is
// feasible anyway).
std::vector<double> AllocateBudgets(AllocatorMode mode, double capacity_ms,
                                    const std::vector<StreamDemand>& demands);

}  // namespace litereconfig

#endif  // SRC_SERVE_ALLOCATOR_H_
