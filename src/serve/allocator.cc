#include "src/serve/allocator.h"

#include <algorithm>

namespace litereconfig {

namespace {

// Converts a granted menu level into the budget fed to the scheduler: the
// constraint is budget * kSloMargin, so the cap is placed halfway between the
// granted option and the next (unaffordable) one — robust to the round-trip
// through the margin multiplication — and divided back by the margin.
double LevelToBudget(const StreamDemand& demand, size_t level) {
  const std::vector<BranchOption>& menu = demand.menu;
  if (level + 1 >= menu.size()) {
    // Top of the menu: the stream's own SLO is the only remaining cap.
    return demand.slo_ms;
  }
  double limit = 0.5 * (menu[level].frame_ms + menu[level + 1].frame_ms);
  return limit / kSloMargin;
}

}  // namespace

std::string_view AllocatorModeName(AllocatorMode mode) {
  switch (mode) {
    case AllocatorMode::kCostBenefit:
      return "costbenefit";
    case AllocatorMode::kEqualSplit:
      return "equalsplit";
  }
  return "unknown";
}

std::optional<AllocatorMode> AllocatorModeFromName(std::string_view name) {
  if (name == "costbenefit") {
    return AllocatorMode::kCostBenefit;
  }
  if (name == "equalsplit") {
    return AllocatorMode::kEqualSplit;
  }
  return std::nullopt;
}

std::vector<double> AllocateBudgets(AllocatorMode mode, double capacity_ms,
                                    const std::vector<StreamDemand>& demands) {
  size_t n = demands.size();
  std::vector<double> budgets(n, 0.0);
  if (n == 0) {
    return budgets;
  }
  if (n == 1) {
    // A lone stream owns the device: unconstrained (single-tenant behaviour).
    return budgets;
  }
  if (mode == AllocatorMode::kEqualSplit) {
    double share = capacity_ms / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      budgets[i] = std::min(demands[i].slo_ms, share / kSloMargin);
    }
    return budgets;
  }

  // Cost-benefit: seed every stream at the best menu option its equal share
  // already affords (so the result can never be worse than equal-split), then
  // redistribute the quantization slack — the gap between each share and the
  // granted option's actual cost — as menu upgrades.
  double share = capacity_ms / static_cast<double>(n);
  std::vector<size_t> level(n, 0);
  double spent = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<BranchOption>& menu = demands[i].menu;
    if (menu.empty()) {
      continue;
    }
    while (level[i] + 1 < menu.size() &&
           menu[level[i] + 1].frame_ms <= share) {
      ++level[i];
    }
    spent += menu[level[i]].frame_ms;
  }
  double remaining = std::max(0.0, capacity_ms - spent);
  // ...then the remaining budget buys menu upgrades, best weighted marginal
  // accuracy per millisecond first (ties to the lowest stream index).
  while (true) {
    size_t best = n;
    double best_gain = 0.0;
    double best_delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const std::vector<BranchOption>& menu = demands[i].menu;
      if (menu.empty() || level[i] + 1 >= menu.size()) {
        continue;
      }
      const BranchOption& cur = menu[level[i]];
      const BranchOption& next = menu[level[i] + 1];
      double delta = next.frame_ms - cur.frame_ms;
      if (delta > remaining) {
        continue;
      }
      double gain = delta > 0.0 ? SloClassWeight(demands[i].slo_class) *
                                      (next.accuracy - cur.accuracy) / delta
                                : 0.0;
      if (best == n || gain > best_gain) {
        best = i;
        best_gain = gain;
        best_delta = delta;
      }
    }
    if (best == n) {
      break;
    }
    ++level[best];
    remaining -= best_delta;
  }
  for (size_t i = 0; i < n; ++i) {
    if (demands[i].menu.empty()) {
      budgets[i] = 0.0;  // nothing feasible; the scheduler degrades on its own
      continue;
    }
    budgets[i] = LevelToBudget(demands[i], level[i]);
  }
  return budgets;
}

}  // namespace litereconfig
