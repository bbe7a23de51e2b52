// The scheduler's per-decision branch cost table.
//
// Within one scheduler invocation the amortized per-frame cost of branch b,
//
//   FrameCost(b, s) = branch_ms(b) + (s + switch_ms(b)) / gof(b),
//
// changes only through the scheduler-cost term s: branch_ms (the conservative
// latency prediction), switch_ms (the offline switching-cost estimate from the
// current branch) and the effective GoF length are all fixed by the decision
// context. Re-running the latency predictor for every (candidate feature x
// branch x greedy iteration) probe would cost O(features^2 x branches) ridge
// evaluations and vector copies per decision. DecisionCostTable evaluates the
// predictor once per branch and turns every later feasibility probe into
// three floating-point operations.
//
// Bit-exactness contract: CostMs reproduces the per-probe cost expression of
// the reference scheduler (tests/decide_reference.h) term by term, in the
// same order, on the same precomputed doubles, so decisions taken through the
// table are bit-identical to the reference (enforced by
// tests/sched_fastpath_test.cc).
#ifndef SRC_SCHED_COST_TABLE_H_
#define SRC_SCHED_COST_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/sched/scheduler.h"

namespace litereconfig {

// Index of the branch minimizing cost_ms(b) over [0, branch_count): the shared
// cheapest-branch scan. Scans in index order with a strict '<' update, so the
// first minimum wins ties — the tie rule every consumer (the scheduler's
// degradation target, the watchdog-fallback ranking) relies on. Returns 0 for
// an empty range. A template, so the cost callable inlines into the scan:
// DecisionCostTable::Cheapest runs it once per branch on every decision.
template <typename CostFn>
size_t CheapestBranchIndex(size_t branch_count, CostFn&& cost_ms) {
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

class DecisionCostTable {
 public:
  // Prices every branch for one decision, in place, into the capacity of the
  // previous one: per-branch conservative latency prediction under
  // (gpu_cal, cpu_cal), per-branch offline switch cost from
  // ctx.current_branch (zero when switching costs are off or there is no
  // current branch), and the effective GoF amortization lengths capped by
  // ctx.frames_remaining. The switch-cost row is a pure function of the
  // device, the current branch and whether switching is charged, so it is
  // recomputed only when one of them changed since the last rebuild; every
  // other column is recomputed.
  void Rebuild(const TrainedModels& models, const SchedulerConfig& config,
               const DecisionContext& ctx, const std::vector<double>& light);

  // Amortized per-frame cost of branch `index` when the decision itself costs
  // `sched_ms` — the reference's per-probe expression on precomputed terms.
  double CostMs(size_t index, double sched_ms) const {
    return branch_ms_[index] + (sched_ms + switch_ms_[index]) / gof_[index];
  }

  // Whether branch `index` meets the margin-adjusted SLO at `sched_ms`.
  bool Feasible(size_t index, double sched_ms) const {
    return CostMs(index, sched_ms) <= slo_limit_ms_;
  }

  // Cheapest branch at `sched_ms` (first index wins ties).
  size_t Cheapest(double sched_ms) const;

  // The branches that meet the SLO at `sched_ms`, in index order. CostMs
  // never falls as `sched_ms` grows, so none of the others meets it at any
  // larger charge.
  std::vector<uint32_t> FittingBranches(double sched_ms) const;

  size_t size() const { return branch_ms_.size(); }
  // The constraint threshold: SloLimitMs(ctx).
  double slo_limit_ms() const { return slo_limit_ms_; }
  // Rebuilds so far that reused the previous switch-cost row.
  long switch_row_reuses() const { return switch_row_reuses_; }

 private:
  std::vector<double> branch_ms_;
  std::vector<double> switch_ms_;
  // Effective GoF lengths, as the predictor takes them and as doubles (the
  // amortization denominators).
  std::vector<int> effective_gof_;
  std::vector<double> gof_;
  double slo_limit_ms_ = 0.0;

  // The inputs switch_ms_ was computed from; null models until the first
  // rebuild.
  const TrainedModels* row_models_ = nullptr;
  bool row_charged_ = false;
  size_t row_current_ = 0;
  long switch_row_reuses_ = 0;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_COST_TABLE_H_
