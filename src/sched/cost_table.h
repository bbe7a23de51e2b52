// The scheduler fast path: per-decision precomputed branch cost tables.
//
// Within one scheduler invocation the amortized per-frame cost of branch b,
//
//   FrameCost(b, s) = branch_ms(b) + (s + switch_ms(b)) / gof(b),
//
// changes only through the scheduler-cost term s: branch_ms (the conservative
// latency prediction), switch_ms (the offline switching-cost estimate from the
// current branch) and the effective GoF length are all fixed by the decision
// context. The reference implementation nevertheless re-ran the full latency
// predictor for every (candidate feature x branch x greedy iteration) probe —
// O(features^2 x branches) ridge evaluations and vector copies per decision.
// DecisionCostTable evaluates the predictor once per branch and turns every
// later feasibility probe into three floating-point operations.
//
// Bit-exactness contract: CostMs reproduces the reference FrameCostMs
// expression term by term, in the same order, on the same precomputed doubles,
// so decisions taken through the table are bit-identical to the reference
// scheduler (enforced by tests/sched_fastpath_test.cc).
#ifndef SRC_SCHED_COST_TABLE_H_
#define SRC_SCHED_COST_TABLE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/sched/scheduler.h"

namespace litereconfig {

// Index of the branch minimizing cost_ms(b) over [0, branch_count): the shared
// cheapest-branch scan. Scans in index order with a strict '<' update, so the
// first minimum wins ties — the tie rule every consumer (the scheduler's
// degradation target, the watchdog-fallback ranking) relies on. Returns 0 for
// an empty range.
size_t CheapestBranchIndex(size_t branch_count,
                           const std::function<double(size_t)>& cost_ms);

class DecisionCostTable {
 public:
  // Builds the table for one decision: per-branch conservative latency
  // prediction under (gpu_cal, cpu_cal), per-branch offline switch cost from
  // ctx.current_branch (zero when switching costs are off or there is no
  // current branch), and the effective GoF amortization lengths capped by
  // ctx.frames_remaining.
  static DecisionCostTable Build(const TrainedModels& models,
                                 const SchedulerConfig& config,
                                 const DecisionContext& ctx,
                                 const std::vector<double>& light);

  // Amortized per-frame cost of branch `index` when the decision itself costs
  // `sched_ms` — the reference FrameCostMs expression on precomputed terms.
  double CostMs(size_t index, double sched_ms) const {
    return branch_ms_[index] + (sched_ms + switch_ms_[index]) / gof_[index];
  }

  // Whether branch `index` meets the margin-adjusted SLO at `sched_ms`.
  bool Feasible(size_t index, double sched_ms) const {
    return CostMs(index, sched_ms) <= slo_limit_ms_;
  }

  // Cheapest branch at `sched_ms` (first index wins ties).
  size_t Cheapest(double sched_ms) const;

  size_t size() const { return branch_ms_.size(); }
  // The constraint threshold: slo_ms * slo_margin.
  double slo_limit_ms() const { return slo_limit_ms_; }

 private:
  // SchedulerSession rebuilds tables in place across GoFs (reusing rows whose
  // inputs did not change) under the same bit-exactness contract as Build.
  friend class SchedulerSession;

  // Fills branch_ms_, the one per-branch pricing loop behind Build and
  // SchedulerSession::TableFor: every branch's conservative latency
  // prediction from `light` under (gpu_cal, cpu_cal) at its effective GoF
  // length, +inf for GPU-backed branches while the GPU is denied.
  void PriceBranches(const TrainedModels& models,
                     const std::vector<double>& light, double gpu_cal,
                     double cpu_cal, bool gpu_available,
                     const std::vector<int>& effective_gof);

  std::vector<double> branch_ms_;
  std::vector<double> switch_ms_;
  // Effective GoF lengths as doubles (the amortization denominators).
  std::vector<double> gof_;
  double slo_limit_ms_ = 0.0;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_COST_TABLE_H_
