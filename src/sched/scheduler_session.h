// Cross-decision reuse state for one video stream — the batched scheduler.
//
// Within one stream, consecutive GoF decisions share most of their inputs: the
// SLO never moves, hysteresis keeps the current branch stable for long runs of
// GoFs, the GPU/CPU calibration drifts slowly, and the frames-remaining cap
// only bites in the stream tail. A SchedulerSession remembers, between
// decisions, the pieces of the scheduler pass whose inputs did not change and
// replays them instead of recomputing:
//
//   * the offline switch-cost row     — keyed on the current branch (one
//     SwitchingCostModel::OfflineCostRow);
//   * the effective-GoF denominators  — keyed on the frames-remaining clamp;
//   * the whole DecisionCostTable     — keyed on the full invalidation key;
//   * the whole SchedulerDecision     — same key, but only when the decision
//     extracted no heavy features (heavy features read video content the key
//     cannot fingerprint, so such decisions are never replayed).
//
// The explicit invalidation key covers every remaining input: the calibration
// fingerprint (gpu_cal/cpu_cal), the content fingerprint (the light feature
// vector), the SLO and allocator budget, the availability mask, the current
// branch, the frames-remaining clamp, and the headroom preference.
//
// Bit-exactness: every cached value is the exact double the fresh computation
// would produce — the components are pure functions of the key fields — so
// decisions taken through a session are bit-identical to fresh ones and to
// DecideReference (property-tested with reuse trials in
// tests/sched_fastpath_test.cc).
//
// Threading: a session is a per-stream local (one per RunVideo call), never
// shared across threads; the parallel runner's determinism contract keeps all
// mutable scheduler state out of the shared Protocol/Scheduler instances.
#ifndef SRC_SCHED_SCHEDULER_SESSION_H_
#define SRC_SCHED_SCHEDULER_SESSION_H_

#include <cstddef>
#include <vector>

#include "src/sched/cost_table.h"
#include "src/sched/scheduler.h"

namespace litereconfig {

class SchedulerSession {
 public:
  // Reuse accounting, surfaced per-run through PhaseProfile and by
  // bench_perf's cost_table_reuse metric.
  struct Counters {
    long decisions = 0;         // session-routed scheduler invocations
    long decision_reuses = 0;   // whole decisions replayed from the cache
    long table_reuses = 0;      // cost tables served unchanged
    long table_builds = 0;      // cost tables rebuilt (invalidation-key miss)
    long switch_row_reuses = 0; // switch-cost rows reused across rebuilds
  };

  const Counters& counters() const { return counters_; }

 private:
  friend class LiteReconfigScheduler;

  // The full invalidation key (one struct shared by the table and decision
  // caches; the few decision-only fields cost at most a spurious rebuild).
  struct Key {
    std::vector<double> light;
    double gpu_cal = 1.0;
    double cpu_cal = 1.0;
    double slo_ms = 0.0;
    double budget_ms = 0.0;
    double slo_limit_ms = 0.0;
    double heavy_blend = 0.5;
    int gof_clamp = 0;  // 0 = frames_remaining beyond every branch's GoF
    bool gpu_available = true;
    bool has_current = false;
    size_t current_branch = 0;
    bool prefer_headroom = false;

    bool operator==(const Key&) const = default;
  };

  // Rebinds the session to the scheduler's branch space (resets every cache
  // when it changes) and fills pending_key_ from the decision inputs.
  void PrepareKey(const TrainedModels& models, const SchedulerConfig& config,
                  const DecisionContext& ctx, const std::vector<double>& light);

  // Whole-decision replay: true (and *out filled) when the cached decision's
  // key equals the pending one. Counts the invocation either way.
  bool LookupDecision(const TrainedModels& models, const SchedulerConfig& config,
                      const DecisionContext& ctx,
                      const std::vector<double>& light, SchedulerDecision* out);

  // Caches `decision` under the pending key — only when it extracted no heavy
  // features (see file comment).
  void StoreDecision(const SchedulerDecision& decision);

  // The session-cached DecisionCostTable for the pending key: served unchanged
  // on a key match, otherwise rebuilt in place reusing the switch-cost row and
  // effective-GoF columns whose own inputs still match. Must be called after
  // LookupDecision (which fills the pending key). The reference stays valid
  // until the next TableFor call.
  const DecisionCostTable& TableFor(const TrainedModels& models,
                                    const SchedulerConfig& config);

  const BranchSpace* space_ = nullptr;
  int max_gof_ = 0;

  Key pending_key_;

  // Switch-cost row cache (keyed on whether switching is charged and from
  // which branch).
  bool switch_row_valid_ = false;
  bool switch_row_charged_ = false;
  size_t switch_row_current_ = 0;
  std::vector<double> switch_row_;

  // Effective-GoF cache (keyed on the frames-remaining clamp).
  int gof_clamp_cached_ = -1;
  std::vector<int> gof_int_;
  std::vector<double> gof_ms_;

  // Full-table cache.
  bool table_valid_ = false;
  Key table_key_;
  DecisionCostTable table_;

  // Whole-decision cache.
  bool decision_valid_ = false;
  Key decision_key_;
  SchedulerDecision decision_;

  Counters counters_;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_SCHEDULER_SESSION_H_
