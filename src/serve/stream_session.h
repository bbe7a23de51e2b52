// One live stream inside the multi-tenant service: its video, its own
// LiteReconfig scheduler, and the session-local runtime state (anchor
// detections, the GoF executor with the current branch and RNG substream,
// accuracy accumulation).
//
// The service advances every admitted session one GoF per planning round.
// Coupling to the co-located streams enters exclusively through StepGof's
// StepConditions — the endogenous contention level frozen from the previous
// round's posted GPU shares, the allocator-granted budget, and the
// device-wide fault snapshot (exogenous burst level, thermal scale, whether
// the control plane coasts this stream) — so sessions can step concurrently
// (ParallelFor across streams) and the run stays bit-identical at any thread
// count.
//
// Per-stream transient faults (latency outliers, detector failures, frame
// drops) resolve through the executor's session-local FaultRuntime with the
// same retry/backoff/coast semantics as the single-tenant protocols;
// device-wide intervals are recorded into the same accounting on the
// service's behalf.
#ifndef SRC_SERVE_STREAM_SESSION_H_
#define SRC_SERVE_STREAM_SESSION_H_

#include <array>
#include <optional>
#include <vector>

#include "src/platform/faults.h"
#include "src/platform/switching.h"
#include "src/runtime/gof_executor.h"
#include "src/sched/branch_menu.h"
#include "src/sched/cost_table.h"
#include "src/sched/scheduler.h"
#include "src/serve/arrivals.h"
#include "src/serve/service_faults.h"
#include "src/serve/slo_class.h"
#include "src/video/synthetic_video.h"
#include "src/vision/metrics.h"

namespace litereconfig {

// What one session did in one planning round.
struct GofReport {
  // The stream produced no frames this round because it already finished.
  bool done = false;
  // Anchor frame index of the GoF.
  int frame = 0;
  size_t branch = 0;
  int gof_length = 0;
  // GoF-amortized per-frame latency (the paper's time metric).
  double frame_ms = 0.0;
  double scheduler_ms = 0.0;
  double switch_ms = 0.0;
  double predicted_accuracy = 0.0;
  double predicted_frame_ms = 0.0;
  bool switched = false;
  bool infeasible = false;
  bool missed = false;
  // The per-class watchdog had the session pinned to the cheapest branch.
  bool forced = false;
  // Tail continuation: tracker-only GoF, no detector invocation.
  bool tail = false;
  // Tracker-only GoF because the detector was down, the capture dropped, or
  // the control plane shed this stream's detector load for the round.
  bool coasted = false;
  // The round ran a CPU-family branch (GPU-denied demotion); the service
  // emits demote/restore events on the edges of this flag.
  bool cpu_fallback = false;
  // Faults newly recorded during this step, in injection order; the service
  // emits them as trace events in the sequential merge.
  std::vector<FailureReport> faults;
  // GPU share the chosen branch occupies (detector duty cycle at zero
  // contention), posted to the ledger for the next round's level snapshot.
  double gpu_share = 0.0;
};

// The frozen per-round device state a session steps under. Everything here is
// decided sequentially before the parallel fan-out.
struct StepConditions {
  // Endogenous ledger level plus any device-wide burst, pre-clamped.
  double level = 0.0;
  // Allocator-granted budget (0 = unconstrained).
  double budget_ms = 0.0;
  // Device-wide thermal drift factor for the round (1.0 = nominal).
  double thermal_scale = 1.0;
  // The pressure ladder shed this stream's detector load: track only.
  bool coast = false;
  // The device plan's interval covering this round per IntervalKind (-1 =
  // none), entered into the session's fault accounting once per interval.
  std::array<int, kNumIntervalKinds> interval_index = {-1, -1, -1};
  // False during a device-wide denied round or a pressure-ladder demotion.
  // Sessions demote to the CPU-only family when the space has one, else coast.
  bool gpu_available = true;
};

class StreamSession {
 public:
  // `faults` may be null (no fault injection). Only the spec's stateless
  // point faults are materialized per session — device-wide intervals belong
  // to the service's shared device plan (DeviceFaultPlan).
  StreamSession(const TrainedModels* models, SchedulerConfig config,
                const StreamRequest& request,
                const SwitchingCostModel* switching, uint64_t service_salt,
                const ServiceFaultConfig* faults = nullptr);

  const StreamRequest& request() const { return request_; }
  bool done() const { return t_ >= video_.frame_count(); }
  int frames_emitted() const { return t_; }

  // The stream's capture interval (ms between frames).
  double FrameIntervalMs() const { return 1000.0 / video_.spec().fps; }

  // Whether any branch fits the margin-adjusted SLO at the given endogenous
  // contention level (content-agnostic pricing). Admission control uses this
  // to check that a candidate leaves every existing stream servable.
  bool FeasibleAt(double level) const;

  // The stream's Pareto (cost, accuracy) menu at the given level, thermal
  // factor, and GPU availability — the demand curve the global allocator
  // trades along. With the GPU denied, GPU-backed branches price +inf and
  // drop off the frontier; only the CPU family (if present) survives.
  // Consumes no RNG.
  // Rebuilds the session's cost table, which keeps its switch-cost row for
  // the round's decision while the current branch holds.
  std::vector<BranchOption> Menu(double level, double thermal_scale = 1.0,
                                 bool gpu_available = true);

  // Mean per-frame cost of the cheapest branch at the given device state —
  // what the stream costs if it runs at all. The pressure ladder's fit check
  // prices empty-menu streams with this. +inf when the GPU is denied and the
  // space has no CPU family.
  double CheapestFrameMs(double level, double thermal_scale,
                         bool gpu_available = true) const;

  // Whether the session's branch space carries the CPU-only family (the
  // denied-round demotion target).
  bool has_cpu_family() const { return has_cpu_family_; }

  // Mean per-frame cost of a tracker-only (coasted) round at the given
  // thermal factor. Zero GPU; this is what a coasted stream still charges.
  double CoastFrameMs(double thermal_scale) const;

  // Whether the session has prior outputs to coast from.
  bool CanCoast() const { return t_ > 0 && exec_.current().has_value(); }

  // Advances the stream by one GoF under the frozen device conditions.
  // Touches only session-local state.
  GofReport StepGof(const StepConditions& conditions);
  GofReport StepGof(double level, double budget_ms) {
    StepConditions conditions;
    conditions.level = level;
    conditions.budget_ms = budget_ms;
    return StepGof(conditions);
  }

  // SLO renegotiation: the control plane demotes the stream one class under
  // sustained pressure and restores it when pressure clears. The effective
  // class drives the watchdog tolerance and the allocator weight; the
  // original class is what the stream asked for.
  SloClass effective_class() const { return effective_class_; }
  void Renegotiate(SloClass demoted);
  void RestoreClass();
  int renegotiations() const { return renegotiations_; }
  int coasted_rounds() const { return coasted_rounds_; }

  // Records the stream's eviction into its fault accounting (structured
  // FailureReport, recovered = false).
  void RecordEviction();

  // Robustness accounting (per-stream FaultRuntime books, read at departure).
  const FaultAccounting& fault_accounting() const {
    return exec_.faults().accounting();
  }

  // Accuracy/latency accumulated so far (read after the stream departs).
  const ApEvaluator& eval() const { return eval_; }
  const std::vector<double>& gof_frame_ms() const { return exec_.gof_frame_ms(); }
  int deadline_misses() const { return fault_accounting().deadline_misses; }
  int switch_count() const { return exec_.switch_count(); }
  int forced_gofs() const { return forced_gofs_; }
  int infeasible_gofs() const { return infeasible_gofs_; }

 private:
  // Margin-adjusted per-frame latency limit (SLO only; budgets are per-round).
  double SloLimit() const;
  // Analytic GPU calibration at a level: models are profiled at zero
  // contention on this same device, so observed/profiled is exactly the
  // contention inflation — no measurement loop needed in serving mode.
  static double AnalyticGpuCal(double level);
  // Feeds the window's first `count` frames to the AP accumulation and
  // advances the stream past them.
  void EmitFrames(int count);
  // Tracker-only GoF of up to `length` frames from the last emitted frame
  // (tail continuation, coast and control-plane shed paths); `penalty_ms` is
  // charged on top of the tracker time.
  void TrackGof(GofReport& report, int length, double penalty_ms);
  // Watchdog + recovery bookkeeping shared by every StepGof exit path.
  void FinishGof(GofReport& report, size_t fault_mark, bool coasted,
                 bool device_denied);

  const TrainedModels* models_;
  LiteReconfigScheduler scheduler_;
  // Rebuilt in place by every menu and every scheduler pass; keeps its
  // switch-cost row while the current branch holds.
  DecisionCostTable table_;
  StreamRequest request_;
  SyntheticVideo video_;
  // The stream's executor, declared after video_, which it references. Its
  // platform's contention level is the round's StepConditions level, written
  // after every BeginGof; the service records device-wide intervals into its
  // fault runtime via StepConditions.
  GofExecutor exec_;
  // The frames of the GoF in progress, reused across GoFs: a stream's output
  // goes straight into the AP accumulation and is not kept.
  std::vector<DetectionList> window_;

  DetectionList anchor_;
  // The last emitted frame's detections (tail continuations track from here,
  // matching the single-tenant protocol's coast semantics).
  DetectionList last_frame_;
  int t_ = 0;
  bool preheated_ = false;
  bool has_cpu_family_ = false;
  // Per-class watchdog: consecutive deadline misses; at the class tolerance
  // the session is forced onto the cheapest branch until a clean GoF.
  int miss_streak_ = 0;
  bool forced_ = false;
  SloClass effective_class_ = SloClass::kStandard;
  int renegotiations_ = 0;
  int coasted_rounds_ = 0;

  ApEvaluator eval_;
  // The emitted frame's visible ground truth, refilled for every frame.
  GroundTruthList truth_;
  int forced_gofs_ = 0;
  int infeasible_gofs_ = 0;
};

}  // namespace litereconfig

#endif  // SRC_SERVE_STREAM_SESSION_H_
