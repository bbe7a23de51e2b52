// Deterministic fault injection and the graceful-degradation runtime.
//
// Real SoC deployments do not see *smooth* contention: co-located workloads
// spike abruptly, kernels occasionally hang or fail transiently, and capture
// pipelines drop frames. This subsystem injects those faults into the
// simulation deterministically — every fault stream is derived from
// (video seed, fault seed) through hash-seeded Pcg32 substreams, never from
// global call order, so identical seeds give identical fault schedules at any
// thread count (the parallel evaluation engine's determinism contract).
//
// Three layers:
//   * FaultSpec        — the knobs of an escalating fault schedule
//                        (none/mild/moderate/severe presets, plus the thermal
//                        ramp and Xavier-shaped ramp/mild_xavier/severe_xavier
//                        presets).
//   * FaultPlan        — the per-video materialization: contention bursts,
//                        thermal ramps and GPU denials as interval start
//                        frames, plus stateless point queries for kernel
//                        outliers, transient detector failures, and frame
//                        drops.
//   * FaultRuntime     — the per-stream watchdog the protocols drive: bounded
//                        retry-with-backoff for transient failures, tracker-only
//                        "coast" GoFs when the detector stays down, deadline-miss
//                        detection against the SLO, and a forced-fallback state
//                        (cheapest branch + scheduler re-plan once clean).
//
// Thermal ramps model throttling/DVFS drift: a slow multiplicative latency
// factor that ramps up, plateaus, and cools down — unlike bursts it inflates
// CPU kernels too, which is exactly the regime the GPU-only calibration loop
// cannot explain away (the DriftMonitor + recalibration hook in the predictive
// runtime handles it; see src/sched/contention_estimator.h).
#ifndef SRC_PLATFORM_FAULTS_H_
#define SRC_PLATFORM_FAULTS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace litereconfig {

// Structured per-video failure reporting (replaces the all-or-nothing oom bool).
enum class FailureKind {
  kOom = 0,              // the protocol cannot run on this device at all
  kDetectorFault = 1,    // transient detector failure / timeout
  kFrameDrop = 2,        // the capture pipeline dropped the anchor frame
  kContentionBurst = 3,  // a co-located workload spiked GPU contention
  kLatencyOutlier = 4,   // one kernel invocation ran far over its mean
  kThermalRamp = 5,      // thermal throttling / DVFS drift slowed all kernels
  kEvicted = 6,          // the serving control plane shed the stream under
                         // sustained overload (multi-tenant only)
  kGpuDenied = 7,        // the GPU was denied outright for an interval (driver
                         // reset, exclusive co-tenant, power cap): every GPU
                         // kernel is unavailable until the interval ends
};

std::string_view FailureKindName(FailureKind kind);

struct FailureReport {
  FailureKind kind = FailureKind::kOom;
  int frame = 0;
  // Whether the runtime kept emitting frames past the failure. Always false
  // for kOom; injected transient faults are recovered by construction (the
  // degradation machinery, or blocking retries, eventually gets through).
  bool recovered = false;
  // Filled in by the evaluation merge (per-video stats do not know their seed).
  uint64_t video_seed = 0;
};

// The knobs of one fault schedule. All rates are deterministic probabilities
// resolved per (video, frame) — not wall-clock — so schedules are reproducible.
struct FaultSpec {
  // Contention bursts: expected burst starts per 100 frames, the additional
  // GPU share held during a burst, and the burst length in frames.
  double bursts_per_100_frames = 0.0;
  double burst_level = 0.45;
  int burst_frames = 30;
  // Per-detector-invocation latency outliers (e.g. a thermal or paging stall).
  double outlier_prob = 0.0;
  double outlier_scale = 3.0;
  // Transient detector failures: probability the invocation fails outright,
  // and the probability each subsequent retry still fails.
  double detector_failure_prob = 0.0;
  double failure_persistence = 0.35;
  // Probability the GoF's anchor frame capture is dropped.
  double frame_drop_prob = 0.0;
  // Thermal/DVFS ramps: expected ramp starts per 100 frames, the multiplicative
  // latency factor at the plateau (applied to GPU *and* CPU kernels), and the
  // ramp-up / plateau / cool-down phase lengths in frames.
  double ramps_per_100_frames = 0.0;
  double ramp_peak_scale = 1.5;
  int ramp_up_frames = 40;
  int ramp_plateau_frames = 80;
  int ramp_down_frames = 30;
  // GPU-denied intervals: expected interval starts per 100 frames and the
  // interval length in frames. While denied, *every* GPU kernel is
  // unavailable — the scheduler can only run CPU-only branches (if the branch
  // space has them) or coast tracker-only.
  double denials_per_100_frames = 0.0;
  int denial_frames = 30;

  bool Any() const;

  static FaultSpec None();
  static FaultSpec Mild();
  static FaultSpec Moderate();
  static FaultSpec Severe();
  // Pure thermal-throttling schedule: slow multiplicative drift, no bursts.
  static FaultSpec Ramp();
  // Xavier-profile schedules: the AGX Xavier's faults are spikier than the
  // TX2's — short frequent contention bursts, heavier latency outliers — and
  // its aggressive DVFS adds thermal ramps on top.
  static FaultSpec MildXavier();
  static FaultSpec SevereXavier();
  // Total-GPU-loss schedules: seeded intervals during which no GPU kernel can
  // run at all. GpuDenied() and DeniedFrequent() are the pure schedules
  // (denials only — one long outage vs repeated medium ones); the
  // denied_moderate / denied_severe presets stack denial intervals on top of
  // the matching transient-fault schedules.
  static FaultSpec GpuDenied();
  static FaultSpec DeniedFrequent();
  static FaultSpec DeniedModerate();
  static FaultSpec DeniedSevere();
  // Parses a preset name (case-insensitive; see PresetNames()).
  static std::optional<FaultSpec> FromName(std::string_view name);
  // The valid preset names in their documented order: escalating transient
  // schedules first (none, mild, moderate, severe), then the thermal and
  // Xavier shapes, then the GPU-denial schedules. Help/error text renders
  // this exact order.
  static const std::vector<std::string_view>& PresetNames();

  // Splits a schedule into its two halves for the multi-tenant service: the
  // device-wide intervals (bursts, thermal ramps, GPU denials) become one
  // shared device plan (DeviceFaultPlan), while the stateless point faults
  // (outliers, detector failures, frame drops) stay per-stream.
  FaultSpec IntervalsOnly() const;
  FaultSpec WithoutIntervals() const;
};

// " | "-joined PresetNames(), the help/error text both CLI runners share.
std::string FaultPresetList();

// The interval fault kinds, in the order a GoF books their entries (so failure
// lists and traces list a burst before a ramp before a denial).
enum class IntervalKind {
  kBurst = 0,   // contention burst: extra GPU share held for burst_frames
  kRamp = 1,    // thermal ramp: up, plateau, down phases of ramp_peak_scale
  kDenial = 2,  // GPU denial: no GPU kernel runs for denial_frames
};

inline constexpr int kNumIntervalKinds = 3;

// The deterministic per-video fault schedule. Every interval of a kind has the
// shape its spec gives it, so the plan materializes only each kind's start
// frames at construction (one seeded substream per kind, non-overlapping
// within a kind) and derives every query from the spec; everything else is a
// stateless pure function of (plan seed, frame, attempt), so queries are safe
// from any thread and independent of query order.
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultSpec& spec, uint64_t video_seed, int frame_count,
            uint64_t fault_seed);

  bool active() const { return active_; }
  // Start frames of the kind's intervals, ascending.
  const std::vector<int>& starts(IntervalKind kind) const {
    return starts_[static_cast<size_t>(kind)];
  }
  // Length in frames of every interval of the kind.
  int Length(IntervalKind kind) const;
  // Index of the kind's interval covering `frame`, or -1.
  int IndexAt(IntervalKind kind, int frame) const;

  // Additional contention level at `frame` (0.0 outside bursts).
  double BurstLevelAt(int frame) const;
  // Multiplicative kernel-latency factor of the thermal drift at `frame`:
  // 1.0 outside ramps, linear 1.0 -> peak over the ramp-up, peak through the
  // plateau, linear peak -> 1.0 over the cool-down.
  double ThermalScaleAt(int frame) const;
  // Whether the GPU is denied outright at `frame` (no GPU kernel can run).
  bool GpuDeniedAt(int frame) const;
  // First frame past the denial covering `frame` (== `frame` when none): the
  // scheduler caps GoF lengths here so GPU branches resume exactly when the
  // interval ends.
  int DenialEndAt(int frame) const;
  // Latency multiplier for the detector invocation anchored at `frame`.
  double DetectorOutlierScale(int frame) const;
  // Whether the detector invocation at `frame` fails on retry `attempt`.
  bool DetectorFails(int frame, int attempt) const;
  bool FrameDropped(int frame) const;

 private:
  FaultSpec spec_;
  uint64_t seed_ = 0;
  bool active_ = false;
  std::array<std::vector<int>, kNumIntervalKinds> starts_;
};

// Robustness accounting carried per video and merged into the evaluation.
struct FaultAccounting {
  // GoFs whose amortized per-frame latency exceeded the SLO.
  int deadline_misses = 0;
  // Faults the schedule injected into this stream.
  int faults_injected = 0;
  // Injected faults the runtime absorbed: the GoF still met the SLO.
  int faults_absorbed = 0;
  // Frames emitted by tracker-only coasting (no fresh detector output).
  int degraded_frames = 0;
  // Recovery episodes: GoFs from the first faulty/missed GoF back to a clean
  // one. mean recovery = recovery_gofs / recovery_events.
  int recovery_events = 0;
  int recovery_gofs = 0;
  // Predictive-robustness accounting (the drift loop + contention forecasting;
  // see src/sched/contention_estimator.h):
  // latency-model recalibrations triggered by sustained prediction drift;
  int recalibrations = 0;
  // accuracy-predictor re-anchorings triggered by content drift;
  int reanchors = 0;
  // GoFs that ran inside a GPU-denied interval, split by how the runtime
  // degraded: scheduled detection on a CPU-only branch vs. tracker-only
  // coasting (denied_gofs counts both).
  int denied_gofs = 0;
  int cpu_fallback_gofs = 0;
  // full re-plans issued one GoF ahead of a forecast burst end (instead of
  // waiting for a clean GoF, as the reactive fallback does);
  int preemptive_replans = 0;
  // injected faults absorbed by a GoF that was planned under forecast pressure
  // (the scheduler saw the forecast contention and still met the SLO).
  int forecast_absorbed = 0;
  std::vector<FailureReport> failures;
};

// Retry policy constants, exposed for tests.
// Degradation mode: fail fast (a watchdog timeout cuts a hung invocation at
// this fraction of its mean), retry at most kMaxDetectorRetries times with
// exponential backoff, then coast.
inline constexpr int kMaxDetectorRetries = 2;
inline constexpr double kFailedAttemptFraction = 0.4;
inline constexpr double kRetryBackoffBaseMs = 2.0;
// Naive mode: block on the hung kernel, full cost per attempt, hard cap so
// runs always terminate.
inline constexpr int kBlockingRetryCap = 12;
// Default capture interval when the caller does not supply the stream's frame
// rate (30 fps). Protocols pass 1000 / VideoSpec::fps so the capture-stall
// charge for a waited-out frame drop matches the video's actual frame rate.
inline constexpr double kDefaultFrameIntervalMs = 1000.0 / 30.0;

// The per-stream degradation state machine. One instance per RunVideo call;
// all state is local to the stream, preserving per-video independence.
class FaultRuntime {
 public:
  // `spec` may be null (no fault injection; the watchdog still counts
  // deadline misses). `base_contention` is the platform's smooth contention
  // level, onto which bursts stack. `frame_interval_ms` is the stream's
  // capture interval (1000 / fps) — the stall charged when a dropped frame has
  // to be waited out.
  FaultRuntime(const FaultSpec* spec, uint64_t video_seed, int frame_count,
               uint64_t fault_seed, bool degrade, double base_contention,
               double frame_interval_ms = kDefaultFrameIntervalMs);

  bool active() const { return plan_.active() || service_active_; }

  // Multi-tenant mode: arms the accounting even when the per-stream plan is
  // inactive (device-wide intervals live in the service's device plan, not in
  // this runtime's plan). An inactive plan answers every point query
  // neutrally, so engaging is safe regardless.
  void EngageServiceFaults() { service_active_ = true; }

  // Books entry into interval `index` of `kind` (-1 = none) at `frame`, once
  // per interval. BeginGof calls it for this runtime's own plan; the service
  // calls it after BeginGof for its device plan. A burst or ramp entry counts
  // toward the current GoF's faults; a denial entry (an availability mask,
  // not an invocation fault) does not.
  void EnterInterval(IntervalKind kind, int index, int frame);

  // Records a service-originated failure (e.g. FailureKind::kEvicted) into
  // this stream's report stream.
  void RecordServiceFault(FailureKind kind, int frame, bool recovered) {
    Record(kind, frame, recovered, /*in_gof=*/true);
  }

  // Starts the GoF anchored at `frame`: enters the plan's intervals covering
  // it, in IntervalKind order, and resets the per-GoF fault count.
  void BeginGof(int frame);

  // Absolute contention level to run the GoF at (base + any active burst).
  double ContentionAt(int frame) const;

  // Multiplicative kernel-latency factor of the thermal drift at `frame`.
  double ThermalAt(int frame) const;

  // Whether the GPU is denied for the GoF anchored at `frame`, and where the
  // covering denial ends (plan queries, exposed for the protocols).
  bool GpuDeniedAt(int frame) const { return plan_.GpuDeniedAt(frame); }
  int DenialEndAt(int frame) const { return plan_.DenialEndAt(frame); }

  // Books one GoF executed inside a GPU-denied interval: `cpu_fallback` marks
  // scheduled CPU-branch detection, false marks tracker-only coasting.
  void RecordDeniedGof(bool cpu_fallback);

  struct DetectorOutcome {
    // The detector never came back: skip it and coast this GoF on the tracker.
    bool coast = false;
    // Latency charged for the fault handling (failed attempts, backoff,
    // capture stalls), on top of the eventual successful invocation.
    double penalty_ms = 0.0;
    // Multiplier on the successful invocation's sampled latency (1.0 normally).
    double outlier_scale = 1.0;
    int failed_attempts = 0;
  };

  // Resolves the detector invocation at `frame` against the fault plan.
  // `mean_ms` is the invocation's mean latency under the current contention
  // (failed attempts are charged against it); `can_coast` is whether the
  // caller has prior outputs to track from. With degradation on, failures are
  // retried with exponential backoff after a fail-fast timeout, then the GoF
  // coasts; with degradation off, the runtime blocks on the hung kernel,
  // paying the full invocation cost per retry until the fault clears.
  DetectorOutcome ResolveDetector(int frame, double mean_ms, bool can_coast);

  // Watchdog bookkeeping, called once per emitted GoF with its amortized
  // per-frame latency. Updates deadline misses, absorption and recovery
  // accounting, and the forced-fallback state: after a faulty or
  // deadline-missing GoF the next decision is forced to the cheapest branch;
  // a clean GoF clears the fallback and the scheduler re-plans.
  // `forecast_planned` marks a GoF whose decision was made under forecast
  // pressure (predictive runtime); faults it absorbs are credited to the
  // forecast_absorbed counter on top of the usual absorption accounting.
  void OnGofComplete(double frame_ms, double slo_ms, int gof_length,
                     bool coasted, bool forecast_planned = false);

  bool InFallback() const { return fallback_; }

  // Predictive-robustness accounting hooks (the protocol drives the drift
  // loop and the burst-end forecaster; the runtime only keeps the books).
  void RecordRecalibration() { ++acc_.recalibrations; }
  void RecordReanchor() { ++acc_.reanchors; }
  void RecordPreemptiveReplan() { ++acc_.preemptive_replans; }

  const FaultAccounting& accounting() const { return acc_; }
  FaultAccounting TakeAccounting() { return std::move(acc_); }

 private:
  // Books one failure report; `in_gof` counts it toward the GoF's faults.
  void Record(FailureKind kind, int frame, bool recovered, bool in_gof);
  void RecordFault(FailureKind kind, int frame) {
    Record(kind, frame, /*recovered=*/true, /*in_gof=*/true);
  }

  FaultPlan plan_;
  bool degrade_ = true;
  bool service_active_ = false;
  double base_contention_ = 0.0;
  double frame_interval_ms_ = 0.0;
  FaultAccounting acc_;
  int gof_faults_ = 0;
  // The last interval index entered per IntervalKind (-1 = none yet).
  std::array<int, kNumIntervalKinds> last_entered_ = {-1, -1, -1};
  bool fallback_ = false;
  bool in_episode_ = false;
  int episode_gofs_ = 0;
};

}  // namespace litereconfig

#endif  // SRC_PLATFORM_FAULTS_H_
