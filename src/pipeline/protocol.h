// The runtime protocol abstraction.
//
// A protocol is a complete video-object-detection system under evaluation:
// LiteReconfig and its variants, ApproxDet, the knob-enhanced SSD+/YOLO+
// baselines, and the fixed accuracy-optimized models. The online runner hands a
// protocol one video at a time together with the platform environment; the
// protocol executes its own scheduling loop and reports per-frame detections and
// the per-GoF latency/attribution samples the evaluation aggregates.
//
// Header-only so that both the baselines library and the pipeline library can
// implement protocols without a dependency cycle.
#ifndef SRC_PIPELINE_PROTOCOL_H_
#define SRC_PIPELINE_PROTOCOL_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/platform/faults.h"
#include "src/platform/latency.h"
#include "src/platform/switching.h"
#include "src/runtime/gof_executor.h"
#include "src/video/synthetic_video.h"
#include "src/vision/box.h"

namespace litereconfig {

// Wall-clock callback for the optional per-phase execution profile, returning
// monotonic microseconds. src/ never reads host clocks itself (the simulated
// LatencyModel clock is the only time source that may feed results; detlint
// enforces it), so profiling is injection-only: the bench harness supplies a
// WallTimer-backed callback, everything else leaves it null and pays nothing.
using PhaseClockFn = double (*)();

// Where the end-to-end wall time of a run goes, phase by phase. Microsecond
// fields are only accumulated when a PhaseClockFn was injected; the counters
// (cheap integer bumps describing the execution plan) are always maintained.
struct PhaseProfile {
  double decide_us = 0.0;      // scheduler passes (feature selection included)
  double detect_us = 0.0;      // anchor detector simulation
  double track_us = 0.0;       // tracker simulation
  double defer_join_us = 0.0;  // always 0; perfbench reads it
  double eval_us = 0.0;        // per-video AP matching, frame by frame (runner)
  double merge_us = 0.0;       // video-order stats merge + per-class mAP tasks (runner)
  double run_us = 0.0;         // whole RunVideo wall time

  long gofs = 0;
  long deferred_gofs = 0;      // always 0; perfbench reads it
  long decisions = 0;          // scheduler passes; perfbench reads it
  long table_reuses = 0;       // always 0; perfbench reads it
  long table_builds = 0;       // one per decision; perfbench reads it
  long switch_row_reuses = 0;  // kept switch-cost rows; perfbench reads it

  void Merge(const PhaseProfile& other) {
    decide_us += other.decide_us;
    detect_us += other.detect_us;
    track_us += other.track_us;
    defer_join_us += other.defer_join_us;
    eval_us += other.eval_us;
    merge_us += other.merge_us;
    run_us += other.run_us;
    gofs += other.gofs;
    deferred_gofs += other.deferred_gofs;
    decisions += other.decisions;
    table_reuses += other.table_reuses;
    table_builds += other.table_builds;
    switch_row_reuses += other.switch_row_reuses;
  }
};

// Accumulates wall time into one PhaseProfile field while in scope; inert
// (never reads the clock) when no clock was injected.
class ScopedPhase {
 public:
  ScopedPhase(PhaseClockFn now, double* acc)
      : now_(now), acc_(acc), start_(now != nullptr ? now() : 0.0) {}
  ~ScopedPhase() {
    if (now_ != nullptr) {
      *acc_ += now_() - start_;
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseClockFn now_;
  double* acc_;
  double start_;
};

struct RunEnv {
  // Ground-truth platform: the simulated device under the current contention.
  const LatencyModel* platform = nullptr;
  const SwitchingCostModel* switching = nullptr;
  double slo_ms = 33.3;
  // Distinguishes independent online runs (execution noise, switch outliers).
  uint64_t run_salt = 0;
  // Optional fault injection: null means no faults. Fault streams are derived
  // from (video seed, fault_seed), so runs are deterministic at any thread
  // count. `degrade` arms the graceful-degradation path (watchdog, bounded
  // retry, coast mode, cheapest-branch fallback); off means the naive runtime
  // that blocks on every fault.
  const FaultSpec* faults = nullptr;
  uint64_t fault_seed = 0;
  bool degrade = true;
  // Predictive robustness: arm the online contention estimator, the staged
  // (headroom-first) degradation policy, and the drift-triggered
  // recalibration loop. Only takes effect when faults are injected and
  // `degrade` is on; the no-fault path is untouched by construction.
  bool predictive = false;
  // Optional per-phase profiling clock; null (the default) disables timing.
  PhaseClockFn now_us = nullptr;
};

// What one protocol did on one video.
struct VideoRunStats {
  // Per-frame detection outputs (size == video.frame_count()).
  std::vector<DetectionList> frames;
  // One sample per GoF: the GoF's per-frame-amortized latency (the paper's time
  // metric; P95 is computed over these samples), plus each GoF's frame count.
  std::vector<double> gof_frame_ms;
  std::vector<int> gof_lengths;
  // Latency attribution totals over the video (ms).
  double detector_ms = 0.0;
  double tracker_ms = 0.0;
  double scheduler_ms = 0.0;
  double switch_ms = 0.0;
  // Distinct execution branches invoked (paper Figure 4's branch coverage).
  std::set<std::string> branches_used;
  int switch_count = 0;
  // Per-phase execution profile (timings only when RunEnv.now_us was set).
  PhaseProfile phases;
  // Robustness accounting: deadline misses, faults injected/absorbed, degraded
  // frames, recovery episodes, and the structured per-failure reports
  // (including a fatal kOom when the protocol cannot run at all).
  FaultAccounting robustness;

  // Marks the video as unrunnable (e.g. out of memory on this device).
  void MarkOom() {
    FailureReport report;
    report.kind = FailureKind::kOom;
    report.recovered = false;
    robustness.failures.push_back(report);
  }
  // Whether any failure was fatal (the stream stopped producing frames).
  bool Fatal() const {
    for (const FailureReport& failure : robustness.failures) {
      if (!failure.recovered) {
        return true;
      }
    }
    return false;
  }
};

// The GoF executor of one offline stream: a copy of the run's platform, the
// video's fault plan, and the latency stream seeded by `rng_seed`. The
// kernels are keyed by the run salt.
inline GofExecutor OfflineExecutor(const SyntheticVideo& video, const RunEnv& env,
                                   uint64_t rng_seed, const BranchSpace* space,
                                   const DetectorQuality& quality = {}) {
  return GofExecutor(video, *env.platform,
                     FaultRuntime(env.faults, video.spec().seed, video.frame_count(),
                                  env.fault_seed, env.degrade,
                                  env.platform->contention().level(),
                                  1000.0 / video.spec().fps),
                     rng_seed, env.run_salt, env.slo_ms, space, env.switching,
                     quality);
}

// Moves the executor's books into `stats` when the stream ends: the per-GoF
// samples, the switch count and the robustness accounting.
inline void TakeBooks(GofExecutor& executor, VideoRunStats& stats) {
  stats.gof_frame_ms = executor.TakeGofFrameMs();
  stats.gof_lengths = executor.TakeGofLengths();
  stats.switch_count = executor.switch_count();
  stats.robustness = executor.faults().TakeAccounting();
}

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const = 0;

  // Peak memory footprint; protocols whose footprint exceeds the device memory
  // fail with oom (paper Table 3).
  virtual double MemoryGb() const = 0;

  // Runs one video stream. Each video is an independent stream: all runtime
  // state (RNG substreams, contention calibration, current branch) must live in
  // locals keyed off the video seed and env.run_salt, never in members — the
  // parallel evaluation engine calls RunVideo concurrently on one instance, and
  // per-video independence is what keeps results identical across thread
  // counts.
  virtual VideoRunStats RunVideo(const SyntheticVideo& video, const RunEnv& env) = 0;

  // Clears any cross-run state. The runner calls this once at the start of
  // each evaluation run, before the per-video fan-out.
  virtual void Reset() {}
};

}  // namespace litereconfig

#endif  // SRC_PIPELINE_PROTOCOL_H_
