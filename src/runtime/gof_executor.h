// The GoF executor: the one place a runtime runs and charges a Group of
// Frames on the multi-branch execution kernel (paper Fig. 1) — the detector
// on the anchor frame, the tracker on the rest, and the platform's detector,
// tracker and switching time.
//
// LiteReconfig, the serving sessions, ApproxDet and the SSD+/YOLO+ knob
// baselines each drive one GofExecutor per stream from their own loop and keep
// only their decision policy: which branch runs, how long a coast lasts, how
// the samples sum into the GoF's per-frame latency. The executor owns the
// stream's platform copy, its FaultRuntime, the latency RNG, the tracker
// arena, the current branch, the switch count and the per-GoF books.
//
// Draw order, shared by every runtime: a branch change draws the online
// switch cost; a detector GoF then draws the detector sample and one tracker
// sample per tracked frame; a tracker-only GoF draws one tracker sample per
// emitted frame. Running the tracker half draws nothing.
#ifndef SRC_RUNTIME_GOF_EXECUTOR_H_
#define SRC_RUNTIME_GOF_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/det/detector.h"
#include "src/mbek/branch.h"
#include "src/platform/faults.h"
#include "src/platform/latency.h"
#include "src/platform/switching.h"
#include "src/sched/contention_estimator.h"
#include "src/track/tracker.h"
#include "src/util/rng.h"
#include "src/video/synthetic_video.h"
#include "src/vision/box.h"

namespace litereconfig {

// The preheat probe (paper footnote 6: "all branches and models are loaded
// and preheated with several video frames in the beginning"): one cheap
// detector invocation on the first frame, not charged to latency.
inline constexpr DetectorConfig kPreheatProbe{320, 10};

// Smoothing of the online observed/profiled calibration EWMAs.
inline constexpr double kCalibrationEwma = 0.3;

// One EWMA step of a calibration ratio.
inline double CalibrationStep(double value, double ratio) {
  return (1.0 - kCalibrationEwma) * value + kCalibrationEwma * ratio;
}

// What the GoF in progress drew from the latency stream (ms), and the frames
// it emits. BeginGof clears it. detector_nominal_ms is the detector sample
// before the fault plan's outlier scale.
struct GofSamples {
  int length = 0;
  bool switched = false;
  double switch_ms = 0.0;
  double detector_nominal_ms = 0.0;
  double detector_ms = 0.0;
  double tracker_ms = 0.0;
};

class GofExecutor {
 public:
  // `video` must outlive the executor. `platform` is copied: fault-driven
  // contention and thermal writes stay local to the stream. `rng_seed` seeds
  // the latency stream and `kernel_salt` keys the simulated kernels.
  // `space` and `switching` may be null for a runtime that never switches.
  GofExecutor(const SyntheticVideo& video, const LatencyModel& platform,
              FaultRuntime faults, uint64_t rng_seed, uint64_t kernel_salt,
              double slo_ms, const BranchSpace* space,
              const SwitchingCostModel* switching,
              const DetectorQuality& quality = {});
  GofExecutor(const GofExecutor&) = delete;
  GofExecutor& operator=(const GofExecutor&) = delete;

  LatencyModel& platform() { return platform_; }
  FaultRuntime& faults() { return faults_; }
  const FaultRuntime& faults() const { return faults_; }
  const std::optional<size_t>& current() const { return current_; }
  int switch_count() const { return switch_count_; }
  const GofSamples& samples() const { return samples_; }
  const std::vector<double>& gof_frame_ms() const { return gof_frame_ms_; }
  std::vector<double> TakeGofFrameMs() { return std::move(gof_frame_ms_); }
  std::vector<int> TakeGofLengths() { return std::move(gof_lengths_); }

  // Starts the GoF anchored at frame `t`: clears the samples and books newly
  // entered fault intervals. An active fault plan also sets the platform
  // copy's contention and thermal scale (a serving platform ignores the
  // contention write; see LatencyModel).
  void BeginGof(int t);

  // The preheat probe's detections, keyed by `key`. Draws nothing.
  DetectionList PreheatProbe(uint64_t key) const;
  // One uncharged latency sample of the preheat probe, its mean scaled by
  // `slowdown`.
  double SamplePreheatMs(double slowdown);

  // Makes `branch` (an index into the space) current. A change from a current
  // branch draws the online switch cost; the first call draws nothing.
  void SwitchTo(size_t branch);

  // The anchor half of a detector GoF of `length` frames at `t`: writes the
  // anchor's detections into out[0], then draws the detector sample (mean
  // `detector_mean_ms`, times `outlier_scale`) and, when the branch tracks,
  // length - 1 tracker samples priced at the anchor's confident count.
  void Detect(int t, const Branch& branch, int length, double detector_mean_ms,
              double outlier_scale, DetectionList* out);

  // The tracker half of that GoF: tracks from out[0] into out[1, length).
  void TrackRemainder(int t, const Branch& branch, int length,
                      DetectionList* out);

  // A tracker-only GoF (tail continuation or coast): tracks from `init`, which
  // must not alias the outputs, over frames [t, t + length) cut at the end of
  // the video into out[0, ...), one tracker sample per emitted frame.
  void Track(int t, int length, const TrackerConfig& tracker,
             const DetectionList& init, DetectionList* out);

  // Books the finished GoF at its per-frame latency and runs the watchdog
  // (FaultRuntime::OnGofComplete). Returns whether it missed the SLO
  // (frame_ms > slo_ms).
  bool Book(double frame_ms, bool coasted, bool forecast_planned = false);

 private:
  const SyntheticVideo& video_;
  LatencyModel platform_;
  FaultRuntime faults_;
  Pcg32 rng_;
  uint64_t kernel_salt_;
  double slo_ms_;
  const BranchSpace* space_;
  const SwitchingCostModel* switching_;
  DetectorQuality quality_;
  // The tracker arena every GoF reuses.
  TrackBatch scratch_;
  std::optional<size_t> current_;
  int switch_count_ = 0;
  GofSamples samples_;
  std::vector<double> gof_frame_ms_;
  std::vector<int> gof_lengths_;
};

// Online GPU contention calibration of one stream: the EWMA of observed over
// profiled detector time, plus the burst estimator that forecasts the next
// GoF's contention (predictive runtimes).
class GpuCalibration {
 public:
  // With `enabled` false the calibration stays at 1.0; the estimator is fed
  // either way.
  explicit GpuCalibration(bool enabled = true) : enabled_(enabled) {}

  double value() const { return value_; }
  const ContentionEstimator& estimator() const { return estimator_; }

  // Calibrates against the preheat probe: one uncharged sample of its mean
  // (scaled by `slowdown`), drawn by `executor`, over the same mean profiled
  // at zero contention on `device`.
  void Preheat(GofExecutor& executor, DeviceType device, double slowdown = 1.0);

  // Folds in one anchor's calibration sample against its zero-contention
  // profile (ignored when non-positive); `predictive` also feeds the burst
  // estimator.
  void Observe(double profiled_ms, double sample_ms, bool predictive);

 private:
  bool enabled_;
  double value_ = 1.0;
  ContentionEstimator estimator_;
};

}  // namespace litereconfig

#endif  // SRC_RUNTIME_GOF_EXECUTOR_H_
