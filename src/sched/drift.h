// Online drift detection (paper Section 6, "Online drift in the data").
//
// LiteReconfig assumes the online and offline distributions are iid; when they
// drift, the paper prescribes retraining the affected component: the latency
// predictor when the device's compute behaviour changes, the accuracy predictor
// (and benefit tables) when the content distribution changes. This monitor
// detects both conditions online:
//   * Latency drift — a persistent bias between calibrated predictions and
//     observations. Transient contention is absorbed by the calibration loop;
//     what remains (thermal throttling, DVFS policy changes, a different
//     device) shows up as a sustained relative error.
//   * Content drift — a shift in the running distribution of detector outputs
//     (confidence mean and objects per frame) relative to the baseline window
//     established when the monitor starts (i.e., the regime the predictors
//     were trained in).
#ifndef SRC_SCHED_DRIFT_H_
#define SRC_SCHED_DRIFT_H_

#include <cstddef>
#include <deque>

#include "src/vision/box.h"

namespace litereconfig {

// Observations per window (one per GoF). The monitor runs per video stream
// (tens of GoFs), so a thermal ramp must be caught within a few of them.
inline constexpr size_t kDriftWindow = 6;
// Sustained |observed - predicted| / predicted above this flags latency drift.
inline constexpr double kLatencyBiasThreshold = 0.12;
// Shift of the mean detection confidence (absolute) that flags content drift.
inline constexpr double kScoreShiftThreshold = 0.12;
// Shift of the mean confident-object count that flags content drift.
inline constexpr double kCountShiftThreshold = 1.5;

struct DriftStatus {
  bool latency_drift = false;
  bool content_drift = false;
  // Diagnostics.
  double latency_rel_bias = 0.0;
  double score_shift = 0.0;
  double count_shift = 0.0;

  bool Any() const { return latency_drift || content_drift; }
};

class DriftMonitor {
 public:
  // One observation per GoF: the calibrated per-frame prediction vs. what the
  // platform actually charged.
  void ObserveLatency(double predicted_ms, double observed_ms);

  // One observation per detector invocation: its output distribution.
  void ObserveDetections(const DetectionList& detections);

  // Current drift assessment. The first full window forms the baseline; until
  // both the baseline and a comparison window exist, nothing is flagged.
  DriftStatus Check() const;

  // Accepts the current regime as the new baseline (call after retraining).
  void Rebaseline();

 private:
  struct Window {
    double score_mean = 0.0;
    double count_mean = 0.0;
    size_t samples = 0;
  };

  // Latency relative errors, most recent kDriftWindow kept.
  std::deque<double> latency_rel_errors_;
  // Content baseline (frozen) and the rolling current window.
  bool baseline_frozen_ = false;
  Window baseline_;
  Window accumulating_;
  std::deque<std::pair<double, double>> recent_content_;  // (mean score, count)
};

}  // namespace litereconfig

#endif  // SRC_SCHED_DRIFT_H_
