#include "src/sched/drift.h"

#include <cmath>
#include <cstdlib>

namespace litereconfig {

void DriftMonitor::ObserveLatency(double predicted_ms, double observed_ms) {
  if (predicted_ms <= 0.0) {
    return;
  }
  latency_rel_errors_.push_back((observed_ms - predicted_ms) / predicted_ms);
  while (latency_rel_errors_.size() > kDriftWindow) {
    latency_rel_errors_.pop_front();
  }
}

void DriftMonitor::ObserveDetections(const DetectionList& detections) {
  double score_sum = 0.0;
  double count = 0.0;
  for (const Detection& det : detections) {
    if (det.score >= kConfidentScoreThreshold) {
      score_sum += det.score;
      count += 1.0;
    }
  }
  double mean_score = count > 0.0 ? score_sum / count : 0.0;
  if (!baseline_frozen_) {
    baseline_.score_mean += mean_score;
    baseline_.count_mean += count;
    ++baseline_.samples;
    if (baseline_.samples >= kDriftWindow) {
      baseline_.score_mean /= static_cast<double>(baseline_.samples);
      baseline_.count_mean /= static_cast<double>(baseline_.samples);
      baseline_frozen_ = true;
    }
    return;
  }
  recent_content_.emplace_back(mean_score, count);
  while (recent_content_.size() > kDriftWindow) {
    recent_content_.pop_front();
  }
}

DriftStatus DriftMonitor::Check() const {
  DriftStatus status;
  if (latency_rel_errors_.size() >= kDriftWindow) {
    double sum = 0.0;
    for (double err : latency_rel_errors_) {
      sum += err;
    }
    status.latency_rel_bias = sum / static_cast<double>(latency_rel_errors_.size());
    status.latency_drift =
        std::abs(status.latency_rel_bias) > kLatencyBiasThreshold;
  }
  if (baseline_frozen_ && recent_content_.size() >= kDriftWindow) {
    double score_sum = 0.0;
    double count_sum = 0.0;
    for (const auto& [score, count] : recent_content_) {
      score_sum += score;
      count_sum += count;
    }
    double n = static_cast<double>(recent_content_.size());
    status.score_shift = std::abs(score_sum / n - baseline_.score_mean);
    status.count_shift = std::abs(count_sum / n - baseline_.count_mean);
    status.content_drift = status.score_shift > kScoreShiftThreshold ||
                           status.count_shift > kCountShiftThreshold;
  }
  return status;
}

void DriftMonitor::Rebaseline() {
  baseline_ = Window{};
  baseline_frozen_ = false;
  recent_content_.clear();
  latency_rel_errors_.clear();
}

}  // namespace litereconfig
