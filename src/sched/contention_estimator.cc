#include "src/sched/contention_estimator.h"

#include <algorithm>

namespace litereconfig {

void ContentionEstimator::Observe(double predicted_ms, double observed_ms) {
  if (predicted_ms <= 0.0 || observed_ms <= 0.0) {
    return;
  }
  double ratio = std::min(observed_ms / predicted_ms, kMaxContentionRatio);
  if (!in_burst_) {
    if (ratio > kBurstOnsetRatio) {
      in_burst_ = true;
      gofs_in_burst_ = 1;
      burst_level_ = ratio;
    }
    return;
  }
  if (ratio < kBurstClearRatio) {
    // Burst over: fold its length into the expectation used for forecasting.
    expected_burst_gofs_ =
        (1.0 - kBurstLengthEwma) * expected_burst_gofs_ +
        kBurstLengthEwma * static_cast<double>(gofs_in_burst_);
    in_burst_ = false;
    gofs_in_burst_ = 0;
    burst_level_ = 1.0;
    return;
  }
  ++gofs_in_burst_;
  burst_level_ =
      (1.0 - kBurstLevelEwma) * burst_level_ + kBurstLevelEwma * ratio;
}

double ContentionEstimator::ForecastScale() const {
  if (!in_burst_) {
    return 1.0;
  }
  return std::max(1.0, burst_level_);
}

bool ContentionEstimator::BurstEndingSoon() const {
  return in_burst_ &&
         static_cast<double>(gofs_in_burst_) + 1.0 >= expected_burst_gofs_;
}

}  // namespace litereconfig
