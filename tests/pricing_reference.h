// Reference branch pricing for tests: the closed forms of the platform's
// latency model, evaluated with std::pow on every call.
//
// LatencyModel (src/platform) reads the pow-based terms from per-knob tables
// instead; tests compare the two bit for bit. The constants and the order of
// every operation are those of the closed forms in src/platform/latency.cc.
#ifndef TESTS_PRICING_REFERENCE_H_
#define TESTS_PRICING_REFERENCE_H_

#include <cmath>

#include "src/mbek/branch.h"
#include "src/platform/latency.h"
#include "src/track/tracker.h"

namespace litereconfig {

inline double ReferenceDetectorMs(const LatencyModel& model,
                                  const DetectorConfig& config) {
  if (config.cpu) {
    double shape_term = std::pow(config.shape / 576.0, 1.6);
    return model.CpuScaledMs(25.0 + 450.0 * shape_term);
  }
  double shape_term = std::pow(config.shape / 576.0, 1.9);
  double nprop_term = 0.25 + (1.0 - 0.25) * std::pow(config.nprop / 100.0, 0.55);
  return model.GpuScaledMs(25.0 + 480.0 * shape_term * nprop_term);
}

inline double ReferenceTrackerMs(const LatencyModel& model,
                                 const TrackerConfig& config, int num_objects) {
  const TrackerTraits& traits = GetTrackerTraits(config.type);
  double ds_gain = 2.2 / std::pow(static_cast<double>(config.downsample), 1.1);
  double per_frame = traits.cost_factor * (1.2 + 0.5 * num_objects) * ds_gain;
  return model.CpuScaledMs(per_frame);
}

inline double ReferenceBranchFrameMs(const LatencyModel& model,
                                     const Branch& branch, int num_objects) {
  double det = ReferenceDetectorMs(model, branch.detector);
  if (!branch.has_tracker || branch.gof <= 1) {
    return det;
  }
  double track = ReferenceTrackerMs(model, branch.tracker, num_objects);
  return (det + track * (branch.gof - 1)) / static_cast<double>(branch.gof);
}

}  // namespace litereconfig

#endif  // TESTS_PRICING_REFERENCE_H_
