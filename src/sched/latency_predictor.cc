#include "src/sched/latency_predictor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "src/features/light.h"

namespace litereconfig {

namespace {

// Synthetic profiling grid over the light-feature dimensions that matter for
// tracking cost (object count and size); mirrors profiling runs over clips with
// varying object populations.
std::vector<std::vector<double>> ProfilingLightGrid() {
  std::vector<std::vector<double>> grid;
  for (int count = 0; count <= 10; ++count) {
    for (double size : {0.05, 0.15, 0.3, 0.5}) {
      grid.push_back({720.0 / 720.0, 1280.0 / 1280.0, count / 8.0, size});
    }
  }
  return grid;
}

}  // namespace

LatencyPredictor LatencyPredictor::Profile(const BranchSpace& space,
                                           const LatencyModel& model) {
  LatencyPredictor predictor;
  predictor.space_ = &space;
  std::vector<std::vector<double>> grid = ProfilingLightGrid();
  Matrix x(grid.size(), kLightFeatureDim);
  for (size_t i = 0; i < grid.size(); ++i) {
    for (int j = 0; j < kLightFeatureDim; ++j) {
      x(i, static_cast<size_t>(j)) = grid[i][static_cast<size_t>(j)];
    }
  }
  for (const Branch& branch : space.branches()) {
    predictor.detector_ms_.push_back(model.DetectorMs(branch.detector));
    std::vector<double> y(grid.size(), 0.0);
    if (branch.has_tracker) {
      for (size_t i = 0; i < grid.size(); ++i) {
        int count = static_cast<int>(grid[i][2] * 8.0 + 0.5);
        y[i] = model.TrackerMs(branch.tracker, count);
      }
    }
    predictor.tracker_models_.push_back(RidgeRegression::Fit(x, y, 1e-6));
  }
  predictor.GroupTrackerModels();
  return predictor;
}

void LatencyPredictor::GroupTrackerModels() {
  auto same_bits = [](const RidgeRegression& a, const RidgeRegression& b) {
    return a.weights().size() == b.weights().size() &&
           std::bit_cast<uint64_t>(a.bias()) == std::bit_cast<uint64_t>(b.bias()) &&
           std::memcmp(a.weights().data(), b.weights().data(),
                       a.weights().size() * sizeof(double)) == 0;
  };
  tracker_group_.clear();
  group_models_.clear();
  for (size_t b = 0; b < tracker_models_.size(); ++b) {
    size_t g = 0;
    while (g < group_models_.size() &&
           !same_bits(tracker_models_[group_models_[g]], tracker_models_[b])) {
      ++g;
    }
    if (g == group_models_.size()) {
      group_models_.push_back(b);
    }
    tracker_group_.push_back(g);
  }
}

template <typename TrackFn>
double LatencyPredictor::FrameMs(size_t index, double gpu_cal, double cpu_cal,
                                 int effective_gof, const TrackFn& track) const {
  const Branch& branch = space_->at(index);
  int gof = branch.gof;
  if (effective_gof > 0) {
    gof = std::min(gof, effective_gof);
  }
  // CPU-only detectors calibrate through the CPU clock: GPU contention (which
  // gpu_cal tracks) does not touch them. The default space has no CPU
  // branches, so the default path is byte-for-byte unchanged.
  double det = detector_ms_[index] * (branch.detector.cpu ? cpu_cal : gpu_cal);
  if (!branch.has_tracker || gof <= 1) {
    return det;
  }
  return (det + track() * (gof - 1)) / static_cast<double>(gof);
}

double LatencyPredictor::PredictFrameMs(size_t index,
                                        const std::vector<double>& light_features,
                                        double gpu_cal, double cpu_cal,
                                        int effective_gof) const {
  assert(space_ != nullptr && index < detector_ms_.size());
  return FrameMs(index, gpu_cal, cpu_cal, effective_gof, [&] {
    return std::max(0.0, tracker_models_[index].Predict(light_features)) * cpu_cal;
  });
}

void LatencyPredictor::PredictAllFrameMs(const std::vector<double>& light_features,
                                         double gpu_cal, double cpu_cal,
                                         const std::vector<int>& effective_gof,
                                         std::vector<double>& frame_ms) const {
  assert(space_ != nullptr && effective_gof.size() == detector_ms_.size());
  // The calibrated tracker term of each group, as PredictFrameMs computes it
  // per branch: the branches of a group hold bit-identical parameters.
  std::vector<double> group_track(group_models_.size());
  for (size_t g = 0; g < group_models_.size(); ++g) {
    group_track[g] =
        std::max(0.0, tracker_models_[group_models_[g]].Predict(light_features)) *
        cpu_cal;
  }
  frame_ms.resize(detector_ms_.size());
  for (size_t b = 0; b < detector_ms_.size(); ++b) {
    frame_ms[b] = FrameMs(b, gpu_cal, cpu_cal, effective_gof[b],
                          [&] { return group_track[tracker_group_[b]]; });
  }
}

void LatencyPredictor::Restore(const BranchSpace& space,
                               std::vector<double> detector_ms,
                               std::vector<RidgeRegression> tracker_models) {
  space_ = &space;
  detector_ms_ = std::move(detector_ms);
  tracker_models_ = std::move(tracker_models);
  GroupTrackerModels();
}

}  // namespace litereconfig
