// The scheduler's latency prediction model L(b, f_L) (paper Section 3.2).
//
// Per branch: the detector cost is a profiled constant; the tracker cost is a
// linear (ridge) regression on the light-weight features, which carry the object
// count and size that drive tracking time. Predictions amortize over the GoF and
// are scaled by the online GPU/CPU calibration factors, the mechanism by which
// the scheduler adapts to resource contention (it observes actual vs. predicted
// kernel latencies and corrects, as ApproxDet's contention-aware predictor does).
#ifndef SRC_SCHED_LATENCY_PREDICTOR_H_
#define SRC_SCHED_LATENCY_PREDICTOR_H_

#include <vector>

#include "src/mbek/branch.h"
#include "src/nn/ridge.h"
#include "src/platform/latency.h"

namespace litereconfig {

class LatencyPredictor {
 public:
  LatencyPredictor() = default;

  // Profiles every branch of the space against the given platform model at zero
  // contention (the offline profiling pass of the paper's Section 4).
  static LatencyPredictor Profile(const BranchSpace& space,
                                  const LatencyModel& model);

  // GoF-amortized per-frame latency of branch `index` given the light features.
  // gpu_cal / cpu_cal are the online calibration multipliers (1.0 = as profiled).
  // effective_gof caps the amortization window (e.g. fewer frames remain in the
  // stream than the branch's GoF size); <= 0 means the branch's own GoF.
  double PredictFrameMs(size_t index, const std::vector<double>& light_features,
                        double gpu_cal, double cpu_cal,
                        int effective_gof = 0) const;

  // PredictFrameMs for every branch at once, bit for bit: frame_ms[b] =
  // PredictFrameMs(b, light_features, gpu_cal, cpu_cal, effective_gof[b]).
  // Each distinct tracker regression is evaluated once: the per-branch
  // regressions hold one parameter set per tracker configuration, and the
  // branches that share one are grouped when the predictor is profiled or
  // restored.
  void PredictAllFrameMs(const std::vector<double>& light_features,
                         double gpu_cal, double cpu_cal,
                         const std::vector<int>& effective_gof,
                         std::vector<double>& frame_ms) const;

  // The profiled detector-invocation cost of a branch (GPU part, uncalibrated).
  double DetectorMs(size_t index) const { return detector_ms_[index]; }

  size_t branch_count() const { return detector_ms_.size(); }

  // Serialization (see src/pipeline/serialize.cc).
  const std::vector<double>& detector_ms() const { return detector_ms_; }
  const std::vector<RidgeRegression>& tracker_models() const {
    return tracker_models_;
  }
  void Restore(const BranchSpace& space, std::vector<double> detector_ms,
               std::vector<RidgeRegression> tracker_models);

 private:
  // Groups the branches whose regressions are bit-identical.
  void GroupTrackerModels();

  // The amortized per-frame cost of branch `index`, given its calibrated
  // tracker term: `track()` returns max(0, regression) * cpu_cal and is called
  // only for a branch that tracks over more than one frame. The one
  // expression behind PredictFrameMs and PredictAllFrameMs.
  template <typename TrackFn>
  double FrameMs(size_t index, double gpu_cal, double cpu_cal, int effective_gof,
                 const TrackFn& track) const;

  const BranchSpace* space_ = nullptr;
  std::vector<double> detector_ms_;
  // One regression per branch; identically-zero model for detector-only branches.
  std::vector<RidgeRegression> tracker_models_;
  // tracker_group_[b] indexes group_models_, the first branch of each group of
  // bit-identical regressions.
  std::vector<size_t> tracker_group_;
  std::vector<size_t> group_models_;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_LATENCY_PREDICTOR_H_
