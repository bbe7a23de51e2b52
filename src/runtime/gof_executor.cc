#include "src/runtime/gof_executor.h"

#include <utility>

#include "src/features/light.h"
#include "src/mbek/kernel.h"

namespace litereconfig {

GofExecutor::GofExecutor(const SyntheticVideo& video, const LatencyModel& platform,
                         FaultRuntime faults, uint64_t rng_seed,
                         uint64_t kernel_salt, double slo_ms,
                         const BranchSpace* space,
                         const SwitchingCostModel* switching,
                         const DetectorQuality& quality)
    : video_(video),
      platform_(platform),
      faults_(std::move(faults)),
      rng_(rng_seed),
      kernel_salt_(kernel_salt),
      slo_ms_(slo_ms),
      space_(space),
      switching_(switching),
      quality_(quality) {}

void GofExecutor::BeginGof(int t) {
  samples_ = GofSamples{};
  faults_.BeginGof(t);
  if (faults_.active()) {
    platform_.set_contention_level(faults_.ContentionAt(t));
    platform_.set_thermal_scale(faults_.ThermalAt(t));
  }
}

DetectionList GofExecutor::PreheatProbe(uint64_t key) const {
  return DetectorSim::Detect(video_, 0, kPreheatProbe, DetectorQuality{}, key);
}

double GofExecutor::SamplePreheatMs(double slowdown) {
  return platform_.Sample(platform_.DetectorMs(kPreheatProbe) * slowdown, rng_);
}

void GofExecutor::SwitchTo(size_t branch) {
  // detlint: stream-stable(the current and next branch come from the stream's deterministic decision trace and rng_ is stream-private, stepped serially per GoF, so equal seeds+config replay equal switch draws)
  if (current_.has_value() && *current_ != branch) {
    samples_.switch_ms = switching_->OnlineCostMs(
        space_->at(*current_), space_->at(branch), switch_count_, rng_);
    samples_.switched = true;
    ++switch_count_;
  }
  current_ = branch;
}

void GofExecutor::Detect(int t, const Branch& branch, int length,
                         double detector_mean_ms, double outlier_scale,
                         DetectionList* out) {
  out[0] = ExecutionKernel::DetectAnchor(video_, t, branch, kernel_salt_, quality_);
  samples_.length = length;
  samples_.detector_nominal_ms = platform_.Sample(detector_mean_ms, rng_);
  samples_.detector_ms = samples_.detector_nominal_ms * outlier_scale;
  // The latency model charges per tracked object and per frame; neither
  // depends on the simulated tracker outputs, so the samples are drawn before
  // the tracker frames exist.
  double track_total = 0.0;
  if (branch.has_tracker) {  // detlint: stream-stable(has_tracker is pure branch config and the branch comes from the deterministic decision trace; rng_ never crosses streams or threads)
    int tracked = CountConfident(out[0]);
    for (int i = 1; i < length; ++i) {
      track_total +=
          platform_.Sample(platform_.TrackerMs(branch.tracker, tracked), rng_);
    }
  }
  samples_.tracker_ms = track_total;
}

void GofExecutor::TrackRemainder(int t, const Branch& branch, int length,
                                 DetectionList* out) {
  // TrackRemainderInto derives its span from the branch's GoF length; a GoF
  // clipped short (a denial boundary) must stop where its accounting stopped.
  Branch executed = branch;
  executed.gof = length;
  ExecutionKernel::TrackRemainderInto(video_, t, executed, out[0], kernel_salt_,
                                      scratch_, out + 1, quality_);
}

void GofExecutor::Track(int t, int length, const TrackerConfig& tracker,
                        const DetectionList& init, DetectionList* out) {
  int tracked = CountConfident(init);
  int emitted = ExecutionKernel::TrackOnlyInto(video_, t, length, tracker, init,
                                               kernel_salt_, scratch_, out);
  double track_total = 0.0;
  for (int i = 0; i < emitted; ++i) {
    track_total += platform_.Sample(platform_.TrackerMs(tracker, tracked), rng_);
  }
  samples_.length = emitted;
  samples_.tracker_ms = track_total;
}

bool GofExecutor::Book(double frame_ms, bool coasted, bool forecast_planned) {
  gof_frame_ms_.push_back(frame_ms);
  gof_lengths_.push_back(samples_.length);
  faults_.OnGofComplete(frame_ms, slo_ms_, samples_.length, coasted,
                        forecast_planned);
  return frame_ms > slo_ms_;
}

void GpuCalibration::Preheat(GofExecutor& executor, DeviceType device,
                             double slowdown) {
  double observed = executor.SamplePreheatMs(slowdown);
  LatencyModel profiled(device, 0.0);
  if (enabled_) {
    value_ = observed / (profiled.DetectorMs(kPreheatProbe) * slowdown);
  }
}

void GpuCalibration::Observe(double profiled_ms, double sample_ms,
                             bool predictive) {
  if (profiled_ms <= 0.0) {
    return;
  }
  if (predictive) {
    // Burst tracking on the detector's residual inflation over the calibrated
    // expectation: a branch-independent ratio, so it keeps working through
    // fallback GoFs running the cheapest branch.
    estimator_.Observe(profiled_ms * value_, sample_ms);
  }
  if (enabled_) {
    value_ = CalibrationStep(value_, sample_ms / profiled_ms);
  }
}

}  // namespace litereconfig
