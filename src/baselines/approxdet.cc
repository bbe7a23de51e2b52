#include "src/baselines/approxdet.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/features/light.h"

namespace litereconfig {

ApproxDetProtocol::ApproxDetProtocol(const TrainedModels* models) : models_(models) {
  assert(models_ != nullptr && models_->space != nullptr);
  assert(models_->mean_branch_accuracy().size() == models_->space->size());
}

size_t ApproxDetProtocol::Decide(const std::vector<double>& light, double gpu_cal,
                                 double cpu_cal, double slo_ms,
                                 int frames_remaining, bool* feasible) const {
  constexpr double kApproxDetSloMargin = 0.93;
  const BranchSpace& space = *models_->space;
  double best_acc = -1.0;
  size_t best = 0;
  double cheapest_ms = std::numeric_limits<double>::infinity();
  size_t cheapest = 0;
  for (size_t b = 0; b < space.size(); ++b) {
    int effective_gof = std::min(space.at(b).gof, std::max(1, frames_remaining));
    double frame_ms =
        models_->latency.PredictFrameMs(b, light, gpu_cal, cpu_cal, effective_gof) *
            kKernelSlowdown +
        kPerFrameOverheadMs + kSchedulerMs / static_cast<double>(effective_gof);
    if (frame_ms < cheapest_ms) {
      cheapest_ms = frame_ms;
      cheapest = b;
    }
    if (frame_ms > slo_ms * kApproxDetSloMargin) {
      continue;
    }
    if (models_->mean_branch_accuracy()[b] > best_acc) {
      best_acc = models_->mean_branch_accuracy()[b];
      best = b;
    }
  }
  if (feasible != nullptr) {
    *feasible = best_acc >= 0.0;
  }
  return best_acc >= 0.0 ? best : cheapest;
}

VideoRunStats ApproxDetProtocol::RunVideo(const SyntheticVideo& video,
                                          const RunEnv& env) {
  const BranchSpace& space = *models_->space;
  const VideoSpec& spec = video.spec();
  VideoRunStats stats;
  // Frames land in place, as in LiteReconfigProtocol::RunVideo.
  stats.frames.resize(static_cast<size_t>(video.frame_count()));
  // Branches that ran a detector GoF; their ids are formatted once, at the end.
  std::vector<bool> used(space.size(), false);
  GofExecutor exec = OfflineExecutor(
      video, env, HashKeys({spec.seed, env.run_salt, 0xa99de7ull}), &space);
  FaultRuntime& faults = exec.faults();
  // Predictive mode: ApproxDet gets the same online contention estimator as
  // LiteReconfig (fair comparison) — plan at the forecast contention and
  // re-plan ahead of a forecast burst end instead of the binary fallback.
  bool predictive = env.predictive && env.degrade && faults.active();
  // Preheat pass (see LiteReconfigProtocol): ApproxDet is contention-aware
  // too, through the same observe-and-calibrate mechanism.
  DetectionList preheat = exec.PreheatProbe(HashKeys({env.run_salt, 0xa94e47ull}));
  GpuCalibration gpu_cal;
  gpu_cal.Preheat(exec, models_->device, kKernelSlowdown);
  const ContentionEstimator& estimator = gpu_cal.estimator();
  const DetectionList* anchor = &preheat;
  int t = 0;
  while (t < video.frame_count()) {
    exec.BeginGof(t);
    std::vector<double> light = ComputeLightFeatures(spec.width, spec.height, *anchor);
    bool feasible = true;
    bool forecast_planned = false;
    // Same staged policy as LiteReconfig-Predictive: keep the reactive
    // fallback's conservatism, but price decisions at the forecast contention
    // while a burst is live and re-plan one GoF ahead of a forecast burst end.
    bool replan_early =
        predictive && faults.InFallback() && estimator.BurstEndingSoon();
    size_t choice;
    if (faults.InFallback() && !replan_early) {
      // Watchdog fallback: with slo=0 every branch is infeasible and Decide
      // returns its cheapest branch; re-plan once a clean GoF clears the fault.
      choice = Decide(light, gpu_cal.value(), /*cpu_cal=*/1.0, /*slo_ms=*/0.0,
                      video.frame_count() - t, nullptr);
    } else if (predictive && estimator.in_burst()) {
      // Forecast pressure: price branches at the forecast contention so the
      // choice is the best that still fits if the burst persists.
      if (replan_early) {
        faults.RecordPreemptiveReplan();
      }
      choice = Decide(light, gpu_cal.value() * estimator.ForecastScale(),
                      /*cpu_cal=*/1.0, env.slo_ms, video.frame_count() - t, &feasible);
      forecast_planned = true;
    } else {
      choice = Decide(light, gpu_cal.value(), /*cpu_cal=*/1.0, env.slo_ms,
                      video.frame_count() - t, &feasible);
    }
    if (!feasible && exec.current().has_value() &&
        video.frame_count() - t <= kTailFrames && t > 0) {
      // Tail continuation (see LiteReconfigProtocol): ride out the last frames
      // on the tracker instead of paying an unamortizable detector pass.
      exec.Track(t, video.frame_count() - t, CoastTracker(space.at(*exec.current())),
                 stats.frames[t - 1], stats.frames.data() + t);
      const GofSamples& tail = exec.samples();
      double len = static_cast<double>(tail.length);
      stats.tracker_ms += tail.tracker_ms;
      stats.scheduler_ms += kPerFrameOverheadMs * len;
      exec.Book(tail.tracker_ms / len + kPerFrameOverheadMs, /*coasted=*/false);
      t += tail.length;
      continue;
    }
    const Branch& branch = space.at(choice);
    double det_mean = exec.platform().DetectorMs(branch.detector) * kKernelSlowdown;
    FaultRuntime::DetectorOutcome outcome = faults.ResolveDetector(t, det_mean, t > 0);
    if (outcome.coast) {
      // Coast mode (see LiteReconfigProtocol): the detector is down, extend
      // tracking from the last emitted outputs. A coast needs t > 0, and the
      // first GoF always runs a detector, so a branch is current.
      const Branch& coast_branch = space.at(*exec.current());
      int length = std::min(coast_branch.has_tracker ? coast_branch.gof : branch.gof,
                            video.frame_count() - t);
      exec.Track(t, length, CoastTracker(coast_branch),
                 stats.frames[t - 1], stats.frames.data() + t);
      const GofSamples& coast = exec.samples();
      double len = static_cast<double>(coast.length);
      stats.tracker_ms += coast.tracker_ms;
      stats.scheduler_ms += kPerFrameOverheadMs * len;
      exec.Book((coast.tracker_ms + outcome.penalty_ms) / len + kPerFrameOverheadMs,
                /*coasted=*/true);
      t += coast.length;
      continue;
    }
    exec.SwitchTo(choice);
    int length = std::min(branch.gof, video.frame_count() - t);
    DetectionList* gof_frames = stats.frames.data() + t;
    exec.Detect(t, branch, length, det_mean, outcome.outlier_scale, gof_frames);
    const GofSamples& drawn = exec.samples();
    // Contention adaptation: calibrate against the zero-contention profile.
    // With degradation armed, outliers are discarded from calibration.
    gpu_cal.Observe(models_->latency.DetectorMs(choice) * kKernelSlowdown,
                    env.degrade ? drawn.detector_nominal_ms : drawn.detector_ms,
                    predictive);
    double len = static_cast<double>(length);
    stats.detector_ms += drawn.detector_ms + outcome.penalty_ms;
    stats.tracker_ms += drawn.tracker_ms;
    stats.scheduler_ms += kSchedulerMs + kPerFrameOverheadMs * len;
    stats.switch_ms += drawn.switch_ms;
    double gof_frame = (drawn.detector_ms + drawn.tracker_ms + kSchedulerMs +
                        drawn.switch_ms + outcome.penalty_ms) /
                           len +
                       kPerFrameOverheadMs;
    used[choice] = true;
    exec.Book(gof_frame, /*coasted=*/false, forecast_planned);
    exec.TrackRemainder(t, branch, length, gof_frames);
    anchor = gof_frames;
    t += length;
  }
  for (size_t b = 0; b < used.size(); ++b) {
    if (used[b]) {
      stats.branches_used.insert(space.at(b).Id());
    }
  }
  TakeBooks(exec, stats);
  return stats;
}

}  // namespace litereconfig
