#include "src/baselines/approxdet.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/sched/contention_estimator.h"
#include "src/util/rng.h"

namespace litereconfig {

namespace {

constexpr double kCalibrationEwma = 0.3;

}  // namespace

ApproxDetProtocol::ApproxDetProtocol(const TrainedModels* models) : models_(models) {
  assert(models_ != nullptr && models_->space != nullptr);
  assert(models_->mean_branch_accuracy.size() == models_->space->size());
}

size_t ApproxDetProtocol::Decide(const std::vector<double>& light, double gpu_cal,
                                 double cpu_cal, double slo_ms,
                                 int frames_remaining, bool* feasible) const {
  constexpr double kSloMargin = 0.93;
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
    if (frame_ms > slo_ms * kSloMargin) {
      continue;
    }
    if (models_->mean_branch_accuracy[b] > best_acc) {
      best_acc = models_->mean_branch_accuracy[b];
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
  Pcg32 rng(HashKeys({spec.seed, env.run_salt, 0xa99de7ull}));
  DetectionList anchor;
  // Per-video calibration state (see LiteReconfigProtocol::RunVideo).
  double gpu_cal = 1.0;
  std::optional<size_t> current;
  // Per-stream platform copy so fault-driven contention bursts stay local to
  // this video (see LiteReconfigProtocol::RunVideo).
  LatencyModel platform_local = *env.platform;
  const LatencyModel* platform = &platform_local;
  FaultRuntime faults(env.faults, spec.seed, video.frame_count(), env.fault_seed,
                      env.degrade, env.platform->contention().level(),
                      1000.0 / spec.fps);
  // Predictive mode: ApproxDet gets the same online contention estimator as
  // LiteReconfig (fair comparison) — plan at the forecast contention and
  // re-plan ahead of a forecast burst end instead of the binary fallback.
  bool predictive = env.predictive && env.degrade && faults.active();
  ContentionEstimator estimator;
  {
    // Preheat pass (see LiteReconfigProtocol): ApproxDet is contention-aware
    // too, through the same observe-and-calibrate mechanism.
    DetectorConfig probe{320, 10};
    anchor = DetectorSim::Detect(video, 0, probe, DetectorQuality{},
                                 HashKeys({env.run_salt, 0xa94e47ull}));
    double observed = env.platform->Sample(
        env.platform->DetectorMs(probe) * kKernelSlowdown, rng);
    LatencyModel profiled(models_->device, 0.0);
    gpu_cal = observed / (profiled.DetectorMs(probe) * kKernelSlowdown);
  }
  int t = 0;
  while (t < video.frame_count()) {
    faults.BeginGof(t);
    if (faults.active()) {
      platform_local.set_contention_level(faults.ContentionAt(t));
      platform_local.set_thermal_scale(faults.ThermalAt(t));
    }
    std::vector<double> light = ComputeLightFeatures(spec.width, spec.height, anchor);
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
      choice = Decide(light, gpu_cal, /*cpu_cal=*/1.0, /*slo_ms=*/0.0,
                      video.frame_count() - t, nullptr);
    } else if (predictive && estimator.in_burst()) {
      // Forecast pressure: price branches at the forecast contention so the
      // choice is the best that still fits if the burst persists.
      if (replan_early) {
        faults.RecordPreemptiveReplan();
      }
      choice = Decide(light, gpu_cal * estimator.ForecastScale(), /*cpu_cal=*/1.0,
                      env.slo_ms, video.frame_count() - t, &feasible);
      forecast_planned = true;
    } else {
      choice = Decide(light, gpu_cal, /*cpu_cal=*/1.0, env.slo_ms,
                      video.frame_count() - t, &feasible);
    }
    if (!feasible && current.has_value() && video.frame_count() - t <= kTailFrames &&
        !stats.frames.empty()) {
      // Tail continuation (see LiteReconfigProtocol): ride out the last frames
      // on the tracker instead of paying an unamortizable detector pass.
      const Branch& cur_branch = space.at(*current);
      TrackerConfig tail_tracker = CoastTracker(cur_branch);
      const DetectionList& last_frame = stats.frames.back();
      std::vector<DetectionList> tail = ExecutionKernel::TrackOnly(
          video, t, video.frame_count() - t, tail_tracker, last_frame, env.run_salt);
      if (tail.empty()) {
        break;
      }
      int tracked = CountConfident(last_frame);
      double track_total = 0.0;
      for (size_t i = 0; i < tail.size(); ++i) {
        track_total += platform->Sample(
            platform->TrackerMs(tail_tracker, tracked), rng);
      }
      stats.tracker_ms += track_total;
      stats.scheduler_ms += kPerFrameOverheadMs * static_cast<double>(tail.size());
      double tail_frame_ms = track_total / static_cast<double>(tail.size()) +
                             kPerFrameOverheadMs;
      stats.gof_frame_ms.push_back(tail_frame_ms);
      stats.gof_lengths.push_back(static_cast<int>(tail.size()));
      faults.OnGofComplete(tail_frame_ms, env.slo_ms,
                           static_cast<int>(tail.size()), /*coasted=*/false);
      t += static_cast<int>(tail.size());
      for (DetectionList& frame : tail) {
        stats.frames.push_back(std::move(frame));
      }
      continue;
    }
    const Branch& branch = space.at(choice);
    double det_mean = platform->DetectorMs(branch.detector) * kKernelSlowdown;
    FaultRuntime::DetectorOutcome outcome =
        faults.ResolveDetector(t, det_mean, !stats.frames.empty());
    if (outcome.coast) {
      // Coast mode (see LiteReconfigProtocol): the detector is down, extend
      // tracking from the last emitted outputs.
      const Branch& coast_branch =
          current.has_value() ? space.at(*current) : branch;
      TrackerConfig coast_tracker = CoastTracker(coast_branch);
      int length = std::min(coast_branch.has_tracker ? coast_branch.gof : branch.gof,
                            video.frame_count() - t);
      length = std::max(length, 1);
      const DetectionList last_frame = stats.frames.back();
      std::vector<DetectionList> coasted = ExecutionKernel::TrackOnly(
          video, t, length, coast_tracker, last_frame, env.run_salt);
      if (coasted.empty()) {
        break;
      }
      int tracked = CountConfident(last_frame);
      double track_total = 0.0;
      for (size_t i = 0; i < coasted.size(); ++i) {
        track_total += platform->Sample(
            platform->TrackerMs(coast_tracker, tracked), rng);
      }
      double len = static_cast<double>(coasted.size());
      double gof_frame =
          (track_total + outcome.penalty_ms) / len + kPerFrameOverheadMs;
      stats.tracker_ms += track_total;
      stats.scheduler_ms += kPerFrameOverheadMs * len;
      stats.gof_frame_ms.push_back(gof_frame);
      stats.gof_lengths.push_back(static_cast<int>(len));
      faults.OnGofComplete(gof_frame, env.slo_ms, static_cast<int>(len),
                           /*coasted=*/true);
      t += static_cast<int>(len);
      for (DetectionList& frame : coasted) {
        stats.frames.push_back(std::move(frame));
      }
      continue;
    }
    double switch_sample = 0.0;
    if (current.has_value() && *current != choice) {
      switch_sample = env.switching->OnlineCostMs(space.at(*current), branch,
                                                  stats.switch_count, rng);
      ++stats.switch_count;
    }
    GofResult gof = ExecutionKernel::RunGof(video, t, branch, env.run_salt);
    if (gof.frames.empty()) {
      break;
    }
    double det_nominal = platform->Sample(det_mean, rng);
    double det_sample = det_nominal * outcome.outlier_scale;
    // Contention adaptation: calibrate against the zero-contention profile.
    // With degradation armed, outliers are discarded from calibration.
    double cal_sample = env.degrade ? det_nominal : det_sample;
    double profiled = models_->latency.DetectorMs(choice) * kKernelSlowdown;
    if (predictive && profiled > 0.0) {
      // Burst tracking on the detector's residual inflation (see
      // LiteReconfigProtocol): branch-independent, survives fallback GoFs.
      estimator.Observe(profiled * gpu_cal, cal_sample);
    }
    if (profiled > 0.0) {
      gpu_cal = (1.0 - kCalibrationEwma) * gpu_cal +
                kCalibrationEwma * (cal_sample / profiled);
    }
    double track_total = 0.0;
    if (branch.has_tracker) {
      int tracked = CountConfident(gof.anchor_detections);
      for (size_t i = 1; i < gof.frames.size(); ++i) {
        track_total += platform->Sample(
            platform->TrackerMs(branch.tracker, tracked), rng);
      }
    }
    double len = static_cast<double>(gof.frames.size());
    stats.detector_ms += det_sample + outcome.penalty_ms;
    stats.tracker_ms += track_total;
    stats.scheduler_ms += kSchedulerMs + kPerFrameOverheadMs * len;
    stats.switch_ms += switch_sample;
    double gof_frame = (det_sample + track_total + kSchedulerMs + switch_sample +
                        outcome.penalty_ms) /
                           len +
                       kPerFrameOverheadMs;
    stats.gof_frame_ms.push_back(gof_frame);
    stats.gof_lengths.push_back(static_cast<int>(len));
    stats.branches_used.insert(branch.Id());
    faults.OnGofComplete(gof_frame, env.slo_ms, static_cast<int>(len),
                         /*coasted=*/false, forecast_planned);
    anchor = gof.anchor_detections;
    for (DetectionList& frame : gof.frames) {
      stats.frames.push_back(std::move(frame));
    }
    t += static_cast<int>(len);
    current = choice;
  }
  stats.robustness = faults.TakeAccounting();
  return stats;
}

}  // namespace litereconfig
