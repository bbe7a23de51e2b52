#include "src/pipeline/runner.h"

#include <sstream>

#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"
#include "src/vision/metrics.h"

namespace litereconfig {

bool EvalResult::MeetsSlo(double slo) const {
  constexpr double kSlack = 1.10;
  return !oom && p95_ms <= slo * kSlack;
}

EvalResult OnlineRunner::Run(Protocol& protocol, const Dataset& validation,
                             const EvalConfig& config) {
  LatencyModel platform(config.device, config.gpu_contention);
  SwitchingCostModel switching(config.device);
  RunEnv env;
  env.platform = &platform;
  env.switching = &switching;
  env.slo_ms = config.slo_ms;
  env.run_salt = config.run_salt;
  env.faults = config.faults.Any() ? &config.faults : nullptr;
  env.fault_seed = config.fault_seed;
  env.degrade = config.degrade;
  env.predictive = config.predictive;
  env.now_us = config.now_us;
  const int threads = ResolveThreadCount(config.threads);

  protocol.Reset();

  // Fan out: each video runs on a worker and accumulates its own AP evaluator,
  // so the expensive matching work parallelizes too. All shared inputs
  // (protocol, platform, switching, videos) are only read here — per-video
  // state lives inside RunVideo.
  const std::vector<SyntheticVideo>& videos = validation.videos;
  struct PerVideo {
    VideoRunStats stats;
    ApEvaluator eval;
    // stats.frames.size(): the detection lists are freed once matched.
    size_t frame_count = 0;
  };
  std::vector<PerVideo> per_video(videos.size());
  ThreadPool::Shared().ParallelFor(
      videos.size(),
      [&](size_t i) {
        PerVideo& pv = per_video[i];
        pv.stats = protocol.RunVideo(videos[i], env);
        if (pv.stats.Fatal()) {
          return;
        }
        ScopedPhase eval_phase(env.now_us, &pv.stats.phases.eval_us);
        GroundTruthList truth;
        for (size_t t = 0; t < pv.stats.frames.size(); ++t) {
          videos[i].frame(static_cast<int>(t)).VisibleGroundTruth(truth);
          pv.eval.AddFrame(truth, pv.stats.frames[t]);
        }
        // The merge reads only the count: free every detection list now
        // rather than keep all videos' lists alive until it runs.
        pv.frame_count = pv.stats.frames.size();
        std::vector<DetectionList>().swap(pv.stats.frames);
      },
      threads);

  // Merge in video order — bitwise identical to a sequential walk.
  EvalResult result;
  ScopedPhase merge_phase(config.now_us, &result.phases.merge_us);
  std::vector<const ApEvaluator*> evals;
  evals.reserve(per_video.size());
  std::set<std::string> branches;
  double detector_ms = 0.0;
  double tracker_ms = 0.0;
  double scheduler_ms = 0.0;
  double switch_ms = 0.0;
  int recovery_events = 0;
  int recovery_gofs = 0;
  for (size_t v = 0; v < per_video.size(); ++v) {
    const VideoRunStats& stats = per_video[v].stats;
    uint64_t video_seed = videos[v].spec().seed;
    for (FailureReport failure : stats.robustness.failures) {
      failure.video_seed = video_seed;
      result.failures.push_back(failure);
    }
    if (stats.Fatal()) {
      result.oom = true;
      return result;
    }
    evals.push_back(&per_video[v].eval);
    result.phases.Merge(stats.phases);
    result.frames += per_video[v].frame_count;
    result.gof_frame_ms.insert(result.gof_frame_ms.end(), stats.gof_frame_ms.begin(),
                               stats.gof_frame_ms.end());
    branches.insert(stats.branches_used.begin(), stats.branches_used.end());
    result.switch_count += stats.switch_count;
    result.deadline_misses += stats.robustness.deadline_misses;
    result.faults_injected += stats.robustness.faults_injected;
    result.faults_absorbed += stats.robustness.faults_absorbed;
    result.degraded_frames += stats.robustness.degraded_frames;
    result.denied_gofs += stats.robustness.denied_gofs;
    result.cpu_fallback_gofs += stats.robustness.cpu_fallback_gofs;
    result.recalibrations += stats.robustness.recalibrations;
    result.reanchors += stats.robustness.reanchors;
    result.preemptive_replans += stats.robustness.preemptive_replans;
    result.forecast_absorbed += stats.robustness.forecast_absorbed;
    recovery_events += stats.robustness.recovery_events;
    recovery_gofs += stats.robustness.recovery_gofs;
    detector_ms += stats.detector_ms;
    tracker_ms += stats.tracker_ms;
    scheduler_ms += stats.scheduler_ms;
    switch_ms += stats.switch_ms;
  }
  result.mean_recovery_gofs =
      recovery_events > 0
          ? static_cast<double>(recovery_gofs) / static_cast<double>(recovery_events)
          : 0.0;
  result.map = ApEvaluator::MergedMeanAveragePrecision(evals, threads);
  result.mean_ms = Mean(result.gof_frame_ms);
  result.p95_ms = Percentile(result.gof_frame_ms, 0.95);
  size_t violations = 0;
  for (double v : result.gof_frame_ms) {
    if (v > config.slo_ms) {
      ++violations;
    }
  }
  result.violation_rate =
      result.gof_frame_ms.empty()
          ? 0.0
          : static_cast<double>(violations) / result.gof_frame_ms.size();
  double total = detector_ms + tracker_ms + scheduler_ms + switch_ms;
  if (total > 0.0) {
    result.detector_frac = detector_ms / total;
    result.tracker_frac = tracker_ms / total;
    result.scheduler_frac = scheduler_ms / total;
    result.switch_frac = switch_ms / total;
  }
  result.branch_coverage = static_cast<int>(branches.size());
  return result;
}

std::string EvalResultJson(const EvalResult& result) {
  std::ostringstream os;
  os << "{\"map\":" << FmtDouble(result.map, 6)
     << ",\"mean_ms\":" << FmtDouble(result.mean_ms, 4)
     << ",\"p95_ms\":" << FmtDouble(result.p95_ms, 4)
     << ",\"violation_rate\":" << FmtDouble(result.violation_rate, 6)
     << ",\"branch_coverage\":" << result.branch_coverage
     << ",\"switch_count\":" << result.switch_count
     << ",\"frames\":" << result.frames
     << ",\"oom\":" << (result.oom ? "true" : "false")
     << ",\"deadline_misses\":" << result.deadline_misses
     << ",\"faults_injected\":" << result.faults_injected
     << ",\"faults_absorbed\":" << result.faults_absorbed
     << ",\"degraded_frames\":" << result.degraded_frames
     << ",\"mean_recovery_gofs\":" << FmtDouble(result.mean_recovery_gofs, 3)
     << ",\"recalibrations\":" << result.recalibrations
     << ",\"reanchors\":" << result.reanchors
     << ",\"preemptive_replans\":" << result.preemptive_replans
     << ",\"forecast_absorbed\":" << result.forecast_absorbed
     << ",\"failures\":[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    const FailureReport& failure = result.failures[i];
    if (i > 0) {
      os << ",";
    }
    os << "{\"kind\":\"" << FailureKindName(failure.kind) << "\""
       << ",\"video\":" << failure.video_seed << ",\"frame\":" << failure.frame
       << ",\"recovered\":" << (failure.recovered ? "true" : "false") << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace litereconfig
