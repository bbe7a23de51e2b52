// Online-drift scenario (paper Section 6, "Online drift in the data"):
// mid-stream, the device's compute behaviour changes — here, thermal throttling
// modeled as a persistent 40% slowdown of every kernel that the contention
// calibration alone does not explain away instantly. The DriftMonitor flags the
// sustained prediction bias; the runtime responds by re-profiling the latency
// predictor against the observed platform (the paper's prescription: "if the
// compute capability ... changes, one may re-train the latency predictor").
#include <iostream>

#include "src/mbek/kernel.h"
#include "src/pipeline/workbench.h"
#include "src/sched/drift.h"
#include "src/sched/scheduler.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

using namespace litereconfig;

namespace {

// A platform whose kernels slow down uniformly after the throttle point —
// unlike GPU contention, the CPU trackers slow down too, so the GPU-only
// calibration loop systematically underestimates.
class ThrottledPlatform {
 public:
  ThrottledPlatform(DeviceType device, double slowdown)
      : nominal_(device, 0.0), slowdown_(slowdown) {}

  void set_throttled(bool throttled) { throttled_ = throttled; }
  double factor() const { return throttled_ ? slowdown_ : 1.0; }

  double DetectorMs(const DetectorConfig& config) const {
    return nominal_.DetectorMs(config) * factor();
  }
  double TrackerMs(const TrackerConfig& config, int objects) const {
    return nominal_.TrackerMs(config, objects) * factor();
  }
  double Sample(double mean, Pcg32& rng) const { return nominal_.Sample(mean, rng); }
  const LatencyModel& nominal() const { return nominal_; }

 private:
  LatencyModel nominal_;
  double slowdown_;
  bool throttled_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  litereconfig::ApplyThreadsFlag(argc, argv);  // --threads=N
  constexpr double kSlo = 50.0;
  const Workbench& wb = Workbench::Get(DeviceType::kTx2);
  // Mutable copy: this run retrains the latency predictor when drift hits.
  TrainedModels models = wb.models();
  LiteReconfigScheduler scheduler(&models, SchedulerConfig{});
  ThrottledPlatform platform(DeviceType::kTx2, /*slowdown=*/1.4);
  DriftMonitor monitor;
  Pcg32 rng(99);

  VideoSpec spec;
  spec.seed = 4242;
  spec.frame_count = 1200;
  spec.archetype = SceneArchetype::kSparse;
  SyntheticVideo video = SyntheticVideo::Generate(spec);

  DetectionList anchor = FasterRcnnSim::Detect(video, 0, {320, 10});
  std::optional<size_t> current;
  int violations = 0;
  int gofs = 0;
  bool retrained = false;
  std::cout << "Stream of " << spec.frame_count
            << " frames; the device throttles at frame 400.\n\n";
  int t = 0;
  while (t < video.frame_count()) {
    platform.set_throttled(t >= 400);
    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = t;
    ctx.anchor_detections = &anchor;
    ctx.current_branch = current;
    ctx.slo_ms = kSlo;
    ctx.frames_remaining = video.frame_count() - t;
    SchedulerDecision decision = scheduler.Decide(ctx);
    const Branch& branch = models.space->at(decision.branch_index);
    GofResult gof = ExecutionKernel::RunGof(video, t, branch);
    if (gof.frames.empty()) {
      break;
    }
    double det = platform.Sample(platform.DetectorMs(branch.detector), rng);
    double track = 0.0;
    if (branch.has_tracker) {
      for (size_t i = 1; i < gof.frames.size(); ++i) {
        track += platform.Sample(
            platform.TrackerMs(branch.tracker,
                               static_cast<int>(gof.anchor_detections.size())),
            rng);
      }
    }
    double frame_ms = (det + track + decision.scheduler_cost_ms) /
                      static_cast<double>(gof.frames.size());
    ++gofs;
    if (frame_ms > kSlo) {
      ++violations;
    }
    monitor.ObserveLatency(decision.predicted_frame_ms, frame_ms);
    monitor.ObserveDetections(gof.anchor_detections);
    DriftStatus status = monitor.Check();
    if (status.latency_drift && !retrained) {
      std::cout << "frame " << t << ": latency drift detected (sustained bias "
                << FmtDouble(status.latency_rel_bias * 100.0, 1)
                << "%). Re-profiling the latency predictor...\n";
      // The paper's remedy: re-train the latency predictor for the changed
      // device. Profile against a model reflecting the throttled platform.
      LatencyModel throttled_view(DeviceType::kTx2, 0.0);
      models.latency = LatencyPredictor::Profile(BranchSpace::Default(),
                                                 throttled_view);
      // The throttle is uniform, so fold it into the profiled costs directly.
      std::vector<double> scaled = models.latency.detector_ms();
      for (double& v : scaled) {
        v *= platform.factor();
      }
      std::vector<RidgeRegression> trackers;
      for (const RidgeRegression& model : models.latency.tracker_models()) {
        std::vector<double> weights = model.weights();
        for (double& w : weights) {
          w *= platform.factor();
        }
        trackers.push_back(
            RidgeRegression::FromParts(std::move(weights),
                                       model.bias() * platform.factor()));
      }
      models.latency.Restore(BranchSpace::Default(), std::move(scaled),
                             std::move(trackers));
      monitor.Rebaseline();
      retrained = true;
      std::cout << "  violation rate before retraining: "
                << FmtDouble(100.0 * violations / gofs, 1) << "% (" << violations
                << "/" << gofs << " GoFs)\n";
      violations = 0;
      gofs = 0;
    }
    anchor = gof.anchor_detections;
    current = decision.branch_index;
    t += static_cast<int>(gof.frames.size());
  }
  std::cout << "  violation rate after retraining:  "
            << FmtDouble(gofs > 0 ? 100.0 * violations / gofs : 0.0, 1) << "% ("
            << violations << "/" << gofs << " GoFs)\n"
            << "\nThe monitor catches the throttle within its observation window "
               "and the\nre-profiled predictor restores the SLO.\n";
  return retrained ? 0 : 1;
}
