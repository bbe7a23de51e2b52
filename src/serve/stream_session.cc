#include "src/serve/stream_session.h"

#include <algorithm>
#include <limits>

#include "src/det/detector.h"
#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/sched/cost_table.h"

namespace litereconfig {

namespace {

// Builds the session's fault runtime: only the spec's stateless point faults
// are materialized here (device-wide intervals live in the service's shared
// ServiceFaultPlan); the runtime is engaged anyway so interval faults the
// service records on its behalf reach the same absorption/recovery books.
FaultRuntime MakeSessionFaults(const ServiceFaultConfig* faults,
                               const StreamRequest& request, int frame_count,
                               double frame_interval_ms) {
  if (faults == nullptr || !faults->spec.Any()) {
    return FaultRuntime(nullptr, request.video.seed, frame_count,
                        /*fault_seed=*/1, /*degrade=*/true,
                        /*base_contention=*/0.0, frame_interval_ms);
  }
  FaultSpec point = faults->spec.WithoutIntervals();
  FaultRuntime runtime(&point, request.video.seed, frame_count,
                       faults->fault_seed, faults->degrade,
                       /*base_contention=*/0.0, frame_interval_ms);
  runtime.EngageServiceFaults();
  return runtime;
}

}  // namespace

StreamSession::StreamSession(const TrainedModels* models,
                             SchedulerConfig config,
                             const StreamRequest& request,
                             const SwitchingCostModel* switching,
                             uint64_t service_salt,
                             const ServiceFaultConfig* faults)
    : models_(models),
      scheduler_(models, config),
      request_(request),
      video_(SyntheticVideo::Generate(request.video)),
      switching_(switching),
      platform_(models->device, 0.0),
      rng_(HashKeys({request.video.seed, service_salt, 0x5e55ull})),
      faults_(MakeSessionFaults(faults, request, video_.frame_count(),
                                1000.0 / request.video.fps)),
      effective_class_(request.slo_class) {
  // Serving mode from the start: the co-located streams are the contention;
  // any simulated contention write from here on is dropped, not stacked.
  platform_.SetEndogenousContention(0.0);
  for (const Branch& branch : models_->space->branches()) {
    if (branch.detector.cpu) {
      has_cpu_family_ = true;
      break;
    }
  }
}

double StreamSession::SloLimit() const {
  return request_.slo_ms * scheduler_.config().slo_margin;
}

double StreamSession::AnalyticGpuCal(double level) {
  return ContentionGenerator(level).GpuInflation();
}

bool StreamSession::FeasibleAt(double level) const {
  const BranchSpace& space = *models_->space;
  LatencyModel probe(models_->device, level);
  double limit = SloLimit();
  for (size_t b = 0; b < space.size(); ++b) {
    if (probe.BranchFrameMs(space.at(b), kFallbackObjectCount) <= limit) {
      return true;
    }
  }
  return false;
}

std::vector<BranchOption> StreamSession::Menu(double level,
                                              double thermal_scale,
                                              bool gpu_available) const {
  DecisionContext ctx;
  ctx.video = &video_;
  ctx.frame = t_;
  ctx.anchor_detections = &anchor_;
  ctx.current_branch = current_;
  ctx.slo_ms = request_.slo_ms;
  ctx.frames_remaining = video_.frame_count() - t_;
  // Thermal drift slows the whole SoC, so it inflates both calibrations.
  ctx.gpu_cal = AnalyticGpuCal(level) * thermal_scale;
  ctx.cpu_cal = thermal_scale;
  ctx.gpu_available = gpu_available;
  std::vector<double> light = ComputeLightFeatures(
      video_.spec().width, video_.spec().height, anchor_);
  return BuildBranchMenu(*models_, scheduler_.config(), ctx, light);
}

double StreamSession::CheapestFrameMs(double level, double thermal_scale,
                                      bool gpu_available) const {
  const BranchSpace& space = *models_->space;
  LatencyModel probe(models_->device, level);
  probe.set_thermal_scale(thermal_scale);
  double best = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < space.size(); ++b) {
    if (!gpu_available && !space.at(b).detector.cpu) {
      continue;
    }
    best = std::min(best,
                    probe.BranchFrameMs(space.at(b), kFallbackObjectCount));
  }
  return best;
}

double StreamSession::CoastFrameMs(double thermal_scale) const {
  TrackerConfig tracker = current_.has_value()
                              ? CoastTracker(models_->space->at(*current_))
                              : kDefaultCoastTracker;
  LatencyModel probe(models_->device, 0.0);
  probe.set_thermal_scale(thermal_scale);
  return probe.TrackerMs(tracker, std::max(CountConfident(last_frame_), 1));
}

void StreamSession::Renegotiate(SloClass demoted) {
  if (demoted == effective_class_) {
    return;
  }
  effective_class_ = demoted;
  ++renegotiations_;
}

void StreamSession::RestoreClass() { effective_class_ = request_.slo_class; }

void StreamSession::RecordEviction() {
  faults_.RecordServiceFault(FailureKind::kEvicted, t_, /*recovered=*/false);
}

void StreamSession::EmitFrames(std::vector<DetectionList> frames) {
  if (!frames.empty()) {
    last_frame_ = frames.back();
  }
  for (DetectionList& frame : frames) {
    eval_.AddFrame(video_.frame(t_).VisibleGroundTruth(), frame);
    ++t_;
  }
}

void StreamSession::CoastGof(GofReport& report, double penalty_ms) {
  const Branch& coast_branch = models_->space->at(*current_);
  TrackerConfig coast_tracker = CoastTracker(coast_branch);
  int length = std::min(std::max(coast_branch.gof, 1),
                        video_.frame_count() - t_);
  std::vector<DetectionList> coasted = ExecutionKernel::TrackOnly(
      video_, t_, length, coast_tracker, last_frame_, request_.video.seed);
  if (coasted.empty()) {
    report.done = true;
    t_ = video_.frame_count();
    return;
  }
  int tracked = CountConfident(last_frame_);
  double track_total = 0.0;
  for (size_t i = 0; i < coasted.size(); ++i) {
    track_total += platform_.Sample(
        platform_.TrackerMs(coast_tracker, tracked), rng_);
  }
  double len = static_cast<double>(coasted.size());
  report.branch = *current_;
  report.gof_length = static_cast<int>(len);
  report.frame_ms = (track_total + penalty_ms) / len;
  report.gpu_share = 0.0;  // no detector invocation: the GPU is free
  report.missed = report.frame_ms > request_.slo_ms;
  anchor_ = coasted.back();
  EmitFrames(std::move(coasted));
}

void StreamSession::FinishGof(GofReport& report, size_t fault_mark,
                              bool coasted) {
  report.coasted = coasted;
  gof_frame_ms_.push_back(report.frame_ms);
  if (report.missed) {
    ++deadline_misses_;
    ++miss_streak_;
    int tolerance = SloClassMissTolerance(effective_class_);
    if (!forced_ && miss_streak_ >= tolerance) {
      forced_ = true;
    }
  } else {
    miss_streak_ = 0;
    forced_ = false;
  }
  // The watchdog's forced-fallback entry/exit rides the same recovery-episode
  // accounting the single-tenant FaultRuntime keeps: a missed GoF opens an
  // episode, a clean one closes it, so serve and single-stream robustness
  // metrics are comparable.
  faults_.OnGofComplete(report.frame_ms, request_.slo_ms,
                        std::max(report.gof_length, 1), coasted);
  const std::vector<FailureReport>& failures = faults_.accounting().failures;
  for (size_t i = fault_mark; i < failures.size(); ++i) {
    report.faults.push_back(failures[i]);
  }
  report.done = done();
  if (report.done) {
    report.gpu_share = 0.0;
  }
}

GofReport StreamSession::StepGof(const StepConditions& conditions) {
  GofReport report;
  if (done()) {
    report.done = true;
    return report;
  }
  platform_.SetEndogenousContention(conditions.level);
  platform_.set_thermal_scale(conditions.thermal_scale);
  double gpu_cal = AnalyticGpuCal(conditions.level) * conditions.thermal_scale;
  const BranchSpace& space = *models_->space;

  size_t fault_mark = faults_.accounting().failures.size();
  faults_.BeginGof(t_);
  // Device-wide intervals are shared state; the service passes the covering
  // interval indices in, and the session books them like its own.
  faults_.NoteServiceBurst(conditions.burst_index, t_);
  faults_.NoteServiceRamp(conditions.ramp_index, t_);
  faults_.NoteServiceDenial(conditions.denial_index, t_);
  // The GPU can be unavailable to this session for two reasons: a device-wide
  // denial interval (denial_index >= 0, booked into the denial accounting) or
  // a pressure-ladder demotion onto the CPU family (not a fault — only the
  // demote/restore events record it).
  const bool denied = !conditions.gpu_available;
  const bool device_denied = conditions.denial_index >= 0;

  if (!preheated_) {
    // Preheat probe (paper footnote 6): one cheap detector invocation on the
    // first frame, not charged to latency, seeding the object statistics the
    // light features start from. Calibration needs no measurement here — in
    // serving mode the contention level is known exactly from the ledger.
    DetectorConfig probe{320, 10};
    anchor_ = DetectorSim::Detect(video_, 0, probe, DetectorQuality{},
                                  HashKeys({request_.video.seed, 0x94e47ull}));
    preheated_ = true;
  }

  if (conditions.coast && CanCoast()) {
    // The pressure ladder shed this stream's detector load for the round:
    // tracker-only GoF on the current branch, no scheduler pass.
    report.frame = t_;
    ++coasted_rounds_;
    CoastGof(report, 0.0);
    if (report.done && report.gof_length == 0) {
      return report;  // nothing trackable remained
    }
    FinishGof(report, fault_mark, /*coasted=*/true);
    if (device_denied) {
      faults_.RecordDeniedGof(/*cpu_fallback=*/false);
    }
    return report;
  }

  if (denied && !has_cpu_family_ && CanCoast()) {
    // Device-wide denial and no CPU family in the space: nothing is
    // schedulable, so the only degradation left is tracker-only coasting —
    // the pre-CPU-family behaviour.
    report.frame = t_;
    CoastGof(report, 0.0);
    if (report.done && report.gof_length == 0) {
      return report;
    }
    FinishGof(report, fault_mark, /*coasted=*/true);
    if (device_denied) {
      faults_.RecordDeniedGof(/*cpu_fallback=*/false);
    }
    return report;
  }
  // Mask GPU branches only when the demotion target exists; a stream with no
  // prior outputs (nothing to coast from) runs its first GoF regardless.
  const bool mask_gpu = denied && has_cpu_family_;

  SchedulerDecision decision;
  if (forced_) {
    // Per-class watchdog fallback: ride the cheapest branch (priced at this
    // round's level) until a clean GoF clears the streak. During a denial the
    // cheapest available branch is the cheapest CPU branch.
    decision.branch_index = CheapestBranchIndex(space.size(), [&](size_t b) {
      if (mask_gpu && !space.at(b).detector.cpu) {
        return std::numeric_limits<double>::infinity();
      }
      return platform_.BranchFrameMs(space.at(b), kFallbackObjectCount);
    });
    report.forced = true;
    ++forced_gofs_;
  } else {
    DecisionContext ctx;
    ctx.video = &video_;
    ctx.frame = t_;
    ctx.anchor_detections = &anchor_;
    ctx.current_branch = current_;
    ctx.slo_ms = request_.slo_ms;
    ctx.frames_remaining = video_.frame_count() - t_;
    ctx.gpu_cal = gpu_cal;
    ctx.cpu_cal = conditions.thermal_scale;
    ctx.budget_ms = conditions.budget_ms;
    ctx.gpu_available = !mask_gpu;
    decision = scheduler_.Decide(ctx);
  }
  report.frame = t_;
  report.infeasible = decision.infeasible;
  if (decision.infeasible) {
    ++infeasible_gofs_;
  }

  // detlint: stream-stable(the decision trace is a pure function of seeds+config and rng_ is session-private, stepped serially per GoF, so the tail branch replays identical draw counts)
  if (decision.infeasible && current_.has_value() &&
      video_.frame_count() - t_ <= kTailFrames && t_ > 0) {
    // Tail continuation: too few frames remain to amortize another detector
    // pass; coast on the tracker from the last emitted anchor.
    const Branch& cur_branch = space.at(*current_);
    TrackerConfig tail_tracker = CoastTracker(cur_branch);
    std::vector<DetectionList> tail = ExecutionKernel::TrackOnly(
        video_, t_, video_.frame_count() - t_, tail_tracker, last_frame_,
        request_.video.seed);
    if (tail.empty()) {
      report.done = true;
      t_ = video_.frame_count();
      return report;
    }
    int tracked = CountConfident(last_frame_);
    double track_total = 0.0;
    for (size_t i = 0; i < tail.size(); ++i) {
      track_total += platform_.Sample(
          platform_.TrackerMs(tail_tracker, tracked), rng_);
    }
    double len = static_cast<double>(tail.size());
    report.branch = *current_;
    report.gof_length = static_cast<int>(len);
    report.frame_ms = track_total / len;
    report.tail = true;
    report.gpu_share = 0.0;  // no detector invocation: the GPU is free
    report.missed = report.frame_ms > request_.slo_ms;
    anchor_ = tail.back();
    EmitFrames(std::move(tail));
  } else {  // detlint: stream-stable(branch choice, switch decision, and tracker use all derive from the deterministic per-session trace; rng_ never crosses sessions or threads)
    const Branch& branch = space.at(decision.branch_index);
    // Resolve the GoF's detector invocation against the fault plan before
    // committing to a switch: a coasted GoF stays on the current branch.
    FaultRuntime::DetectorOutcome outcome = faults_.ResolveDetector(
        t_, platform_.DetectorMs(branch.detector), CanCoast());
    if (outcome.coast) {
      // Coast mode: the detector is down (or the capture dropped); extend
      // tracking from the last emitted outputs and mark the frames degraded.
      CoastGof(report, outcome.penalty_ms);
      if (report.done && report.gof_length == 0) {
        return report;
      }
      FinishGof(report, fault_mark, /*coasted=*/true);
      if (device_denied) {
        faults_.RecordDeniedGof(/*cpu_fallback=*/false);
      }
      return report;
    }
    double switch_sample = 0.0;
    if (current_.has_value() && *current_ != decision.branch_index) {
      switch_sample = switching_->OnlineCostMs(space.at(*current_), branch,
                                               switch_count_, rng_);
      ++switch_count_;
      report.switched = true;
    }
    int length = std::min(branch.gof, video_.frame_count() - t_);
    length = std::max(length, 1);
    DetectionList anchor_dets =
        ExecutionKernel::DetectAnchor(video_, t_, branch, request_.video.seed);
    double det_sample =
        platform_.Sample(platform_.DetectorMs(branch.detector), rng_) *
        outcome.outlier_scale;
    double track_total = 0.0;
    std::vector<DetectionList> tracked_frames;
    if (branch.has_tracker && length > 1) {
      tracked_frames = ExecutionKernel::TrackRemainder(
          video_, t_, branch, anchor_dets, request_.video.seed);
      int tracked = CountConfident(anchor_dets);
      for (size_t i = 0; i < tracked_frames.size(); ++i) {
        track_total += platform_.Sample(
            platform_.TrackerMs(branch.tracker, tracked), rng_);
      }
    }
    double len = static_cast<double>(1 + tracked_frames.size());
    double gof_total =
        det_sample + track_total + switch_sample + outcome.penalty_ms;
    if (scheduler_.config().charge_feature_overhead) {
      gof_total += decision.scheduler_cost_ms;
    }
    report.branch = decision.branch_index;
    report.cpu_fallback = branch.detector.cpu;
    report.gof_length = static_cast<int>(len);
    report.frame_ms = gof_total / len;
    report.scheduler_ms = decision.scheduler_cost_ms;
    report.switch_ms = switch_sample;
    report.predicted_accuracy = decision.predicted_accuracy;
    report.predicted_frame_ms = decision.predicted_frame_ms;
    report.missed = report.frame_ms > request_.slo_ms;
    // Posted occupancy: the profiled (zero-contention) detector time per
    // capture interval. Inflated time is waiting, not occupancy, so the share
    // uses the uncalibrated profile. A CPU-family detector leaves the GPU
    // untouched — it posts no occupancy at all.
    report.gpu_share =
        branch.detector.cpu
            ? 0.0
            : std::clamp(models_->latency.DetectorMs(decision.branch_index) /
                             (len * FrameIntervalMs()),
                         0.0, 1.0);
    anchor_ = anchor_dets;
    std::vector<DetectionList> emitted;
    emitted.reserve(tracked_frames.size() + 1);
    emitted.push_back(std::move(anchor_dets));
    for (DetectionList& frame : tracked_frames) {
      emitted.push_back(std::move(frame));
    }
    EmitFrames(std::move(emitted));
    current_ = decision.branch_index;
  }

  FinishGof(report, fault_mark, /*coasted=*/false);
  if (device_denied) {
    faults_.RecordDeniedGof(report.cpu_fallback);
  }
  return report;
}

}  // namespace litereconfig
