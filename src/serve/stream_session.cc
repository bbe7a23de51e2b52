#include "src/serve/stream_session.h"

#include <algorithm>
#include <limits>

#include "src/features/light.h"

namespace litereconfig {

namespace {

// Builds the session's fault runtime: only the spec's stateless point faults
// are materialized here (device-wide intervals live in the service's shared
// device plan); the runtime is engaged anyway so interval faults the
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
      exec_(video_, LatencyModel(models->device, 0.0),
            MakeSessionFaults(faults, request, video_.frame_count(),
                              1000.0 / request.video.fps),
            HashKeys({request.video.seed, service_salt, 0x5e55ull}),
            request.video.seed, request.slo_ms, models->space, switching),
      has_cpu_family_(std::any_of(models->space->branches().begin(),
                                  models->space->branches().end(),
                                  [](const Branch& b) { return b.detector.cpu; })),
      effective_class_(request.slo_class) {}

double StreamSession::SloLimit() const {
  return request_.slo_ms * kSloMargin;
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
                                              bool gpu_available) {
  DecisionContext ctx;
  ctx.video = &video_;
  ctx.frame = t_;
  ctx.anchor_detections = &anchor_;
  ctx.current_branch = exec_.current();
  ctx.slo_ms = request_.slo_ms;
  ctx.frames_remaining = video_.frame_count() - t_;
  // Thermal drift slows the whole SoC, so it inflates both calibrations.
  ctx.gpu_cal = AnalyticGpuCal(level) * thermal_scale;
  ctx.cpu_cal = thermal_scale;
  ctx.gpu_available = gpu_available;
  std::vector<double> light = ComputeLightFeatures(
      video_.spec().width, video_.spec().height, anchor_);
  return BuildBranchMenu(*models_, scheduler_.config(), ctx, light, table_);
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
  // Only streams that CanCoast() are priced, so a branch is current.
  TrackerConfig tracker = CoastTracker(models_->space->at(*exec_.current()));
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
  exec_.faults().RecordServiceFault(FailureKind::kEvicted, t_,
                                   /*recovered=*/false);
}

void StreamSession::EmitFrames(int count) {
  last_frame_ = window_[count - 1];
  for (int i = 0; i < count; ++i) {
    video_.frame(t_).VisibleGroundTruth(truth_);
    eval_.AddFrame(truth_, window_[i]);
    ++t_;
  }
}

void StreamSession::TrackGof(GofReport& report, int length, double penalty_ms) {
  report.branch = *exec_.current();
  window_.resize(std::max(window_.size(), static_cast<size_t>(length)));
  exec_.Track(t_, length, CoastTracker(models_->space->at(report.branch)),
              last_frame_, window_.data());
  const GofSamples& drawn = exec_.samples();
  report.gof_length = drawn.length;
  report.frame_ms = (drawn.tracker_ms + penalty_ms) / static_cast<double>(drawn.length);
  report.gpu_share = 0.0;  // no detector invocation: the GPU is free
  anchor_ = window_[drawn.length - 1];
  EmitFrames(drawn.length);
}

void StreamSession::FinishGof(GofReport& report, size_t fault_mark,
                              bool coasted, bool device_denied) {
  report.coasted = coasted;
  // The watchdog's forced-fallback entry/exit rides the same recovery-episode
  // accounting the single-tenant FaultRuntime keeps: a missed GoF opens an
  // episode, a clean one closes it, so serve and single-stream robustness
  // metrics are comparable.
  report.missed = exec_.Book(report.frame_ms, coasted);
  if (report.missed) {
    ++miss_streak_;
    int tolerance = SloClassMissTolerance(effective_class_);
    if (!forced_ && miss_streak_ >= tolerance) {
      forced_ = true;
    }
  } else {
    miss_streak_ = 0;
    forced_ = false;
  }
  const std::vector<FailureReport>& failures = fault_accounting().failures;
  report.faults.assign(failures.begin() + static_cast<std::ptrdiff_t>(fault_mark),
                       failures.end());
  if (device_denied) {
    exec_.faults().RecordDeniedGof(report.cpu_fallback);
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
  FaultRuntime& faults = exec_.faults();
  size_t fault_mark = faults.accounting().failures.size();
  exec_.BeginGof(t_);
  // The round's frozen device state. It must be set after BeginGof, which
  // writes the level and thermal scale of the session's own plan (no
  // intervals) whenever the session has faults.
  LatencyModel& platform = exec_.platform();
  platform.set_contention_level(conditions.level);
  platform.set_thermal_scale(conditions.thermal_scale);
  double gpu_cal = AnalyticGpuCal(conditions.level) * conditions.thermal_scale;
  const BranchSpace& space = *models_->space;
  // Device-wide intervals are shared state; the service passes the covering
  // interval indices in, and the session books them like its own.
  for (int k = 0; k < kNumIntervalKinds; ++k) {
    faults.EnterInterval(static_cast<IntervalKind>(k),
                         conditions.interval_index[static_cast<size_t>(k)], t_);
  }
  // The GPU can be unavailable to this session for two reasons: a device-wide
  // denial interval (booked into the denial accounting) or a pressure-ladder
  // demotion onto the CPU family (not a fault — only the demote/restore events
  // record it).
  const bool denied = !conditions.gpu_available;
  const bool device_denied =
      conditions.interval_index[static_cast<size_t>(IntervalKind::kDenial)] >= 0;
  report.frame = t_;

  if (!preheated_) {
    // Preheat probe: seeds the object statistics the light features start
    // from. Calibration needs no measurement here — in serving mode the
    // contention level is known exactly from the ledger.
    anchor_ = exec_.PreheatProbe(HashKeys({request_.video.seed, 0x94e47ull}));
    preheated_ = true;
  }

  // A coasted round: one tracker-only GoF on the current branch from the
  // last emitted outputs, its frames marked degraded. Every branch's GoF is
  // at least 1 frame.
  auto coast = [&](double penalty_ms) {
    TrackGof(report,
             std::min(space.at(*exec_.current()).gof, video_.frame_count() - t_),
             penalty_ms);
    FinishGof(report, fault_mark, /*coasted=*/true, device_denied);
  };
  // No scheduler pass when the pressure ladder shed this stream's detector
  // load for the round, or a device-wide denial left nothing schedulable (no
  // CPU family in the space — the pre-CPU-family behaviour).
  if (CanCoast() && (conditions.coast || (denied && !has_cpu_family_))) {
    coasted_rounds_ += conditions.coast ? 1 : 0;
    coast(0.0);
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
      return platform.BranchFrameMs(space.at(b), kFallbackObjectCount);
    });
    report.forced = true;
    ++forced_gofs_;
  } else {
    DecisionContext ctx;
    ctx.video = &video_;
    ctx.frame = t_;
    ctx.anchor_detections = &anchor_;
    ctx.current_branch = exec_.current();
    ctx.slo_ms = request_.slo_ms;
    ctx.frames_remaining = video_.frame_count() - t_;
    ctx.gpu_cal = gpu_cal;
    ctx.cpu_cal = conditions.thermal_scale;
    ctx.budget_ms = conditions.budget_ms;
    ctx.gpu_available = !mask_gpu;
    decision = scheduler_.Decide(ctx, table_);
  }
  report.infeasible = decision.infeasible;
  if (decision.infeasible) {
    ++infeasible_gofs_;
  }

  if (decision.infeasible && exec_.current().has_value() &&
      video_.frame_count() - t_ <= kTailFrames && t_ > 0) {
    // Tail continuation: too few frames remain to amortize another detector
    // pass; coast on the tracker from the last emitted anchor.
    TrackGof(report, video_.frame_count() - t_, 0.0);
    report.tail = true;
    FinishGof(report, fault_mark, /*coasted=*/false, device_denied);
    return report;
  }
  const Branch& branch = space.at(decision.branch_index);
  // Resolve the GoF's detector invocation against the fault plan before
  // committing to a switch: a coasted GoF stays on the current branch.
  double det_mean = platform.DetectorMs(branch.detector);
  FaultRuntime::DetectorOutcome outcome =
      faults.ResolveDetector(t_, det_mean, CanCoast());
  if (outcome.coast) {  // the detector is down or the capture dropped
    coast(outcome.penalty_ms);
    return report;
  }
  exec_.SwitchTo(decision.branch_index);
  int length = std::min(branch.gof, video_.frame_count() - t_);
  window_.resize(std::max(window_.size(), static_cast<size_t>(length)));
  exec_.Detect(t_, branch, length, det_mean, outcome.outlier_scale, window_.data());
  exec_.TrackRemainder(t_, branch, length, window_.data());
  const GofSamples& drawn = exec_.samples();
  double len = static_cast<double>(length);
  double gof_total =
      drawn.detector_ms + drawn.tracker_ms + drawn.switch_ms + outcome.penalty_ms;
  if (scheduler_.config().charge_feature_overhead) {
    gof_total += decision.scheduler_cost_ms;
  }
  report.branch = decision.branch_index;
  report.cpu_fallback = branch.detector.cpu;
  report.gof_length = length;
  report.frame_ms = gof_total / len;
  report.scheduler_ms = decision.scheduler_cost_ms;
  report.switch_ms = drawn.switch_ms;
  report.switched = drawn.switched;
  report.predicted_accuracy = decision.predicted_accuracy;
  report.predicted_frame_ms = decision.predicted_frame_ms;
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
  anchor_ = window_[0];
  EmitFrames(length);
  FinishGof(report, fault_mark, /*coasted=*/false, device_denied);
  return report;
}

}  // namespace litereconfig
