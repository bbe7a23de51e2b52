#include "src/pipeline/litereconfig_protocol.h"

#include <algorithm>
#include <cassert>

#include "src/features/light.h"
#include "src/sched/cost_table.h"
#include "src/sched/drift.h"

namespace litereconfig {

namespace {

// After a content-drift re-anchor, the accuracy blend trusts the heavy
// content-aware models more than the stale light-only baseline.
constexpr double kReanchoredHeavyBlend = 0.75;
// Clamp on the drift-driven CPU recalibration multiplier.
constexpr double kCpuCalFloor = 0.25;
constexpr double kCpuCalCeil = 4.0;

}  // namespace

LiteReconfigProtocol::LiteReconfigProtocol(const TrainedModels* models,
                                           SchedulerConfig config, std::string name)
    : models_(models), scheduler_(models, config), name_(std::move(name)) {
  assert(models_ != nullptr);
}

SchedulerConfig LiteReconfigProtocol::FullConfig() { return SchedulerConfig{}; }

SchedulerConfig LiteReconfigProtocol::MinCostConfig() {
  SchedulerConfig config;
  config.mode = LiteReconfigMode::kMinCost;
  return config;
}

SchedulerConfig LiteReconfigProtocol::MaxContentConfig(FeatureKind feature) {
  SchedulerConfig config;
  config.mode = LiteReconfigMode::kForceFeature;
  config.forced_feature = feature;
  return config;
}

SchedulerConfig LiteReconfigProtocol::ForcedFeatureConfig(FeatureKind feature) {
  SchedulerConfig config;
  config.mode = LiteReconfigMode::kForceFeature;
  config.forced_feature = feature;
  config.charge_feature_overhead = false;
  return config;
}

void LiteReconfigProtocol::TraceEvent(std::string_view event, uint64_t video_seed,
                                      int frame, std::string_view id) const {
  if (trace_ == nullptr) {
    return;
  }
  DecisionRecord record;
  record.event = std::string(event);
  record.video_seed = video_seed;
  record.frame = frame;
  record.branch_id = std::string(id);
  trace_->Write(record);
}

VideoRunStats LiteReconfigProtocol::RunVideo(const SyntheticVideo& video,
                                             const RunEnv& env) {
  const BranchSpace& space = *models_->space;
  const uint64_t seed = video.spec().seed;
  VideoRunStats stats;
  const PhaseClockFn now = env.now_us;
  const double run_t0 = now != nullptr ? now() : 0.0;
  // Every frame slot is preallocated so GoF outputs are written in place:
  // slots [0, t) hold the emitted frames.
  stats.frames.resize(static_cast<size_t>(video.frame_count()));
  // One cost table per stream, rebuilt in place by every decision (it keeps
  // its switch-cost row while the current branch holds).
  DecisionCostTable table;
  // Branches that ran a detector GoF; their ids are formatted once, at the end.
  std::vector<bool> used(space.size(), false);
  GofExecutor exec =
      OfflineExecutor(video, env, HashKeys({seed, env.run_salt, 0x117e2ull}), &space);
  FaultRuntime& faults = exec.faults();
  // Online latency calibration (observed/profiled EWMA). Local to the video:
  // each stream re-measures contention during its own preheat, which keeps
  // per-video runs independent (the parallel runner's determinism contract).
  GpuCalibration gpu_cal(scheduler_.config().use_contention_calibration);
  double cpu_cal = 1.0;
  bool charge_overhead = scheduler_.config().charge_feature_overhead;
  // Predictive robustness (env.predictive): forecast the next GoF's residual
  // contention, stage degradation by headroom instead of the binary fallback,
  // and close the drift loop (recalibrate / re-anchor). Engaged only when
  // faults are injected with the degradation path armed, so the no-fault run
  // is numerically identical to the non-predictive one.
  bool predictive = env.predictive && env.degrade && faults.active();
  DriftMonitor drift;
  double heavy_blend = 0.5;
  // Measured CPU-side calibration (observed / profiled tracker time EWMA).
  // Only *applied* to cpu_cal when the drift monitor flags sustained latency
  // drift: the measurement is always roughly right (so a spurious trigger is
  // harmless), but folding it in continuously would perturb the no-drift
  // scheduling behaviour this runtime must preserve.
  double cpu_ratio = 1.0;
  LatencyModel profiled_platform(models_->device, 0.0);
  // Watchdog fallback target: the lowest-latency end of the Pareto frontier
  // (the same shared scan the scheduler's degradation target uses).
  size_t cheapest_branch = 0;
  // GPU-denied intervals: with a CPU-only family in the space, scheduled CPU
  // detection replaces tracker-only coasting. Denied GoFs never take the
  // watchdog fallback — the masked scheduler prices on the CPU clock, which
  // contention cannot skew — so no cheapest-CPU shortcut is kept. (A
  // post-miss cheapest-CPU stretch was tried and rejected: the long GoF at
  // the drift-floor accuracy factor costs several mAP points per schedule
  // while removing at most one miss.)
  const bool has_cpu_family =
      std::any_of(space.branches().begin(), space.branches().end(),
                  [](const Branch& b) { return b.detector.cpu; });
  if (faults.active()) {
    cheapest_branch = CheapestBranchIndex(space.size(), [&](size_t b) {
      return env.platform->BranchFrameMs(space.at(b), kFallbackObjectCount);
    });
  }
  // Family-demotion edge tracking for the "demote"/"restore" trace events.
  bool in_cpu_fallback = false;
  // Preheat: the probe measures the current GPU contention and seeds the
  // object statistics the light features and tracker-cost predictions start
  // from. anchor_ref: the last anchor's detections — the probe's, then each
  // GoF anchor's stats.frames slot (the vector never reallocates mid-run).
  DetectionList preheat = exec.PreheatProbe(HashKeys({env.run_salt, 0x94e47ull}));
  gpu_cal.Preheat(exec, models_->device);
  const DetectionList* anchor_ref = &preheat;
  int t = 0;
  // Clips a span starting at t to the GPU-denied interval covering t: a
  // denied GoF ends at the interval boundary so the next decision re-plans
  // with the GPU back.
  auto denial_clip = [&](int span) {
    int denial_left = faults.DenialEndAt(t) - t;
    return denial_left > 0 ? std::min(span, denial_left) : span;
  };
  // Traces the failures booked since `first` as "fault" events, or only the
  // GPU-denial ones.
  auto trace_faults = [&](size_t first, bool denials_only = false) {
    const std::vector<FailureReport>& failures = faults.accounting().failures;
    for (size_t i = first; i < failures.size(); ++i) {
      if (!denials_only || failures[i].kind == FailureKind::kGpuDenied) {
        TraceEvent("fault", seed, failures[i].frame, FailureKindName(failures[i].kind));
      }
    }
  };
  while (t < video.frame_count()) {
    size_t begin_mark = faults.accounting().failures.size();
    exec.BeginGof(t);
    // BeginGof books interval-entry failures before fault_mark, so the main
    // trace_faults pass never sees them. Denial entries are traced here (the
    // summary tool keys its denial report on them); burst/ramp entries keep
    // their pre-existing trace behaviour so non-denial traces stay
    // byte-identical.
    trace_faults(begin_mark, /*denials_only=*/true);
    size_t fault_mark = faults.accounting().failures.size();
    // GPU-denied interval covering this GoF's anchor frame. With a CPU family
    // in the space the scheduler is re-run under the availability mask (GPU
    // branches price +inf) and the GoF is clipped to the interval end so the
    // runtime re-plans — and resumes GPU branches — the moment the GPU comes
    // back. Without a CPU family the only degradation left is coasting.
    bool denied = faults.active() && faults.GpuDeniedAt(t);
    SchedulerDecision decision;
    bool forecast_planned = false;
    bool replan_early = false;
    // Staged policy on top of the reactive fallback: the watchdog fallback
    // stays exactly as conservative as before (cheapest branch until clean),
    // but (a) while the estimator tracks a live burst and the runtime is NOT
    // yet in fallback, the decision is priced at the forecast contention and
    // prefers headroom — absorbing the burst before it ever causes the miss
    // that would arm the fallback; and (b) when the burst is forecast to end,
    // the scheduler re-plans one GoF early instead of waiting for a clean GoF,
    // still priced at the burst level as the safety margin.
    const ContentionEstimator& estimator = gpu_cal.estimator();
    if (predictive) {
      replan_early = faults.InFallback() && estimator.BurstEndingSoon();
    }
    if (faults.InFallback() && !replan_early && !(denied && has_cpu_family)) {
      // Watchdog fallback: skip the full scheduler pass and run the cheapest
      // branch until a clean GoF clears the fault, then re-plan. The fallback
      // exists because GPU pricing is unreliable mid-burst; a denied GoF with
      // a CPU family does NOT take it — the masked scheduler prices on the
      // CPU clock, which contention cannot skew, and the full pass picks a
      // refresh cadence instead of stretching the cheapest (longest-GoF) CPU
      // branch across the window.
      decision.branch_index = cheapest_branch;
    } else {
      ScopedPhase decide_phase(now, &stats.phases.decide_us);
      DecisionContext ctx;
      ctx.video = &video;
      ctx.frame = t;
      ctx.anchor_detections = anchor_ref;
      ctx.current_branch = exec.current();
      ctx.slo_ms = env.slo_ms;
      ctx.frames_remaining = video.frame_count() - t;
      ctx.gpu_cal = gpu_cal.value();
      ctx.cpu_cal = cpu_cal;
      if (denied && has_cpu_family) {
        ctx.gpu_available = false;
        // Clip the plan to the denial interval so the amortization is priced
        // over the frames the CPU branch will actually run, and the next
        // decision lands exactly at the re-entry frame.
        ctx.frames_remaining = denial_clip(ctx.frames_remaining);
      }
      if (predictive) {
        ctx.heavy_blend = heavy_blend;
        if (estimator.in_burst()) {
          ctx.gpu_cal = gpu_cal.value() * estimator.ForecastScale();
          ctx.prefer_headroom = true;
          forecast_planned = true;
          if (replan_early) {
            faults.RecordPreemptiveReplan();
          }
        }
      }
      decision = scheduler_.Decide(ctx, table);
      ++stats.phases.decisions;
      ++stats.phases.table_builds;
    }
    // Frames [0, t) are emitted, so t > 0 means frames exist.
    bool have_frames = t > 0;
    if (decision.infeasible && exec.current().has_value() &&
        video.frame_count() - t <= kTailFrames && have_frames) {
      // Tail continuation: no detector pass fits the remaining frames; keep
      // tracking from the last emitted outputs (slot t-1) into the slots from
      // t on.
      {
        ScopedPhase track_phase(now, &stats.phases.track_us);
        exec.Track(t, video.frame_count() - t, CoastTracker(space.at(*exec.current())),
                   stats.frames[t - 1], stats.frames.data() + t);
      }
      const GofSamples& tail = exec.samples();
      stats.tracker_ms += tail.tracker_ms;
      exec.Book(tail.tracker_ms / static_cast<double>(tail.length),
                /*coasted=*/false);
      trace_faults(fault_mark);
      t += tail.length;
      continue;
    }
    const Branch& branch = space.at(decision.branch_index);

    // Resolve the GoF's detector invocation against the fault plan before
    // committing to a switch: a coasted GoF stays on the current branch.
    double det_mean = exec.platform().DetectorMs(branch.detector);
    FaultRuntime::DetectorOutcome outcome =
        faults.ResolveDetector(t, det_mean, have_frames);
    // A denial with no CPU family leaves nothing schedulable: coast exactly as
    // for a detector crash (the pre-CPU-family behaviour).
    if (denied && !has_cpu_family && have_frames) {
      outcome.coast = true;
    }
    // Denial-window tail: too few denied frames remain to amortize any CPU
    // anchor (the masked decision is infeasible), so paying the anchor would
    // be a guaranteed deadline miss. Coast to the interval boundary instead;
    // the next decision lands at re-entry with the GPU back.
    if (denied && has_cpu_family && decision.infeasible && have_frames) {
      outcome.coast = true;
    }
    if (outcome.coast) {
      // Coast mode: the detector is down (or the capture dropped); extend
      // tracking from the last emitted outputs and mark the frames degraded.
      // Every coast needs have_frames, and the first GoF always runs a
      // detector, so a branch is current.
      const Branch& coast_branch = space.at(*exec.current());
      int length = std::min(coast_branch.has_tracker ? coast_branch.gof : branch.gof,
                            video.frame_count() - t);
      if (denied && has_cpu_family) {
        // Coasting a denial tail must stop at the interval boundary so the
        // re-entry decision runs with the GPU back.
        length = denial_clip(length);
      }
      {
        ScopedPhase track_phase(now, &stats.phases.track_us);
        exec.Track(t, length, CoastTracker(coast_branch),
                   stats.frames[t - 1], stats.frames.data() + t);
      }
      const GofSamples& coast = exec.samples();
      stats.tracker_ms += coast.tracker_ms;
      exec.Book((coast.tracker_ms + outcome.penalty_ms) /
                    static_cast<double>(coast.length),
                /*coasted=*/true);
      if (denied) {
        faults.RecordDeniedGof(/*cpu_fallback=*/false);
      }
      trace_faults(fault_mark);
      t += coast.length;
      continue;
    }

    exec.SwitchTo(decision.branch_index);
    // The anchor half of the GoF runs now (the decision and latency accounting
    // below need only the anchor detections and the frame count); the tracker
    // half runs once the GoF is accounted.
    int length = std::min(branch.gof, video.frame_count() - t);
    if (denied && has_cpu_family) {
      // Run the CPU family only as long as the denial holds.
      length = denial_clip(length);
    }
    DetectionList* gof_frames = stats.frames.data() + t;
    {
      ScopedPhase detect_phase(now, &stats.phases.detect_us);
      exec.Detect(t, branch, length, det_mean, outcome.outlier_scale, gof_frames);
    }
    const GofSamples& drawn = exec.samples();
    const DetectionList& anchor_dets = gof_frames[0];
    // Online contention calibration against the zero-contention profile. With
    // the watchdog armed, a one-off outlier is discarded from calibration so a
    // single stall cannot poison the latency predictions.
    double cal_sample = env.degrade ? drawn.detector_nominal_ms : drawn.detector_ms;
    double gpu_cal_at_decision = gpu_cal.value();
    // A CPU-family anchor observes the CPU clock: its observed/profiled ratio
    // says nothing about GPU contention, so it must not feed the GPU
    // calibration EWMA or the burst estimator (the default space has no CPU
    // branches, so the no-family path is unchanged).
    if (!branch.detector.cpu) {
      gpu_cal.Observe(models_->latency.DetectorMs(decision.branch_index), cal_sample,
                      predictive);
    }
    if (predictive && branch.has_tracker && length > 1) {
      double profiled_track =
          profiled_platform.TrackerMs(branch.tracker, CountConfident(anchor_dets)) *
          static_cast<double>(length - 1);
      if (profiled_track > 0.0) {
        cpu_ratio = CalibrationStep(cpu_ratio, drawn.tracker_ms / profiled_track);
      }
    }
    double len = static_cast<double>(length);
    stats.detector_ms += drawn.detector_ms + outcome.penalty_ms;
    stats.tracker_ms += drawn.tracker_ms;
    stats.scheduler_ms += decision.scheduler_cost_ms;
    stats.switch_ms += drawn.switch_ms;
    double gof_total =
        drawn.detector_ms + drawn.tracker_ms + drawn.switch_ms + outcome.penalty_ms;
    if (charge_overhead) {
      gof_total += decision.scheduler_cost_ms;
    }
    used[decision.branch_index] = true;
    double observed_frame_ms = gof_total / len;
    bool missed = exec.Book(observed_frame_ms, /*coasted=*/false, forecast_planned);
    if (denied) {
      faults.RecordDeniedGof(/*cpu_fallback=*/branch.detector.cpu);
    }
    // Family-demotion edges: one "demote" when a denial first pushes the
    // runtime onto the CPU family, one "restore" on the first GPU-backed GoF
    // after it.
    if (branch.detector.cpu != in_cpu_fallback) {
      in_cpu_fallback = branch.detector.cpu;
      TraceEvent(in_cpu_fallback ? "demote" : "restore", seed, t, branch.Id());
    }
    if (replan_early) {
      TraceEvent("replan", seed, t, branch.Id());
    }
    if (trace_ != nullptr) {
      DecisionRecord record;
      record.video_seed = seed;
      record.frame = t;
      record.branch_id = branch.Id();
      for (FeatureKind kind : decision.heavy_features) {
        record.features.emplace_back(FeatureName(kind));
      }
      record.predicted_accuracy = decision.predicted_accuracy;
      record.predicted_frame_ms = decision.predicted_frame_ms;
      record.scheduler_cost_ms = decision.scheduler_cost_ms;
      record.switch_cost_ms = drawn.switch_ms;
      record.actual_frame_ms = observed_frame_ms;
      record.gof_length = length;
      record.switched = drawn.switch_ms > 0.0;
      record.infeasible = decision.infeasible;
      record.missed = missed;
      record.gpu_cal = gpu_cal.value();
      trace_->Write(record);
    }
    trace_faults(fault_mark);
    if (predictive) {
      // Slow loop: the drift monitor compares the decision-time nominal
      // prediction (branch cost + the amortized scheduler/switch overheads it
      // cannot predict away) against the realized per-frame latency. The
      // scheduler already computed the light features this prediction needs
      // (SchedulerDecision carries them out); only the watchdog-fallback path,
      // which skips the scheduler, recomputes them here.
      std::vector<double> fallback_light;
      if (decision.light_features.empty()) {
        fallback_light = ComputeLightFeatures(video.spec().width,
                                              video.spec().height, *anchor_ref);
      }
      const std::vector<double>& light = decision.light_features.empty()
                                             ? fallback_light
                                             : decision.light_features;
      double reference_ms = models_->latency.PredictFrameMs(
          decision.branch_index, light, gpu_cal_at_decision, cpu_cal);
      reference_ms +=
          ((charge_overhead ? decision.scheduler_cost_ms : 0.0) + drawn.switch_ms) /
          len;
      drift.ObserveLatency(reference_ms, observed_frame_ms);
      drift.ObserveDetections(anchor_dets);
      DriftStatus status = drift.Check();
      if (status.latency_drift) {
        // Sustained bias that survived the GPU calibration loop: the residual
        // lives on the CPU side (thermal throttling slows the whole SoC, but
        // the contention EWMA only tracks the detector). Recalibrate cpu_cal
        // to the *measured* tracker ratio — not the inferred bias, so a
        // trigger caused by GPU outliers simply re-asserts the measurement —
        // and restart the drift window from the recalibrated regime.
        cpu_cal = std::clamp(cpu_ratio, kCpuCalFloor, kCpuCalCeil);
        drift.Rebaseline();
        faults.RecordRecalibration();
        TraceEvent("recalibrate", seed, t, "latency");
      } else if (status.content_drift) {
        // Content regime changed relative to the anchor window: trust the
        // content-aware accuracy models more than the stale light-only prior.
        heavy_blend = kReanchoredHeavyBlend;
        drift.Rebaseline();
        faults.RecordReanchor();
        TraceEvent("reanchor", seed, t, "content");
      }
    }
    // The tracker half of this GoF: the anchor sits in its slot and the
    // tracked frames follow it in place.
    anchor_ref = gof_frames;
    ++stats.phases.gofs;
    {
      ScopedPhase track_phase(now, &stats.phases.track_us);
      exec.TrackRemainder(t, branch, length, gof_frames);
    }
    t += length;
  }
  stats.phases.switch_row_reuses += table.switch_row_reuses();
  for (size_t b = 0; b < used.size(); ++b) {
    if (used[b]) {
      stats.branches_used.insert(space.at(b).Id());
    }
  }
  TakeBooks(exec, stats);
  if (now != nullptr) {
    stats.phases.run_us += now() - run_t0;
  }
  return stats;
}

}  // namespace litereconfig
