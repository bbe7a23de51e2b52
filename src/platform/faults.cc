#include "src/platform/faults.h"

#include <algorithm>
#include <cctype>
#include <string>

#include "src/util/rng.h"

namespace litereconfig {

namespace {

constexpr uint64_t kPlanSalt = 0xfa617ull;
constexpr uint64_t kBurstSalt = 0xb1257ull;
constexpr uint64_t kOutlierSalt = 0x0071e5ull;
constexpr uint64_t kFailureSalt = 0xdef41ull;
constexpr uint64_t kDropSalt = 0xd509ull;
constexpr uint64_t kRampSalt = 0x7412a9ull;
constexpr uint64_t kDenialSalt = 0xde4163ull;

std::string AsciiLower(std::string_view name) {
  std::string lower(name);
  for (char& c : lower) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower;
}

// The presets in their documented order (see the PresetNames declaration):
// escalating transient schedules, thermal, Xavier shapes, then GPU denial.
// Help and error text render exactly this sequence.
struct Preset {
  std::string_view name;
  FaultSpec (*make)();
};

constexpr Preset kPresets[] = {
    {"none", &FaultSpec::None},
    {"mild", &FaultSpec::Mild},
    {"moderate", &FaultSpec::Moderate},
    {"severe", &FaultSpec::Severe},
    {"ramp", &FaultSpec::Ramp},
    {"mild_xavier", &FaultSpec::MildXavier},
    {"severe_xavier", &FaultSpec::SevereXavier},
    {"gpu_denied", &FaultSpec::GpuDenied},
    {"denied_frequent", &FaultSpec::DeniedFrequent},
    {"denied_moderate", &FaultSpec::DeniedModerate},
    {"denied_severe", &FaultSpec::DeniedSevere},
};

// Per IntervalKind: the substream salt its start frames are drawn from, and
// the failure its entry is booked as.
constexpr uint64_t kIntervalSalt[kNumIntervalKinds] = {kBurstSalt, kRampSalt,
                                                       kDenialSalt};
constexpr FailureKind kIntervalFailure[kNumIntervalKinds] = {
    FailureKind::kContentionBurst, FailureKind::kThermalRamp,
    FailureKind::kGpuDenied};

}  // namespace

std::string_view FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kOom:
      return "oom";
    case FailureKind::kDetectorFault:
      return "detector_fault";
    case FailureKind::kFrameDrop:
      return "frame_drop";
    case FailureKind::kContentionBurst:
      return "contention_burst";
    case FailureKind::kLatencyOutlier:
      return "latency_outlier";
    case FailureKind::kThermalRamp:
      return "thermal_ramp";
    case FailureKind::kEvicted:
      return "evicted";
    case FailureKind::kGpuDenied:
      return "gpu_denied";
  }
  return "unknown";
}

bool FaultSpec::Any() const {
  return bursts_per_100_frames > 0.0 || outlier_prob > 0.0 ||
         detector_failure_prob > 0.0 || frame_drop_prob > 0.0 ||
         ramps_per_100_frames > 0.0 || denials_per_100_frames > 0.0;
}

FaultSpec FaultSpec::None() { return FaultSpec{}; }

FaultSpec FaultSpec::Mild() {
  FaultSpec spec;
  spec.bursts_per_100_frames = 0.6;
  spec.burst_level = 0.35;
  spec.burst_frames = 24;
  spec.outlier_prob = 0.02;
  spec.outlier_scale = 2.5;
  spec.detector_failure_prob = 0.01;
  spec.failure_persistence = 0.30;
  spec.frame_drop_prob = 0.005;
  return spec;
}

FaultSpec FaultSpec::Moderate() {
  FaultSpec spec;
  spec.bursts_per_100_frames = 1.2;
  spec.burst_level = 0.50;
  spec.burst_frames = 30;
  spec.outlier_prob = 0.05;
  spec.outlier_scale = 3.0;
  spec.detector_failure_prob = 0.04;
  spec.failure_persistence = 0.45;
  spec.frame_drop_prob = 0.015;
  return spec;
}

FaultSpec FaultSpec::Severe() {
  FaultSpec spec;
  spec.bursts_per_100_frames = 2.5;
  spec.burst_level = 0.65;
  spec.burst_frames = 40;
  spec.outlier_prob = 0.10;
  spec.outlier_scale = 4.0;
  spec.detector_failure_prob = 0.10;
  spec.failure_persistence = 0.60;
  spec.frame_drop_prob = 0.03;
  return spec;
}

FaultSpec FaultSpec::Ramp() {
  // Pure thermal drift: the device throttles mid-stream, every kernel (CPU and
  // GPU alike) slows toward the plateau factor, then cools down. A sprinkle of
  // latency outliers keeps the watchdog honest; no bursts, failures, or drops.
  FaultSpec spec;
  spec.ramps_per_100_frames = 1.5;
  spec.ramp_peak_scale = 1.5;
  spec.ramp_up_frames = 40;
  spec.ramp_plateau_frames = 80;
  spec.ramp_down_frames = 30;
  spec.outlier_prob = 0.02;
  spec.outlier_scale = 2.5;
  return spec;
}

FaultSpec FaultSpec::MildXavier() {
  // Xavier shape: shorter, more frequent contention bursts and heavier latency
  // outliers than the TX2 presets, plus gentle DVFS ramps.
  FaultSpec spec;
  spec.bursts_per_100_frames = 1.2;
  spec.burst_level = 0.40;
  spec.burst_frames = 16;
  spec.outlier_prob = 0.04;
  spec.outlier_scale = 3.5;
  spec.detector_failure_prob = 0.01;
  spec.failure_persistence = 0.30;
  spec.frame_drop_prob = 0.005;
  spec.ramps_per_100_frames = 0.6;
  spec.ramp_peak_scale = 1.3;
  spec.ramp_up_frames = 40;
  spec.ramp_plateau_frames = 60;
  spec.ramp_down_frames = 30;
  return spec;
}

FaultSpec FaultSpec::SevereXavier() {
  FaultSpec spec;
  spec.bursts_per_100_frames = 3.0;
  spec.burst_level = 0.55;
  spec.burst_frames = 18;
  spec.outlier_prob = 0.12;
  spec.outlier_scale = 5.0;
  spec.detector_failure_prob = 0.08;
  spec.failure_persistence = 0.55;
  spec.frame_drop_prob = 0.02;
  spec.ramps_per_100_frames = 1.2;
  spec.ramp_peak_scale = 1.55;
  spec.ramp_up_frames = 30;
  spec.ramp_plateau_frames = 80;
  spec.ramp_down_frames = 30;
  return spec;
}

FaultSpec FaultSpec::GpuDenied() {
  // Pure total-GPU-loss schedule: seeded intervals with no GPU at all and no
  // other fault kind, isolating the denial story for benchmarks and tests.
  // Denials model sustained outages (driver crash, device preempted by
  // another tenant), not sub-second blips: a tracker coasts a short blip from
  // its last healthy anchor almost for free, so the window must be long
  // enough that extrapolation decay — not anchor quality — dominates.
  FaultSpec spec;
  spec.denials_per_100_frames = 0.8;
  spec.denial_frames = 100;
  return spec;
}

FaultSpec FaultSpec::DeniedFrequent() {
  // Second pure-denial shape: repeated long outages instead of a single one
  // (a tenant that keeps pre-empting the GPU, or a driver that crashes and
  // recovers). Each window must stay long enough that extrapolation decay —
  // not anchor quality — dominates: a medium (~50-frame) outage is coasted
  // nearly for free from its fresh pre-window anchor, and the CPU family's
  // accuracy discount loses to that (the coast-vs-family crossover sits near
  // 100 denied frames). No other fault kind, so the comparison stays
  // unconfounded by fault draws on the extra detector invocations.
  FaultSpec spec;
  spec.denials_per_100_frames = 1.0;
  spec.denial_frames = 120;
  return spec;
}

FaultSpec FaultSpec::DeniedModerate() {
  // Moderate transient faults plus occasional total GPU loss: the device both
  // misbehaves and, at intervals, disappears entirely.
  FaultSpec spec = Moderate();
  spec.denials_per_100_frames = 0.6;
  spec.denial_frames = 80;
  return spec;
}

FaultSpec FaultSpec::DeniedSevere() {
  FaultSpec spec = Severe();
  spec.denials_per_100_frames = 0.8;
  spec.denial_frames = 100;
  return spec;
}

std::optional<FaultSpec> FaultSpec::FromName(std::string_view name) {
  std::string lower = AsciiLower(name);
  for (const Preset& preset : kPresets) {
    if (lower == preset.name) {
      return preset.make();
    }
  }
  return std::nullopt;
}

const std::vector<std::string_view>& FaultSpec::PresetNames() {
  static const std::vector<std::string_view>* names = [] {
    auto* list = new std::vector<std::string_view>;
    for (const Preset& preset : kPresets) {
      list->push_back(preset.name);
    }
    return list;
  }();
  return *names;
}

FaultSpec FaultSpec::IntervalsOnly() const {
  FaultSpec spec = *this;
  spec.outlier_prob = 0.0;
  spec.detector_failure_prob = 0.0;
  spec.frame_drop_prob = 0.0;
  return spec;
}

FaultSpec FaultSpec::WithoutIntervals() const {
  FaultSpec spec = *this;
  spec.bursts_per_100_frames = 0.0;
  spec.ramps_per_100_frames = 0.0;
  // GPU denial is device-wide by nature: in the multi-tenant service it lives
  // in the shared device plan, never per stream.
  spec.denials_per_100_frames = 0.0;
  return spec;
}

std::string FaultPresetList() {
  std::string list;
  for (std::string_view preset : FaultSpec::PresetNames()) {
    if (!list.empty()) {
      list += " | ";
    }
    list += preset;
  }
  return list;
}

FaultPlan::FaultPlan(const FaultSpec& spec, uint64_t video_seed, int frame_count,
                     uint64_t fault_seed)
    : spec_(spec),
      seed_(HashKeys({video_seed, fault_seed, kPlanSalt})),
      active_(spec.Any()) {
  if (!active_) {
    return;
  }
  const double rates[kNumIntervalKinds] = {spec_.bursts_per_100_frames,
                                           spec_.ramps_per_100_frames,
                                           spec_.denials_per_100_frames};
  for (int k = 0; k < kNumIntervalKinds; ++k) {
    IntervalKind kind = static_cast<IntervalKind>(k);
    int length = Length(kind);
    bool enabled = rates[k] > 0.0 && length > 0 &&
                   (kind != IntervalKind::kRamp || spec_.ramp_peak_scale > 1.0);
    if (!enabled) {
      continue;
    }
    // Each kind is drawn from its own per-video substream and materialized up
    // front: the schedule depends only on the seeds, never on how the run
    // queries it. Intervals of one kind never overlap — a spike, a throttle
    // or an outage ends before the next one of its kind starts — but
    // different kinds do.
    Pcg32 rng(HashKeys({seed_, kIntervalSalt[k]}));
    double start_prob = std::min(1.0, rates[k] / 100.0);
    std::vector<int>& starts = starts_[static_cast<size_t>(k)];
    int frame = 0;
    while (frame < frame_count) {
      if (rng.Bernoulli(start_prob)) {
        starts.push_back(frame);
        frame += length;
      } else {
        ++frame;
      }
    }
  }
}

int FaultPlan::Length(IntervalKind kind) const {
  switch (kind) {
    case IntervalKind::kBurst:
      return spec_.burst_frames;
    case IntervalKind::kRamp:
      return spec_.ramp_up_frames + spec_.ramp_plateau_frames +
             spec_.ramp_down_frames;
    case IntervalKind::kDenial:
      return spec_.denial_frames;
  }
  return 0;
}

int FaultPlan::IndexAt(IntervalKind kind, int frame) const {
  // Starts ascend and intervals of a kind never overlap, so only the last
  // interval starting at or before `frame` can cover it.
  const std::vector<int>& kind_starts = starts(kind);
  auto after = std::upper_bound(kind_starts.begin(), kind_starts.end(), frame);
  if (after == kind_starts.begin() || frame >= *(after - 1) + Length(kind)) {
    return -1;
  }
  return static_cast<int>(after - kind_starts.begin()) - 1;
}

double FaultPlan::BurstLevelAt(int frame) const {
  return IndexAt(IntervalKind::kBurst, frame) < 0 ? 0.0 : spec_.burst_level;
}

double FaultPlan::ThermalScaleAt(int frame) const {
  int index = IndexAt(IntervalKind::kRamp, frame);
  if (index < 0) {
    return 1.0;
  }
  int offset = frame - starts(IntervalKind::kRamp)[static_cast<size_t>(index)];
  double peak = spec_.ramp_peak_scale;
  double rise = peak - 1.0;
  if (offset < spec_.ramp_up_frames) {
    // Heating: linear climb toward the throttled plateau.
    return 1.0 + rise * (static_cast<double>(offset) + 1.0) /
                     static_cast<double>(spec_.ramp_up_frames);
  }
  offset -= spec_.ramp_up_frames;
  if (offset < spec_.ramp_plateau_frames) {
    return peak;
  }
  offset -= spec_.ramp_plateau_frames;
  // Cool-down: linear fall back to nominal.
  return peak - rise * (static_cast<double>(offset) + 1.0) /
                    static_cast<double>(spec_.ramp_down_frames);
}

bool FaultPlan::GpuDeniedAt(int frame) const {
  return IndexAt(IntervalKind::kDenial, frame) >= 0;
}

int FaultPlan::DenialEndAt(int frame) const {
  int index = IndexAt(IntervalKind::kDenial, frame);
  if (index < 0) {
    return frame;
  }
  return starts(IntervalKind::kDenial)[static_cast<size_t>(index)] +
         Length(IntervalKind::kDenial);
}

double FaultPlan::DetectorOutlierScale(int frame) const {
  if (!active_ || spec_.outlier_prob <= 0.0) {
    return 1.0;
  }
  Pcg32 rng(HashKeys({seed_, static_cast<uint64_t>(frame), kOutlierSalt}));
  return rng.NextDouble() < spec_.outlier_prob ? spec_.outlier_scale : 1.0;
}

bool FaultPlan::DetectorFails(int frame, int attempt) const {
  if (!active_) {
    return false;
  }
  double p = attempt == 0 ? spec_.detector_failure_prob : spec_.failure_persistence;
  if (p <= 0.0) {
    return false;
  }
  Pcg32 rng(HashKeys({seed_, static_cast<uint64_t>(frame),
                      static_cast<uint64_t>(attempt), kFailureSalt}));
  return rng.NextDouble() < p;
}

bool FaultPlan::FrameDropped(int frame) const {
  if (!active_ || spec_.frame_drop_prob <= 0.0) {
    return false;
  }
  Pcg32 rng(HashKeys({seed_, static_cast<uint64_t>(frame), kDropSalt}));
  return rng.NextDouble() < spec_.frame_drop_prob;
}

FaultRuntime::FaultRuntime(const FaultSpec* spec, uint64_t video_seed,
                           int frame_count, uint64_t fault_seed, bool degrade,
                           double base_contention, double frame_interval_ms)
    : plan_(spec != nullptr ? FaultPlan(*spec, video_seed, frame_count, fault_seed)
                            : FaultPlan()),
      degrade_(degrade),
      base_contention_(base_contention),
      frame_interval_ms_(frame_interval_ms) {}

void FaultRuntime::Record(FailureKind kind, int frame, bool recovered,
                          bool in_gof) {
  ++acc_.faults_injected;
  if (in_gof) {
    ++gof_faults_;
  }
  FailureReport report;
  report.kind = kind;
  report.frame = frame;
  report.recovered = recovered;
  acc_.failures.push_back(report);
}

void FaultRuntime::EnterInterval(IntervalKind kind, int index, int frame) {
  int& last = last_entered_[static_cast<size_t>(kind)];
  if (index < 0 || index == last) {
    return;
  }
  last = index;
  // A denial interval is a deterministic availability mask, not an invocation
  // fault: record it for accounting and tracing, but do not count it toward
  // the GoF's fault tally — entering a window must not arm the watchdog
  // fallback, because CPU pricing under denial is reliable (the masked
  // scheduler prices on the CPU clock, which contention cannot skew).
  Record(kIntervalFailure[static_cast<size_t>(kind)], frame, /*recovered=*/true,
         /*in_gof=*/kind != IntervalKind::kDenial);
}

void FaultRuntime::RecordDeniedGof(bool cpu_fallback) {
  ++acc_.denied_gofs;
  if (cpu_fallback) {
    ++acc_.cpu_fallback_gofs;
  }
}

void FaultRuntime::BeginGof(int frame) {
  gof_faults_ = 0;
  if (!active()) {
    return;
  }
  for (int k = 0; k < kNumIntervalKinds; ++k) {
    IntervalKind kind = static_cast<IntervalKind>(k);
    EnterInterval(kind, plan_.IndexAt(kind, frame), frame);
  }
}

double FaultRuntime::ContentionAt(int frame) const {
  return base_contention_ + plan_.BurstLevelAt(frame);
}

double FaultRuntime::ThermalAt(int frame) const {
  return plan_.ThermalScaleAt(frame);
}

FaultRuntime::DetectorOutcome FaultRuntime::ResolveDetector(int frame,
                                                            double mean_ms,
                                                            bool can_coast) {
  DetectorOutcome out;
  if (!active()) {
    return out;
  }
  if (plan_.FrameDropped(frame)) {
    RecordFault(FailureKind::kFrameDrop, frame);
    if (degrade_ && can_coast) {
      // No fresh capture: extrapolate the GoF from the last good detections
      // instead of stalling the whole pipeline on the next frame.
      out.coast = true;
      return out;
    }
    out.penalty_ms += frame_interval_ms_;  // block until the next capture
  }
  int attempt = 0;
  if (degrade_) {
    // Fail fast: a watchdog timeout cuts each hung invocation short, retries
    // back off exponentially, and a persistent failure degrades to coasting.
    while (attempt <= kMaxDetectorRetries && plan_.DetectorFails(frame, attempt)) {
      out.penalty_ms += mean_ms * kFailedAttemptFraction +
                        kRetryBackoffBaseMs * static_cast<double>(1 << attempt);
      ++attempt;
    }
    out.failed_attempts = attempt;
    if (attempt > 0) {
      RecordFault(FailureKind::kDetectorFault, frame);
    }
    if (attempt > kMaxDetectorRetries) {
      if (can_coast) {
        out.coast = true;
        return out;
      }
      // Nothing to coast from (first GoF): keep blocking until the fault
      // clears so the stream still starts.
      while (attempt < kBlockingRetryCap && plan_.DetectorFails(frame, attempt)) {
        out.penalty_ms += mean_ms;
        ++attempt;
      }
      out.failed_attempts = attempt;
    }
  } else {
    // Naive runtime: no watchdog, so every failed invocation costs its full
    // mean before the failure is even noticed, and retries are immediate.
    while (attempt < kBlockingRetryCap && plan_.DetectorFails(frame, attempt)) {
      out.penalty_ms += mean_ms;
      ++attempt;
    }
    out.failed_attempts = attempt;
    if (attempt > 0) {
      RecordFault(FailureKind::kDetectorFault, frame);
    }
  }
  out.outlier_scale = plan_.DetectorOutlierScale(frame);
  if (out.outlier_scale > 1.0) {
    RecordFault(FailureKind::kLatencyOutlier, frame);
  }
  return out;
}

void FaultRuntime::OnGofComplete(double frame_ms, double slo_ms, int gof_length,
                                 bool coasted, bool forecast_planned) {
  bool missed = frame_ms > slo_ms;
  if (missed) {
    ++acc_.deadline_misses;
  }
  if (!active()) {
    return;
  }
  if (coasted) {
    acc_.degraded_frames += gof_length;
  }
  if (gof_faults_ > 0 && !missed) {
    acc_.faults_absorbed += gof_faults_;
    if (forecast_planned) {
      acc_.forecast_absorbed += gof_faults_;
    }
  }
  bool clean = gof_faults_ == 0 && !missed;
  if (in_episode_) {
    ++episode_gofs_;
    if (clean) {
      ++acc_.recovery_events;
      acc_.recovery_gofs += episode_gofs_;
      in_episode_ = false;
      episode_gofs_ = 0;
    }
  } else if (!clean) {
    in_episode_ = true;
    episode_gofs_ = 0;
  }
  if (degrade_) {
    fallback_ = !clean;
  }
  gof_faults_ = 0;
}

}  // namespace litereconfig
