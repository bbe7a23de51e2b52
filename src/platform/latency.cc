#include "src/platform/latency.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

namespace litereconfig {

namespace {

constexpr double kDetectorBaseMs = 25.0;
constexpr double kDetectorSpanMs = 480.0;
constexpr double kShapeExponent = 1.9;
constexpr double kNpropFloor = 0.25;
constexpr double kNpropExponent = 0.55;

// The YOLO-LITE-style CPU-only family: a shallow single-stage model sized for
// no-GPU execution. There is no nprop term (single-stage models score a fixed
// grid), and the shape exponent is gentler than the GPU detector's — the CPU
// model is compute-bound on its backbone, not its head. Calibrated so the CPU
// clock is strictly slower than the same-shape nprop-100 GPU detector at zero
// contention on every device (~124 ms vs 105 ms at 224, ~201 ms vs 182 ms at
// 320 on the TX2): with the 0.85 accuracy scale this keeps every CPU branch
// Pareto-dominated while the GPU is healthy, so the family only enters the
// schedule when contention inflates the GPU clock or a denial masks it.
// A GoF >= 8 still amortizes the 224 anchor under a 33 ms SLO.
constexpr double kCpuDetectorBaseMs = 25.0;
constexpr double kCpuDetectorSpanMs = 450.0;
constexpr double kCpuShapeExponent = 1.6;

// Per-frame tracker cost: cost_factor x (fixed + per-object) x downsampling gain.
constexpr double kTrackerFixedMs = 1.2;
constexpr double kTrackerPerObjectMs = 0.5;
constexpr double kTrackerDsBaseMs = 2.2;
constexpr double kTrackerDsExponent = 1.1;

constexpr double kExecutionNoiseSigma = 0.05;

// The closed forms of the pow-based terms, and their only definitions: the
// tables below are filled by calling them.

// Mean detector invocation on the TX2 at zero contention, before the device,
// contention and thermal scaling of GpuMs/CpuMs.
double DetectorTx2Ms(const DetectorConfig& config) {
  if (config.cpu) {
    double shape_term = std::pow(config.shape / 576.0, kCpuShapeExponent);
    return kCpuDetectorBaseMs + kCpuDetectorSpanMs * shape_term;
  }
  double shape_term = std::pow(config.shape / 576.0, kShapeExponent);
  double nprop_term =
      kNpropFloor +
      (1.0 - kNpropFloor) * std::pow(config.nprop / 100.0, kNpropExponent);
  return kDetectorBaseMs + kDetectorSpanMs * shape_term * nprop_term;
}

// Per-frame tracker speed-up from feeding it a downsampled frame.
double DownsampleGain(int downsample) {
  return kTrackerDsBaseMs /
         std::pow(static_cast<double>(downsample), kTrackerDsExponent);
}

// DetectorTx2Ms and DownsampleGain for every knob value the branch spaces
// offer (14 detector configurations, 3 downsample ratios), computed once, so
// pricing a branch calls no pow. The knob values are read from the branch
// space at run time: every entry is the libm result a call of the closed form
// returns, never a compile-time fold of it.
struct KnobTerms {
  // By DetectorKnobIndex: the space offers every indexed configuration.
  std::array<double, kNumDetectorKnobs> detector_tx2_ms{};
  // (downsample ratio, gain) pairs.
  std::vector<std::pair<int, double>> downsample_gain;
};

const KnobTerms& Terms() {
  static const KnobTerms terms = [] {
    KnobTerms t;
    const BranchSpace& space = BranchSpace::WithCpuFamily();
    for (const DetectorConfig& config : space.detector_configs()) {
      t.detector_tx2_ms[static_cast<size_t>(DetectorKnobIndex(config))] =
          DetectorTx2Ms(config);
    }
    for (const Branch& branch : space.branches()) {
      int ds = branch.tracker.downsample;
      if (branch.has_tracker &&
          std::none_of(t.downsample_gain.begin(), t.downsample_gain.end(),
                       [ds](const auto& entry) { return entry.first == ds; })) {
        t.downsample_gain.emplace_back(ds, DownsampleGain(ds));
      }
    }
    return t;
  }();
  return terms;
}

double TabledDetectorTx2Ms(const DetectorConfig& config) {
  int index = DetectorKnobIndex(config);
  return index >= 0 ? Terms().detector_tx2_ms[static_cast<size_t>(index)]
                    : DetectorTx2Ms(config);
}

double TabledDownsampleGain(int downsample) {
  for (const auto& [ds, gain] : Terms().downsample_gain) {
    if (ds == downsample) {
      return gain;
    }
  }
  return DownsampleGain(downsample);
}

}  // namespace

LatencyModel::LatencyModel(DeviceType device, double gpu_contention_level)
    : device_(device), contention_(gpu_contention_level) {}

double LatencyModel::GpuMs(double tx2_ms) const {
  return tx2_ms / GetDeviceProfile(device_).gpu_scale * contention_.GpuInflation() *
         thermal_scale_;
}

double LatencyModel::CpuMs(double tx2_ms) const {
  return tx2_ms / GetDeviceProfile(device_).cpu_scale * thermal_scale_;
}

double LatencyModel::DetectorMs(const DetectorConfig& config) const {
  // The CPU-only family prices through the CPU clock, so GPU contention leaves
  // it untouched (thermal throttling still applies — DVFS slows the SoC).
  double tx2_ms = TabledDetectorTx2Ms(config);
  return config.cpu ? CpuMs(tx2_ms) : GpuMs(tx2_ms);
}

double LatencyModel::TrackerMs(const TrackerConfig& config, int num_objects) const {
  const TrackerTraits& traits = GetTrackerTraits(config.type);
  double ds_gain = TabledDownsampleGain(config.downsample);
  double per_frame = traits.cost_factor *
                     (kTrackerFixedMs + kTrackerPerObjectMs * num_objects) * ds_gain;
  return CpuMs(per_frame);
}

double LatencyModel::BranchFrameMs(const Branch& branch, int num_objects) const {
  double det = DetectorMs(branch.detector);
  if (!branch.has_tracker || branch.gof <= 1) {
    return det;
  }
  double track = TrackerMs(branch.tracker, num_objects);
  return (det + track * (branch.gof - 1)) / static_cast<double>(branch.gof);
}

double LatencyModel::FeatureExtractMs(FeatureKind kind) const {
  const FeatureCost& cost = GetFeatureCost(kind);
  return cost.extract_on_gpu ? GpuMs(cost.extract_ms) : CpuMs(cost.extract_ms);
}

double LatencyModel::FeaturePredictMs(FeatureKind kind) const {
  const FeatureCost& cost = GetFeatureCost(kind);
  return cost.predict_on_gpu ? GpuMs(cost.predict_ms) : CpuMs(cost.predict_ms);
}

double LatencyModel::Sample(double mean_ms, Pcg32& rng) const {
  // Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).
  double sigma = kExecutionNoiseSigma;
  return mean_ms * rng.LogNormal(-0.5 * sigma * sigma, sigma);
}

}  // namespace litereconfig
