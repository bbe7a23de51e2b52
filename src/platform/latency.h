// The platform latency model: mean execution time of every kernel the system can
// run (detector at any knob setting, each tracker, every feature extractor and
// prediction net), plus lognormal execution noise.
//
// Calibration anchors:
//   * Faster R-CNN on the TX2 spans ~50 ms (224, nprop 1) to ~505 ms (576, 100),
//     matching the ApproxDet/LiteReconfig measurements on that board.
//   * Feature costs reproduce paper Table 1 on the TX2.
//   * GPU-resident kernels divide by the device's gpu_scale and multiply by the
//     contention inflation; CPU kernels divide by cpu_scale and are unaffected by
//     GPU contention (the paper's contention generator occupies the GPU).
#ifndef SRC_PLATFORM_LATENCY_H_
#define SRC_PLATFORM_LATENCY_H_

#include "src/det/detector.h"
#include "src/features/costs.h"
#include "src/features/feature.h"
#include "src/mbek/branch.h"
#include "src/platform/device.h"
#include "src/track/tracker.h"
#include "src/util/rng.h"

namespace litereconfig {

class LatencyModel {
 public:
  LatencyModel(DeviceType device, double gpu_contention_level);

  DeviceType device() const { return device_; }
  const ContentionGenerator& contention() const { return contention_; }
  // GPU contention level: the paper's contention generator plus fault bursts
  // offline; in serving, the co-located streams' shares
  // (src/platform/gpu_ledger.h) plus device-wide bursts.
  void set_contention_level(double level) { contention_.set_level(level); }

  // Multiplicative thermal-throttling factor (>= 1.0). Unlike GPU contention,
  // DVFS throttling slows the whole SoC, so it scales CPU kernels too.
  void set_thermal_scale(double scale) { thermal_scale_ = scale; }

  // Mean latency of one detector invocation. GPU-resident unless the config
  // selects the CPU-only family, which prices through the CPU clock and is
  // immune to GPU contention.
  double DetectorMs(const DetectorConfig& config) const;

  // Mean latency of one tracker step over `num_objects` tracks (CPU-resident).
  double TrackerMs(const TrackerConfig& config, int num_objects) const;

  // GoF-amortized per-frame mean of a branch (detector once + tracker on the
  // remaining frames, divided by the GoF length).
  double BranchFrameMs(const Branch& branch, int num_objects) const;

  // Feature extraction / accuracy-model prediction (paper Table 1 anchored).
  double FeatureExtractMs(FeatureKind kind) const;
  double FeaturePredictMs(FeatureKind kind) const;

  // Draws an execution sample around a mean (multiplicative lognormal noise).
  double Sample(double mean_ms, Pcg32& rng) const;

  // Scales a TX2-measured mean to this device and contention level. Used by the
  // baseline families, whose latency anchors are TX2 measurements.
  double GpuScaledMs(double tx2_ms) const { return GpuMs(tx2_ms); }
  double CpuScaledMs(double tx2_ms) const { return CpuMs(tx2_ms); }

 private:
  double GpuMs(double tx2_ms) const;
  double CpuMs(double tx2_ms) const;

  DeviceType device_;
  ContentionGenerator contention_;
  double thermal_scale_ = 1.0;
};

}  // namespace litereconfig

#endif  // SRC_PLATFORM_LATENCY_H_
