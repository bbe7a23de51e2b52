#include "src/serve/service_faults.h"

#include <algorithm>

namespace litereconfig {

namespace {

// The "video seed" of the device-wide plan: there is exactly one device, so
// the schedule is a function of the service fault seed alone.
constexpr uint64_t kDeviceScheduleSalt = 0xde71ceull;

// Rescales the device-wide intervals from frame units to round units: rates
// multiply by the frames one round covers, interval lengths divide by it
// (floored at one round so no preset degenerates to nothing).
FaultSpec RoundScaled(const FaultSpec& spec) {
  FaultSpec scaled = spec.IntervalsOnly();
  double per_round = static_cast<double>(kNominalGofFrames);
  scaled.bursts_per_100_frames *= per_round;
  scaled.burst_frames = std::max(1, scaled.burst_frames / kNominalGofFrames);
  scaled.ramps_per_100_frames *= per_round;
  scaled.ramp_up_frames = std::max(1, scaled.ramp_up_frames / kNominalGofFrames);
  scaled.ramp_plateau_frames =
      std::max(1, scaled.ramp_plateau_frames / kNominalGofFrames);
  scaled.ramp_down_frames =
      std::max(1, scaled.ramp_down_frames / kNominalGofFrames);
  scaled.denials_per_100_frames *= per_round;
  scaled.denial_frames = std::max(1, scaled.denial_frames / kNominalGofFrames);
  return scaled;
}

}  // namespace

FaultPlan DeviceFaultPlan(const FaultSpec& spec, uint64_t fault_seed,
                          int round_horizon) {
  return FaultPlan(RoundScaled(spec), kDeviceScheduleSalt, round_horizon,
                   fault_seed);
}

}  // namespace litereconfig
