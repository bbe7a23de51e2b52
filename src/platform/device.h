// Device profiles and the GPU contention generator.
//
// The two evaluation boards (paper Section 4): the Jetson TX2 (256-core Pascal,
// 8 GB unified memory) is the calibration reference (scale 1.0); the AGX Xavier
// (512-core Volta, 32 GB) is a scaled profile. The contention generator stands in
// for co-located applications occupying a fraction of the GPU: GPU-resident
// kernels slow down by 1 / (1 - k * level).
#ifndef SRC_PLATFORM_DEVICE_H_
#define SRC_PLATFORM_DEVICE_H_

#include <atomic>
#include <optional>
#include <string_view>

namespace litereconfig {

enum class DeviceType {
  kTx2 = 0,
  kXavier = 1,
};

struct DeviceProfile {
  std::string_view name;
  // Speed multipliers relative to the TX2 (higher = faster).
  double gpu_scale = 1.0;
  double cpu_scale = 1.0;
  double memory_gb = 8.0;
};

const DeviceProfile& GetDeviceProfile(DeviceType device);
// The device a profile name ("tx2" | "xavier") denotes; nullopt for any other.
std::optional<DeviceType> DeviceTypeFromName(std::string_view name);

class ContentionGenerator {
 public:
  // level in [0, 0.99]: the fraction of GPU capacity held by other applications.
  explicit ContentionGenerator(double level = 0.0);

  // Copyable so that each video stream can carry its own LatencyModel and
  // mutate the level mid-run (fault-driven contention bursts) without touching
  // the model shared across the thread-pool fan-out.
  ContentionGenerator(const ContentionGenerator& other);
  ContentionGenerator& operator=(const ContentionGenerator& other);

  double level() const { return level_.load(std::memory_order_relaxed); }
  void set_level(double level);

  // Multiplier applied to the mean latency of GPU-resident kernels.
  double GpuInflation() const;

 private:
  // Atomic: set_level is safe to call while other threads sample latencies
  // (an intentional cross-stream contention change never tears a read).
  std::atomic<double> level_;
};

}  // namespace litereconfig

#endif  // SRC_PLATFORM_DEVICE_H_
