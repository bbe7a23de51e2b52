#include "src/platform/device.h"

#include <algorithm>
#include <cassert>

namespace litereconfig {

namespace {

constexpr DeviceProfile kProfiles[] = {
    {"tx2", 1.0, 1.0, 8.0},
    {"xavier", 2.4, 1.8, 32.0},
};

// Contention does not steal the whole GPU share linearly: scheduling slack
// recovers some of it, hence the 0.85 coupling factor.
constexpr double kContentionCoupling = 0.85;

}  // namespace

const DeviceProfile& GetDeviceProfile(DeviceType device) {
  int idx = static_cast<int>(device);
  assert(idx >= 0 && idx < 2);
  return kProfiles[idx];
}

std::optional<DeviceType> DeviceTypeFromName(std::string_view name) {
  for (DeviceType device : {DeviceType::kTx2, DeviceType::kXavier}) {
    if (name == GetDeviceProfile(device).name) {
      return device;
    }
  }
  return std::nullopt;
}

ContentionGenerator::ContentionGenerator(double level) { set_level(level); }

ContentionGenerator::ContentionGenerator(const ContentionGenerator& other)
    : level_(other.level()) {}

ContentionGenerator& ContentionGenerator::operator=(
    const ContentionGenerator& other) {
  level_.store(other.level(), std::memory_order_relaxed);
  return *this;
}

void ContentionGenerator::set_level(double level) {
  level_.store(std::clamp(level, 0.0, 0.99), std::memory_order_relaxed);
}

double ContentionGenerator::GpuInflation() const {
  return 1.0 / (1.0 - kContentionCoupling * level());
}

}  // namespace litereconfig
