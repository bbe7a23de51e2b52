#include "src/platform/switching.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

namespace litereconfig {

namespace {

constexpr double kBaseMs = 1.2;
constexpr double kDestinationWeightMs = 6.5;
constexpr double kSourceLightnessWeightMs = 3.5;
constexpr double kTrackerChangeMs = 0.6;
constexpr double kOutlierBaseProbability = 0.02;
constexpr double kOutlierDecayPerSwitch = 0.05;

// The offline switch cost from -> to, given the heaviness of a detector: the
// one expression behind OfflineCostMs and OfflineCostRow.
template <typename HeavinessFn>
double SwitchCostMs(DeviceType device, const Branch& from, const Branch& to,
                    const HeavinessFn& heaviness) {
  bool same_detector = from.detector == to.detector;
  bool same_tracker = from.has_tracker == to.has_tracker &&
                      (!from.has_tracker || from.tracker == to.tracker);
  if (same_detector && same_tracker) {
    return 0.0;
  }
  double cost = 0.0;
  if (!same_detector) {
    if (to.detector.cpu) {
      // The CPU-only fallback family is kept resident (a few MB, no GPU graph
      // to bind): switching onto it is a pipeline handoff, not a re-bind.
      cost += kBaseMs;
    } else {
      double dest = heaviness(to.detector);
      double source = heaviness(from.detector);
      cost += kBaseMs + kDestinationWeightMs * dest +
              kSourceLightnessWeightMs * (1.0 - source);
    }
  }
  if (!same_tracker) {
    cost += kTrackerChangeMs;
  }
  return cost / GetDeviceProfile(device).gpu_scale;
}

}  // namespace

SwitchingCostModel::SwitchingCostModel(DeviceType device) : device_(device) {}

double SwitchingCostModel::DetectorHeaviness(const DetectorConfig& config) {
  double shape_term = std::pow(config.shape / 576.0, 2.0);
  double nprop_term = std::pow(config.nprop / 100.0, 0.6);
  return 0.5 * shape_term + 0.5 * nprop_term;
}

double SwitchingCostModel::OfflineCostMs(const Branch& from, const Branch& to) const {
  return SwitchCostMs(device_, from, to, DetectorHeaviness);
}

void SwitchingCostModel::OfflineCostRow(const Branch& from,
                                        const std::vector<Branch>& to,
                                        std::vector<double>& row) const {
  // The source's heaviness once, and each destination's once per run of
  // branches sharing its detector: the spaces enumerate branches
  // detector-major, so that is once per configuration.
  const double source = DetectorHeaviness(from.detector);
  std::optional<std::pair<DetectorConfig, double>> last;
  auto heaviness = [&](const DetectorConfig& config) {
    if (config == from.detector) {
      return source;
    }
    if (!last.has_value() || !(last->first == config)) {
      last.emplace(config, DetectorHeaviness(config));
    }
    return last->second;
  };
  row.resize(to.size());
  for (size_t b = 0; b < to.size(); ++b) {
    row[b] = SwitchCostMs(device_, from, to[b], heaviness);
  }
}

double SwitchingCostModel::OnlineCostMs(const Branch& from, const Branch& to,
                                        int switches_so_far, Pcg32& rng) const {
  double mean = OfflineCostMs(from, to);
  if (mean <= 0.0) {
    return 0.0;
  }
  double cost = mean * rng.LogNormal(0.0, 0.15);
  // Cold graph misses: rarer as the run warms up (paper Figure 5(b) outliers).
  // A resident CPU-family destination has no GPU graph to miss on, so it
  // never draws one (and consumes no extra RNG draw — branch spaces without
  // CPU branches see an unchanged stream).
  // detlint: stream-stable(rng is a serially-stepped per-session stream and the (from,to) pair comes from the deterministic decision trace, so equal seeds+config replay equal draws)
  if (!to.detector.cpu) {
    double outlier_prob =
        kOutlierBaseProbability /
        (1.0 + kOutlierDecayPerSwitch * static_cast<double>(switches_so_far));
    if (rng.Bernoulli(outlier_prob)) {
      cost += rng.Uniform(1000.0, 5000.0);
    }
  }
  return cost;
}

}  // namespace litereconfig
