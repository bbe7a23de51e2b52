// Per-stream SLO classes for the multi-tenant serving layer.
//
// A class sets how the service treats the stream everywhere priorities exist:
// admission (higher classes are admitted from the queue first), the global
// cost-benefit allocator (the class weight scales marginal accuracy per ms, so
// strict streams win contested budget), and the per-stream watchdog (how many
// consecutive deadline misses are tolerated before the session is forced onto
// the cheapest branch until a clean GoF).
#ifndef SRC_SERVE_SLO_CLASS_H_
#define SRC_SERVE_SLO_CLASS_H_

#include <string_view>

namespace litereconfig {

enum class SloClass {
  kStrict = 0,
  kStandard = 1,
  kBestEffort = 2,
};

inline constexpr int kNumSloClasses = 3;

std::string_view SloClassName(SloClass slo_class);

// Allocator weight: multiplies marginal accuracy per ms when budget is
// contested. Strict > standard > best-effort.
double SloClassWeight(SloClass slo_class);

// Admission priority rank; lower ranks are admitted from the queue first.
int SloClassPriority(SloClass slo_class);

// Watchdog tolerance: consecutive deadline misses before the session is
// forced onto the cheapest branch. Best-effort streams are never forced.
int SloClassMissTolerance(SloClass slo_class);

}  // namespace litereconfig

#endif  // SRC_SERVE_SLO_CLASS_H_
