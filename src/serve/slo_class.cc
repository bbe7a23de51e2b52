#include "src/serve/slo_class.h"

#include <limits>

namespace litereconfig {

std::string_view SloClassName(SloClass slo_class) {
  switch (slo_class) {
    case SloClass::kStrict:
      return "strict";
    case SloClass::kStandard:
      return "standard";
    case SloClass::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

double SloClassWeight(SloClass slo_class) {
  switch (slo_class) {
    case SloClass::kStrict:
      return 1.0;
    case SloClass::kStandard:
      return 0.7;
    case SloClass::kBestEffort:
      return 0.4;
  }
  return 0.0;
}

int SloClassPriority(SloClass slo_class) { return static_cast<int>(slo_class); }

int SloClassMissTolerance(SloClass slo_class) {
  switch (slo_class) {
    case SloClass::kStrict:
      return 1;
    case SloClass::kStandard:
      return 2;
    case SloClass::kBestEffort:
      return std::numeric_limits<int>::max();
  }
  return std::numeric_limits<int>::max();
}

}  // namespace litereconfig
