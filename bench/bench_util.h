// Shared helpers for the per-table/figure benchmark binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>  // detlint: allow(banned-clock) sole sanctioned wall-clock
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/approxdet.h"
#include "src/baselines/fixed_protocols.h"
#include "src/baselines/knob_protocols.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/pipeline/workbench.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace litereconfig {

// Wall-clock timing for host-side benchmark reporting. This helper is the one
// sanctioned wall-clock read in the tree: evaluation results are pure
// functions of (seeds, config) and use the simulated LatencyModel clock, so
// only benchmark *reporting* may consult the host clock — and only through
// here, where detlint's allowlist entries live.
class WallTimer {
 public:
  WallTimer() { Reset(); }

  void Reset() {
    // detlint: allow(banned-clock) bench wall timing, never feeds results
    start_ = std::chrono::steady_clock::now();
  }

  double ElapsedMicros() const {
    // detlint: allow(banned-clock) bench wall timing, never feeds results
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(now - start_).count();
  }

  double ElapsedMs() const { return ElapsedMicros() / 1000.0; }

 private:
  // detlint: allow(banned-clock) bench wall timing, never feeds results
  std::chrono::steady_clock::time_point start_;
};

// Applies the shared --threads=N flag and prints the effective thread count, so
// BENCH_*.json wall-clock trajectories stay comparable across machines (a
// 4-thread run and a 32-thread run are different experiments). Call first in
// every bench main.
inline int BenchThreads(int argc, const char* const* argv) {
  int threads = ApplyThreadsFlag(argc, argv);
  std::cout << "[bench] evaluation threads: " << threads << "\n";
  return threads;
}

// Formats an mAP cell: "F" when the protocol misses the SLO, "OOM" when it
// cannot run at all, else the percentage (paper Table 2 convention).
inline std::string MapCell(const EvalResult& result, double slo_ms) {
  if (result.oom) {
    return "OOM";
  }
  if (!result.MeetsSlo(slo_ms)) {
    return "F";
  }
  return FmtDouble(result.map * 100.0, 1);
}

inline std::string LatencyCell(const EvalResult& result) {
  if (result.oom) {
    return "OOM";
  }
  return FmtDouble(result.p95_ms, 1);
}

// Builds a protocol by its paper name: the SSD+/YOLO+ static-knob baselines
// (profiled on `device` for `slo_ms`), ApproxDet, and the four LiteReconfig
// variants (Section 4). nullptr for any other name.
inline std::unique_ptr<Protocol> MakeProtocol(const Workbench& wb, DeviceType device,
                                              const std::string& name, double slo_ms) {
  if (name == "SSD+" || name == "YOLO+") {
    LatencyModel profile(device, 0.0);
    return std::make_unique<StaticKnobProtocol>(
        name == "SSD+" ? BaselineFamily::kSsd : BaselineFamily::kYolo, name,
        wb.train(), profile, slo_ms);
  }
  if (name == "ApproxDet") {
    return std::make_unique<ApproxDetProtocol>(&wb.models());
  }
  const TrainedModels* models = &wb.models();
  if (name == "LiteReconfig") {
    return std::make_unique<LiteReconfigProtocol>(
        models, LiteReconfigProtocol::FullConfig(), name);
  }
  if (name == "LiteReconfig-MinCost") {
    return std::make_unique<LiteReconfigProtocol>(
        models, LiteReconfigProtocol::MinCostConfig(), name);
  }
  if (name == "LiteReconfig-MaxContent-ResNet") {
    return std::make_unique<LiteReconfigProtocol>(
        models, LiteReconfigProtocol::MaxContentConfig(FeatureKind::kResNet50), name);
  }
  if (name == "LiteReconfig-MaxContent-MobileNet") {
    return std::make_unique<LiteReconfigProtocol>(
        models, LiteReconfigProtocol::MaxContentConfig(FeatureKind::kMobileNetV2),
        name);
  }
  return nullptr;
}

inline const std::vector<std::string>& VariantNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "LiteReconfig-MinCost", "LiteReconfig-MaxContent-ResNet",
      "LiteReconfig-MaxContent-MobileNet", "LiteReconfig"};
  return *names;
}

}  // namespace litereconfig

#endif  // BENCH_BENCH_UTIL_H_
