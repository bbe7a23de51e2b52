// Robustness under injected faults: LiteReconfig with graceful degradation
// (watchdog + retry/backoff + coast mode + cheapest-branch fallback) and with
// the predictive layer on top (contention forecasting + staged headroom-first
// degradation + drift-triggered recalibration), against the same runtime with
// degradation disabled, ApproxDet, and SSD+, across the none/mild/moderate/
// severe step schedules plus the ramp and Xavier-profile schedules on TX2 at
// the 33.3 ms SLO.
//
// Acceptance gates (exit status):
//   (a) LiteReconfig (degrade on, and predictive) never aborts a stream —
//       every video emits all its frames;
//   (b) degradation on misses strictly fewer deadlines than degradation off
//       under the moderate and severe schedules;
//   (c) the predictive runtime misses strictly fewer deadlines than the
//       reactive degrade runtime under the ramp and severe_xavier schedules;
//   (d) GPU-denial schedules: the CPU-only detector family (branch space
//       extended via --cpu_family) scores strictly higher mAP than tracker-only
//       coasting under every denial schedule, with no more deadline misses on
//       the pure-denial schedules (gpu_denied, denied_frequent) and at most a
//       bounded miss-rate premium on the mixed ones (denied_moderate,
//       denied_severe), where each scheduled CPU anchor samples latency-fault
//       draws that coasting never executes.
#include <cstdlib>
#include <iostream>

#include "bench/bench_util.h"
#include "src/platform/faults.h"

namespace litereconfig {
namespace {

constexpr double kSloMs = 33.3;
constexpr uint64_t kFaultSeed = 17;

struct ProtocolCase {
  std::string name;
  bool degrade = true;
  bool predictive = false;
};

int Run(int argc, char** argv) {
  BenchThreads(argc, argv);
  const Workbench& wb = Workbench::Get(DeviceType::kTx2);
  size_t total_frames = 0;
  for (const SyntheticVideo& video : wb.validation().videos) {
    total_frames += static_cast<size_t>(video.frame_count());
  }
  const std::vector<std::string> schedules = {
      "none", "mild", "moderate", "severe", "ramp", "mild_xavier",
      "severe_xavier"};
  const std::vector<ProtocolCase> protocols = {
      {"LiteReconfig", /*degrade=*/true, /*predictive=*/false},
      {"LiteReconfig-Predictive", /*degrade=*/true, /*predictive=*/true},
      {"LiteReconfig-NoDegrade", /*degrade=*/false, /*predictive=*/false},
      {"ApproxDet", /*degrade=*/true, /*predictive=*/false},
      {"SSD+", /*degrade=*/true, /*predictive=*/false},
  };

  std::cout << "=== Robustness: fault injection on TX2, SLO "
            << FmtDouble(kSloMs, 1) << " ms (fault seed " << kFaultSeed
            << ") ===\n";
  std::vector<GridCell> cells;
  for (const std::string& schedule : schedules) {
    FaultSpec spec = *FaultSpec::FromName(schedule);
    for (const ProtocolCase& pc : protocols) {
      GridCell cell;
      std::string protocol_name = pc.name == "LiteReconfig-NoDegrade" ||
                                          pc.name == "LiteReconfig-Predictive"
                                      ? "LiteReconfig"
                                      : pc.name;
      cell.make_protocol = [&wb, protocol_name] {
        return MakeProtocol(wb, DeviceType::kTx2, protocol_name, kSloMs);
      };
      cell.config.device = DeviceType::kTx2;
      cell.config.slo_ms = kSloMs;
      cell.config.faults = spec;
      cell.config.fault_seed = kFaultSeed;
      cell.config.degrade = pc.degrade;
      cell.config.predictive = pc.predictive;
      cells.push_back(std::move(cell));
    }
  }
  std::vector<EvalResult> results = RunProtocolGrid(wb.validation(), cells);

  bool gate_ok = true;
  size_t cell_index = 0;
  for (const std::string& schedule : schedules) {
    std::cout << "\n--- fault schedule: " << schedule << " ---\n";
    TablePrinter table({"Protocol", "mAP (%)", "P95 (ms)", "Misses", "Injected",
                        "Absorbed", "Degraded", "Recovery (GoFs)", "Recal",
                        "Replans"});
    int degrade_misses = -1;
    int naive_misses = -1;
    int predictive_misses = -1;
    for (const ProtocolCase& pc : protocols) {
      const EvalResult& result = results[cell_index++];
      table.AddRow({pc.name, MapCell(result, kSloMs), LatencyCell(result),
                    std::to_string(result.deadline_misses),
                    std::to_string(result.faults_injected),
                    std::to_string(result.faults_absorbed),
                    std::to_string(result.degraded_frames),
                    FmtDouble(result.mean_recovery_gofs, 2),
                    std::to_string(result.recalibrations),
                    std::to_string(result.preemptive_replans)});
      if (pc.name == "LiteReconfig" || pc.name == "LiteReconfig-Predictive") {
        if (result.frames != total_frames) {
          std::cout << "GATE FAIL: " << pc.name << " emitted " << result.frames
                    << " of " << total_frames << " frames under '" << schedule
                    << "'\n";
          gate_ok = false;
        }
      }
      if (pc.name == "LiteReconfig") {
        degrade_misses = result.deadline_misses;
      } else if (pc.name == "LiteReconfig-NoDegrade") {
        naive_misses = result.deadline_misses;
      } else if (pc.name == "LiteReconfig-Predictive") {
        predictive_misses = result.deadline_misses;
      }
    }
    table.Print(std::cout);
    if (schedule == "moderate" || schedule == "severe") {
      if (degrade_misses >= naive_misses) {
        std::cout << "GATE FAIL: degradation on missed " << degrade_misses
                  << " deadlines vs " << naive_misses << " off under '"
                  << schedule << "'\n";
        gate_ok = false;
      } else {
        std::cout << "gate: degradation on missed " << degrade_misses
                  << " deadlines vs " << naive_misses << " off ("
                  << schedule << ")\n";
      }
    }
    if (schedule == "ramp" || schedule == "severe_xavier") {
      if (predictive_misses >= degrade_misses) {
        std::cout << "GATE FAIL: predictive missed " << predictive_misses
                  << " deadlines vs " << degrade_misses << " reactive under '"
                  << schedule << "'\n";
        gate_ok = false;
      } else {
        std::cout << "gate: predictive missed " << predictive_misses
                  << " deadlines vs " << degrade_misses << " reactive ("
                  << schedule << ")\n";
      }
    }
    if (schedule == "none") {
      // The predictive machinery must be inert without faults: identical
      // deadline-miss counts to the reactive runtime.
      if (predictive_misses != degrade_misses) {
        std::cout << "GATE FAIL: predictive and reactive differ on the "
                  << "no-fault path (" << predictive_misses << " vs "
                  << degrade_misses << " misses)\n";
        gate_ok = false;
      }
    }
  }
  // --- GPU-denial schedules: CPU-only family vs tracker-only coasting ---
  // Both runs share the fault seed, so the denied frame intervals are
  // identical; the only difference is whether the branch space offers the
  // scheduler a CPU family to demote onto.
  //
  // The pure schedules (denials and nothing else — one long outage, then
  // repeated medium ones) gate strictly on both axes: mAP strictly higher
  // than coasting AND no increase in deadline misses. The mixed schedules
  // stack denial windows on top of the moderate/severe transient-fault mix;
  // there the family still must win mAP strictly, but every CPU anchor it
  // runs inside a window samples latency-fault draws that tracker-only
  // coasting never executes, so its misses are gated as a bounded miss-rate
  // premium instead of a strict non-increase.
  const std::vector<std::string> denial_schedules = {
      "gpu_denied", "denied_frequent", "denied_moderate", "denied_severe"};
  const auto is_pure_denial = [](const std::string& schedule) {
    return schedule == "gpu_denied" || schedule == "denied_frequent";
  };
  // Extra deadline misses allowed on mixed schedules, per CPU GoF the family
  // scheduled inside a denial window: each such GoF runs a detector anchor
  // that samples the schedule's latency-outlier and thermal draws, which a
  // tracker-only coast never executes. 0.2 bounds that per-anchor exposure
  // (outlier_prob tops out at 0.10 on the severe mix, plus thermal residue).
  constexpr double kMixedMissPerCpuGof = 0.2;
  std::vector<GridCell> denial_cells;
  for (const std::string& schedule : denial_schedules) {
    FaultSpec spec = *FaultSpec::FromName(schedule);
    for (bool cpu_family : {true, false}) {
      GridCell cell;
      const TrainedModels* models =
          cpu_family ? &wb.cpu_family_models() : &wb.models();
      cell.make_protocol = [models] {
        return std::make_unique<LiteReconfigProtocol>(
            models, LiteReconfigProtocol::FullConfig(), "LiteReconfig");
      };
      cell.config.device = DeviceType::kTx2;
      cell.config.slo_ms = kSloMs;
      cell.config.faults = spec;
      cell.config.fault_seed = kFaultSeed;
      cell.config.degrade = true;
      denial_cells.push_back(std::move(cell));
    }
  }
  std::vector<EvalResult> denial_results =
      RunProtocolGrid(wb.validation(), denial_cells);
  size_t denial_index = 0;
  for (const std::string& schedule : denial_schedules) {
    const EvalResult& family = denial_results[denial_index++];
    const EvalResult& coast = denial_results[denial_index++];
    std::cout << "\n--- denial schedule: " << schedule << " ---\n";
    TablePrinter table({"Mode", "mAP (%)", "P95 (ms)", "Misses", "Denied",
                        "CPU fallback"});
    table.AddRow({"CPU family", FmtDouble(family.map * 100.0, 2),
                  FmtDouble(family.p95_ms, 1),
                  std::to_string(family.deadline_misses),
                  std::to_string(family.denied_gofs),
                  std::to_string(family.cpu_fallback_gofs)});
    table.AddRow({"coast only", FmtDouble(coast.map * 100.0, 2),
                  FmtDouble(coast.p95_ms, 1),
                  std::to_string(coast.deadline_misses),
                  std::to_string(coast.denied_gofs),
                  std::to_string(coast.cpu_fallback_gofs)});
    table.Print(std::cout);
    if (family.frames != total_frames || coast.frames != total_frames) {
      std::cout << "GATE FAIL: a denial run dropped frames under '" << schedule
                << "'\n";
      gate_ok = false;
    }
    if (family.cpu_fallback_gofs == 0 || coast.cpu_fallback_gofs != 0) {
      std::cout << "GATE FAIL: CPU fallback inactive where expected ("
                << family.cpu_fallback_gofs << " family vs "
                << coast.cpu_fallback_gofs << " coast) under '" << schedule
                << "'\n";
      gate_ok = false;
    }
    int miss_budget = coast.deadline_misses;
    if (!is_pure_denial(schedule)) {
      miss_budget += static_cast<int>(
          kMixedMissPerCpuGof * static_cast<double>(family.cpu_fallback_gofs));
    }
    if (family.map <= coast.map) {
      std::cout << "GATE FAIL: CPU family mAP "
                << FmtDouble(family.map * 100.0, 2) << " <= coast-only "
                << FmtDouble(coast.map * 100.0, 2) << " under '" << schedule
                << "'\n";
      gate_ok = false;
    } else if (family.deadline_misses > miss_budget) {
      std::cout << "GATE FAIL: CPU family missed " << family.deadline_misses
                << " deadlines vs a budget of " << miss_budget << " ("
                << coast.deadline_misses << " coast-only) under '" << schedule
                << "'\n";
      gate_ok = false;
    } else {
      std::cout << "gate: CPU family mAP " << FmtDouble(family.map * 100.0, 2)
                << " > coast-only " << FmtDouble(coast.map * 100.0, 2) << ", "
                << family.deadline_misses << " misses vs budget " << miss_budget
                << " (" << schedule << ")\n";
    }
  }

  std::cout << "\nrobustness gate: " << (gate_ok ? "PASS" : "FAIL") << "\n";
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
