// Reproduces paper Figure 3: the per-component latency breakdown — object
// detector, object tracker, and "cost" (scheduler modeling + switching) — as a
// percentage of the latency SLO, for each protocol and objective on the TX2.
// Protocols that cannot meet an SLO have no bar (marked "-").
#include <iostream>

#include "bench/bench_util.h"

namespace litereconfig {
namespace {

void Run() {
  std::cout << "=== Figure 3: latency breakdown, % of SLO (TX2, no contention) "
               "===\n";
  const Workbench& wb = Workbench::Get(DeviceType::kTx2);
  TablePrinter table({"SLO (ms)", "Protocol", "Detector %", "Tracker %", "Cost %",
                      "Total %"});
  std::vector<std::string> names = {"SSD+", "YOLO+", "ApproxDet"};
  for (const std::string& variant : VariantNames()) {
    names.push_back(variant);
  }
  for (double slo : {33.3, 50.0, 100.0}) {
    for (const std::string& name : names) {
      std::unique_ptr<Protocol> protocol =
          MakeProtocol(wb, DeviceType::kTx2, name, slo);
      EvalConfig config;
      config.slo_ms = slo;
      EvalResult result = OnlineRunner::Run(*protocol, wb.validation(), config);
      if (!result.MeetsSlo(slo)) {
        // Paper: "no bar for protocols that cannot satisfy the SLO".
        table.AddRow({FmtDouble(slo, 1), name, "-", "-", "-", "- (F)"});
        continue;
      }
      double total_pct = result.mean_ms / slo * 100.0;
      table.AddRow({FmtDouble(slo, 1), name,
                    FmtDouble(result.detector_frac * total_pct, 1),
                    FmtDouble(result.tracker_frac * total_pct, 1),
                    FmtDouble((result.scheduler_frac + result.switch_frac) * total_pct, 1),
                    FmtDouble(total_pct, 1)});
    }
    table.AddSeparator();
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 3): LiteReconfig's cost bar sits "
               "between the two\nMaxContent variants and stays below 10% of the "
               "SLO; totals stay below 100%\nbecause the SLO binds the P95, not "
               "the mean.\n";
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) {
  litereconfig::BenchThreads(argc, argv);
  litereconfig::Run();
  return 0;
}
