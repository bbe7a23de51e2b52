// Reproduces paper Figure 4: branch coverage — the number of distinct execution
// branches each protocol invokes over the validation run, per latency objective
// on the TX2. Content-aware variants explore more branches (tailoring to the
// video), while the full cost-benefit scheduler balances exploration against
// switching cost.
#include <iostream>

#include "bench/bench_util.h"

namespace litereconfig {
namespace {

void Run() {
  std::cout << "=== Figure 4: branch coverage (distinct branches invoked, TX2) "
               "===\n";
  const Workbench& wb = Workbench::Get(DeviceType::kTx2);
  TablePrinter table({"Protocol", "33.3 ms", "50.0 ms", "100.0 ms"});
  std::vector<std::string> names = {"SSD+", "YOLO+", "ApproxDet"};
  for (const std::string& variant : VariantNames()) {
    names.push_back(variant);
  }
  for (const std::string& name : names) {
    std::vector<std::string> cells = {name};
    for (double slo : {33.3, 50.0, 100.0}) {
      std::unique_ptr<Protocol> protocol =
          MakeProtocol(wb, DeviceType::kTx2, name, slo);
      EvalConfig config;
      config.slo_ms = slo;
      EvalResult result = OnlineRunner::Run(*protocol, wb.validation(), config);
      cells.push_back(std::to_string(result.branch_coverage) + " (" +
                      std::to_string(result.switch_count) + " sw)");
    }
    table.AddRow(cells);
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape (paper Fig. 4): the MaxContent variants cover "
               "the most branches;\nMinCost the fewest among the variants; "
               "LiteReconfig sits between them; SSD+/YOLO+\nare static (1).\n";
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) {
  litereconfig::BenchThreads(argc, argv);
  litereconfig::Run();
  return 0;
}
