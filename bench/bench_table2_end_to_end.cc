// Reproduces paper Table 2: end-to-end mAP and P95 per-frame latency of every
// protocol under {TX2 (33.3/50/100 ms), AGX Xavier (20/33.3/50 ms)} x
// {0%, 50% GPU contention}. "F" marks a protocol that misses the SLO.
#include <iostream>

#include "bench/bench_util.h"

namespace litereconfig {
namespace {

struct DeviceCase {
  DeviceType device;
  std::vector<double> slos;
};

void Run() {
  std::cout << "=== Table 2: end-to-end comparison (mAP % | P95 ms per SLO) ===\n";
  const std::vector<DeviceCase> devices = {
      {DeviceType::kTx2, {33.3, 50.0, 100.0}},
      {DeviceType::kXavier, {20.0, 33.3, 50.0}},
  };
  for (const DeviceCase& device_case : devices) {
    const Workbench& wb = Workbench::Get(device_case.device);
    for (double contention : {0.0, 0.5}) {
      std::cout << "\n--- " << GetDeviceProfile(device_case.device).name
                << ", GPU contention " << static_cast<int>(contention * 100)
                << "%, SLOs";
      for (double slo : device_case.slos) {
        std::cout << " " << FmtDouble(slo, 1);
      }
      std::cout << " ms ---\n";
      TablePrinter table({"Model", "mAP (%)", "P95 latency (ms)"});
      // Protocol order follows the paper's table.
      std::vector<std::string> protocol_names = {"SSD+", "YOLO+"};
      if (device_case.device == DeviceType::kTx2) {
        protocol_names.push_back("ApproxDet");
      }
      for (const std::string& variant : VariantNames()) {
        protocol_names.push_back(variant);
      }
      // The whole (protocol x SLO) block fans out as one grid: every cell
      // builds its own protocol instance, so cells evaluate concurrently and
      // the printed table is identical for any thread count.
      std::vector<GridCell> cells;
      for (const std::string& name : protocol_names) {
        for (double slo : device_case.slos) {
          GridCell cell;
          cell.make_protocol = [&wb, device = device_case.device, name, slo] {
            return MakeProtocol(wb, device, name, slo);
          };
          cell.config.device = device_case.device;
          cell.config.gpu_contention = contention;
          cell.config.slo_ms = slo;
          cells.push_back(std::move(cell));
        }
      }
      std::vector<EvalResult> results = RunProtocolGrid(wb.validation(), cells);
      size_t cell_index = 0;
      for (const std::string& name : protocol_names) {
        std::vector<std::string> map_cells;
        std::vector<std::string> lat_cells;
        for (double slo : device_case.slos) {
          const EvalResult& result = results[cell_index++];
          map_cells.push_back(MapCell(result, slo));
          lat_cells.push_back(LatencyCell(result));
        }
        table.AddRow({name, Join(map_cells, " / "), Join(lat_cells, " / ")});
      }
      table.Print(std::cout);
    }
  }
  std::cout << "\nExpected shape (paper Table 2): LiteReconfig always meets the "
               "SLO and has the\nbest (or tied-best) accuracy; ApproxDet meets "
               "only the 100 ms TX2 objective;\nSSD+/YOLO+ fail under "
               "contention; MaxContent-MobileNet pays for its feature.\n";
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) {
  litereconfig::BenchThreads(argc, argv);
  litereconfig::Run();
  return 0;
}
