// Reproduces paper Table 1: the features the scheduler can use, their
// dimensionality, and their extraction / accuracy-model-prediction costs on the
// Jetson TX2 profile. Every cell comes from the latency model, so the table is
// the same on every run; perfbench's replay table times the real extractors on
// production inputs.
#include <iostream>

#include "bench/bench_util.h"
#include "src/features/feature.h"
#include "src/platform/latency.h"

namespace litereconfig {
namespace {

void Run() {
  std::cout << "=== Table 1: scheduler features and their costs (TX2 profile) ===\n";
  LatencyModel tx2(DeviceType::kTx2, 0.0);

  TablePrinter table({"Feature", "Dim", "Extract (ms)", "Predict (ms)", "Placement"});
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    FeatureKind kind = static_cast<FeatureKind>(k);
    const FeatureCost& cost = GetFeatureCost(kind);
    table.AddRow({std::string(FeatureName(kind)),
                  std::to_string(FeatureDimension(kind)),
                  FmtDouble(tx2.FeatureExtractMs(kind), 2),
                  FmtDouble(tx2.FeaturePredictMs(kind), 2),
                  cost.extract_on_gpu ? "GPU" : "CPU"});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference (TX2): Light 0.12/3.71, HoC 14.14/4.94, "
               "HOG 25.32/4.93,\nResNet50 26.96/6.07, CPoP 3.62/4.84, "
               "MobileNetV2 153.96/9.33 (extract/predict ms).\n";
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) {
  litereconfig::BenchThreads(argc, argv);
  litereconfig::Run();
  return 0;
}
