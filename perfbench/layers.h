// The traced run: one extra whole-workload call with every public hook
// attached (decision trace, phase clock, serving observer, per-video spans),
// followed by replays of each layer's public calls on the inputs that call
// recorded. Produces the per-layer metrics, a per-layer table whose self times
// plus an explicit residual add up to the traced wall time, and a span file.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <ostream>
#include <string>
#include <vector>

#include "perfbench/workloads.h"

namespace litereconfig::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedReport {
  std::vector<Metric> metrics;
  // Failed checks of the traced call (same checks as every other call).
  std::vector<std::string> problems;
};

// `untraced_wall_ms` is the median wall time of the untraced calls, the base
// the tracing overhead is measured against; `reference_json` is their result,
// which the traced call must reproduce byte for byte. Spans go to `span_path` as JSON
// lines when the run ends; the human-readable table goes to `report`.
TracedReport RunTraced(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                       const TrainedModels& models, double untraced_wall_ms,
                       const std::string& reference_json, const std::string& span_path,
                       std::ostream& report);

}  // namespace litereconfig::perfbench

#endif  // PERFBENCH_LAYERS_H_
