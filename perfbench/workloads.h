// The benchmark workloads: what each one feeds the system, how one
// whole-workload call runs, and the output checks every call must pass.
//
// Every input is a pure function of (workload, seed, scale); the program under
// test only ever sees the generated inputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/pipeline/protocol.h"
#include "src/pipeline/runner.h"
#include "src/pipeline/trace.h"
#include "src/serve/serve_runner.h"
#include "src/video/dataset.h"

namespace litereconfig::perfbench {

enum class WorkloadKind { kOffline, kServe };

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kOffline;
  int threads = 1;
  // Offline workloads: OnlineRunner::Run of a LiteReconfig variant.
  DatasetSpec dataset;
  SchedulerConfig scheduler;
  std::string variant;
  double slo_ms = 33.3;
  // Serving workload: ServeRunner::Run over a seeded arrival trace.
  ArrivalSpec arrivals;
  ServeConfig serve;
};

// The named workload at `seed`; `tiny` shrinks every input for the self-test.
// Returns nullopt for an unknown name.
std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed,
                                         bool tiny);

// The generated inputs of one workload.
struct WorkloadInputs {
  Dataset dataset;                      // offline
  std::vector<StreamRequest> requests;  // serving
  // Frames the workload hands the system.
  size_t input_frames = 0;
};

WorkloadInputs BuildInputs(const WorkloadSpec& spec);

// Optional instrumentation for one call; the default is an untraced call that
// runs exactly what a user of the system runs.
struct RunHooks {
  PhaseClockFn now_us = nullptr;
  TraceWriter* trace = nullptr;
  std::function<void(const ServeEvent&)> observer;
  // Check that GoF lengths sum to the frames of every video (offline, through
  // a pass-through protocol wrapper) or stream (serving, through the
  // observer).
  bool check_gofs = false;
  // Offline only, with check_gofs: invoked on the worker thread after every
  // RunVideo with the host times the video started and ended.
  std::function<void(double start_us, double end_us)> on_video;
};

// What one whole-workload call produced, plus every check it failed.
struct RunOutput {
  // EvalResultJson / ServeEvalJson: the byte-comparable result surface.
  std::string json;
  // Simulated frames produced (served frames for the serving workload).
  size_t frames = 0;
  double map_pct = 0.0;
  double p95_ms = 0.0;
  int deadline_misses = 0;
  // Host times (NowMicros) around the OnlineRunner::Run or ServeRunner::Run
  // call alone, and its process CPU time; result rendering and checks are
  // excluded.
  double start_us = 0.0;
  double end_us = 0.0;
  double cpu_ms = 0.0;
  // Offline: the runner's aggregated phase profile.
  PhaseProfile phases;
  std::vector<std::string> problems;

  double wall_ms() const { return (end_us - start_us) / 1000.0; }
};

RunOutput RunWorkload(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                      const TrainedModels& models, int threads,
                      const RunHooks& hooks = {});

}  // namespace litereconfig::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
