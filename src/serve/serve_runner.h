// The serving evaluation harness: runs the multi-tenant StreamingService over
// a seeded arrival trace and renders the outcome on the same surfaces the
// single-tenant runner uses — a one-line JSON record (the byte-diffable
// artifact of the serve-determinism CI job) and the decision-trace format
// (TraceWriter).
#ifndef SRC_SERVE_SERVE_RUNNER_H_
#define SRC_SERVE_SERVE_RUNNER_H_

#include <string>

#include "src/pipeline/trace.h"
#include "src/serve/service.h"

namespace litereconfig {

struct ServeEval {
  ServeResult result;
};

class ServeRunner {
 public:
  // Runs the service over the trace. When `trace` is non-null every admission
  // event and per-stream GoF lands in it as a DecisionRecord (the stream id is
  // carried in video_seed); the caller flushes. Deterministic at any
  // config.threads for fixed (models, spec, config).
  static ServeEval Run(const TrainedModels& models, const ArrivalSpec& spec,
                       const ServeConfig& config, TraceWriter* trace = nullptr);
};

// One-line JSON rendering of a serving run — aggregate accuracy, per-class
// deadline misses, admission counters, and the per-stream results. Two runs
// of the same spec must produce byte-identical strings at any thread count
// (the serve-determinism gate diffs exactly this).
std::string ServeEvalJson(const ServeEval& eval);

}  // namespace litereconfig

#endif  // SRC_SERVE_SERVE_RUNNER_H_
