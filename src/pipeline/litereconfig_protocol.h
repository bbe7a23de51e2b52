// The LiteReconfig runtime: the online loop that pairs the cost-and-content-aware
// scheduler with the MBEK (paper Figure 1).
//
// Per GoF: the scheduler decides (features + branch), the kernel executes, the
// platform charges detector/tracker/scheduler/switching time, and the observed
// detector latency continuously calibrates the latency predictor against
// contention (observed / profiled EWMA).
#ifndef SRC_PIPELINE_LITERECONFIG_PROTOCOL_H_
#define SRC_PIPELINE_LITERECONFIG_PROTOCOL_H_

#include <string>
#include <string_view>

#include "src/pipeline/protocol.h"
#include "src/pipeline/trace.h"
#include "src/sched/scheduler.h"

namespace litereconfig {

class LiteReconfigProtocol : public Protocol {
 public:
  LiteReconfigProtocol(const TrainedModels* models, SchedulerConfig config,
                       std::string name);

  std::string_view name() const override { return name_; }
  double MemoryGb() const override { return 4.1; }
  // Thread-safe: all runtime state (calibration, current branch, RNG) is local
  // to the call, seeded from the video seed and run salt.
  VideoRunStats RunVideo(const SyntheticVideo& video, const RunEnv& env) override;

  // Optional decision tracing; the writer must outlive the protocol's runs.
  void set_trace_writer(TraceWriter* writer) { trace_ = writer; }

  // Convenience constructors for the paper's four variants.
  static SchedulerConfig FullConfig();
  static SchedulerConfig MinCostConfig();
  // MaxContent-<feature>: the forced-feature mode with the feature's cost
  // charged against the budget.
  static SchedulerConfig MaxContentConfig(FeatureKind feature);
  // Table-4 protocol: one forced feature, overhead excluded from the budget.
  static SchedulerConfig ForcedFeatureConfig(FeatureKind feature);

 private:
  // Writes one non-decision trace record ("fault", "demote", "restore",
  // "replan", "recalibrate", "reanchor"); `id` lands in branch_id. A no-op
  // without a trace writer.
  void TraceEvent(std::string_view event, uint64_t video_seed, int frame,
                  std::string_view id) const;

  const TrainedModels* models_;
  LiteReconfigScheduler scheduler_;
  std::string name_;
  TraceWriter* trace_ = nullptr;
};

}  // namespace litereconfig

#endif  // SRC_PIPELINE_LITERECONFIG_PROTOCOL_H_
