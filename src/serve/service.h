// The multi-tenant streaming service: an open set of live streams, one
// LiteReconfig scheduler per stream, coupled through the shared GPU.
//
// The loop is a round-based synchronous simulation, which is what makes a
// coupled multi-stream run reproducible bit-for-bit at any thread count:
//
//   1. arrivals for the round join the pending queue;
//   2. admission control (SLO-class priority order, head-of-line) admits
//      streams the device can carry — capacity cap plus a feasibility check
//      that no existing stream is pushed SLO-infeasible;
//   3. the global allocator splits the per-frame GPU budget across the
//      admitted streams by weighted marginal accuracy per millisecond (or
//      equal-split, the baseline);
//   4. every stream steps one GoF in parallel under a contention snapshot
//      frozen from the *previous* round's posted GPU shares — sessions never
//      read each other's state inside the parallel region;
//   5. reports merge sequentially in stream order; shares post to the ledger;
//      finished streams depart and free their budget.
//
// The endogenous contention each stream experiences is the sum of the other
// streams' posted shares (src/platform/gpu_ledger.h) — serving replaces the
// simulated ContentionGenerator rather than stacking on top of it.
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/serve/admission.h"
#include "src/serve/allocator.h"
#include "src/serve/arrivals.h"
#include "src/serve/service_faults.h"
#include "src/serve/slo_class.h"
#include "src/serve/stream_session.h"

namespace litereconfig {

// One service happening, streamed to the optional observer as it occurs
// (sequentially, in deterministic order). The pipeline's ServeRunner adapts
// these onto the decision-trace format.
struct ServeEvent {
  enum class Kind {
    kAdmit = 0,
    kQueue = 1,
    kReject = 2,
    kDepart = 3,
    kGof = 4,
    kFault = 5,        // a fault was injected into a stream (kind in fault)
    kRenegotiate = 6,  // SLO class changed (demotion or restore; new_class)
    kEvict = 7,        // the pressure ladder shed the stream
    kDemote = 8,       // stream moved onto the CPU-only branch family
    kRestore = 9,      // stream resumed GPU-backed branches
  };
  Kind kind = Kind::kGof;
  uint64_t stream_id = 0;
  int round = 0;
  // GoF fields (kind == kGof).
  GofReport gof;
  double level = 0.0;
  double budget_ms = 0.0;
  // Fault fields (kind == kFault).
  FailureKind fault = FailureKind::kOom;
  int fault_frame = 0;
  // Renegotiation fields (kind == kRenegotiate): the class now in effect.
  SloClass new_class = SloClass::kStandard;
};

struct ServeConfig {
  SchedulerConfig scheduler;
  AdmissionConfig admission;
  AllocatorConfig allocator;
  // Fault injection: device-wide intervals (bursts, thermal ramps) hit every
  // stream in the same round snapshot; point faults resolve per stream. With
  // degrade on, the pressure ladder (coast / renegotiate / evict) engages
  // when the faulted device cannot carry all admitted streams.
  ServiceFaultConfig faults;
  // Worker threads for the per-stream fan-out; <= 0 resolves to the process
  // default. Results are identical for every value.
  int threads = 0;
  uint64_t service_salt = 1;
  // Optional event stream; invoked sequentially between parallel regions.
  std::function<void(const ServeEvent&)> observer;
};

// What one stream got out of the service.
struct StreamOutcome {
  uint64_t stream_id = 0;
  SloClass slo_class = SloClass::kStandard;
  double slo_ms = 33.3;
  int arrival_round = 0;
  int admit_round = -1;
  int depart_round = -1;
  bool rejected = false;
  int rounds_queued = 0;
  // Accuracy/latency over the stream's served frames.
  double map = 0.0;
  size_t frames = 0;
  int gofs = 0;
  int deadline_misses = 0;
  int switch_count = 0;
  int forced_gofs = 0;
  int infeasible_gofs = 0;
  std::vector<double> gof_frame_ms;
  // Robustness (meaningful only when the service runs with faults enabled).
  bool evicted = false;
  int renegotiations = 0;
  int coasted_rounds = 0;
  FaultAccounting robustness;
};

struct ServeResult {
  // One outcome per request, in stream_id order.
  std::vector<StreamOutcome> streams;
  int rounds = 0;
  size_t peak_concurrency = 0;
  size_t peak_queue = 0;
  int admitted = 0;
  int rejected = 0;
  // Aggregates over served streams.
  double mean_accuracy = 0.0;  // mean per-stream mAP
  int total_misses = 0;
  size_t total_frames = 0;
  // Per-SLO-class deadline-miss accounting (indexed by SloClass value).
  std::array<int, kNumSloClasses> misses_by_class = {};
  std::array<int, kNumSloClasses> gofs_by_class = {};
  std::array<int, kNumSloClasses> streams_by_class = {};
  // Robustness aggregates (all zero when faults are disabled).
  bool faults_active = false;
  int faults_injected = 0;
  int faults_absorbed = 0;
  int degraded_frames = 0;
  int recovery_events = 0;
  int recovery_gofs = 0;
  int renegotiations = 0;
  int evictions = 0;
  int coasted_rounds = 0;
  std::array<int, kNumSloClasses> evictions_by_class = {};
  // GPU-denial aggregates (all zero — and absent from the serialized
  // evaluation — unless the fault spec carries denial intervals).
  bool denials_active = false;
  int denied_rounds = 0;
  int cpu_fallback_gofs = 0;
};

class StreamingService {
 public:
  StreamingService(const TrainedModels* models, ServeConfig config);

  // Serves the arrival trace to completion. Deterministic: identical
  // (requests, config) produce identical results at any thread count.
  ServeResult Run(const std::vector<StreamRequest>& requests);

 private:
  const TrainedModels* models_;
  ServeConfig config_;
};

}  // namespace litereconfig

#endif  // SRC_SERVE_SERVICE_H_
