// Stream admission control for the multi-tenant serving layer.
//
// A marginal stream is only admitted when the device can carry it: its
// estimated GPU share must fit under the capacity cap on top of the shares
// already posted, and adding it must not push any existing stream's SLO
// infeasible (every admitted stream must keep at least one feasible branch at
// the inflated contention level). Otherwise the stream queues — in SLO-class
// priority order — or is rejected outright when it could never fit or has
// waited too long.
#ifndef SRC_SERVE_ADMISSION_H_
#define SRC_SERVE_ADMISSION_H_

#include <cstddef>

namespace litereconfig {

// Rounds a stream may wait in the queue before it is rejected.
inline constexpr int kMaxQueueRounds = 200;

struct AdmissionConfig {
  // Maximum total GPU share across admitted streams.
  double capacity = 0.90;
  // Hard cap on concurrently admitted streams.
  size_t max_streams = 16;
};

enum class AdmissionVerdict {
  kAdmit = 0,
  kQueue = 1,
  kReject = 2,
};

// Everything the controller needs to judge one candidate.
struct AdmissionRequest {
  // Estimated GPU share the candidate's cheapest feasible branch occupies at
  // the contention level it would experience if admitted.
  double candidate_share = 0.0;
  // Sum of the shares currently posted by admitted streams.
  double total_share = 0.0;
  size_t active_streams = 0;
  // Whether every existing stream keeps at least one SLO-feasible branch at
  // the contention level the candidate's share would inflate them to.
  bool keeps_existing_feasible = true;
  // Whether the candidate has any feasible branch when alone on the device;
  // a stream that cannot be served even on an idle device is rejected.
  bool feasible_alone = true;
  // Rounds the candidate has already waited in the queue.
  int rounds_queued = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config) : config_(config) {}

  AdmissionVerdict Evaluate(const AdmissionRequest& request) const;

 private:
  AdmissionConfig config_;
};

}  // namespace litereconfig

#endif  // SRC_SERVE_ADMISSION_H_
