#include "src/serve/admission.h"

namespace litereconfig {

AdmissionVerdict AdmissionController::Evaluate(
    const AdmissionRequest& request) const {
  // Rejections first: the stream could never fit, or it has waited too long.
  if (!request.feasible_alone) {
    return AdmissionVerdict::kReject;
  }
  if (request.rounds_queued >= kMaxQueueRounds) {
    return AdmissionVerdict::kReject;
  }
  // Admission: the marginal share fits under capacity (boundary inclusive —
  // a stream that exactly fills the device is admitted), the session cap
  // holds, and no existing stream is pushed infeasible.
  if (request.active_streams < config_.max_streams &&
      request.total_share + request.candidate_share <= config_.capacity &&
      request.keeps_existing_feasible) {
    return AdmissionVerdict::kAdmit;
  }
  // Otherwise wait for departures.
  return AdmissionVerdict::kQueue;
}

}  // namespace litereconfig
