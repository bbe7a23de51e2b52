#include "src/serve/serve_runner.h"

#include <sstream>

#include "src/platform/device.h"
#include "src/util/stats.h"
#include "src/util/strings.h"

namespace litereconfig {

namespace {

std::string_view ServeEventName(ServeEvent::Kind kind) {
  switch (kind) {
    case ServeEvent::Kind::kAdmit:
      return "admit";
    case ServeEvent::Kind::kQueue:
      return "queue";
    case ServeEvent::Kind::kReject:
      return "reject";
    case ServeEvent::Kind::kDepart:
      return "depart";
    case ServeEvent::Kind::kGof:
      return "decision";
    case ServeEvent::Kind::kFault:
      return "fault";
    case ServeEvent::Kind::kRenegotiate:
      return "renegotiate";
    case ServeEvent::Kind::kEvict:
      return "evict";
    case ServeEvent::Kind::kDemote:
      return "demote";
    case ServeEvent::Kind::kRestore:
      return "restore";
  }
  return "unknown";
}

DecisionRecord ToRecord(const TrainedModels& models, const ServeEvent& event) {
  DecisionRecord record;
  record.event = std::string(ServeEventName(event.kind));
  // Streams play the role videos play in the single-tenant trace: records are
  // buffered and grouped per stream id.
  record.video_seed = event.stream_id;
  if (event.kind == ServeEvent::Kind::kFault) {
    // The fault kind rides in branch_id, like the single-tenant fault trace.
    record.frame = event.fault_frame;
    record.branch_id = std::string(FailureKindName(event.fault));
    return record;
  }
  if (event.kind == ServeEvent::Kind::kRenegotiate) {
    // The class now in effect rides in branch_id.
    record.frame = event.round;
    record.branch_id = std::string(SloClassName(event.new_class));
    return record;
  }
  if (event.kind != ServeEvent::Kind::kGof) {
    record.frame = event.round;
    return record;
  }
  record.frame = event.gof.frame;
  record.branch_id = models.space->at(event.gof.branch).Id();
  record.predicted_accuracy = event.gof.predicted_accuracy;
  record.predicted_frame_ms = event.gof.predicted_frame_ms;
  record.scheduler_cost_ms = event.gof.scheduler_ms;
  record.switch_cost_ms = event.gof.switch_ms;
  record.actual_frame_ms = event.gof.frame_ms;
  record.gof_length = event.gof.gof_length;
  record.switched = event.gof.switched;
  record.infeasible = event.gof.infeasible;
  record.missed = event.gof.missed;
  // In serving mode the calibration is analytic: the inflation at the frozen
  // endogenous level.
  record.gpu_cal = ContentionGenerator(event.level).GpuInflation();
  return record;
}

}  // namespace

ServeEval ServeRunner::Run(const TrainedModels& models, const ArrivalSpec& spec,
                           const ServeConfig& config, TraceWriter* trace) {
  std::vector<StreamRequest> requests = GenerateArrivals(spec);
  ServeConfig run_config = config;
  if (trace != nullptr) {
    std::function<void(const ServeEvent&)> inner = config.observer;
    run_config.observer = [trace, &models, inner](const ServeEvent& event) {
      trace->Write(ToRecord(models, event));
      if (inner) {
        inner(event);
      }
    };
  }
  StreamingService service(&models, run_config);
  ServeEval eval;
  eval.result = service.Run(requests);
  return eval;
}

std::string ServeEvalJson(const ServeEval& eval) {
  const ServeResult& r = eval.result;
  std::ostringstream os;
  os << "{\"mean_accuracy\":" << FmtDouble(r.mean_accuracy, 6)
     << ",\"total_misses\":" << r.total_misses
     << ",\"total_frames\":" << r.total_frames
     << ",\"rounds\":" << r.rounds
     << ",\"peak_concurrency\":" << r.peak_concurrency
     << ",\"peak_queue\":" << r.peak_queue
     << ",\"admitted\":" << r.admitted
     << ",\"rejected\":" << r.rejected;
  os << ",\"misses_by_class\":{";
  for (int c = 0; c < kNumSloClasses; ++c) {
    if (c > 0) {
      os << ",";
    }
    os << "\"" << SloClassName(static_cast<SloClass>(c))
       << "\":" << r.misses_by_class[static_cast<size_t>(c)];
  }
  os << "},\"gofs_by_class\":{";
  for (int c = 0; c < kNumSloClasses; ++c) {
    if (c > 0) {
      os << ",";
    }
    os << "\"" << SloClassName(static_cast<SloClass>(c))
       << "\":" << r.gofs_by_class[static_cast<size_t>(c)];
  }
  os << "}";
  // The whole fault block is emitted only when the run injected faults, so a
  // no-fault run's JSON is byte-identical to a build without the fault path.
  if (r.faults_active) {
    os << ",\"faults\":{\"injected\":" << r.faults_injected
       << ",\"absorbed\":" << r.faults_absorbed
       << ",\"degraded_frames\":" << r.degraded_frames
       << ",\"recovery_events\":" << r.recovery_events
       << ",\"recovery_gofs\":" << r.recovery_gofs
       << ",\"renegotiations\":" << r.renegotiations
       << ",\"evictions\":" << r.evictions
       << ",\"coasted_rounds\":" << r.coasted_rounds;
    // Denial sub-block only when the spec carries GPU-denial intervals, so
    // the JSON of every pre-existing fault preset stays byte-identical.
    if (r.denials_active) {
      os << ",\"denied_rounds\":" << r.denied_rounds
         << ",\"cpu_fallback_gofs\":" << r.cpu_fallback_gofs;
    }
    os << ",\"evictions_by_class\":{";
    for (int c = 0; c < kNumSloClasses; ++c) {
      if (c > 0) {
        os << ",";
      }
      os << "\"" << SloClassName(static_cast<SloClass>(c))
         << "\":" << r.evictions_by_class[static_cast<size_t>(c)];
    }
    os << "}}";
  }
  os << ",\"streams\":[";
  for (size_t i = 0; i < r.streams.size(); ++i) {
    const StreamOutcome& s = r.streams[i];
    if (i > 0) {
      os << ",";
    }
    os << "{\"id\":" << s.stream_id
       << ",\"class\":\"" << SloClassName(s.slo_class) << "\""
       << ",\"slo_ms\":" << FmtDouble(s.slo_ms, 3)
       << ",\"arrival\":" << s.arrival_round
       << ",\"admit\":" << s.admit_round
       << ",\"depart\":" << s.depart_round
       << ",\"rejected\":" << (s.rejected ? "true" : "false")
       << ",\"queued_rounds\":" << s.rounds_queued
       << ",\"map\":" << FmtDouble(s.map, 6)
       << ",\"mean_ms\":" << FmtDouble(Mean(s.gof_frame_ms), 4)
       << ",\"p95_ms\":" << FmtDouble(Percentile(s.gof_frame_ms, 0.95), 4)
       << ",\"misses\":" << s.deadline_misses
       << ",\"gofs\":" << s.gofs
       << ",\"frames\":" << s.frames
       << ",\"switches\":" << s.switch_count
       << ",\"forced\":" << s.forced_gofs
       << ",\"infeasible\":" << s.infeasible_gofs;
    if (r.faults_active) {
      os << ",\"evicted\":" << (s.evicted ? "true" : "false")
         << ",\"renegotiations\":" << s.renegotiations
         << ",\"coasted_rounds\":" << s.coasted_rounds
         << ",\"faults_injected\":" << s.robustness.faults_injected
         << ",\"faults_absorbed\":" << s.robustness.faults_absorbed
         << ",\"degraded_frames\":" << s.robustness.degraded_frames
         << ",\"recovery_events\":" << s.robustness.recovery_events
         << ",\"recovery_gofs\":" << s.robustness.recovery_gofs;
      if (r.denials_active) {
        os << ",\"denied_rounds\":" << s.robustness.denied_gofs
           << ",\"cpu_fallback_gofs\":" << s.robustness.cpu_fallback_gofs;
      }
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace litereconfig
