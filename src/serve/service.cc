#include "src/serve/service.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <memory>

#include "src/mbek/branch.h"
#include "src/platform/gpu_ledger.h"
#include "src/platform/latency.h"
#include "src/util/thread_pool.h"

namespace litereconfig {

namespace {

struct ShareEstimate {
  bool feasible = false;
  // GPU occupancy (zero-contention detector duty cycle) of the cheapest
  // branch that stays SLO-feasible at the probed contention level.
  double share = 0.0;
};

// Content-agnostic estimate of the cheapest feasible branch for a stream with
// the given SLO at the given endogenous level. Feasibility is priced at the
// level the stream would experience; the share is the branch's profiled
// (zero-contention) detector time per capture interval — inflated time is
// waiting, not occupancy.
ShareEstimate CheapestShareAt(const TrainedModels& models, double slo_limit_ms,
                              double level, double frame_interval_ms,
                              bool gpu_available = true) {
  const BranchSpace& space = *models.space;
  LatencyModel probe(models.device, level);
  LatencyModel zero(models.device, 0.0);
  ShareEstimate estimate;
  double best = std::numeric_limits<double>::infinity();
  for (size_t b = 0; b < space.size(); ++b) {
    const Branch& branch = space.at(b);
    // Admission prices GPU capacity. With the GPU up, only GPU-backed
    // branches vouch for a candidate (a zero-share CPU branch must not admit
    // a stream that will in practice run on the GPU); during a denied round
    // only the CPU family — which is exactly what would run — counts, and it
    // claims no occupancy.
    if (gpu_available ? branch.detector.cpu : !branch.detector.cpu) {
      continue;
    }
    if (probe.BranchFrameMs(branch, kFallbackObjectCount) > slo_limit_ms) {
      continue;
    }
    double share = branch.detector.cpu
                       ? 0.0
                       : zero.DetectorMs(branch.detector) /
                             (static_cast<double>(std::max(branch.gof, 1)) *
                              frame_interval_ms);
    share = std::clamp(share, 0.0, 1.0);
    if (share < best) {
      best = share;
      estimate.feasible = true;
    }
  }
  estimate.share = estimate.feasible ? best : 0.0;
  return estimate;
}

// A stream waiting for admission.
struct PendingStream {
  StreamRequest request;
  size_t outcome = 0;  // index into the outcomes vector
  int rounds_queued = 0;
  bool queue_event_emitted = false;
};

bool PendingBefore(const PendingStream& a, const PendingStream& b) {
  int pa = SloClassPriority(a.request.slo_class);
  int pb = SloClassPriority(b.request.slo_class);
  if (pa != pb) {
    return pa < pb;
  }
  if (a.request.arrival_round != b.request.arrival_round) {
    return a.request.arrival_round < b.request.arrival_round;
  }
  return a.request.stream_id < b.request.stream_id;
}

// An admitted stream. Its index in the live list is its GPU-ledger slot.
struct LiveStream {
  std::unique_ptr<StreamSession> session;
  size_t outcome = 0;  // index into the outcomes vector
  // Whether the stream's last detector-running round was on the CPU family;
  // the demote/restore events fire on the edges.
  bool cpu_mode = false;
  // This round: the frozen contention level, the allocator demand, the
  // pressure ladder's coast and CPU-only demotion, and the granted budget.
  double level = 0.0;
  StreamDemand demand;
  bool coast = false;
  bool cpu_only = false;
  double budget_ms = 0.0;
};

// Later arrival, ties to the higher stream id: the order in which streams
// yield to pressure.
bool NewerThan(const LiveStream& a, const LiveStream& b) {
  const StreamRequest& ra = a.session->request();
  const StreamRequest& rb = b.session->request();
  if (ra.arrival_round != rb.arrival_round) {
    return ra.arrival_round > rb.arrival_round;
  }
  return ra.stream_id > rb.stream_id;
}

// Safety cap on planning rounds (a stalled queue cannot loop forever); also
// the horizon of the device fault plan.
constexpr int kMaxRounds = 100000;

}  // namespace

StreamingService::StreamingService(const TrainedModels* models,
                                   ServeConfig config)
    : models_(models), config_(std::move(config)) {
  assert(models_ != nullptr);
}

ServeResult StreamingService::Run(const std::vector<StreamRequest>& requests) {
  ServeResult result;
  result.streams.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    StreamOutcome& outcome = result.streams[i];
    outcome.stream_id = requests[i].stream_id;
    outcome.slo_class = requests[i].slo_class;
    outcome.slo_ms = requests[i].slo_ms;
    outcome.arrival_round = requests[i].arrival_round;
  }
  // Requests in arrival order (the generator emits them sorted; re-sorting
  // makes Run robust to hand-built traces).
  std::vector<size_t> order(requests.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (requests[a].arrival_round != requests[b].arrival_round) {
      return requests[a].arrival_round < requests[b].arrival_round;
    }
    return requests[a].stream_id < requests[b].stream_id;
  });

  SwitchingCostModel switching(models_->device);
  AdmissionController admission(config_.admission);

  // Device-wide fault schedule: one plan for the whole service, frozen into
  // the round snapshot so every stream sees the same faulted device state.
  bool faults_active = config_.faults.spec.Any();
  result.faults_active = faults_active;
  bool degrade = faults_active && config_.faults.degrade;
  const FaultPlan device_plan = DeviceFaultPlan(
      config_.faults.spec, config_.faults.fault_seed, kMaxRounds);

  result.denials_active =
      faults_active && config_.faults.spec.denials_per_100_frames > 0.0;

  GpuShareLedger ledger;
  std::vector<LiveStream> live;
  std::vector<PendingStream> queue;
  int round = 0;
  auto emit = [&](const ServeEvent& event) {
    if (config_.observer) {
      config_.observer(event);
    }
  };
  // Departure or eviction: the session's stats go into its outcome, the
  // event is emitted, and the ledger slot and the record are dropped.
  auto retire = [&](size_t i, ServeEvent::Kind kind) {
    StreamSession& session = *live[i].session;
    bool evicted = kind == ServeEvent::Kind::kEvict;
    if (evicted) {
      session.RecordEviction();
    }
    StreamOutcome& outcome = result.streams[live[i].outcome];
    outcome.depart_round = round;
    outcome.map = session.eval().MeanAveragePrecision();
    outcome.frames = static_cast<size_t>(session.frames_emitted());
    outcome.gofs = static_cast<int>(session.gof_frame_ms().size());
    outcome.deadline_misses = session.deadline_misses();
    outcome.switch_count = session.switch_count();
    outcome.forced_gofs = session.forced_gofs();
    outcome.infeasible_gofs = session.infeasible_gofs();
    outcome.gof_frame_ms = session.gof_frame_ms();
    outcome.renegotiations = session.renegotiations();
    outcome.coasted_rounds = session.coasted_rounds();
    outcome.robustness = session.fault_accounting();
    outcome.evicted = evicted;
    ServeEvent event;
    event.kind = kind;
    event.stream_id = session.request().stream_id;
    event.round = round;
    emit(event);
    ledger.RemoveStream(i);
    live.erase(live.begin() + static_cast<long>(i));
  };
  // A renegotiation or a restore: the class now in effect goes to the
  // allocator and out with the event.
  auto class_changed = [&](LiveStream& stream) {
    stream.demand.slo_class = stream.session->effective_class();
    ServeEvent event;
    event.kind = ServeEvent::Kind::kRenegotiate;
    event.stream_id = stream.session->request().stream_id;
    event.round = round;
    event.new_class = stream.session->effective_class();
    emit(event);
  };
  // The newest eligible live stream, live.size() when none is.
  auto newest = [&](auto eligible) {
    size_t pick = live.size();
    for (size_t i = 0; i < live.size(); ++i) {
      if (eligible(live[i]) &&
          (pick == live.size() || NewerThan(live[i], live[pick]))) {
        pick = i;
      }
    }
    return pick;
  };

  size_t next_arrival = 0;
  while (next_arrival < requests.size() || !queue.empty() || !live.empty()) {
    if (round >= kMaxRounds) {
      // Safety valve: whatever is still pending is turned away.
      for (PendingStream& pending : queue) {
        result.streams[pending.outcome].rejected = true;
        result.streams[pending.outcome].rounds_queued = pending.rounds_queued;
        ++result.rejected;
      }
      queue.clear();
      break;
    }
    // Device-wide fault snapshot for the round, frozen alongside the
    // contention snapshot below: every admission probe, menu, budget, and
    // session step this round sees the same (burst, thermal) state.
    double burst_level = device_plan.BurstLevelAt(round);
    double thermal = device_plan.ThermalScaleAt(round);
    std::array<int, kNumIntervalKinds> interval_index;
    for (int k = 0; k < kNumIntervalKinds; ++k) {
      interval_index[static_cast<size_t>(k)] =
          device_plan.IndexAt(static_cast<IntervalKind>(k), round);
    }
    // Correlated GPU denial: during a denied round no stream on the device
    // can invoke a GPU kernel. Every menu, fit check, and session step this
    // round prices from the CPU family (or coasts without one).
    bool gpu_available = !device_plan.GpuDeniedAt(round);
    // 1. Arrivals join the pending queue.
    while (next_arrival < requests.size() &&
           requests[order[next_arrival]].arrival_round <= round) {
      PendingStream pending;
      pending.request = requests[order[next_arrival]];
      pending.outcome = order[next_arrival];
      queue.push_back(pending);
      ++next_arrival;
    }
    // 2. Admission in SLO-class priority order, head-of-line: once one
    // candidate has to wait, everything behind it waits too — budget freed by
    // departures goes to the highest-priority waiter, never leap-frogged.
    std::stable_sort(queue.begin(), queue.end(), PendingBefore);
    std::vector<PendingStream> still_pending;
    bool blocked = false;
    for (PendingStream& pending : queue) {
      StreamOutcome& outcome = result.streams[pending.outcome];
      if (blocked) {
        ++pending.rounds_queued;
        still_pending.push_back(pending);
        continue;
      }
      double limit = pending.request.slo_ms * kSloMargin;
      double interval = 1000.0 / pending.request.video.fps;
      ShareEstimate alone =
          CheapestShareAt(*models_, limit, 0.0, interval, gpu_available);
      // Admission prices the candidate at the faulted level: a burst in
      // progress tightens the door exactly when the device has less to give.
      double level_if_admitted = std::min(
          kMaxEndogenousLevel, ledger.TotalShare() + burst_level);
      ShareEstimate admitted_est = CheapestShareAt(
          *models_, limit, level_if_admitted, interval, gpu_available);
      double candidate_share = admitted_est.feasible ? admitted_est.share
                                                     : alone.share;
      bool keeps_feasible = admitted_est.feasible;
      for (size_t i = 0; keeps_feasible && i < live.size(); ++i) {
        double inflated = std::min(
            kMaxEndogenousLevel,
            ledger.LevelFor(i) + candidate_share + burst_level);
        keeps_feasible = live[i].session->FeasibleAt(inflated);
      }
      AdmissionRequest request;
      request.candidate_share = candidate_share;
      request.total_share = ledger.TotalShare();
      request.active_streams = live.size();
      request.keeps_existing_feasible = keeps_feasible;
      request.feasible_alone = alone.feasible;
      request.rounds_queued = pending.rounds_queued;
      AdmissionVerdict verdict = admission.Evaluate(request);
      ServeEvent event;
      event.stream_id = pending.request.stream_id;
      event.round = round;
      switch (verdict) {
        case AdmissionVerdict::kAdmit: {
          LiveStream stream;
          stream.session = std::make_unique<StreamSession>(
              models_, config_.scheduler, pending.request, &switching,
              config_.service_salt,
              faults_active ? &config_.faults : nullptr);
          stream.outcome = pending.outcome;
          size_t index = ledger.AddStream(candidate_share);
          assert(index == live.size());
          (void)index;
          live.push_back(std::move(stream));
          outcome.admit_round = round;
          outcome.rounds_queued = pending.rounds_queued;
          ++result.admitted;
          event.kind = ServeEvent::Kind::kAdmit;
          emit(event);
          break;
        }
        case AdmissionVerdict::kReject: {
          outcome.rejected = true;
          outcome.rounds_queued = pending.rounds_queued;
          ++result.rejected;
          event.kind = ServeEvent::Kind::kReject;
          emit(event);
          break;
        }
        case AdmissionVerdict::kQueue: {
          blocked = true;
          if (!pending.queue_event_emitted) {
            pending.queue_event_emitted = true;
            event.kind = ServeEvent::Kind::kQueue;
            emit(event);
          }
          ++pending.rounds_queued;
          still_pending.push_back(pending);
          break;
        }
      }
    }
    queue = std::move(still_pending);
    result.peak_queue = std::max(result.peak_queue, queue.size());
    result.peak_concurrency = std::max(result.peak_concurrency, live.size());
    if (live.empty()) {
      ++round;
      continue;
    }
    // 3. Freeze the contention snapshot (previous round's posted shares plus
    // the device-wide burst) and collect demands; the allocator splits the
    // round's budget.
    double frame_interval = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < live.size(); ++i) {
      LiveStream& stream = live[i];
      StreamSession& session = *stream.session;
      stream.level =
          std::min(kMaxEndogenousLevel, ledger.LevelFor(i) + burst_level);
      stream.demand.slo_ms = session.request().slo_ms;
      stream.demand.slo_class = session.effective_class();
      stream.demand.menu = session.Menu(stream.level, thermal, gpu_available);
      stream.coast = false;
      stream.cpu_only = false;
      frame_interval = std::min(frame_interval, session.FrameIntervalMs());
    }
    if (degrade) {
      // 3b. Pressure ladder. The fit check asks whether every stream's
      // cheapest affordable round — coasted streams at their tracker-only
      // cost, the rest at the cheapest menu option — fits the round budget
      // under the faulted device state. When it does not, escalate
      // deterministically, newest stream first: demote best-effort streams
      // onto the CPU family, coast best-effort streams tracker-only, then
      // renegotiate standard streams down a class (restored when pressure
      // clears), then evict in strict reverse-priority/arrival order.
      auto stream_cost = [&](const LiveStream& stream) {
        const StreamSession& session = *stream.session;
        if (stream.coast) {
          return session.CoastFrameMs(thermal);
        }
        if (!stream.demand.menu.empty()) {
          return stream.demand.menu.front().frame_ms;
        }
        // Nothing SLO-feasible this round: the stream still runs its
        // cheapest *available* branch (the CPU family under a denial or a
        // demotion, a tracker-only coast when even that is absent), so the
        // fit check must still charge for it.
        if (!gpu_available || stream.cpu_only) {
          if (session.has_cpu_family()) {
            return session.CheapestFrameMs(stream.level, thermal,
                                           /*gpu_available=*/false);
          }
          if (session.CanCoast()) {
            return session.CoastFrameMs(thermal);
          }
        }
        return session.CheapestFrameMs(stream.level, thermal);
      };
      auto total_cost = [&]() {
        double total = 0.0;
        for (const LiveStream& stream : live) {
          total += stream_cost(stream);
        }
        return total;
      };
      auto of_class = [](SloClass cls) {
        return [cls](const LiveStream& stream) {
          return stream.session->effective_class() == cls;
        };
      };
      // Pressure cleared: the nominal round (no coasts) fits again, so every
      // renegotiated stream gets its requested class back.
      if (total_cost() <= frame_interval) {
        for (LiveStream& stream : live) {
          StreamSession& session = *stream.session;
          if (session.effective_class() != session.request().slo_class) {
            session.RestoreClass();
            class_changed(stream);
          }
        }
      }
      while (live.size() >= 2 && total_cost() > frame_interval) {
        // Rung 0: demote a best-effort stream onto the CPU-only family for
        // the round — detection continues (unlike coasting) and the GPU is
        // freed — but only when the CPU family is actually cheaper than what
        // the stream would otherwise charge.
        size_t pick = newest([&](const LiveStream& stream) {
          const StreamSession& session = *stream.session;
          return session.effective_class() == SloClass::kBestEffort &&
                 session.has_cpu_family() && !stream.cpu_only &&
                 !stream.coast &&
                 session.CheapestFrameMs(stream.level, thermal,
                                         /*gpu_available=*/false) <
                     stream_cost(stream);
        });
        if (pick < live.size()) {
          LiveStream& stream = live[pick];
          stream.cpu_only = true;
          stream.demand.menu = stream.session->Menu(stream.level, thermal,
                                                    /*gpu_available=*/false);
          continue;
        }
        // Rung 1: coast a best-effort stream tracker-only for the round.
        pick = newest([](const LiveStream& stream) {
          return stream.session->effective_class() == SloClass::kBestEffort &&
                 stream.session->CanCoast() && !stream.coast;
        });
        if (pick < live.size()) {
          live[pick].coast = true;
          continue;
        }
        // Rung 2: renegotiate a standard stream down one class; it becomes
        // coastable on the next iteration.
        pick = newest(of_class(SloClass::kStandard));
        if (pick < live.size()) {
          live[pick].session->Renegotiate(SloClass::kBestEffort);
          class_changed(live[pick]);
          continue;
        }
        // Rung 3: evict. Reverse priority order — a strict stream is never
        // shed while any lower class survives.
        for (SloClass cls : {SloClass::kBestEffort, SloClass::kStandard,
                             SloClass::kStrict}) {
          pick = newest(of_class(cls));
          if (pick < live.size()) {
            break;
          }
        }
        retire(pick, ServeEvent::Kind::kEvict);
      }
    }
    // 3c. Budgets: coasted streams run tracker-only off the top of the round
    // budget; the allocator splits what remains across the streams that still
    // invoke their detectors.
    double coast_total = 0.0;
    std::vector<StreamDemand> running;
    for (const LiveStream& stream : live) {
      if (stream.coast) {
        coast_total += stream.session->CoastFrameMs(thermal);
      } else {
        running.push_back(stream.demand);
      }
    }
    std::vector<double> granted = AllocateBudgets(
        config_.allocator.mode,
        frame_interval * std::max(0.0, 1.0 - coast_total / frame_interval),
        running);
    for (size_t i = 0, r = 0; i < live.size(); ++i) {
      live[i].budget_ms = live[i].coast ? 0.0 : granted[r++];
    }
    // 4. Parallel step: sessions touch only their own state; the coupling is
    // entirely in the StepConditions, all frozen above.
    std::vector<GofReport> reports(live.size());
    ThreadPool::Shared().ParallelFor(
        live.size(),
        [&](size_t i) {
          const LiveStream& stream = live[i];
          StepConditions conditions;
          conditions.level = stream.level;
          conditions.budget_ms = stream.budget_ms;
          conditions.thermal_scale = thermal;
          conditions.coast = stream.coast;
          conditions.interval_index = interval_index;
          conditions.gpu_available = gpu_available && !stream.cpu_only;
          reports[i] = stream.session->StepGof(conditions);
        },
        ResolveThreadCount(config_.threads));
    // 5. Sequential merge in stream order: post shares, emit events, depart.
    for (size_t i = 0; i < live.size(); ++i) {
      LiveStream& stream = live[i];
      const GofReport& report = reports[i];
      uint64_t stream_id = stream.session->request().stream_id;
      ledger.SetShare(i, report.gpu_share);
      for (const FailureReport& failure : report.faults) {
        ServeEvent fault_event;
        fault_event.kind = ServeEvent::Kind::kFault;
        fault_event.stream_id = stream_id;
        fault_event.round = round;
        fault_event.fault = failure.kind;
        fault_event.fault_frame = failure.frame;
        emit(fault_event);
      }
      // Demote/restore edges: compare the family this round's detector ran
      // on against the stream's last detector-running round. Coasted and
      // tail rounds run no detector and leave the mode untouched.
      bool ran_detector =
          !report.coasted && !report.tail && report.gof_length > 0;
      if (ran_detector && report.cpu_fallback != stream.cpu_mode) {
        stream.cpu_mode = report.cpu_fallback;
        ServeEvent edge;
        edge.kind = report.cpu_fallback ? ServeEvent::Kind::kDemote
                                        : ServeEvent::Kind::kRestore;
        edge.stream_id = stream_id;
        edge.round = round;
        emit(edge);
      }
      ServeEvent event;
      event.kind = ServeEvent::Kind::kGof;
      event.stream_id = stream_id;
      event.round = round;
      event.gof = report;
      event.level = stream.level;
      event.budget_ms = stream.budget_ms;
      emit(event);
    }
    for (size_t i = live.size(); i-- > 0;) {
      if (live[i].session->done()) {
        retire(i, ServeEvent::Kind::kDepart);
      }
    }
    ++round;
  }
  result.rounds = round;

  // Aggregates over served streams; outcomes reported in stream_id order.
  // Without faults every robustness counter summed here is zero.
  std::stable_sort(result.streams.begin(), result.streams.end(),
                   [](const StreamOutcome& a, const StreamOutcome& b) {
                     return a.stream_id < b.stream_id;
                   });
  size_t served = 0;
  double accuracy_sum = 0.0;
  for (const StreamOutcome& outcome : result.streams) {
    if (outcome.admit_round < 0) {
      continue;
    }
    ++served;
    accuracy_sum += outcome.map;
    result.total_misses += outcome.deadline_misses;
    result.total_frames += outcome.frames;
    size_t cls = static_cast<size_t>(outcome.slo_class);
    result.misses_by_class[cls] += outcome.deadline_misses;
    result.gofs_by_class[cls] += outcome.gofs;
    ++result.streams_by_class[cls];
    result.faults_injected += outcome.robustness.faults_injected;
    result.faults_absorbed += outcome.robustness.faults_absorbed;
    result.degraded_frames += outcome.robustness.degraded_frames;
    result.recovery_events += outcome.robustness.recovery_events;
    result.recovery_gofs += outcome.robustness.recovery_gofs;
    result.renegotiations += outcome.renegotiations;
    result.coasted_rounds += outcome.coasted_rounds;
    result.denied_rounds += outcome.robustness.denied_gofs;
    result.cpu_fallback_gofs += outcome.robustness.cpu_fallback_gofs;
    if (outcome.evicted) {
      ++result.evictions;
      ++result.evictions_by_class[cls];
    }
  }
  result.mean_accuracy =
      served > 0 ? accuracy_sum / static_cast<double>(served) : 0.0;
  return result;
}

}  // namespace litereconfig
