#include "src/serve/service.h"

#include <algorithm>
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
  AllocatorConfig allocator = config_.allocator;
  // The allocator must speak the scheduler's margin: a granted budget has to
  // land exactly on the menu cost it paid for after the margin multiply.
  allocator.slo_margin = config_.scheduler.slo_margin;
  double slo_margin = config_.scheduler.slo_margin;

  // Device-wide fault schedule: one plan for the whole service, frozen into
  // the round snapshot so every stream sees the same faulted device state.
  bool faults_active = config_.faults.spec.Any();
  result.faults_active = faults_active;
  bool degrade = faults_active && config_.faults.degrade;
  ServiceFaultPlan device_plan;
  if (faults_active) {
    device_plan = ServiceFaultPlan(config_.faults.spec,
                                   config_.faults.fault_seed,
                                   config_.max_rounds);
  }

  result.denials_active =
      faults_active && config_.faults.spec.denials_per_100_frames > 0.0;

  GpuShareLedger ledger;
  std::vector<std::unique_ptr<StreamSession>> sessions;
  std::vector<size_t> session_outcome;  // aligned with `sessions`
  // Whether each live session's last detector-running round was on the CPU
  // family; the demote/restore events fire on the edges.
  std::vector<char> session_cpu_mode;  // aligned with `sessions`
  std::vector<PendingStream> queue;
  auto emit = [&](const ServeEvent& event) {
    if (config_.observer) {
      config_.observer(event);
    }
  };
  // Copies a live session's stats into its outcome (departure and eviction).
  auto finalize = [&](size_t i, int round) {
    StreamOutcome& outcome = result.streams[session_outcome[i]];
    const StreamSession& session = *sessions[i];
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
  };

  size_t next_arrival = 0;
  int round = 0;
  while (next_arrival < requests.size() || !queue.empty() ||
         !sessions.empty()) {
    if (round >= config_.max_rounds) {
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
    double burst_level = faults_active ? device_plan.BurstLevelAt(round) : 0.0;
    double thermal = faults_active ? device_plan.ThermalScaleAt(round) : 1.0;
    int burst_index = faults_active ? device_plan.BurstIndexAt(round) : -1;
    int ramp_index = faults_active ? device_plan.RampIndexAt(round) : -1;
    // Correlated GPU denial: during a denied round no stream on the device
    // can invoke a GPU kernel. Every menu, fit check, and session step this
    // round prices from the CPU family (or coasts without one).
    int denial_index = faults_active ? device_plan.DenialIndexAt(round) : -1;
    bool gpu_available = denial_index < 0;
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
      double limit = pending.request.slo_ms * slo_margin;
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
      for (size_t i = 0; keeps_feasible && i < sessions.size(); ++i) {
        double inflated = std::min(
            kMaxEndogenousLevel,
            ledger.LevelFor(i) + candidate_share + burst_level);
        keeps_feasible = sessions[i]->FeasibleAt(inflated);
      }
      AdmissionRequest request;
      request.candidate_share = candidate_share;
      request.total_share = ledger.TotalShare();
      request.active_streams = sessions.size();
      request.queued_streams = still_pending.size();
      request.keeps_existing_feasible = keeps_feasible;
      request.feasible_alone = alone.feasible;
      request.rounds_queued = pending.rounds_queued;
      AdmissionVerdict verdict = admission.Evaluate(request);
      ServeEvent event;
      event.stream_id = pending.request.stream_id;
      event.round = round;
      switch (verdict) {
        case AdmissionVerdict::kAdmit: {
          auto session = std::make_unique<StreamSession>(
              models_, config_.scheduler, pending.request, &switching,
              config_.service_salt,
              faults_active ? &config_.faults : nullptr);
          size_t index = ledger.AddStream(candidate_share);
          assert(index == sessions.size());
          (void)index;
          sessions.push_back(std::move(session));
          session_outcome.push_back(pending.outcome);
          session_cpu_mode.push_back(0);
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
    result.peak_concurrency =
        std::max(result.peak_concurrency, sessions.size());
    if (sessions.empty()) {
      ++round;
      continue;
    }
    // 3. Freeze the contention snapshot (previous round's posted shares plus
    // the device-wide burst) and collect demands; the allocator splits the
    // round's budget.
    size_t active = sessions.size();
    std::vector<double> levels(active);
    std::vector<StreamDemand> demands(active);
    double frame_interval = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < active; ++i) {
      levels[i] =
          std::min(kMaxEndogenousLevel, ledger.LevelFor(i) + burst_level);
      demands[i].slo_ms = sessions[i]->request().slo_ms;
      demands[i].slo_class = sessions[i]->effective_class();
      demands[i].menu = sessions[i]->Menu(levels[i], thermal, gpu_available);
      frame_interval = std::min(frame_interval, sessions[i]->FrameIntervalMs());
    }
    std::vector<bool> coast(active, false);
    // Pressure-ladder demotions onto the CPU family for this round (distinct
    // from the device-wide denial, which masks every stream at once).
    std::vector<bool> cpu_only(active, false);
    if (degrade) {
      // 3b. Pressure ladder. The fit check asks whether every stream's
      // cheapest affordable round — coasted streams at their tracker-only
      // cost, the rest at the cheapest menu option — fits the round budget
      // under the faulted device state. When it does not, escalate
      // deterministically: coast best-effort streams tracker-only, then
      // renegotiate standard streams down a class (restored when pressure
      // clears), then evict in strict reverse-priority/arrival order.
      double capacity = frame_interval * allocator.capacity_scale;
      auto stream_cost = [&](size_t i) {
        if (coast[i] && sessions[i]->CanCoast()) {
          return sessions[i]->CoastFrameMs(thermal);
        }
        if (!demands[i].menu.empty()) {
          return demands[i].menu.front().frame_ms;
        }
        // Nothing SLO-feasible this round: the stream still runs its
        // cheapest *available* branch (the CPU family under a denial or a
        // demotion, a tracker-only coast when even that is absent), so the
        // fit check must still charge for it.
        bool available = gpu_available && !cpu_only[i];
        if (!available) {
          if (sessions[i]->has_cpu_family()) {
            return sessions[i]->CheapestFrameMs(levels[i], thermal,
                                                /*gpu_available=*/false);
          }
          if (sessions[i]->CanCoast()) {
            return sessions[i]->CoastFrameMs(thermal);
          }
        }
        return sessions[i]->CheapestFrameMs(levels[i], thermal);
      };
      auto total_cost = [&]() {
        double total = 0.0;
        for (size_t i = 0; i < active; ++i) {
          total += stream_cost(i);
        }
        return total;
      };
      // Pressure cleared: the nominal round (no coasts) fits again, so every
      // renegotiated stream gets its requested class back.
      if (total_cost() <= capacity) {
        for (size_t i = 0; i < active; ++i) {
          StreamSession& session = *sessions[i];
          if (session.effective_class() != session.request().slo_class) {
            session.RestoreClass();
            demands[i].slo_class = session.effective_class();
            ServeEvent event;
            event.kind = ServeEvent::Kind::kRenegotiate;
            event.stream_id = session.request().stream_id;
            event.round = round;
            event.new_class = session.effective_class();
            emit(event);
          }
        }
      }
      // Latest arrival (ties to the highest stream id) yields first: the
      // newest stream of the lowest surviving class absorbs the pressure.
      auto latest = [&](SloClass cls, bool require_coastable,
                        bool skip_coasted) {
        size_t pick = active;
        for (size_t i = 0; i < active; ++i) {
          if (sessions[i]->effective_class() != cls) {
            continue;
          }
          if (require_coastable && !sessions[i]->CanCoast()) {
            continue;
          }
          if (skip_coasted && coast[i]) {
            continue;
          }
          if (pick == active ||
              sessions[i]->request().arrival_round >
                  sessions[pick]->request().arrival_round ||
              (sessions[i]->request().arrival_round ==
                   sessions[pick]->request().arrival_round &&
               sessions[i]->request().stream_id >
                   sessions[pick]->request().stream_id)) {
            pick = i;
          }
        }
        return pick;
      };
      while (active >= 2 && total_cost() > capacity) {
        // Rung 0: demote the newest best-effort stream onto the CPU-only
        // family for the round — detection continues (unlike coasting) and
        // the GPU is freed — but only when the CPU family is actually
        // cheaper than what the stream would otherwise charge.
        size_t demotee = active;
        for (size_t i = 0; i < active; ++i) {
          if (sessions[i]->effective_class() != SloClass::kBestEffort ||
              !sessions[i]->has_cpu_family() || cpu_only[i] || coast[i]) {
            continue;
          }
          double masked = sessions[i]->CheapestFrameMs(levels[i], thermal,
                                                       /*gpu_available=*/false);
          if (masked >= stream_cost(i)) {
            continue;
          }
          if (demotee == active ||
              sessions[i]->request().arrival_round >
                  sessions[demotee]->request().arrival_round ||
              (sessions[i]->request().arrival_round ==
                   sessions[demotee]->request().arrival_round &&
               sessions[i]->request().stream_id >
                   sessions[demotee]->request().stream_id)) {
            demotee = i;
          }
        }
        if (demotee < active) {
          cpu_only[demotee] = true;
          demands[demotee].menu = sessions[demotee]->Menu(
              levels[demotee], thermal, /*gpu_available=*/false);
          continue;
        }
        // Rung 1: coast a best-effort stream tracker-only for the round.
        size_t victim = latest(SloClass::kBestEffort, /*require_coastable=*/true,
                               /*skip_coasted=*/true);
        if (victim < active) {
          coast[victim] = true;
          continue;
        }
        // Rung 2: renegotiate a standard stream down one class; it becomes
        // coastable on the next iteration.
        victim = latest(SloClass::kStandard, /*require_coastable=*/false,
                        /*skip_coasted=*/false);
        if (victim < active) {
          StreamSession& session = *sessions[victim];
          session.Renegotiate(SloClass::kBestEffort);
          demands[victim].slo_class = session.effective_class();
          ServeEvent event;
          event.kind = ServeEvent::Kind::kRenegotiate;
          event.stream_id = session.request().stream_id;
          event.round = round;
          event.new_class = session.effective_class();
          emit(event);
          continue;
        }
        // Rung 3: evict. Reverse priority order — a strict stream is never
        // shed while any lower class survives.
        victim = active;
        for (SloClass cls : {SloClass::kBestEffort, SloClass::kStandard,
                             SloClass::kStrict}) {
          victim = latest(cls, /*require_coastable=*/false,
                          /*skip_coasted=*/false);
          if (victim < active) {
            break;
          }
        }
        if (victim >= active) {
          break;
        }
        sessions[victim]->RecordEviction();
        finalize(victim, round);
        result.streams[session_outcome[victim]].evicted = true;
        ServeEvent event;
        event.kind = ServeEvent::Kind::kEvict;
        event.stream_id = sessions[victim]->request().stream_id;
        event.round = round;
        emit(event);
        ledger.RemoveStream(victim);
        long v = static_cast<long>(victim);
        sessions.erase(sessions.begin() + v);
        session_outcome.erase(session_outcome.begin() + v);
        session_cpu_mode.erase(session_cpu_mode.begin() + v);
        levels.erase(levels.begin() + static_cast<long>(victim));
        demands.erase(demands.begin() + static_cast<long>(victim));
        coast.erase(coast.begin() + static_cast<long>(victim));
        cpu_only.erase(cpu_only.begin() + static_cast<long>(victim));
        --active;
      }
      if (sessions.empty()) {
        ++round;
        continue;
      }
    }
    // 3c. Budgets: coasted streams run tracker-only off the top of the round
    // budget; the allocator splits what remains across the streams that still
    // invoke their detectors.
    std::vector<double> budgets(active, 0.0);
    bool any_coast = false;
    for (size_t i = 0; i < active; ++i) {
      any_coast = any_coast || (coast[i] && sessions[i]->CanCoast());
    }
    if (!any_coast) {
      budgets = AllocateBudgets(allocator, frame_interval, demands);
    } else {
      double coast_total = 0.0;
      std::vector<size_t> running;
      std::vector<StreamDemand> running_demands;
      for (size_t i = 0; i < active; ++i) {
        if (coast[i] && sessions[i]->CanCoast()) {
          coast_total += sessions[i]->CoastFrameMs(thermal);
        } else {
          running.push_back(i);
          running_demands.push_back(demands[i]);
        }
      }
      AllocatorConfig shed = allocator;
      shed.capacity_scale = std::max(
          0.0, allocator.capacity_scale - coast_total / frame_interval);
      std::vector<double> granted =
          AllocateBudgets(shed, frame_interval, running_demands);
      for (size_t r = 0; r < running.size(); ++r) {
        budgets[running[r]] = granted[r];
      }
    }
    // 4. Parallel step: sessions touch only their own state; the coupling is
    // entirely in the StepConditions, all frozen above.
    std::vector<GofReport> reports(active);
    ThreadPool::Shared().ParallelFor(
        active,
        [&](size_t i) {
          StepConditions conditions;
          conditions.level = levels[i];
          conditions.budget_ms = budgets[i];
          conditions.thermal_scale = thermal;
          conditions.coast = coast[i];
          conditions.burst_index = burst_index;
          conditions.ramp_index = ramp_index;
          conditions.gpu_available = gpu_available && !cpu_only[i];
          conditions.denial_index = denial_index;
          reports[i] = sessions[i]->StepGof(conditions);
        },
        ResolveThreadCount(config_.threads));
    // 5. Sequential merge in stream order: post shares, emit events, depart.
    for (size_t i = 0; i < active; ++i) {
      ledger.SetShare(i, reports[i].gpu_share);
      for (const FailureReport& failure : reports[i].faults) {
        ServeEvent fault_event;
        fault_event.kind = ServeEvent::Kind::kFault;
        fault_event.stream_id = sessions[i]->request().stream_id;
        fault_event.round = round;
        fault_event.fault = failure.kind;
        fault_event.fault_frame = failure.frame;
        emit(fault_event);
      }
      // Demote/restore edges: compare the family this round's detector ran
      // on against the stream's last detector-running round. Coasted and
      // tail rounds run no detector and leave the mode untouched.
      bool ran_detector = !reports[i].coasted && !reports[i].tail &&
                          reports[i].gof_length > 0;
      if (ran_detector &&
          reports[i].cpu_fallback != (session_cpu_mode[i] != 0)) {
        session_cpu_mode[i] = reports[i].cpu_fallback ? 1 : 0;
        ServeEvent edge;
        edge.kind = reports[i].cpu_fallback ? ServeEvent::Kind::kDemote
                                            : ServeEvent::Kind::kRestore;
        edge.stream_id = sessions[i]->request().stream_id;
        edge.round = round;
        emit(edge);
      }
      ServeEvent event;
      event.kind = ServeEvent::Kind::kGof;
      event.stream_id = sessions[i]->request().stream_id;
      event.round = round;
      event.gof = reports[i];
      event.level = levels[i];
      event.budget_ms = budgets[i];
      emit(event);
    }
    for (size_t i = active; i-- > 0;) {
      if (!sessions[i]->done()) {
        continue;
      }
      finalize(i, round);
      ServeEvent event;
      event.kind = ServeEvent::Kind::kDepart;
      event.stream_id = sessions[i]->request().stream_id;
      event.round = round;
      emit(event);
      ledger.RemoveStream(i);
      sessions.erase(sessions.begin() + static_cast<long>(i));
      session_outcome.erase(session_outcome.begin() + static_cast<long>(i));
      session_cpu_mode.erase(session_cpu_mode.begin() + static_cast<long>(i));
    }
    ++round;
  }
  result.rounds = round;

  // Aggregates over served streams; outcomes reported in stream_id order.
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
    if (faults_active) {
      result.faults_injected += outcome.robustness.faults_injected;
      result.faults_absorbed += outcome.robustness.faults_absorbed;
      result.degraded_frames += outcome.robustness.degraded_frames;
      result.recovery_events += outcome.robustness.recovery_events;
      result.recovery_gofs += outcome.robustness.recovery_gofs;
      result.renegotiations += outcome.renegotiations;
      result.coasted_rounds += outcome.coasted_rounds;
      if (outcome.evicted) {
        ++result.evictions;
        ++result.evictions_by_class[cls];
      }
      if (result.denials_active) {
        result.denied_rounds += outcome.robustness.denied_gofs;
        result.cpu_fallback_gofs += outcome.robustness.cpu_fallback_gofs;
      }
    }
  }
  result.mean_accuracy =
      served > 0 ? accuracy_sum / static_cast<double>(served) : 0.0;
  return result;
}

}  // namespace litereconfig
