// Fault-tolerant serving contracts: the device-wide fault plan is a
// deterministic function of the service fault seed, correlated intervals hit
// every live stream in the same round, SLO renegotiation round-trips, the
// pressure ladder evicts in strict reverse-priority order, the faulted
// service stays bit-identical at any thread count, and the whole fault path
// is provably inert when disabled. Suite names carry Serve/Fault so the TSan
// CI job picks them up.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/serve/serve_runner.h"
#include "src/platform/faults.h"
#include "src/platform/switching.h"
#include "src/serve/service.h"
#include "src/serve/service_faults.h"
#include "src/serve/stream_session.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

// An arrival storm tight enough that a severe device-wide schedule pushes the
// service past capacity: the pressure ladder has to engage.
ArrivalSpec StormSpec() {
  ArrivalSpec spec;
  spec.seed = 1;
  spec.num_streams = 12;
  spec.frames_per_video = 200;
  spec.slo_ms = 25.0;
  spec.mean_interarrival_rounds = 0.25;
  spec.width = 640;
  spec.height = 360;
  return spec;
}

ServeConfig ChaosConfig(const FaultSpec& spec, uint64_t fault_seed,
                        bool degrade = true) {
  ServeConfig config;
  config.faults.spec = spec;
  config.faults.fault_seed = fault_seed;
  config.faults.degrade = degrade;
  return config;
}

// --- Device fault plan determinism ---

TEST(DeviceFaultPlanTest, ScheduleIsAFunctionOfTheFaultSeed) {
  FaultSpec spec = FaultSpec::Severe();
  FaultPlan a = DeviceFaultPlan(spec, 7, 400);
  FaultPlan b = DeviceFaultPlan(spec, 7, 400);
  FaultPlan other = DeviceFaultPlan(spec, 8, 400);
  ASSERT_TRUE(a.active());
  bool differs = false;
  for (int round = 0; round < 400; ++round) {
    EXPECT_DOUBLE_EQ(a.BurstLevelAt(round), b.BurstLevelAt(round)) << round;
    EXPECT_DOUBLE_EQ(a.ThermalScaleAt(round), b.ThermalScaleAt(round)) << round;
    EXPECT_EQ(a.IndexAt(IntervalKind::kBurst, round),
              b.IndexAt(IntervalKind::kBurst, round))
        << round;
    EXPECT_EQ(a.IndexAt(IntervalKind::kRamp, round),
              b.IndexAt(IntervalKind::kRamp, round))
        << round;
    differs = differs || a.BurstLevelAt(round) != other.BurstLevelAt(round) ||
              a.ThermalScaleAt(round) != other.ThermalScaleAt(round);
  }
  EXPECT_TRUE(differs) << "fault seeds 7 and 8 gave identical schedules";
}

TEST(DeviceFaultPlanTest, RoundScaledScheduleActuallyFires) {
  // The per-100-frames preset rates are rescaled to round units; over a
  // serving-scale horizon the presets must produce their interval kinds.
  FaultPlan severe = DeviceFaultPlan(FaultSpec::Severe(), 7, 400);
  FaultPlan thermal = DeviceFaultPlan(FaultSpec::Ramp(), 7, 400);
  bool burst = false;
  bool ramp = false;
  for (int round = 0; round < 400; ++round) {
    burst = burst || severe.BurstLevelAt(round) > 0.0;
    ramp = ramp || thermal.ThermalScaleAt(round) > 1.0;
  }
  EXPECT_TRUE(burst);
  EXPECT_TRUE(ramp);
}

// --- Correlated intervals hit every live stream ---

TEST(ServeFaultsTest, CorrelatedRampHitsAllStreamsInTheSameRound) {
  const TrainedModels& models = TinyModels();
  ArrivalSpec spec = StormSpec();
  // Streams live when a ramp interval starts, and the streams that recorded
  // the thermal-ramp fault that round. The run is short, so scan fault seeds
  // until one schedules a ramp inside it (deterministic: the scan always
  // lands on the same seed).
  std::map<int, std::set<uint64_t>> live_by_round;
  std::map<int, std::set<uint64_t>> ramped_by_round;
  for (uint64_t fault_seed = 1; fault_seed <= 20 && ramped_by_round.empty();
       ++fault_seed) {
    live_by_round.clear();
    ramped_by_round.clear();
    ServeConfig config = ChaosConfig(FaultSpec::Ramp(), fault_seed);
    config.observer = [&](const ServeEvent& event) {
      if (event.kind == ServeEvent::Kind::kGof) {
        live_by_round[event.round].insert(event.stream_id);
      } else if (event.kind == ServeEvent::Kind::kFault &&
                 event.fault == FailureKind::kThermalRamp) {
        ramped_by_round[event.round].insert(event.stream_id);
      }
    };
    ServeEval eval = ServeRunner::Run(models, spec, config);
    EXPECT_TRUE(eval.result.faults_active);
  }
  ASSERT_FALSE(ramped_by_round.empty())
      << "no fault seed in [1, 20] scheduled a ramp inside the run";
  // A device-wide ramp is not a per-stream event: in the round a ramp starts,
  // every stream that stepped that round records it.
  const auto& [round, ramped] = *ramped_by_round.begin();
  EXPECT_EQ(ramped, live_by_round[round]) << "round " << round;
  EXPECT_GE(ramped.size(), 2u) << "ramp hit too few streams to show correlation";
}

// --- SLO renegotiation round trip ---

TEST(ServeFaultsTest, RenegotiateThenRestoreRoundTrips) {
  const TrainedModels& models = TinyModels();
  SwitchingCostModel switching(models.device);
  StreamRequest request;
  request.stream_id = 4;
  request.slo_class = SloClass::kStandard;
  request.video.seed = 11;
  request.video.frame_count = 40;
  StreamSession session(&models, SchedulerConfig{}, request, &switching, 1);
  EXPECT_EQ(session.effective_class(), SloClass::kStandard);
  EXPECT_EQ(session.renegotiations(), 0);

  session.Renegotiate(SloClass::kBestEffort);
  EXPECT_EQ(session.effective_class(), SloClass::kBestEffort);
  EXPECT_EQ(session.request().slo_class, SloClass::kStandard)
      << "renegotiation must not rewrite what the stream asked for";
  EXPECT_EQ(session.renegotiations(), 1);

  session.RestoreClass();
  EXPECT_EQ(session.effective_class(), SloClass::kStandard);
  // Only demotions count as renegotiations; the restore is the round trip.
  EXPECT_EQ(session.renegotiations(), 1);
}

TEST(ServeFaultsTest, ServiceRenegotiatesUnderPressure) {
  const TrainedModels& models = TinyModels();
  ArrivalSpec spec = StormSpec();
  ServeConfig config = ChaosConfig(FaultSpec::Severe(), 7);
  int renegotiate_events = 0;
  config.observer = [&](const ServeEvent& event) {
    if (event.kind == ServeEvent::Kind::kRenegotiate) {
      ++renegotiate_events;
    }
  };
  ServeEval eval = ServeRunner::Run(models, spec, config);
  EXPECT_GT(eval.result.renegotiations, 0);
  EXPECT_GT(renegotiate_events, 0);
  EXPECT_GT(eval.result.coasted_rounds, 0);
}

// --- Eviction ordering ---

TEST(ServeFaultsTest, StrictStreamsOutliveLowerClassesUnderOverload) {
  const TrainedModels& models = TinyModels();
  ArrivalSpec spec = StormSpec();
  // No spacing at all: every stream lands in round zero, so the ladder has
  // nothing to coast (no stream has run yet) and must shed load.
  spec.mean_interarrival_rounds = 0.0;
  spec.slo_ms = 20.0;
  ServeEval eval =
      ServeRunner::Run(models, spec, ChaosConfig(FaultSpec::Severe(), 7));
  const ServeResult& r = eval.result;
  ASSERT_GT(r.evictions, 0) << "overload scenario did not force any eviction";
  EXPECT_EQ(r.evictions_by_class[static_cast<size_t>(SloClass::kStrict)], 0)
      << "a strict stream was shed while lower classes were evictable";
  // Every eviction is visible per stream and in the aggregate.
  int evicted_streams = 0;
  for (const StreamOutcome& outcome : r.streams) {
    if (outcome.evicted) {
      ++evicted_streams;
      EXPECT_NE(outcome.slo_class, SloClass::kStrict) << outcome.stream_id;
      EXPECT_GE(outcome.depart_round, 0) << outcome.stream_id;
    }
  }
  EXPECT_EQ(evicted_streams, r.evictions);
}

// --- Determinism under chaos ---

TEST(ServeFaultsTest, ResultsAreIdenticalAtAnyThreadCountUnderSevereChaos) {
  const TrainedModels& models = TinyModels();
  ArrivalSpec spec = StormSpec();
  std::string reference;
  for (int threads : {1, 2, 8}) {
    ServeConfig config = ChaosConfig(FaultSpec::Severe(), 7);
    config.threads = threads;
    ServeEval eval = ServeRunner::Run(models, spec, config);
    std::string json = ServeEvalJson(eval);
    if (reference.empty()) {
      reference = json;
      EXPECT_GT(eval.result.faults_injected, 0);
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
}

// --- Device-wide GPU denial ---

TEST(DeviceFaultPlanTest, RoundScaledDenialsFireAndAreConsistent) {
  FaultPlan plan = DeviceFaultPlan(*FaultSpec::FromName("denied_severe"), 7, 400);
  ASSERT_TRUE(plan.active());
  bool denied_round = false;
  for (int round = 0; round < 400; ++round) {
    int index = plan.IndexAt(IntervalKind::kDenial, round);
    EXPECT_EQ(plan.GpuDeniedAt(round), index >= 0) << round;
    denied_round = denied_round || index >= 0;
  }
  EXPECT_TRUE(denied_round) << "denied_severe never denied a round";
}

TEST(ServeFaultsTest, DeniedRoundsAreServedByTheCpuFamily) {
  ArrivalSpec spec = StormSpec();
  ServeConfig config = ChaosConfig(*FaultSpec::FromName("denied_severe"), 7);
  ServeEval family = ServeRunner::Run(TinyCpuFamilyModels(), spec, config);
  ServeEval coast = ServeRunner::Run(TinyModels(), spec, config);
  const ServeResult& f = family.result;
  const ServeResult& c = coast.result;
  ASSERT_TRUE(f.denials_active);
  ASSERT_GT(f.denied_rounds, 0);
  ASSERT_GT(c.denied_rounds, 0);
  // Scheduled CPU detection replaces coasting exactly when the family exists.
  EXPECT_GT(f.cpu_fallback_gofs, 0);
  EXPECT_EQ(c.cpu_fallback_gofs, 0);
  // Without a CPU family nothing is schedulable during device-wide denial, so
  // admission rejects the storm's arrivals; the family keeps every stream
  // alive. Whole-run mean accuracy is therefore not comparable across the two
  // runs (coast's mean covers a fraction of the load) — the gates are
  // availability and accuracy-weighted goodput.
  EXPECT_EQ(f.rejected, 0);
  EXPECT_GT(c.rejected, 0);
  EXPECT_GT(f.total_frames, c.total_frames);
  EXPECT_GT(f.mean_accuracy * static_cast<double>(f.total_frames),
            c.mean_accuracy * static_cast<double>(c.total_frames));
  // Demotion transitions (GPU->CPU switch + the first CPU anchor) may cost a
  // handful of deadline misses; they must stay a rounding error.
  EXPECT_LT(static_cast<double>(f.total_misses),
            0.01 * static_cast<double>(f.total_frames));
  // The JSON surface grows the denial fields only on denial schedules.
  std::string json = ServeEvalJson(family);
  EXPECT_NE(json.find("\"denied_rounds\":"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_fallback_gofs\":"), std::string::npos);
}

TEST(ServeFaultsTest, DenialResultsAreIdenticalAtAnyThreadCount) {
  ArrivalSpec spec = StormSpec();
  std::string reference;
  for (int threads : {1, 2, 8}) {
    ServeConfig config = ChaosConfig(*FaultSpec::FromName("denied_severe"), 7);
    config.threads = threads;
    ServeEval eval = ServeRunner::Run(TinyCpuFamilyModels(), spec, config);
    std::string json = ServeEvalJson(eval);
    if (reference.empty()) {
      reference = json;
      EXPECT_GT(eval.result.denied_rounds, 0);
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
}

TEST(ServeFaultsTest, NonDenialSchedulesEmitNoDenialFields) {
  // Pre-existing fault presets must keep their JSON byte layout: the denial
  // fields are gated on the spec carrying denial intervals, not on
  // faults_active.
  ArrivalSpec spec = StormSpec();
  ServeConfig config = ChaosConfig(FaultSpec::Severe(), 7);
  ServeEval eval = ServeRunner::Run(TinyModels(), spec, config);
  ASSERT_TRUE(eval.result.faults_active);
  EXPECT_FALSE(eval.result.denials_active);
  std::string json = ServeEvalJson(eval);
  EXPECT_EQ(json.find("\"denied_rounds\""), std::string::npos);
  EXPECT_EQ(json.find("\"cpu_fallback_gofs\""), std::string::npos);
}

// --- A faulted session runs at the round's level ---

TEST(ServeFaultsTest, FaultedSessionRunsAtTheRoundLevel) {
  // GpuDenied() holds denials only, so the session's own plan is empty, but
  // its fault runtime is engaged and every BeginGof writes that plan's level
  // (0). The round's level is written after BeginGof and must be the one the
  // GoF is decided and charged at, as for a session without faults.
  const TrainedModels& models = TinyModels();
  SwitchingCostModel switching(models.device);
  StreamRequest request;
  request.video.seed = 23;
  request.video.frame_count = 60;
  ServiceFaultConfig denials;
  denials.spec = FaultSpec::GpuDenied();
  StreamSession plain(&models, SchedulerConfig{}, request, &switching, 1);
  StreamSession faulted(&models, SchedulerConfig{}, request, &switching, 1,
                        &denials);
  StreamSession idle(&models, SchedulerConfig{}, request, &switching, 1);
  bool differs = false;
  for (int gof = 0; !plain.done(); ++gof) {
    GofReport a = plain.StepGof(/*level=*/0.5, /*budget_ms=*/0.0);
    GofReport b = faulted.StepGof(/*level=*/0.5, /*budget_ms=*/0.0);
    GofReport c = idle.StepGof(/*level=*/0.0, /*budget_ms=*/0.0);
    EXPECT_EQ(a.branch, b.branch) << "gof " << gof;
    EXPECT_EQ(a.gof_length, b.gof_length) << "gof " << gof;
    EXPECT_EQ(a.frame_ms, b.frame_ms) << "gof " << gof;
    differs = differs || a.branch != c.branch || a.frame_ms != c.frame_ms;
  }
  EXPECT_TRUE(faulted.done());
  EXPECT_TRUE(differs) << "levels 0.5 and 0 stepped the stream identically";
}

// --- The fault path is inert when disabled ---

TEST(ServeFaultsTest, NoFaultRunIsBitIdenticalToTheFaultFreeService) {
  const TrainedModels& models = TinyModels();
  ArrivalSpec spec = StormSpec();
  // A plain config (no fault field ever touched) against an explicit
  // --faults none --fault_seed 99: the fault machinery must be provably
  // inert, not merely quiet.
  ServeConfig plain;
  ServeConfig none = ChaosConfig(FaultSpec::None(), 99);
  ServeEval a = ServeRunner::Run(models, spec, plain);
  ServeEval b = ServeRunner::Run(models, spec, none);
  std::string ja = ServeEvalJson(a);
  EXPECT_EQ(ja, ServeEvalJson(b));
  EXPECT_FALSE(b.result.faults_active);
  EXPECT_EQ(ja.find("\"faults\""), std::string::npos)
      << "a no-fault run must not grow a faults block";
}

}  // namespace
}  // namespace litereconfig
