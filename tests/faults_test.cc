// The fault-injection layer's contracts: fault schedules are deterministic
// functions of their seeds, the degradation machinery (retry/backoff, coast
// mode, watchdog fallback) behaves as specified, robustness accounting is
// exact, and fault-injected evaluations stay bit-identical at any thread
// count.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string_view>
#include <vector>

#include "src/baselines/approxdet.h"
#include "src/baselines/fixed_protocols.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/platform/faults.h"
#include "src/serve/service_faults.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

// The tiny test dataset (4 videos x 60 frames) sees too few GoFs for the
// severe preset's fault rates to reliably exercise every degradation path;
// this harsher schedule makes coasting and naive-mode stalls certain.
FaultSpec HarshSpec() {
  FaultSpec spec = FaultSpec::Severe();
  spec.detector_failure_prob = 0.35;
  spec.failure_persistence = 0.80;
  spec.frame_drop_prob = 0.08;
  return spec;
}

EvalResult RunFaulty(Protocol& protocol, const FaultSpec& faults, int threads,
                     bool degrade = true, double contention = 0.0) {
  EvalConfig config;
  config.slo_ms = 33.3;
  config.gpu_contention = contention;
  config.threads = threads;
  config.faults = faults;
  config.fault_seed = 11;
  config.degrade = degrade;
  return OnlineRunner::Run(protocol, TinyValidation(), config);
}

TEST(FaultSpecTest, PresetsAndFromName) {
  EXPECT_FALSE(FaultSpec::None().Any());
  EXPECT_TRUE(FaultSpec::Mild().Any());
  EXPECT_TRUE(FaultSpec::Moderate().Any());
  EXPECT_TRUE(FaultSpec::Severe().Any());
  EXPECT_TRUE(FaultSpec::FromName("none").has_value());
  EXPECT_FALSE(FaultSpec::FromName("none")->Any());
  ASSERT_TRUE(FaultSpec::FromName("severe").has_value());
  EXPECT_EQ(FaultSpec::FromName("severe")->outlier_scale,
            FaultSpec::Severe().outlier_scale);
  EXPECT_FALSE(FaultSpec::FromName("catastrophic").has_value());
}

TEST(FaultPlanTest, IdenticalSeedsGiveIdenticalSchedules) {
  FaultSpec spec = FaultSpec::Severe();
  FaultPlan a(spec, /*video_seed=*/42, /*frame_count=*/200, /*fault_seed=*/7);
  FaultPlan b(spec, /*video_seed=*/42, /*frame_count=*/200, /*fault_seed=*/7);
  const std::vector<int>& a_starts = a.starts(IntervalKind::kBurst);
  const std::vector<int>& b_starts = b.starts(IntervalKind::kBurst);
  ASSERT_EQ(a_starts.size(), b_starts.size());
  for (size_t i = 0; i < a_starts.size(); ++i) {
    EXPECT_EQ(a_starts[i], b_starts[i]);
    EXPECT_EQ(a.Length(IntervalKind::kBurst), b.Length(IntervalKind::kBurst));
    EXPECT_EQ(a.BurstLevelAt(a_starts[i]), b.BurstLevelAt(b_starts[i]));
  }
  for (int frame = 0; frame < 200; ++frame) {
    EXPECT_EQ(a.DetectorOutlierScale(frame), b.DetectorOutlierScale(frame));
    EXPECT_EQ(a.DetectorFails(frame, 0), b.DetectorFails(frame, 0));
    EXPECT_EQ(a.DetectorFails(frame, 1), b.DetectorFails(frame, 1));
    EXPECT_EQ(a.FrameDropped(frame), b.FrameDropped(frame));
  }
}

TEST(FaultPlanTest, QueriesAreStatelessAndOrderIndependent) {
  FaultSpec spec = FaultSpec::Moderate();
  FaultPlan plan(spec, 9, 100, 3);
  // Query backwards, twice, interleaved — pure functions of (seed, frame).
  for (int frame = 99; frame >= 0; --frame) {
    bool first = plan.DetectorFails(frame, 0);
    double scale = plan.DetectorOutlierScale(frame);
    EXPECT_EQ(plan.DetectorFails(frame, 0), first);
    EXPECT_EQ(plan.DetectorOutlierScale(frame), scale);
  }
}

TEST(FaultPlanTest, DifferentFaultSeedsChangeTheSchedule) {
  FaultSpec spec = FaultSpec::Severe();
  FaultPlan a(spec, 42, 300, /*fault_seed=*/1);
  FaultPlan b(spec, 42, 300, /*fault_seed=*/2);
  bool any_difference = a.starts(IntervalKind::kBurst).size() !=
                        b.starts(IntervalKind::kBurst).size();
  for (int frame = 0; frame < 300 && !any_difference; ++frame) {
    any_difference = a.DetectorFails(frame, 0) != b.DetectorFails(frame, 0) ||
                     a.FrameDropped(frame) != b.FrameDropped(frame) ||
                     a.DetectorOutlierScale(frame) != b.DetectorOutlierScale(frame);
  }
  EXPECT_TRUE(any_difference);
}

// Mixes the start frames of every interval kind into `h`.
void MixStarts(HashState& h, const FaultPlan& plan) {
  for (int k = 0; k < kNumIntervalKinds; ++k) {
    const std::vector<int>& starts = plan.starts(static_cast<IntervalKind>(k));
    h.Mix(static_cast<uint64_t>(k));
    h.Mix(starts.size());
    for (int start : starts) {
      h.Mix(static_cast<uint64_t>(start));
    }
  }
}

// Every preset's interval schedule, pinned by hash: the start frames of each
// kind for three videos over 600 frames, then the device plan over 400
// rounds. The determinism tests compare two plans of the same build, so only
// this test sees a change that moves a schedule (a salt, a draw order, the
// round scaling). The expected values predate the start-frame representation
// of the plan; a refactor of the plan must reproduce them.
TEST(FaultPlanTest, PresetSchedulesArePinned) {
  struct Pinned {
    std::string_view name;
    uint64_t hash;
  };
  const Pinned pinned[] = {
      {"none", 0x09d7d0c625b946bbull},
      {"mild", 0xd05de7a1bc830451ull},
      {"moderate", 0xf78b8ab407f95668ull},
      {"severe", 0x68c7f188878ddfc4ull},
      {"ramp", 0x0e39e039484fcbb4ull},
      {"mild_xavier", 0x294d5a74faaafc19ull},
      {"severe_xavier", 0xf073738811957253ull},
      {"gpu_denied", 0xdc4fae9629879630ull},
      {"denied_frequent", 0xaecb1dc6a6fa7743ull},
      {"denied_moderate", 0xfb343b903e1a8709ull},
      {"denied_severe", 0xee21a974eec856dcull},
  };
  const std::vector<std::string_view>& names = FaultSpec::PresetNames();
  ASSERT_EQ(names.size(), std::size(pinned));
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_EQ(names[i], pinned[i].name);
    FaultSpec spec = *FaultSpec::FromName(names[i]);
    HashState h;
    for (uint64_t video_seed : {42ull, 7ull, 1234ull}) {
      MixStarts(h, FaultPlan(spec, video_seed, /*frame_count=*/600,
                             /*fault_seed=*/1));
    }
    MixStarts(h, DeviceFaultPlan(spec, /*fault_seed=*/7, /*round_horizon=*/400));
    EXPECT_EQ(h.Get(), pinned[i].hash) << names[i];
  }
}

TEST(FaultRuntimeTest, PersistentFailureRetriesWithBackoffThenCoasts) {
  FaultSpec spec;
  spec.detector_failure_prob = 1.0;
  spec.failure_persistence = 1.0;
  FaultRuntime runtime(&spec, 1, 100, 1, /*degrade=*/true, 0.0);
  runtime.BeginGof(0);
  FaultRuntime::DetectorOutcome out =
      runtime.ResolveDetector(0, /*mean_ms=*/10.0, /*can_coast=*/true);
  EXPECT_TRUE(out.coast);
  EXPECT_EQ(out.failed_attempts, kMaxDetectorRetries + 1);
  // Each failed attempt costs the fail-fast fraction plus exponential backoff.
  double expected = 0.0;
  for (int attempt = 0; attempt <= kMaxDetectorRetries; ++attempt) {
    expected += 10.0 * kFailedAttemptFraction +
                kRetryBackoffBaseMs * static_cast<double>(1 << attempt);
  }
  EXPECT_DOUBLE_EQ(out.penalty_ms, expected);
  EXPECT_GE(runtime.accounting().faults_injected, 1);
}

TEST(FaultRuntimeTest, TransientFailureIsAbsorbedOnFirstRetry) {
  FaultSpec spec;
  spec.detector_failure_prob = 1.0;
  spec.failure_persistence = 0.0;  // every retry succeeds
  FaultRuntime runtime(&spec, 1, 100, 1, /*degrade=*/true, 0.0);
  runtime.BeginGof(0);
  FaultRuntime::DetectorOutcome out = runtime.ResolveDetector(0, 10.0, true);
  EXPECT_FALSE(out.coast);
  EXPECT_EQ(out.failed_attempts, 1);
  EXPECT_DOUBLE_EQ(out.penalty_ms,
                   10.0 * kFailedAttemptFraction + kRetryBackoffBaseMs);
}

TEST(FaultRuntimeTest, NaiveModeBlocksAtFullCostPerAttempt) {
  FaultSpec spec;
  spec.detector_failure_prob = 1.0;
  spec.failure_persistence = 1.0;
  FaultRuntime runtime(&spec, 1, 100, 1, /*degrade=*/false, 0.0);
  runtime.BeginGof(0);
  FaultRuntime::DetectorOutcome out = runtime.ResolveDetector(0, 10.0, true);
  // No watchdog: the naive runtime never coasts; it pays the full invocation
  // cost for every blocked retry up to the termination cap.
  EXPECT_FALSE(out.coast);
  EXPECT_EQ(out.failed_attempts, kBlockingRetryCap);
  EXPECT_DOUBLE_EQ(out.penalty_ms, 10.0 * kBlockingRetryCap);
}

TEST(FaultRuntimeTest, CountsDeadlineMissesEvenWithoutFaultInjection) {
  FaultRuntime runtime(nullptr, 1, 100, 1, /*degrade=*/true, 0.0);
  runtime.BeginGof(0);
  runtime.OnGofComplete(/*frame_ms=*/50.0, /*slo_ms=*/33.3, 8, false);
  runtime.OnGofComplete(/*frame_ms=*/20.0, /*slo_ms=*/33.3, 8, false);
  EXPECT_EQ(runtime.accounting().deadline_misses, 1);
  // Without injected faults there is no degradation to trigger.
  EXPECT_FALSE(runtime.InFallback());
}

TEST(FaultRuntimeTest, FallbackArmsOnMissAndClearsOnCleanGof) {
  FaultSpec spec = FaultSpec::Mild();
  FaultRuntime runtime(&spec, 1, 100, 1, /*degrade=*/true, 0.0);
  runtime.BeginGof(0);
  runtime.OnGofComplete(50.0, 33.3, 8, false);  // miss -> fallback
  EXPECT_TRUE(runtime.InFallback());
  runtime.BeginGof(8);
  runtime.OnGofComplete(20.0, 33.3, 8, false);  // clean -> re-plan
  EXPECT_FALSE(runtime.InFallback());
  EXPECT_EQ(runtime.accounting().recovery_events, 1);
  EXPECT_EQ(runtime.accounting().recovery_gofs, 1);
}

TEST(FaultRuntimeTest, AbsorbedFaultsAreCountedWhenSloStillMet) {
  FaultSpec spec;
  spec.outlier_prob = 1.0;
  spec.outlier_scale = 1.5;
  FaultRuntime runtime(&spec, 1, 100, 1, /*degrade=*/true, 0.0);
  runtime.BeginGof(0);
  FaultRuntime::DetectorOutcome out = runtime.ResolveDetector(0, 10.0, true);
  EXPECT_EQ(out.outlier_scale, 1.5);
  runtime.OnGofComplete(/*frame_ms=*/15.0, /*slo_ms=*/33.3, 8, false);
  EXPECT_EQ(runtime.accounting().faults_injected, 1);
  EXPECT_EQ(runtime.accounting().faults_absorbed, 1);
}

void ExpectIdenticalResults(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(EvalResultJson(a), EvalResultJson(b));
  ASSERT_EQ(a.gof_frame_ms.size(), b.gof_frame_ms.size());
  for (size_t i = 0; i < a.gof_frame_ms.size(); ++i) {
    EXPECT_EQ(a.gof_frame_ms[i], b.gof_frame_ms[i]) << "GoF sample " << i;
  }
}

TEST(FaultInjectionTest, LiteReconfigIsIdenticalAcrossThreadCounts) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult sequential = RunFaulty(protocol, FaultSpec::Severe(), 1);
  for (int threads : {4, 8}) {
    EvalResult parallel = RunFaulty(protocol, FaultSpec::Severe(), threads);
    ExpectIdenticalResults(sequential, parallel);
  }
}

TEST(FaultInjectionTest, ApproxDetIsIdenticalAcrossThreadCounts) {
  ApproxDetProtocol protocol(&TinyModels());
  EvalResult sequential = RunFaulty(protocol, FaultSpec::Moderate(), 1);
  EvalResult parallel = RunFaulty(protocol, FaultSpec::Moderate(), 4);
  ExpectIdenticalResults(sequential, parallel);
}

TEST(FaultInjectionTest, SevereFaultsNeverAbortAStream) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult result = RunFaulty(protocol, HarshSpec(), 4);
  size_t total_frames = 0;
  for (const SyntheticVideo& video : TinyValidation().videos) {
    total_frames += static_cast<size_t>(video.frame_count());
  }
  // Graceful degradation keeps emitting detections through every fault.
  EXPECT_EQ(result.frames, total_frames);
  EXPECT_FALSE(result.oom);
  EXPECT_GT(result.faults_injected, 0);
  EXPECT_GT(result.degraded_frames, 0);
  for (const FailureReport& failure : result.failures) {
    EXPECT_TRUE(failure.recovered);
  }
}

TEST(FaultInjectionTest, NoFaultsMatchesDefaultConfigExactly) {
  // An all-zero FaultSpec must leave the runtime numerically untouched.
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalConfig plain;
  plain.slo_ms = 33.3;
  plain.threads = 2;
  EvalResult baseline = OnlineRunner::Run(protocol, TinyValidation(), plain);
  EvalResult with_none = RunFaulty(protocol, FaultSpec::None(), 2);
  EXPECT_EQ(baseline.map, with_none.map);
  EXPECT_EQ(baseline.mean_ms, with_none.mean_ms);
  EXPECT_EQ(baseline.p95_ms, with_none.p95_ms);
  EXPECT_EQ(baseline.switch_count, with_none.switch_count);
}

TEST(FaultInjectionTest, DegradationReducesDeadlineMisses) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult degraded = RunFaulty(protocol, HarshSpec(), 4, /*degrade=*/true);
  EvalResult naive = RunFaulty(protocol, HarshSpec(), 4, /*degrade=*/false);
  EXPECT_LT(degraded.deadline_misses, naive.deadline_misses);
  EXPECT_GT(naive.deadline_misses, 0);
}

TEST(FaultInjectionTest, OomIsAStructuredFatalFailure) {
  FixedDetectorProtocol protocol(BaselineFamily::kMega101, 600, "MEGA-101");
  EvalConfig config;
  config.device = DeviceType::kTx2;
  config.slo_ms = 100.0;
  EvalResult result = OnlineRunner::Run(protocol, TinyValidation(), config);
  EXPECT_TRUE(result.oom);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_EQ(result.failures[0].kind, FailureKind::kOom);
  EXPECT_FALSE(result.failures[0].recovered);
  EXPECT_EQ(result.failures[0].video_seed, TinyValidation().videos[0].spec().seed);
  std::string json = EvalResultJson(result);
  EXPECT_NE(json.find("\"kind\":\"oom\""), std::string::npos);
}

std::string TracedRun(int threads) {
  std::ostringstream os;
  TraceWriter writer(os);
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  protocol.set_trace_writer(&writer);
  EvalConfig config;
  config.slo_ms = 33.3;
  config.threads = threads;
  config.faults = FaultSpec::Moderate();
  config.fault_seed = 5;
  OnlineRunner::Run(protocol, TinyValidation(), config);
  std::vector<uint64_t> order;
  for (const SyntheticVideo& video : TinyValidation().videos) {
    order.push_back(video.spec().seed);
  }
  writer.Flush(order);
  return os.str();
}

TEST(FaultInjectionTest, TracesAreByteIdenticalAcrossThreadCounts) {
  std::string sequential = TracedRun(1);
  EXPECT_FALSE(sequential.empty());
  EXPECT_NE(sequential.find("\"event\":\"fault\""), std::string::npos);
  EXPECT_EQ(sequential, TracedRun(4));
}

}  // namespace
}  // namespace litereconfig
