// The predictive robustness layer's contracts: the contention estimator's
// burst tracking and burst-end forecasting, thermal-ramp schedules as
// deterministic functions of their seeds, the frame-rate-aware capture-stall
// charge, drift-triggered recalibration end to end, and the predictive
// runtime's determinism (bit-identical at any thread count, numerically inert
// without faults).
#include <gtest/gtest.h>

#include <sstream>

#include "src/baselines/approxdet.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/platform/faults.h"
#include "src/sched/contention_estimator.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

TEST(ContentionEstimatorTest, QuietStreamStaysNominal) {
  ContentionEstimator estimator;
  for (int i = 0; i < 20; ++i) {
    estimator.Observe(10.0, 10.0 + 0.05 * static_cast<double>(i % 3));
  }
  EXPECT_FALSE(estimator.in_burst());
  EXPECT_DOUBLE_EQ(estimator.ForecastScale(), 1.0);
  EXPECT_FALSE(estimator.BurstEndingSoon());
}

TEST(ContentionEstimatorTest, StepInflationEntersBurst) {
  ContentionEstimator estimator;
  estimator.Observe(10.0, 10.0);
  EXPECT_FALSE(estimator.in_burst());
  estimator.Observe(10.0, 15.0);  // +50%, over the onset ratio
  EXPECT_TRUE(estimator.in_burst());
  EXPECT_DOUBLE_EQ(estimator.ForecastScale(), 1.5);
}

TEST(ContentionEstimatorTest, ClearRatioExitsBurst) {
  ContentionEstimator estimator;
  estimator.Observe(10.0, 15.0);
  ASSERT_TRUE(estimator.in_burst());
  estimator.Observe(10.0, 10.0);  // back under the clear ratio
  EXPECT_FALSE(estimator.in_burst());
  EXPECT_DOUBLE_EQ(estimator.ForecastScale(), 1.0);
}

TEST(ContentionEstimatorTest, LearnsTypicalBurstLength) {
  ContentionEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.expected_burst_gofs(), kPriorBurstGofs);
  // A 5-GoF burst, then a clean GoF ends it.
  for (int i = 0; i < 5; ++i) {
    estimator.Observe(10.0, 15.0);
  }
  estimator.Observe(10.0, 10.0);
  double expected = (1.0 - kBurstLengthEwma) * kPriorBurstGofs +
                    kBurstLengthEwma * 5.0;
  EXPECT_NEAR(estimator.expected_burst_gofs(), expected, 1e-12);
}

TEST(ContentionEstimatorTest, ForecastsBurstEndFromLearnedLength) {
  // With the 3-GoF prior, the estimator flags "ending soon" once the next GoF
  // would reach the expected length.
  ContentionEstimator estimator;
  estimator.Observe(10.0, 15.0);  // onset: 1 GoF in burst
  EXPECT_FALSE(estimator.BurstEndingSoon());
  estimator.Observe(10.0, 15.0);  // 2 GoFs in burst; the 3rd would hit the prior
  EXPECT_TRUE(estimator.BurstEndingSoon());
}

TEST(ContentionEstimatorTest, RatioIsClampedAtMaxScale) {
  ContentionEstimator estimator;
  estimator.Observe(10.0, 10000.0);  // pathological outlier
  EXPECT_TRUE(estimator.in_burst());
  EXPECT_LE(estimator.ForecastScale(), kMaxContentionRatio);
}

TEST(ContentionEstimatorTest, NonPositiveInputsAreIgnored) {
  ContentionEstimator estimator;
  estimator.Observe(0.0, 50.0);
  estimator.Observe(10.0, 0.0);
  estimator.Observe(-1.0, -1.0);
  EXPECT_FALSE(estimator.in_burst());
}

TEST(FaultSpecPresetTest, PresetNamesAllRoundTrip) {
  const std::vector<std::string_view>& names = FaultSpec::PresetNames();
  EXPECT_GE(names.size(), 7u);
  for (std::string_view name : names) {
    EXPECT_TRUE(FaultSpec::FromName(name).has_value()) << name;
  }
}

TEST(FaultSpecPresetTest, FromNameIsCaseInsensitive) {
  ASSERT_TRUE(FaultSpec::FromName("RAMP").has_value());
  EXPECT_EQ(FaultSpec::FromName("RAMP")->ramps_per_100_frames,
            FaultSpec::Ramp().ramps_per_100_frames);
  EXPECT_TRUE(FaultSpec::FromName("Severe_Xavier").has_value());
  EXPECT_TRUE(FaultSpec::FromName("MiLd_XaViEr").has_value());
  EXPECT_TRUE(FaultSpec::FromName("None").has_value());
  EXPECT_FALSE(FaultSpec::FromName("lukewarm").has_value());
}

TEST(FaultSpecPresetTest, XavierPresetsIncludeThermalRamps) {
  EXPECT_GT(FaultSpec::Ramp().ramps_per_100_frames, 0.0);
  EXPECT_GT(FaultSpec::MildXavier().ramps_per_100_frames, 0.0);
  EXPECT_GT(FaultSpec::SevereXavier().ramps_per_100_frames, 0.0);
  EXPECT_GT(FaultSpec::SevereXavier().bursts_per_100_frames,
            FaultSpec::MildXavier().bursts_per_100_frames);
}

TEST(RampFaultPlanTest, IdenticalSeedsGiveIdenticalRamps) {
  FaultSpec spec = FaultSpec::Ramp();
  FaultPlan a(spec, /*video_seed=*/42, /*frame_count=*/400, /*fault_seed=*/7);
  FaultPlan b(spec, /*video_seed=*/42, /*frame_count=*/400, /*fault_seed=*/7);
  ASSERT_EQ(a.starts(IntervalKind::kRamp).size(),
            b.starts(IntervalKind::kRamp).size());
  EXPECT_FALSE(a.starts(IntervalKind::kRamp).empty());
  for (int frame = 0; frame < 400; ++frame) {
    EXPECT_EQ(a.ThermalScaleAt(frame), b.ThermalScaleAt(frame));
    EXPECT_EQ(a.IndexAt(IntervalKind::kRamp, frame),
              b.IndexAt(IntervalKind::kRamp, frame));
  }
}

TEST(RampFaultPlanTest, DifferentFaultSeedsChangeTheRamps) {
  FaultSpec spec = FaultSpec::Ramp();
  FaultPlan a(spec, 42, 400, /*fault_seed=*/1);
  FaultPlan b(spec, 42, 400, /*fault_seed=*/2);
  bool any_difference = a.starts(IntervalKind::kRamp).size() !=
                        b.starts(IntervalKind::kRamp).size();
  for (int frame = 0; frame < 400 && !any_difference; ++frame) {
    any_difference = a.ThermalScaleAt(frame) != b.ThermalScaleAt(frame);
  }
  EXPECT_TRUE(any_difference);
}

TEST(RampFaultPlanTest, ThermalScaleFollowsTheRampShape) {
  FaultSpec spec = FaultSpec::Ramp();
  FaultPlan plan(spec, 11, 500, 3);
  ASSERT_FALSE(plan.starts(IntervalKind::kRamp).empty());
  for (int start : plan.starts(IntervalKind::kRamp)) {
    // Plateau holds the peak; everywhere the scale stays in [1, peak].
    EXPECT_DOUBLE_EQ(plan.ThermalScaleAt(start + spec.ramp_up_frames),
                     spec.ramp_peak_scale);
    int end = start + plan.Length(IntervalKind::kRamp);
    for (int frame = start; frame < end && frame < 500; ++frame) {
      double scale = plan.ThermalScaleAt(frame);
      EXPECT_GE(scale, 1.0);
      EXPECT_LE(scale, spec.ramp_peak_scale + 1e-12);
    }
  }
  // Outside every ramp the drift factor is exactly 1.
  for (int frame = 0; frame < 500; ++frame) {
    if (plan.IndexAt(IntervalKind::kRamp, frame) < 0) {
      EXPECT_DOUBLE_EQ(plan.ThermalScaleAt(frame), 1.0);
    }
  }
}

TEST(FaultRuntimeFrameRateTest, CaptureStallChargesTheStreamInterval) {
  // A waited-out frame drop blocks until the next capture: the charge must be
  // the stream's own frame interval, not a hardcoded 30 fps.
  FaultSpec spec;
  spec.frame_drop_prob = 1.0;
  FaultRuntime at_30fps(&spec, 1, 100, 1, /*degrade=*/true, 0.0);
  FaultRuntime at_15fps(&spec, 1, 100, 1, /*degrade=*/true, 0.0,
                        /*frame_interval_ms=*/1000.0 / 15.0);
  at_30fps.BeginGof(0);
  at_15fps.BeginGof(0);
  // can_coast=false forces the blocking path (first GoF of a stream).
  FaultRuntime::DetectorOutcome slow = at_30fps.ResolveDetector(0, 10.0, false);
  FaultRuntime::DetectorOutcome slower = at_15fps.ResolveDetector(0, 10.0, false);
  EXPECT_DOUBLE_EQ(slow.penalty_ms, kDefaultFrameIntervalMs);
  EXPECT_DOUBLE_EQ(slower.penalty_ms, 1000.0 / 15.0);
}

EvalResult RunPredictive(Protocol& protocol, const FaultSpec& faults,
                         int threads, bool predictive = true) {
  EvalConfig config;
  config.slo_ms = 33.3;
  config.threads = threads;
  config.faults = faults;
  config.fault_seed = 11;
  config.degrade = true;
  config.predictive = predictive;
  return OnlineRunner::Run(protocol, TinyValidation(), config);
}

void ExpectIdenticalResults(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(EvalResultJson(a), EvalResultJson(b));
  ASSERT_EQ(a.gof_frame_ms.size(), b.gof_frame_ms.size());
  for (size_t i = 0; i < a.gof_frame_ms.size(); ++i) {
    EXPECT_EQ(a.gof_frame_ms[i], b.gof_frame_ms[i]) << "GoF sample " << i;
  }
}

TEST(PredictiveRuntimeTest, RampScheduleIsIdenticalAcrossThreadCounts) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult sequential = RunPredictive(protocol, FaultSpec::Ramp(), 1);
  for (int threads : {4, 8}) {
    EvalResult parallel = RunPredictive(protocol, FaultSpec::Ramp(), threads);
    ExpectIdenticalResults(sequential, parallel);
  }
}

TEST(PredictiveRuntimeTest, XavierScheduleIsIdenticalAcrossThreadCounts) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult sequential = RunPredictive(protocol, FaultSpec::SevereXavier(), 1);
  EvalResult parallel = RunPredictive(protocol, FaultSpec::SevereXavier(), 4);
  ExpectIdenticalResults(sequential, parallel);
}

TEST(PredictiveRuntimeTest, ApproxDetIsIdenticalAcrossThreadCounts) {
  ApproxDetProtocol protocol(&TinyModels());
  EvalResult sequential = RunPredictive(protocol, FaultSpec::SevereXavier(), 1);
  EvalResult parallel = RunPredictive(protocol, FaultSpec::SevereXavier(), 4);
  ExpectIdenticalResults(sequential, parallel);
}

TEST(PredictiveRuntimeTest, InertOnTheNoFaultPath) {
  // With no faults the predictive machinery must not perturb a single bit:
  // the estimator never observes, the drift loop never arms, and the blend
  // stays on the reference expression.
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult reactive =
      RunPredictive(protocol, FaultSpec::None(), 2, /*predictive=*/false);
  EvalResult predictive =
      RunPredictive(protocol, FaultSpec::None(), 2, /*predictive=*/true);
  ExpectIdenticalResults(reactive, predictive);
  EXPECT_EQ(predictive.recalibrations, 0);
  EXPECT_EQ(predictive.preemptive_replans, 0);
  EXPECT_EQ(predictive.forecast_absorbed, 0);
}

TEST(PredictiveRuntimeTest, CountersSurfaceInTheEvalJson) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult result = RunPredictive(protocol, FaultSpec::SevereXavier(), 4);
  std::string json = EvalResultJson(result);
  EXPECT_NE(json.find("\"recalibrations\":"), std::string::npos);
  EXPECT_NE(json.find("\"reanchors\":"), std::string::npos);
  EXPECT_NE(json.find("\"preemptive_replans\":"), std::string::npos);
  EXPECT_NE(json.find("\"forecast_absorbed\":"), std::string::npos);
}

// A single long stream under a dense pure-thermal schedule: enough GoFs inside
// one ramp for the drift window to fill while the ramp holds its plateau.
Dataset LongRampStream() {
  Dataset dataset;
  dataset.videos.push_back(SyntheticVideo::Generate(
      VideoSpec{/*seed=*/61, 1280, 720, /*frame_count=*/420, /*fps=*/30.0,
                SceneArchetype::kSparse}));
  return dataset;
}

FaultSpec DenseRamp() {
  FaultSpec spec = FaultSpec::Ramp();
  spec.ramps_per_100_frames = 2.0;
  spec.ramp_peak_scale = 1.6;
  spec.outlier_prob = 0.0;  // pure drift: nothing else moves the residual
  return spec;
}

EvalResult RunLongRamp(bool predictive) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalConfig config;
  config.slo_ms = 33.3;
  config.threads = 1;
  config.faults = DenseRamp();
  config.fault_seed = 3;
  config.degrade = true;
  config.predictive = predictive;
  Dataset dataset = LongRampStream();
  return OnlineRunner::Run(protocol, dataset, config);
}

TEST(PredictiveDriftTest, ThermalRampTriggersRecalibrationEndToEnd) {
  // The ramp inflates CPU kernels too; the GPU calibration EWMA explains away
  // only the GPU share, the residual shows up as sustained prediction bias,
  // the DriftMonitor flips latency_drift, and the runtime recalibrates the
  // CPU model from the measured tracker inflation — all of which must be
  // visible in the accounting.
  EvalResult result = RunLongRamp(/*predictive=*/true);
  EXPECT_EQ(result.frames, 420u);
  EXPECT_GT(result.faults_injected, 0);
  EXPECT_GT(result.recalibrations, 0);
}

TEST(PredictiveDriftTest, RecalibrationDoesNotLoseToReactiveOnRamps) {
  // The point of recalibrating is to stop the miss/fallback oscillation that
  // an unexplained CPU-side drift causes; at minimum the predictive runtime
  // must never miss *more* deadlines than the reactive one here.
  EvalResult predictive = RunLongRamp(/*predictive=*/true);
  EvalResult reactive = RunLongRamp(/*predictive=*/false);
  EXPECT_LE(predictive.deadline_misses, reactive.deadline_misses);
}

TEST(PredictiveDriftTest, RecalibrationEventsAppearInTheTrace) {
  std::ostringstream os;
  TraceWriter writer(os);
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  protocol.set_trace_writer(&writer);
  EvalConfig config;
  config.slo_ms = 33.3;
  config.threads = 1;
  config.faults = DenseRamp();
  config.fault_seed = 3;
  config.degrade = true;
  config.predictive = true;
  Dataset dataset = LongRampStream();
  EvalResult result = OnlineRunner::Run(protocol, dataset, config);
  writer.Flush();
  ASSERT_GT(result.recalibrations, 0);
  std::string trace = os.str();
  EXPECT_NE(trace.find("\"event\":\"recalibrate\""), std::string::npos);
  EXPECT_NE(trace.find("\"missed\":"), std::string::npos);
}

}  // namespace
}  // namespace litereconfig
