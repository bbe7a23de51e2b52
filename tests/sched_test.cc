#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "src/features/light.h"
#include "src/sched/accuracy_predictor.h"
#include "src/sched/ben_table.h"
#include "src/sched/latency_predictor.h"
#include "src/sched/scheduler.h"
#include "src/util/rng.h"
#include "tests/hash_reference.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

std::vector<double> LightVector(int count, double avg_size) {
  return {1.0, 1.0, count / 8.0, avg_size};
}

TEST(LatencyPredictorTest, MatchesPlatformModel) {
  const BranchSpace& space = BranchSpace::Default();
  LatencyModel platform(DeviceType::kTx2, 0.0);
  LatencyPredictor predictor = LatencyPredictor::Profile(space, platform);
  ASSERT_EQ(predictor.branch_count(), space.size());
  for (size_t b = 0; b < space.size(); b += 13) {
    for (int count : {0, 2, 6}) {
      double predicted = predictor.PredictFrameMs(b, LightVector(count, 0.2), 1.0, 1.0);
      double truth = platform.BranchFrameMs(space.at(b), count);
      EXPECT_NEAR(predicted, truth, 0.05 * truth + 0.2)
          << space.at(b).Id() << " count=" << count;
    }
  }
}

TEST(LatencyPredictorTest, GpuCalibrationScalesDetectorPart) {
  const BranchSpace& space = BranchSpace::Default();
  LatencyModel platform(DeviceType::kTx2, 0.0);
  LatencyPredictor predictor = LatencyPredictor::Profile(space, platform);
  // Branch 0 is detector-only: calibration should scale it exactly.
  ASSERT_FALSE(space.at(0).has_tracker);
  double base = predictor.PredictFrameMs(0, LightVector(3, 0.2), 1.0, 1.0);
  double inflated = predictor.PredictFrameMs(0, LightVector(3, 0.2), 1.7, 1.0);
  EXPECT_NEAR(inflated, 1.7 * base, 1e-9);
}

TEST(LatencyPredictorTest, TrackerPartRespondsToObjectCount) {
  const BranchSpace& space = BranchSpace::Default();
  LatencyModel platform(DeviceType::kTx2, 0.0);
  LatencyPredictor predictor = LatencyPredictor::Profile(space, platform);
  // Find a tracked branch with a long GoF.
  size_t idx = 0;
  for (size_t b = 0; b < space.size(); ++b) {
    if (space.at(b).has_tracker && space.at(b).gof >= 20) {
      idx = b;
      break;
    }
  }
  double few = predictor.PredictFrameMs(idx, LightVector(1, 0.2), 1.0, 1.0);
  double many = predictor.PredictFrameMs(idx, LightVector(8, 0.2), 1.0, 1.0);
  EXPECT_GT(many, few);
}

TEST(BenefitTableTest, SetAndLookup) {
  BenefitTable table;
  table.Set(FeatureKind::kHoc, 33.3, 0.012);
  table.Set(FeatureKind::kHoc, 100.0, 0.020);
  EXPECT_DOUBLE_EQ(table.Ben(FeatureKind::kHoc, 33.3), 0.012);
  EXPECT_DOUBLE_EQ(table.Ben(FeatureKind::kHoc, 100.0), 0.020);
  // Nearest-bucket behavior.
  EXPECT_DOUBLE_EQ(table.Ben(FeatureKind::kHoc, 30.0), 0.012);
  EXPECT_DOUBLE_EQ(table.Ben(FeatureKind::kHoc, 90.0), 0.020);
  // Unset feature -> 0.
  EXPECT_DOUBLE_EQ(table.Ben(FeatureKind::kHog, 33.3), 0.0);
}

TEST(BenefitTableTest, SubsetTakesMaxPlusBonus) {
  BenefitTable table;
  table.Set(FeatureKind::kHoc, 50.0, 0.010);
  table.Set(FeatureKind::kHog, 50.0, 0.030);
  EXPECT_DOUBLE_EQ(table.BenSubset({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(table.BenSubset({FeatureKind::kHoc}, 50.0), 0.010);
  double both = table.BenSubset({FeatureKind::kHoc, FeatureKind::kHog}, 50.0);
  EXPECT_GT(both, 0.030);
  EXPECT_LT(both, 0.040);
}

TEST(AccuracyPredictorTest, InputDims) {
  EXPECT_EQ(AccuracyPredictor::InputDim(FeatureKind::kLight), 4u);
  EXPECT_EQ(AccuracyPredictor::InputDim(FeatureKind::kCpop), 4u + 31u);
  EXPECT_EQ(AccuracyPredictor::InputDim(FeatureKind::kHog),
            4u + static_cast<size_t>(kHashedFeatureDim));
}

TEST(AccuracyPredictorTest, PredictionsClampedToUnitRange) {
  MlpConfig config =
      AccuracyPredictor::DefaultMlpConfig(FeatureKind::kLight, 10, 8, 2);
  AccuracyPredictor predictor(FeatureKind::kLight, Mlp(config));
  std::vector<double> pred = predictor.Predict(LightVector(3, 0.2), {});
  ASSERT_EQ(pred.size(), 10u);
  for (double v : pred) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

// Input widths are checked in every build, not only where assert is on: the
// forward indexes the configured width, so a short input would read out of
// bounds.
TEST(AccuracyPredictorTest, RejectsWrongInputWidths) {
  MlpConfig light_config =
      AccuracyPredictor::DefaultMlpConfig(FeatureKind::kLight, 10, 8, 2);
  EXPECT_THROW(AccuracyPredictor(FeatureKind::kHog, Mlp(light_config)),
               std::invalid_argument);
  AccuracyPredictor light(FeatureKind::kLight, Mlp(light_config));
  EXPECT_THROW(light.Predict({1.0, 1.0, 0.25}, {}), std::invalid_argument);
  EXPECT_THROW(light.BuildInput({1.0, 1.0, 0.25, 0.2, 0.1}, {}),
               std::invalid_argument);

  MlpConfig hoc_config =
      AccuracyPredictor::DefaultMlpConfig(FeatureKind::kHoc, 10, 8, 2);
  AccuracyPredictor hoc(FeatureKind::kHoc, Mlp(hoc_config));
  std::vector<double> content(
      static_cast<size_t>(FeatureDimension(FeatureKind::kHoc)), 0.5);
  EXPECT_NO_THROW(hoc.Predict(LightVector(3, 0.2), content));
  EXPECT_THROW(hoc.Predict({1.0}, content), std::invalid_argument);
}

// Every heavy kind's net input is the light features, then its content
// feature through the once-per-process table, bit for bit what the hashing
// loop gives; a content vector of another width takes the same hashing.
TEST(AccuracyPredictorTest, BuildInputMatchesHashingLoop) {
  Pcg32 rng(0xb1d);
  std::vector<double> light = LightVector(3, 0.2);
  for (FeatureKind kind : kHeavyFeatures) {
    AccuracyPredictor predictor(
        kind, Mlp(AccuracyPredictor::DefaultMlpConfig(kind, 10, 8, 1)));
    int out_dim = static_cast<int>(AccuracyPredictor::InputDim(kind) - light.size());
    uint64_t seed = HashKeys({0x4a54ull, static_cast<uint64_t>(kind)});
    for (size_t width : {static_cast<size_t>(FeatureDimension(kind)), size_t{500}}) {
      std::vector<double> content(width);
      for (double& v : content) {
        uint32_t pick = rng.UniformInt(8);
        double value = rng.Uniform(-1.0, 1.0);
        v = pick == 0   ? -0.0
            : pick == 1 ? std::numeric_limits<double>::quiet_NaN()
                        : value;
      }
      std::vector<double> got = predictor.BuildInput(light, content);
      std::vector<double> want = light;
      std::vector<double> hashed = ReferenceHashProject(content, out_dim, seed);
      want.insert(want.end(), hashed.begin(), hashed.end());
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
            << FeatureName(kind) << " width " << width << " input " << i;
      }
    }
  }
}

TEST(AccuracyPredictorTest, LearnsBranchAccuracyFromLabels) {
  // Synthetic task: accuracy of branch b is a known function of the features.
  size_t num_branches = 6;
  MlpConfig config = AccuracyPredictor::DefaultMlpConfig(FeatureKind::kLight,
                                                         num_branches, 24, 200);
  config.early_stop_rel_tol = 0.0;
  AccuracyPredictor predictor(FeatureKind::kLight, Mlp(config));
  Pcg32 rng(55);
  size_t n = 300;
  Matrix x(n, 4);
  Matrix y(n, num_branches);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> light = LightVector(static_cast<int>(rng.UniformInt(8)),
                                            rng.Uniform(0.05, 0.5));
    for (size_t j = 0; j < 4; ++j) {
      x(i, j) = light[j];
    }
    for (size_t b = 0; b < num_branches; ++b) {
      y(i, b) = std::clamp(0.3 + 0.1 * static_cast<double>(b) * light[3], 0.0, 1.0);
    }
  }
  double loss = predictor.Train(x, y);
  EXPECT_LT(loss, 5e-4);
  std::vector<double> pred = predictor.Predict(LightVector(3, 0.4), {});
  EXPECT_NEAR(pred[5], 0.3 + 0.5 * 0.4, 0.05);
}

class SchedulerFixture : public ::testing::Test {
 protected:
  const TrainedModels& models() { return TinyModels(); }

  DecisionContext MakeContext(const SyntheticVideo& video, double slo) {
    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = 0;
    ctx.anchor_detections = &anchor_;
    ctx.slo_ms = slo;
    return ctx;
  }

  DetectionList anchor_;
};

TEST_F(SchedulerFixture, DecisionRespectsSlo) {
  LiteReconfigScheduler scheduler(&models(), SchedulerConfig{});
  const SyntheticVideo& video = TinyValidation().videos[0];
  for (double slo : {33.3, 50.0, 100.0}) {
    SchedulerDecision decision = scheduler.Decide(MakeContext(video, slo));
    if (!decision.infeasible) {
      const Branch& branch = models().space->at(decision.branch_index);
      double total = decision.predicted_frame_ms +
                     (decision.scheduler_cost_ms + decision.switch_cost_ms) /
                         static_cast<double>(branch.gof);
      EXPECT_LE(total, slo + 1e-6);
    }
  }
}

TEST_F(SchedulerFixture, ImpossibleSloIsFlaggedInfeasible) {
  LiteReconfigScheduler scheduler(&models(), SchedulerConfig{});
  const SyntheticVideo& video = TinyValidation().videos[0];
  SchedulerDecision decision = scheduler.Decide(MakeContext(video, 0.05));
  EXPECT_TRUE(decision.infeasible);
}

TEST_F(SchedulerFixture, LooserSloAllowsHeavierBranch) {
  LiteReconfigScheduler scheduler(&models(), SchedulerConfig{});
  const SyntheticVideo& video = TinyValidation().videos[1];
  SchedulerDecision tight = scheduler.Decide(MakeContext(video, 20.0));
  SchedulerDecision loose = scheduler.Decide(MakeContext(video, 200.0));
  double tight_ms = models().latency.PredictFrameMs(
      tight.branch_index, ComputeLightFeatures(1280, 720, anchor_), 1.0, 1.0);
  double loose_ms = models().latency.PredictFrameMs(
      loose.branch_index, ComputeLightFeatures(1280, 720, anchor_), 1.0, 1.0);
  EXPECT_GE(loose_ms, tight_ms - 1e-9);
}

TEST_F(SchedulerFixture, MaxContentVariantsAlwaysUseTheirFeature) {
  // MaxContent-<feature>: the forced-feature mode with the feature's cost
  // charged (the SchedulerConfig default).
  const SyntheticVideo& video = TinyValidation().videos[0];
  for (FeatureKind kind : {FeatureKind::kResNet50, FeatureKind::kMobileNetV2}) {
    SchedulerConfig config;
    config.mode = LiteReconfigMode::kForceFeature;
    config.forced_feature = kind;
    LiteReconfigScheduler scheduler(&models(), config);
    SchedulerDecision decision = scheduler.Decide(MakeContext(video, 100.0));
    ASSERT_EQ(decision.heavy_features.size(), 1u);
    EXPECT_EQ(decision.heavy_features[0], kind);
  }
}

TEST_F(SchedulerFixture, MinCostNeverExtractsHeavyFeatures) {
  SchedulerConfig config;
  config.mode = LiteReconfigMode::kMinCost;
  LiteReconfigScheduler scheduler(&models(), config);
  for (const SyntheticVideo& video : TinyValidation().videos) {
    SchedulerDecision decision = scheduler.Decide(MakeContext(video, 100.0));
    EXPECT_TRUE(decision.heavy_features.empty());
    // Scheduler cost is just the light extract+predict.
    EXPECT_NEAR(decision.scheduler_cost_ms,
                models().FeatureCostMs(FeatureKind::kLight, 1.0, 1.0), 1e-9);
  }
}

TEST_F(SchedulerFixture, ForcedFeatureModeUsesExactlyThatFeature) {
  SchedulerConfig config;
  config.mode = LiteReconfigMode::kForceFeature;
  config.forced_feature = FeatureKind::kHog;
  config.charge_feature_overhead = false;
  LiteReconfigScheduler scheduler(&models(), config);
  const SyntheticVideo& video = TinyValidation().videos[2];
  SchedulerDecision decision = scheduler.Decide(MakeContext(video, 33.3));
  ASSERT_EQ(decision.heavy_features.size(), 1u);
  EXPECT_EQ(decision.heavy_features[0], FeatureKind::kHog);
}

TEST_F(SchedulerFixture, FullModeSchedulerCostBoundedByMaxContent) {
  // The cost-benefit analyzer's charged cost lies between MinCost's and the
  // most expensive MaxContent variant's (paper Figure 3 observation).
  LiteReconfigScheduler full(&models(), SchedulerConfig{});
  SchedulerConfig mobile_config;
  mobile_config.mode = LiteReconfigMode::kForceFeature;
  mobile_config.forced_feature = FeatureKind::kMobileNetV2;
  LiteReconfigScheduler mobile(&models(), mobile_config);
  SchedulerConfig min_config;
  min_config.mode = LiteReconfigMode::kMinCost;
  LiteReconfigScheduler mincost(&models(), min_config);
  const SyntheticVideo& video = TinyValidation().videos[0];
  double full_cost = full.Decide(MakeContext(video, 50.0)).scheduler_cost_ms;
  double mobile_cost = mobile.Decide(MakeContext(video, 50.0)).scheduler_cost_ms;
  double min_cost = mincost.Decide(MakeContext(video, 50.0)).scheduler_cost_ms;
  EXPECT_GE(full_cost, min_cost - 1e-9);
  EXPECT_LE(full_cost, mobile_cost + 1e-9);
}

TEST_F(SchedulerFixture, HysteresisKeepsCurrentBranch) {
  LiteReconfigScheduler scheduler(&models(), SchedulerConfig{});
  const SyntheticVideo& video = TinyValidation().videos[0];
  DecisionContext ctx = MakeContext(video, 100.0);
  SchedulerDecision first = scheduler.Decide(ctx);
  // Re-deciding with the chosen branch current must keep it (same inputs).
  ctx.current_branch = first.branch_index;
  SchedulerDecision second = scheduler.Decide(ctx);
  EXPECT_EQ(second.branch_index, first.branch_index);
  EXPECT_DOUBLE_EQ(second.switch_cost_ms, 0.0);
}

TEST_F(SchedulerFixture, ContentionCalibrationShrinksFeasibleSet) {
  LiteReconfigScheduler scheduler(&models(), SchedulerConfig{});
  const SyntheticVideo& video = TinyValidation().videos[1];
  DecisionContext calm = MakeContext(video, 33.3);
  DecisionContext contended = MakeContext(video, 33.3);
  contended.gpu_cal = 1.74;  // observed 50% contention inflation
  SchedulerDecision calm_decision = scheduler.Decide(calm);
  SchedulerDecision contended_decision = scheduler.Decide(contended);
  std::vector<double> light = ComputeLightFeatures(1280, 720, anchor_);
  // The contended choice stays feasible under the observed inflation...
  double contended_ms = models().latency.PredictFrameMs(
      contended_decision.branch_index, light, 1.74, 1.0);
  EXPECT_LE(contended_ms, 33.3);
  // ...and its GPU (detector) component shrinks versus the calm choice: the
  // scheduler shifts work away from the contended resource. (The CPU tracker
  // share may grow — that is the adaptation.)
  EXPECT_LE(models().latency.DetectorMs(contended_decision.branch_index) /
                models().space->at(contended_decision.branch_index).gof,
            models().latency.DetectorMs(calm_decision.branch_index) /
                    models().space->at(calm_decision.branch_index).gof +
                1e-9);
}

TEST(TrainedModelsTest, FeatureCostScalesByPlacement) {
  const TrainedModels& models = TinyModels();
  // HOG extracts on CPU: gpu calibration must not affect extraction, only the
  // (GPU) prediction half.
  double base = models.FeatureCostMs(FeatureKind::kHog, 1.0, 1.0);
  double gpu_inflated = models.FeatureCostMs(FeatureKind::kHog, 2.0, 1.0);
  size_t hog = static_cast<size_t>(FeatureKind::kHog);
  EXPECT_NEAR(gpu_inflated - base, models.feature_predict_ms[hog], 1e-9);
  // MobileNet extracts on GPU: both halves inflate.
  double mobile_base = models.FeatureCostMs(FeatureKind::kMobileNetV2, 1.0, 1.0);
  double mobile_inflated = models.FeatureCostMs(FeatureKind::kMobileNetV2, 2.0, 1.0);
  EXPECT_NEAR(mobile_inflated, 2.0 * mobile_base, 1e-9);
}

}  // namespace
}  // namespace litereconfig
