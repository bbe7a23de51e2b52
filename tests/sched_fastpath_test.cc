// The scheduler's binding contract: Decide/SelectFeatures, which route every
// feasibility probe through the precomputed DecisionCostTable, must be
// bit-identical to the reference scheduler (tests/decide_reference.h) across
// the whole configuration space — modes, calibration values, SLOs, GoF tails,
// hysteresis, switching costs, and the headroom-first degradation stage.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/sched/cost_table.h"
#include "src/sched/latency_predictor.h"
#include "src/sched/scheduler.h"
#include "src/util/rng.h"
#include "tests/decide_reference.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

void ExpectIdenticalDecisions(const SchedulerDecision& fast,
                              const SchedulerDecision& reference,
                              int trial) {
  EXPECT_EQ(fast.branch_index, reference.branch_index) << "trial " << trial;
  ASSERT_EQ(fast.heavy_features.size(), reference.heavy_features.size())
      << "trial " << trial;
  for (size_t i = 0; i < fast.heavy_features.size(); ++i) {
    EXPECT_EQ(fast.heavy_features[i], reference.heavy_features[i])
        << "trial " << trial << " feature " << i;
  }
  // Bit-identical, not approximately equal: the fast path must perform the
  // same floating-point operations in the same order.
  EXPECT_EQ(fast.scheduler_cost_ms, reference.scheduler_cost_ms)
      << "trial " << trial;
  EXPECT_EQ(fast.switch_cost_ms, reference.switch_cost_ms) << "trial " << trial;
  EXPECT_EQ(fast.predicted_accuracy, reference.predicted_accuracy)
      << "trial " << trial;
  EXPECT_EQ(fast.predicted_frame_ms, reference.predicted_frame_ms)
      << "trial " << trial;
  EXPECT_EQ(fast.infeasible, reference.infeasible) << "trial " << trial;
  ASSERT_EQ(fast.light_features.size(), reference.light_features.size())
      << "trial " << trial;
  for (size_t i = 0; i < fast.light_features.size(); ++i) {
    EXPECT_EQ(fast.light_features[i], reference.light_features[i])
        << "trial " << trial << " light " << i;
  }
}

TEST(SchedFastPathTest, DecideMatchesReferenceAcrossRandomizedConfigs) {
  const TrainedModels& models = TinyModels();
  const BranchSpace& space = *models.space;
  const Dataset& dataset = TinyValidation();
  Pcg32 rng(HashKeys({0xfa57ull, 0xa7ull}));

  const LiteReconfigMode kModes[] = {
      LiteReconfigMode::kFull, LiteReconfigMode::kMinCost,
      LiteReconfigMode::kMaxContentResNet, LiteReconfigMode::kMaxContentMobileNet,
      LiteReconfigMode::kForceFeature,
  };

  for (int trial = 0; trial < 200; ++trial) {
    SchedulerConfig config;
    config.mode = kModes[trial % 5];
    if (config.mode == LiteReconfigMode::kForceFeature) {
      config.forced_feature =
          kHeavyFeatures[rng.NextU32() %
                         (sizeof(kHeavyFeatures) / sizeof(kHeavyFeatures[0]))];
    }
    config.charge_feature_overhead = rng.NextU32() % 2 == 0;
    config.use_switching_cost = rng.NextU32() % 2 == 0;
    config.use_hysteresis = rng.NextU32() % 2 == 0;
    config.max_heavy_features = 1 + static_cast<int>(rng.NextU32() % 3);
    LiteReconfigScheduler scheduler(&models, config);

    const SyntheticVideo& video =
        dataset.videos[trial % dataset.videos.size()];
    int frame = static_cast<int>(rng.NextU32() % 50);
    // Realistic anchor detections: an actual detector pass on the frame.
    Branch anchor_branch = space.at(rng.NextU32() % space.size());
    DetectionList anchor =
        ExecutionKernel::DetectAnchor(video, frame, anchor_branch, trial);

    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = frame;
    ctx.anchor_detections = &anchor;
    ctx.slo_ms = 10.0 + rng.NextDouble() * 90.0;
    ctx.gpu_cal = 0.5 + rng.NextDouble() * 2.5;
    ctx.cpu_cal = 0.5 + rng.NextDouble() * 2.5;
    ctx.prefer_headroom = rng.NextU32() % 4 == 0;
    ctx.heavy_blend = rng.NextU32() % 2 == 0 ? 0.5 : 0.3 + rng.NextDouble() * 0.6;
    if (rng.NextU32() % 2 == 0) {
      ctx.current_branch = rng.NextU32() % space.size();
    }
    // Exercise the GoF tail cap: unknown (0), shorter than any GoF, typical.
    switch (rng.NextU32() % 3) {
      case 0:
        ctx.frames_remaining = 0;
        break;
      case 1:
        ctx.frames_remaining = 1 + static_cast<int>(rng.NextU32() % 4);
        break;
      default:
        ctx.frames_remaining = video.frame_count() - frame;
        break;
    }

    ExpectIdenticalDecisions(scheduler.Decide(ctx),
                             DecideReference(models, config, ctx), trial);
  }
}

// A table kept across the decisions of one stream, as RunVideo keeps it:
// every decision through it must match a fresh table and the reference on
// every field. The switch-cost row is reused while the current branch and the
// switching charge hold (steps 1-2, with other inputs moving) and recomputed
// when either changes (steps 3-5).
TEST(SchedFastPathTest, KeptTableDecideMatchesFreshAndReference) {
  const TrainedModels& models = TinyModels();
  const BranchSpace& space = *models.space;
  const Dataset& dataset = TinyValidation();
  Pcg32 rng(HashKeys({0x5e55ull, 0x10ull}));

  const LiteReconfigMode kModes[] = {
      LiteReconfigMode::kFull, LiteReconfigMode::kMinCost,
      LiteReconfigMode::kMaxContentResNet, LiteReconfigMode::kForceFeature,
  };

  long hits = 0;
  long misses = 0;
  for (int trial = 0; trial < 100; ++trial) {
    SchedulerConfig charged;
    charged.mode = kModes[trial % 4];
    if (charged.mode == LiteReconfigMode::kForceFeature) {
      charged.forced_feature =
          kHeavyFeatures[rng.NextU32() %
                         (sizeof(kHeavyFeatures) / sizeof(kHeavyFeatures[0]))];
    }
    charged.charge_feature_overhead = rng.NextU32() % 2 == 0;
    charged.use_hysteresis = rng.NextU32() % 2 == 0;
    SchedulerConfig uncharged = charged;
    uncharged.use_switching_cost = false;
    LiteReconfigScheduler charged_scheduler(&models, charged);
    LiteReconfigScheduler uncharged_scheduler(&models, uncharged);
    DecisionCostTable table;

    const SyntheticVideo& video = dataset.videos[trial % dataset.videos.size()];
    int frame = static_cast<int>(rng.NextU32() % 50);
    DetectionList anchor = ExecutionKernel::DetectAnchor(
        video, frame, space.at(rng.NextU32() % space.size()), trial);

    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = frame;
    ctx.anchor_detections = &anchor;
    ctx.slo_ms = 10.0 + rng.NextDouble() * 90.0;
    ctx.gpu_cal = 0.5 + rng.NextDouble() * 2.5;
    ctx.cpu_cal = 0.5 + rng.NextDouble() * 2.5;
    ctx.prefer_headroom = rng.NextU32() % 4 == 0;
    ctx.heavy_blend = rng.NextU32() % 2 == 0 ? 0.5 : 0.3 + rng.NextDouble() * 0.6;
    ctx.current_branch = rng.NextU32() % space.size();
    ctx.frames_remaining = video.frame_count() - frame;

    for (int step = 0; step < 6; ++step) {
      switch (step) {
        case 0:
          break;  // the first build
        case 1:
          ctx.gpu_cal *= 1.25;
          ctx.slo_ms += 1.0;
          break;
        case 2:
          ctx.frames_remaining = 1 + static_cast<int>(rng.NextU32() % 4);
          break;
        case 3:
          ctx.current_branch =
              (*ctx.current_branch + 1 + rng.NextU32() % (space.size() - 1)) %
              space.size();
          break;
        default:
          break;  // step 4 drops the switching charge, step 5 restores it
      }
      const LiteReconfigScheduler& scheduler =
          step == 4 ? uncharged_scheduler : charged_scheduler;
      long reuses_before = table.switch_row_reuses();
      SchedulerDecision kept = scheduler.Decide(ctx, table);
      bool hit = table.switch_row_reuses() > reuses_before;
      EXPECT_EQ(hit, step == 1 || step == 2) << "trial " << trial << " step " << step;
      (hit ? hits : misses) += 1;
      ExpectIdenticalDecisions(kept, scheduler.Decide(ctx), trial * 10 + step);
      ExpectIdenticalDecisions(kept, DecideReference(models, scheduler.config(), ctx),
                               trial * 10 + step);
    }
  }
  EXPECT_EQ(hits, 100 * 2);
  EXPECT_EQ(misses, 100 * 4);
}

TEST(SchedFastPathTest, SelectFeaturesMatchesReference) {
  const TrainedModels& models = TinyModels();
  const Dataset& dataset = TinyValidation();
  LiteReconfigScheduler scheduler(&models, SchedulerConfig{});
  Pcg32 rng(HashKeys({0x5e1ull, 0xf7ull}));

  for (int trial = 0; trial < 50; ++trial) {
    const SyntheticVideo& video = dataset.videos[trial % dataset.videos.size()];
    int frame = static_cast<int>(rng.NextU32() % 50);
    DetectionList anchor = ExecutionKernel::DetectAnchor(
        video, frame, models.space->at(rng.NextU32() % models.space->size()),
        trial);
    std::vector<double> light = ComputeLightFeatures(
        video.spec().width, video.spec().height, anchor);
    std::vector<double> light_pred =
        models.accuracy.at(FeatureKind::kLight).Predict(light, {});

    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = frame;
    ctx.anchor_detections = &anchor;
    ctx.slo_ms = 10.0 + rng.NextDouble() * 90.0;
    ctx.gpu_cal = 0.5 + rng.NextDouble() * 2.5;
    ctx.cpu_cal = 0.5 + rng.NextDouble() * 2.5;
    if (rng.NextU32() % 2 == 0) {
      ctx.current_branch = rng.NextU32() % models.space->size();
    }

    std::vector<FeatureKind> fast = scheduler.SelectFeatures(light, light_pred, ctx);
    std::vector<FeatureKind> reference =
        SelectFeaturesReference(models, SchedulerConfig{}, light, light_pred, ctx);
    ASSERT_EQ(fast.size(), reference.size()) << "trial " << trial;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i], reference[i]) << "trial " << trial;
    }
  }
}

TEST(SchedFastPathTest, CostTableReproducesFrameCostExpression) {
  // The table's CostMs must equal branch_ms + (sched_ms + switch_ms) / gof on
  // the exact doubles the reference FrameCostMs computes — spot-check through
  // the public Feasible/Cheapest surface with a hand-visible configuration.
  const TrainedModels& models = TinyModels();
  const Dataset& dataset = TinyValidation();
  const SyntheticVideo& video = dataset.videos[0];
  DetectionList anchor =
      ExecutionKernel::DetectAnchor(video, 0, models.space->at(0), 1);
  std::vector<double> light = ComputeLightFeatures(
      video.spec().width, video.spec().height, anchor);

  SchedulerConfig config;
  DecisionContext ctx;
  ctx.video = &video;
  ctx.frame = 0;
  ctx.anchor_detections = &anchor;
  ctx.slo_ms = 33.3;
  DecisionCostTable table = DecisionCostTable::Build(models, config, ctx, light);
  ASSERT_EQ(table.size(), models.space->size());
  EXPECT_EQ(table.slo_limit_ms(), ctx.slo_ms * config.slo_margin);
  // Larger scheduler cost can only raise amortized branch cost.
  for (size_t b = 0; b < table.size(); ++b) {
    EXPECT_LE(table.CostMs(b, 1.0), table.CostMs(b, 5.0)) << "branch " << b;
    EXPECT_EQ(table.Feasible(b, 1.0),
              table.CostMs(b, 1.0) <= table.slo_limit_ms());
  }
  size_t cheapest = table.Cheapest(2.0);
  for (size_t b = 0; b < table.size(); ++b) {
    EXPECT_LE(table.CostMs(cheapest, 2.0), table.CostMs(b, 2.0));
  }
}

// Every row of a table priced with grouped tracker regressions equals the
// reference FrameCostMs bit for bit, on both spaces and on a predictor
// restored from its stored parameters (which regroups them), across
// calibrations, GoF tails, switching charges and GPU denial.
TEST(SchedFastPathTest, GroupedTableRowsMatchFrameCost) {
  const Dataset& dataset = TinyValidation();
  Pcg32 rng(HashKeys({0x9f0ull, 0x7bull}));
  for (const TrainedModels* base : {&TinyModels(), &TinyCpuFamilyModels()}) {
    TrainedModels restored = *base;
    restored.latency = LatencyPredictor();
    restored.latency.Restore(*base->space, base->latency.detector_ms(),
                             base->latency.tracker_models());
    const TrainedModels* restored_ptr = &restored;
    for (const TrainedModels* models : {base, restored_ptr}) {
      const BranchSpace& space = *models->space;
      for (int trial = 0; trial < 40; ++trial) {
        const SyntheticVideo& video = dataset.videos[trial % dataset.videos.size()];
        int frame = static_cast<int>(rng.NextU32() % 50);
        DetectionList anchor = ExecutionKernel::DetectAnchor(
            video, frame, space.at(rng.NextU32() % space.size()), trial);
        std::vector<double> light = ComputeLightFeatures(
            video.spec().width, video.spec().height, anchor);
        SchedulerConfig config;
        config.use_switching_cost = rng.NextU32() % 4 != 0;
        DecisionContext ctx;
        ctx.slo_ms = 10.0 + rng.NextDouble() * 90.0;
        ctx.gpu_cal = 0.5 + rng.NextDouble() * 2.5;
        ctx.cpu_cal = 0.5 + rng.NextDouble() * 2.5;
        ctx.frames_remaining = rng.NextU32() % 2 == 0
                                   ? 1 + static_cast<int>(rng.NextU32() % 60)
                                   : video.frame_count() - frame;
        ctx.gpu_available = rng.NextU32() % 4 != 0;
        if (rng.NextU32() % 3 != 0) {
          ctx.current_branch = rng.NextU32() % space.size();
        }
        DecisionCostTable table =
            DecisionCostTable::Build(*models, config, ctx, light);
        ASSERT_EQ(table.size(), space.size());
        double sched_ms = rng.NextDouble() * 5.0;
        for (size_t b = 0; b < table.size(); ++b) {
          EXPECT_EQ(std::bit_cast<uint64_t>(table.CostMs(b, sched_ms)),
                    std::bit_cast<uint64_t>(FrameCostMs(
                        *models, config, ctx, light, b, sched_ms)))
              << "trial " << trial << " branch " << space.at(b).Id();
        }
      }
    }
  }
}

TEST(SchedFastPathTest, CheapestBranchIndexFirstMinimumWins) {
  std::vector<double> costs = {3.0, 1.0, 1.0, 2.0};
  EXPECT_EQ(CheapestBranchIndex(costs.size(),
                                [&](size_t b) { return costs[b]; }),
            1u);
  EXPECT_EQ(CheapestBranchIndex(0, [](size_t) { return 0.0; }), 0u);
  EXPECT_EQ(CheapestBranchIndex(1, [](size_t) { return 7.5; }), 0u);
}

}  // namespace
}  // namespace litereconfig
