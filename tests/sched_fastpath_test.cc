// The scheduler fast path's binding contract: Decide/SelectFeatures, which
// route every feasibility probe through the precomputed DecisionCostTable,
// must be bit-identical to the retained reference implementations across the
// whole configuration space — modes, calibration values, SLOs, GoF tails,
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
#include "src/sched/scheduler_session.h"
#include "src/util/rng.h"
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

    ExpectIdenticalDecisions(scheduler.Decide(ctx), scheduler.DecideReference(ctx),
                             trial);
  }
}

// The batched scheduler's binding contract: a persistent SchedulerSession —
// whole-decision replay, cost-table reuse, switch-row/gof-column component
// caches — must return bit-identical decisions to both the session-free fast
// path and the reference implementation on every field, across streaks of
// repeated contexts (where the caches hit) and across every perturbation of
// the invalidation key (where they must miss and rebuild).
TEST(SchedFastPathTest, SessionDecideMatchesFreshAndReference) {
  const TrainedModels& models = TinyModels();
  const BranchSpace& space = *models.space;
  const Dataset& dataset = TinyValidation();
  Pcg32 rng(HashKeys({0x5e55ull, 0x10ull}));

  const LiteReconfigMode kModes[] = {
      LiteReconfigMode::kFull, LiteReconfigMode::kMinCost,
      LiteReconfigMode::kMaxContentResNet, LiteReconfigMode::kForceFeature,
  };

  uint64_t total_reuses = 0;
  uint64_t total_decisions = 0;
  for (int trial = 0; trial < 200; ++trial) {
    SchedulerConfig config;
    config.mode = kModes[trial % 4];
    if (config.mode == LiteReconfigMode::kForceFeature) {
      config.forced_feature =
          kHeavyFeatures[rng.NextU32() %
                         (sizeof(kHeavyFeatures) / sizeof(kHeavyFeatures[0]))];
    }
    config.charge_feature_overhead = rng.NextU32() % 2 == 0;
    config.use_switching_cost = rng.NextU32() % 2 == 0;
    config.use_hysteresis = rng.NextU32() % 2 == 0;
    LiteReconfigScheduler scheduler(&models, config);
    // One session per (scheduler, stream), as RunVideo holds it.
    SchedulerSession session;

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
    if (rng.NextU32() % 2 == 0) {
      ctx.current_branch = rng.NextU32() % space.size();
    }
    ctx.frames_remaining = video.frame_count() - frame;

    // A streak of decisions through one session: the identical context twice
    // (replay / full-table reuse), then every key field perturbed in turn
    // (each a forced invalidation). Every step must match the session-free
    // fast path and the reference bit for bit.
    for (int step = 0; step < 6; ++step) {
      switch (step) {
        case 0:
        case 1:
          break;  // identical context back to back: caches hit
        case 2:
          ctx.slo_ms += 1.0;
          break;
        case 3:
          ctx.gpu_cal *= 1.25;
          break;
        case 4:
          ctx.frames_remaining = 1 + static_cast<int>(rng.NextU32() % 4);
          break;
        default:
          ctx.current_branch = rng.NextU32() % space.size();
          break;
      }
      SchedulerDecision via_session = scheduler.Decide(ctx, &session);
      ExpectIdenticalDecisions(via_session, scheduler.Decide(ctx),
                               trial * 10 + step);
      ExpectIdenticalDecisions(via_session, scheduler.DecideReference(ctx),
                               trial * 10 + step);
    }
    const SchedulerSession::Counters& counters = session.counters();
    total_decisions += counters.decisions;
    total_reuses += counters.decision_reuses + counters.table_reuses +
                    counters.switch_row_reuses;
  }
  // The streaks must actually exercise the caches — a key that never matches
  // would make this test vacuously pass on a broken lookup.
  EXPECT_GT(total_reuses, 0u);
  EXPECT_EQ(total_decisions, 200u * 6u);
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
        scheduler.SelectFeaturesReference(light, light_pred, ctx);
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

// LiteReconfigScheduler::FrameCostMs, the reference expression: the latency
// predictor evaluated branch by branch, ungrouped.
double ReferenceFrameCostMs(const TrainedModels& models,
                            const SchedulerConfig& config,
                            const DecisionContext& ctx,
                            const std::vector<double>& light, size_t index,
                            double sched_ms) {
  const Branch& branch = models.space->at(index);
  int effective_gof = branch.gof;
  if (ctx.frames_remaining > 0) {
    effective_gof = std::min(effective_gof, ctx.frames_remaining);
  }
  std::vector<double> conservative = light;
  conservative[2] += 1.0 / 8.0;
  double frame_ms =
      (!ctx.gpu_available && !branch.detector.cpu)
          ? std::numeric_limits<double>::infinity()
          : models.latency.PredictFrameMs(index, conservative, ctx.gpu_cal,
                                          ctx.cpu_cal, effective_gof);
  double switch_ms = 0.0;
  if (config.use_switching_cost && ctx.current_branch.has_value() &&
      models.switching.has_value()) {
    switch_ms = models.switching->OfflineCostMs(
        models.space->at(*ctx.current_branch), branch);
  }
  return frame_ms + (sched_ms + switch_ms) / static_cast<double>(effective_gof);
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
                    std::bit_cast<uint64_t>(ReferenceFrameCostMs(
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
