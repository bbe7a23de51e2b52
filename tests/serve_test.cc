// The multi-tenant serving layer's contracts: the GPU-share ledger prices
// co-located streams correctly, admission control handles the capacity and
// saturation edges, the cost-benefit allocator never does worse than its
// equal-split seeding, and the whole service is bit-identical at any thread
// count. Suite names carry Serve/Admission so the TSan CI job picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/serve/serve_runner.h"
#include "src/platform/device.h"
#include "src/platform/gpu_ledger.h"
#include "src/sched/branch_menu.h"
#include "src/sched/scheduler.h"
#include "src/serve/admission.h"
#include "src/serve/allocator.h"
#include "src/serve/arrivals.h"
#include "src/serve/service.h"
#include "src/util/rng.h"
#include "tests/decide_reference.h"
#include "tests/menu_reference.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

// --- GPU-share ledger ---

TEST(ServeLedgerTest, LevelExcludesOwnShare) {
  GpuShareLedger ledger;
  EXPECT_EQ(ledger.AddStream(0.2), 0u);
  EXPECT_EQ(ledger.AddStream(0.3), 1u);
  EXPECT_EQ(ledger.AddStream(0.1), 2u);
  EXPECT_DOUBLE_EQ(ledger.TotalShare(), 0.6);
  EXPECT_DOUBLE_EQ(ledger.LevelFor(0), 0.4);   // 0.3 + 0.1
  EXPECT_DOUBLE_EQ(ledger.LevelFor(1), 0.3);   // 0.2 + 0.1
  EXPECT_DOUBLE_EQ(ledger.LevelFor(2), 0.5);   // 0.2 + 0.3
}

TEST(ServeLedgerTest, SharesClampAndLevelsCap) {
  GpuShareLedger ledger;
  ledger.AddStream(0.0);
  ledger.AddStream(0.2);
  ledger.SetShare(0, 1.5);  // share clamps to [0, 1]
  EXPECT_DOUBLE_EQ(ledger.share(0), 1.0);
  ledger.SetShare(1, -0.5);
  EXPECT_DOUBLE_EQ(ledger.share(1), 0.0);
  // Levels cap at the oversubscription ceiling.
  ledger.SetShare(1, 0.8);
  EXPECT_DOUBLE_EQ(ledger.LevelFor(1), kMaxEndogenousLevel);
}

TEST(ServeLedgerTest, RemoveStreamShiftsLaterIndices) {
  GpuShareLedger ledger;
  ledger.AddStream(0.1);
  ledger.AddStream(0.2);
  ledger.AddStream(0.3);
  ledger.RemoveStream(0);
  ASSERT_EQ(ledger.size(), 2u);
  EXPECT_DOUBLE_EQ(ledger.share(0), 0.2);
  EXPECT_DOUBLE_EQ(ledger.share(1), 0.3);
  EXPECT_DOUBLE_EQ(ledger.LevelFor(0), 0.3);
}

// --- Arrival traces ---

TEST(ServeArrivalsTest, TraceIsDeterministicAndSorted) {
  ArrivalSpec spec;
  spec.seed = 5;
  spec.num_streams = 16;
  std::vector<StreamRequest> a = GenerateArrivals(spec);
  std::vector<StreamRequest> b = GenerateArrivals(spec);
  ASSERT_EQ(a.size(), 16u);
  ASSERT_EQ(b.size(), a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream_id, b[i].stream_id) << i;
    EXPECT_EQ(a[i].arrival_round, b[i].arrival_round) << i;
    EXPECT_EQ(a[i].slo_class, b[i].slo_class) << i;
    EXPECT_EQ(a[i].slo_ms, b[i].slo_ms) << i;
    EXPECT_EQ(a[i].video.seed, b[i].video.seed) << i;
    if (i > 0) {
      // Sorted by (arrival_round, stream_id).
      EXPECT_TRUE(a[i - 1].arrival_round < a[i].arrival_round ||
                  (a[i - 1].arrival_round == a[i].arrival_round &&
                   a[i - 1].stream_id < a[i].stream_id))
          << i;
    }
  }
  // A different seed must produce a different trace.
  spec.seed = 6;
  std::vector<StreamRequest> c = GenerateArrivals(spec);
  bool differs = false;
  for (size_t i = 0; i < c.size(); ++i) {
    differs = differs || c[i].arrival_round != a[i].arrival_round ||
              c[i].video.seed != a[i].video.seed ||
              c[i].slo_class != a[i].slo_class;
  }
  EXPECT_TRUE(differs);
}

// --- Budget allocator ---

std::vector<BranchOption> Menu(std::vector<std::pair<double, double>> rows) {
  std::vector<BranchOption> menu;
  for (size_t i = 0; i < rows.size(); ++i) {
    menu.push_back(BranchOption{i, rows[i].first, rows[i].second});
  }
  return menu;
}

TEST(ServeAllocatorTest, LoneOrAbsentStreamsAreUnconstrained) {
  const AllocatorMode mode = AllocatorMode::kCostBenefit;
  EXPECT_TRUE(AllocateBudgets(mode, 33.3, {}).empty());
  StreamDemand demand;
  demand.menu = Menu({{5.0, 0.5}});
  std::vector<double> budgets = AllocateBudgets(mode, 33.3, {demand});
  ASSERT_EQ(budgets.size(), 1u);
  EXPECT_EQ(budgets[0], 0.0);  // single tenant: no cap
}

TEST(ServeAllocatorTest, EqualSplitGivesShareOverMargin) {
  StreamDemand a;
  a.slo_ms = 100.0;
  StreamDemand b;
  b.slo_ms = 8.0;  // tighter than the share: own SLO wins
  std::vector<double> budgets =
      AllocateBudgets(AllocatorMode::kEqualSplit, 30.0, {a, b});
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_DOUBLE_EQ(budgets[0], 15.0 / kSloMargin);
  EXPECT_DOUBLE_EQ(budgets[1], 8.0);
}

TEST(ServeAllocatorTest, CostBenefitSeedsAtEqualShareThenUpgrades) {
  // capacity 30, 3 streams, share 10. Seeding affords {8, 9, 6}; the 7 ms of
  // slack buys stream1's 3 ms upgrade (best accuracy/ms) but not stream0's
  // 6 ms one afterwards (only 4 ms left).
  StreamDemand s0;
  s0.slo_ms = 100.0;
  s0.menu = Menu({{4.0, 0.3}, {8.0, 0.5}, {14.0, 0.6}});
  StreamDemand s1;
  s1.slo_ms = 100.0;
  s1.menu = Menu({{5.0, 0.2}, {9.0, 0.4}, {12.0, 0.8}});
  StreamDemand s2;
  s2.slo_ms = 100.0;
  s2.menu = Menu({{6.0, 0.1}});
  std::vector<double> budgets =
      AllocateBudgets(AllocatorMode::kCostBenefit, 30.0, {s0, s1, s2});
  ASSERT_EQ(budgets.size(), 3u);
  // Stream 0 stays at its equal-share level (8 ms): the budget admits the
  // 8 ms option but not the 14 ms one.
  EXPECT_GE(budgets[0] * kSloMargin, 8.0);
  EXPECT_LT(budgets[0] * kSloMargin, 14.0);
  // Streams 1 and 2 top out; their own SLO is the only remaining cap.
  EXPECT_DOUBLE_EQ(budgets[1], 100.0);
  EXPECT_DOUBLE_EQ(budgets[2], 100.0);
}

TEST(ServeAllocatorTest, CostBenefitNeverBelowEqualShareSeeding) {
  // For every stream, the granted budget must admit at least the best option
  // its equal share affords — the structural guarantee that cost-benefit
  // cannot lose to equal-split on any stream.
  std::vector<StreamDemand> demands(4);
  demands[0].menu = Menu({{3.0, 0.1}, {7.0, 0.4}, {20.0, 0.7}});
  demands[1].menu = Menu({{2.0, 0.2}, {9.5, 0.3}});
  demands[2].menu = Menu({{6.0, 0.15}, {8.0, 0.35}, {11.0, 0.55}});
  demands[3].menu = Menu({{1.0, 0.05}});
  for (StreamDemand& d : demands) d.slo_ms = 200.0;
  double frame_interval = 40.0;
  std::vector<double> budgets =
      AllocateBudgets(AllocatorMode::kCostBenefit, frame_interval, demands);
  double share = frame_interval / static_cast<double>(demands.size());
  double total_granted = 0.0;
  for (size_t i = 0; i < demands.size(); ++i) {
    const std::vector<BranchOption>& menu = demands[i].menu;
    // Best option affordable under the equal share...
    size_t seed_level = 0;
    while (seed_level + 1 < menu.size() &&
           menu[seed_level + 1].frame_ms <= share) {
      ++seed_level;
    }
    // ...must fit under the granted budget.
    double limit = budgets[i] * kSloMargin;
    EXPECT_GE(limit, menu[seed_level].frame_ms) << "stream " << i;
    // Tally what the budget actually admits for the capacity check below.
    size_t granted = 0;
    while (granted + 1 < menu.size() &&
           menu[granted + 1].frame_ms <= limit + 1e-9) {
      ++granted;
    }
    total_granted += menu[granted].frame_ms;
  }
  // The sum of admitted menu costs never exceeds the device capacity.
  EXPECT_LE(total_granted, frame_interval + 1e-9);
}

TEST(ServeAllocatorTest, StrictClassWinsContestedUpgrade) {
  // Identical menus; slack affords exactly one upgrade. The strict stream is
  // listed second, so only its class weight (not index tie-breaking) can win
  // it the upgrade.
  StreamDemand best_effort;
  best_effort.slo_ms = 50.0;
  best_effort.slo_class = SloClass::kBestEffort;
  best_effort.menu = Menu({{9.0, 0.2}, {11.0, 0.5}});
  StreamDemand strict = best_effort;
  strict.slo_class = SloClass::kStrict;
  std::vector<double> budgets =
      AllocateBudgets(AllocatorMode::kCostBenefit, 20.0, {best_effort, strict});
  ASSERT_EQ(budgets.size(), 2u);
  // Best-effort stays at the 9 ms option.
  EXPECT_LT(budgets[0] * kSloMargin, 11.0);
  EXPECT_DOUBLE_EQ(budgets[1], 50.0);   // strict tops out
}

TEST(ServeAllocatorTest, EmptyMenuFallsBackToUnconstrained) {
  StreamDemand feasible;
  feasible.slo_ms = 40.0;
  feasible.menu = Menu({{5.0, 0.5}});
  StreamDemand starved;
  starved.slo_ms = 40.0;  // nothing feasible this round
  std::vector<double> budgets =
      AllocateBudgets(AllocatorMode::kCostBenefit, 30.0, {feasible, starved});
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_EQ(budgets[1], 0.0);
}

// --- Branch menu (the allocator's trading curve) ---

TEST(ServeBranchMenuTest, ParetoAscendingAndBudgetBlind) {
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
  ctx.slo_ms = 100.0;
  DecisionCostTable table;
  std::vector<BranchOption> menu = BuildBranchMenu(models, config, ctx, light, table);
  ASSERT_FALSE(menu.empty());
  double limit = SloLimitMs(ctx);
  for (size_t i = 0; i < menu.size(); ++i) {
    EXPECT_LT(menu[i].branch, models.space->size());
    EXPECT_LE(menu[i].frame_ms, limit);
    if (i > 0) {
      // Pareto frontier: strictly more cost buys strictly more accuracy.
      EXPECT_GT(menu[i].frame_ms, menu[i - 1].frame_ms) << i;
      EXPECT_GT(menu[i].accuracy, menu[i - 1].accuracy) << i;
    }
  }
  // The menu prices demand before budgets exist, so budget_ms is ignored.
  ctx.budget_ms = 5.0;
  std::vector<BranchOption> capped = BuildBranchMenu(models, config, ctx, light, table);
  ASSERT_EQ(capped.size(), menu.size());
  for (size_t i = 0; i < menu.size(); ++i) {
    EXPECT_EQ(capped[i].branch, menu[i].branch);
    EXPECT_EQ(capped[i].frame_ms, menu[i].frame_ms);
  }
}

// The one-pass frontier on a kept table against the sorted frontier on a
// fresh one, option for option, across contention levels, thermal scales,
// GPU availability, current branches, GoF tails, SLOs and budgets, on both
// spaces, and on copies whose mean accuracies are rounded to two decimals so
// that many branches tie.
TEST(ServeBranchMenuTest, MatchesSortedFrontierReference) {
  const Dataset& dataset = TinyValidation();
  std::vector<TrainedModels> bundles = {TinyModels(), TinyCpuFamilyModels()};
  for (size_t i = 0; i < 2; ++i) {
    TrainedModels rounded = bundles[i];
    std::vector<double> accuracy = rounded.mean_branch_accuracy();
    for (double& v : accuracy) {
      v = std::round(v * 100.0) / 100.0;
    }
    std::vector<double> distinct = accuracy;
    std::sort(distinct.begin(), distinct.end());
    ASSERT_LT(std::unique(distinct.begin(), distinct.end()) - distinct.begin(),
              static_cast<std::ptrdiff_t>(accuracy.size()));
    rounded.SetMeanBranchAccuracy(std::move(accuracy));
    bundles.push_back(std::move(rounded));
  }
  Pcg32 rng(HashKeys({0x3e7ull, 0x51ull}));
  SchedulerConfig config;
  for (const TrainedModels& models : bundles) {
    const BranchSpace& space = *models.space;
    DecisionCostTable table;  // kept across the contexts, as a session keeps it
    std::optional<size_t> current;
    size_t options = 0;
    for (int trial = 0; trial < 150; ++trial) {
      const SyntheticVideo& video = dataset.videos[trial % dataset.videos.size()];
      int frame = static_cast<int>(rng.NextU32() % 50);
      DetectionList anchor = ExecutionKernel::DetectAnchor(
          video, frame, space.at(rng.NextU32() % space.size()), trial);
      std::vector<double> light =
          ComputeLightFeatures(video.spec().width, video.spec().height, anchor);
      double level = rng.NextDouble() * 0.9;
      double thermal = rng.NextU32() % 2 == 0 ? 1.0 : 1.0 + rng.NextDouble() * 0.6;
      DecisionContext ctx;
      ctx.video = &video;
      ctx.frame = frame;
      ctx.anchor_detections = &anchor;
      ctx.slo_ms = 20.0 + rng.NextDouble() * 80.0;
      ctx.budget_ms = rng.NextU32() % 2 == 0 ? 0.0 : 5.0 + rng.NextDouble() * 40.0;
      ctx.gpu_cal = ContentionGenerator(level).GpuInflation() * thermal;
      ctx.cpu_cal = thermal;
      ctx.gpu_available = rng.NextU32() % 4 != 0;
      // The current branch moves every fourth context; in between the table
      // keeps its switch-cost row.
      if (trial % 4 == 0) {
        current = rng.NextU32() % 4 == 0
                      ? std::nullopt
                      : std::optional<size_t>(rng.NextU32() % space.size());
      }
      ctx.current_branch = current;
      ctx.frames_remaining = rng.NextU32() % 3 == 0
                                 ? 1 + static_cast<int>(rng.NextU32() % 10)
                                 : video.frame_count() - frame;
      std::vector<BranchOption> menu = BuildBranchMenu(models, config, ctx, light, table);
      std::vector<BranchOption> want = BuildBranchMenuReference(models, config, ctx, light);
      ASSERT_EQ(menu.size(), want.size()) << "trial " << trial;
      for (size_t i = 0; i < menu.size(); ++i) {
        EXPECT_EQ(menu[i].branch, want[i].branch) << "trial " << trial << " option " << i;
        EXPECT_EQ(menu[i].frame_ms, want[i].frame_ms) << "trial " << trial << " option " << i;
        EXPECT_EQ(menu[i].accuracy, want[i].accuracy) << "trial " << trial << " option " << i;
      }
      options += menu.size();
    }
    EXPECT_GT(options, 150u);
  }
}

// --- Admission control edge cases ---

AdmissionRequest FittingRequest() {
  AdmissionRequest request;
  request.candidate_share = 0.3;
  request.total_share = 0.4;
  request.active_streams = 2;
  return request;
}

TEST(AdmissionTest, AdmitAtExactCapacity) {
  AdmissionController controller(AdmissionConfig{});
  AdmissionRequest request = FittingRequest();
  request.total_share = 0.6;  // 0.6 + 0.3 == capacity exactly
  EXPECT_EQ(controller.Evaluate(request), AdmissionVerdict::kAdmit);
  request.candidate_share = 0.3000001;  // one hair over: wait for departures
  EXPECT_EQ(controller.Evaluate(request), AdmissionVerdict::kQueue);
}

TEST(AdmissionTest, QueueWhenStreamCapOrFeasibilityBlocks) {
  AdmissionConfig config;
  config.max_streams = 2;
  AdmissionController controller(config);
  AdmissionRequest request = FittingRequest();
  EXPECT_EQ(controller.Evaluate(request), AdmissionVerdict::kQueue);
  config.max_streams = 16;
  AdmissionController roomy(config);
  EXPECT_EQ(roomy.Evaluate(request), AdmissionVerdict::kAdmit);
  // Admitting must not push an existing stream SLO-infeasible.
  request.keeps_existing_feasible = false;
  EXPECT_EQ(roomy.Evaluate(request), AdmissionVerdict::kQueue);
}

TEST(AdmissionTest, RejectWhenSaturatedOrHopeless) {
  AdmissionController controller(AdmissionConfig{});
  // Infeasible even alone on the device: no amount of waiting helps.
  AdmissionRequest request = FittingRequest();
  request.feasible_alone = false;
  EXPECT_EQ(controller.Evaluate(request), AdmissionVerdict::kReject);
  // Waited past the queue-round cap.
  request = FittingRequest();
  request.total_share = 0.9;
  request.rounds_queued = kMaxQueueRounds;
  EXPECT_EQ(controller.Evaluate(request), AdmissionVerdict::kReject);
}

// --- End-to-end service ---

ArrivalSpec TinyServiceSpec() {
  ArrivalSpec spec;
  spec.seed = 3;
  spec.num_streams = 4;
  spec.frames_per_video = 30;
  spec.mean_interarrival_rounds = 1.0;
  spec.width = 640;
  spec.height = 360;
  return spec;
}

TEST(ServeServiceTest, ResultsAreIdenticalAtAnyThreadCount) {
  const TrainedModels& models = TinyModels();
  ArrivalSpec spec = TinyServiceSpec();
  std::string reference;
  for (int threads : {1, 2, 8}) {
    ServeConfig config;
    config.threads = threads;
    ServeEval eval = ServeRunner::Run(models, spec, config);
    std::string json = ServeEvalJson(eval);
    if (reference.empty()) {
      reference = json;
      EXPECT_GT(eval.result.total_frames, 0u);
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
}

TEST(ServeServiceTest, PriorityAdmissionAndDepartureFreeCapacity) {
  // One serving slot, two arrivals in the same round: the strict stream must
  // be admitted first even though the best-effort stream has the lower id,
  // and the best-effort stream must get the slot when the strict one departs.
  const TrainedModels& models = TinyModels();
  VideoSpec video;
  video.width = 640;
  video.height = 360;
  video.frame_count = 24;

  StreamRequest best_effort;
  best_effort.stream_id = 0;
  best_effort.arrival_round = 0;
  best_effort.video = video;
  best_effort.video.seed = 11;
  best_effort.slo_class = SloClass::kBestEffort;
  StreamRequest strict = best_effort;
  strict.stream_id = 1;
  strict.video.seed = 12;
  strict.slo_class = SloClass::kStrict;

  ServeConfig config;
  config.admission.max_streams = 1;
  StreamingService service(&models, config);
  ServeResult result = service.Run({best_effort, strict});

  ASSERT_EQ(result.streams.size(), 2u);
  const StreamOutcome& be = result.streams[0];
  const StreamOutcome& st = result.streams[1];
  ASSERT_EQ(be.stream_id, 0u);
  ASSERT_EQ(st.stream_id, 1u);
  // Strict preempts the queue: admitted immediately, best-effort waits.
  EXPECT_EQ(st.admit_round, 0);
  EXPECT_FALSE(be.rejected);
  EXPECT_GT(be.admit_round, 0);
  EXPECT_GE(be.admit_round, st.depart_round);
  EXPECT_GT(be.rounds_queued, 0);
  // Both streams are fully served once they hold the slot.
  EXPECT_EQ(st.frames, 24u);
  EXPECT_EQ(be.frames, 24u);
  EXPECT_EQ(result.peak_concurrency, 1u);
  EXPECT_EQ(result.admitted, 2);
  EXPECT_EQ(result.rejected, 0);
}

// --- Budget-capped scheduling stays on the fast path ---

TEST(ServeBudgetTest, BudgetCappedDecideMatchesReference) {
  const TrainedModels& models = TinyModels();
  const BranchSpace& space = *models.space;
  const Dataset& dataset = TinyValidation();
  Pcg32 rng(HashKeys({0xb0d6ull, 0xe7ull}));

  for (int trial = 0; trial < 60; ++trial) {
    SchedulerConfig config;
    config.use_switching_cost = rng.NextU32() % 2 == 0;
    config.use_hysteresis = rng.NextU32() % 2 == 0;
    LiteReconfigScheduler scheduler(&models, config);

    const SyntheticVideo& video = dataset.videos[trial % dataset.videos.size()];
    int frame = static_cast<int>(rng.NextU32() % 50);
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
    // The serving allocator's cap: sometimes tighter than the SLO, sometimes
    // looser, sometimes absent.
    switch (rng.NextU32() % 3) {
      case 0:
        ctx.budget_ms = 2.0 + rng.NextDouble() * 20.0;
        break;
      case 1:
        ctx.budget_ms = ctx.slo_ms * (0.5 + rng.NextDouble());
        break;
      default:
        ctx.budget_ms = 0.0;
        break;
    }
    if (rng.NextU32() % 2 == 0) {
      ctx.current_branch = rng.NextU32() % space.size();
    }

    SchedulerDecision fast = scheduler.Decide(ctx);
    SchedulerDecision reference = DecideReference(models, config, ctx);
    EXPECT_EQ(fast.branch_index, reference.branch_index) << "trial " << trial;
    EXPECT_EQ(fast.infeasible, reference.infeasible) << "trial " << trial;
    EXPECT_EQ(fast.predicted_frame_ms, reference.predicted_frame_ms)
        << "trial " << trial;
    EXPECT_EQ(fast.predicted_accuracy, reference.predicted_accuracy)
        << "trial " << trial;
    // A binding budget really binds: the chosen branch fits under it.
    if (!fast.infeasible && ctx.budget_ms > 0.0) {
      EXPECT_LE(fast.predicted_frame_ms, SloLimitMs(ctx) + 1e-9)
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace litereconfig
