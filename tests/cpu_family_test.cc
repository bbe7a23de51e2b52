// Contracts of the CPU-only detector family and the GPU-denial fault kind:
// the extended branch space is the default space plus an appended CPU family,
// the model graft is bit-identical on every original branch, the allocation
// menu keeps its Pareto invariants with the family present, the availability
// mask prices GPU branches infeasible without ever emptying a menu the CPU
// family could serve, the scheduler fast path matches the reference under the
// mask, and denial-faulted evaluations stay bit-identical at any thread count
// while the family is provably inert without denial intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "src/mbek/kernel.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/platform/faults.h"
#include "src/sched/branch_menu.h"
#include "src/sched/cost_table.h"
#include "tests/decide_reference.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

const std::vector<double> kLightProbe = {1.0, 1.0, 3.0 / 8.0, 0.2};
const std::vector<double> kContentProbe = {0.25, 0.5, 0.75};

DecisionContext MenuContext(bool gpu_available, double slo_ms = 33.3) {
  DecisionContext ctx;
  ctx.slo_ms = slo_ms;
  ctx.frames_remaining = 60;
  ctx.gpu_available = gpu_available;
  return ctx;
}

TEST(CpuFamilySpaceTest, ExtendedSpacePrefixesDefaultAndAppendsCpuBranches) {
  const BranchSpace& base = BranchSpace::Default();
  const BranchSpace& extended = BranchSpace::WithCpuFamily();
  ASSERT_GT(extended.size(), base.size());
  for (size_t b = 0; b < base.size(); ++b) {
    EXPECT_EQ(extended.at(b).Id(), base.at(b).Id()) << b;
    EXPECT_FALSE(extended.at(b).detector.cpu) << b;
  }
  for (size_t b = base.size(); b < extended.size(); ++b) {
    const Branch& branch = extended.at(b);
    EXPECT_TRUE(branch.detector.cpu) << branch.Id();
    EXPECT_EQ(branch.Id()[0], 'c') << branch.Id();
    // Every CPU branch has the GPU reference it grafts its accuracy from.
    Branch reference = branch;
    reference.detector.cpu = false;
    EXPECT_TRUE(base.Find(reference).has_value()) << branch.Id();
  }
}

TEST(CpuFamilyGraftTest, OriginalBranchSurfacesAreBitIdentical) {
  const TrainedModels& base = TinyModels();
  const TrainedModels& extended = TinyCpuFamilyModels();
  ASSERT_EQ(extended.space->size(), BranchSpace::WithCpuFamily().size());
  // Accuracy predictors: the appended output rows must not perturb a single
  // bit of the original branches' predictions, for every feature kind.
  for (const auto& [kind, predictor] : base.accuracy) {
    const auto it = extended.accuracy.find(kind);
    ASSERT_NE(it, extended.accuracy.end());
    std::vector<double> before = predictor.Predict(kLightProbe, kContentProbe);
    std::vector<double> after = it->second.Predict(kLightProbe, kContentProbe);
    ASSERT_EQ(before.size(), base.space->size());
    ASSERT_EQ(after.size(), extended.space->size());
    for (size_t b = 0; b < before.size(); ++b) {
      EXPECT_EQ(before[b], after[b]) << FeatureName(kind) << " branch " << b;
    }
  }
  // Latency: the extended profile reproduces the trainer's zero-contention
  // profile exactly on the original branches.
  for (size_t b = 0; b < base.space->size(); ++b) {
    EXPECT_EQ(base.latency.DetectorMs(b), extended.latency.DetectorMs(b)) << b;
    EXPECT_EQ(base.latency.PredictFrameMs(b, kLightProbe, 1.0, 1.0),
              extended.latency.PredictFrameMs(b, kLightProbe, 1.0, 1.0))
        << b;
  }
  // Dataset-mean accuracy: original entries verbatim.
  ASSERT_EQ(extended.mean_branch_accuracy().size(), extended.space->size());
  for (size_t b = 0; b < base.space->size(); ++b) {
    EXPECT_EQ(base.mean_branch_accuracy()[b], extended.mean_branch_accuracy()[b]);
  }
}

TEST(CpuFamilyGraftTest, CpuBranchesInheritScaledAccuracyAndCpuLatency) {
  const TrainedModels& base = TinyModels();
  const TrainedModels& extended = TinyCpuFamilyModels();
  const BranchSpace& base_space = *base.space;
  LatencyModel platform(base.device, 0.0);
  for (size_t b = base_space.size(); b < extended.space->size(); ++b) {
    const Branch& branch = extended.space->at(b);
    Branch reference = branch;
    reference.detector.cpu = false;
    size_t ref = *base_space.Find(reference);
    // Mean accuracy is exactly the factor-scaled reference, and the factor
    // decays with GoF length (tracker extrapolation compounds anchor noise).
    EXPECT_EQ(extended.mean_branch_accuracy()[b],
              CpuBranchAccuracyFactor(branch.gof) *
                  base.mean_branch_accuracy()[ref])
        << branch.Id();
    EXPECT_LE(CpuBranchAccuracyFactor(branch.gof), kCpuAccuracyFactor);
    EXPECT_GE(CpuBranchAccuracyFactor(branch.gof),
              kCpuAccuracyFactor * kCpuDriftFloor);
    // The CPU detector prices through the CPU clock: slower than its GPU
    // reference, finite, and matching the platform model it was profiled from.
    double cpu_ms = extended.latency.DetectorMs(b);
    EXPECT_TRUE(std::isfinite(cpu_ms)) << branch.Id();
    EXPECT_GT(cpu_ms, extended.latency.DetectorMs(ref)) << branch.Id();
    EXPECT_EQ(cpu_ms, platform.DetectorMs(branch.detector)) << branch.Id();
  }
}

TEST(CpuFamilyMenuTest, ParetoFrontierStaysValidWithCpuFamily) {
  const TrainedModels& extended = TinyCpuFamilyModels();
  SchedulerConfig config = LiteReconfigProtocol::FullConfig();
  for (double slo : {25.0, 33.3, 50.0}) {
    for (bool gpu_available : {true, false}) {
      DecisionContext ctx = MenuContext(gpu_available, slo);
      DecisionCostTable table;
      std::vector<BranchOption> menu =
          BuildBranchMenu(extended, config, ctx, kLightProbe, table);
      double limit = slo * kSloMargin;
      for (size_t i = 0; i < menu.size(); ++i) {
        EXPECT_TRUE(std::isfinite(menu[i].frame_ms));
        EXPECT_LE(menu[i].frame_ms, limit);
        EXPECT_LT(menu[i].branch, extended.space->size());
        if (i > 0) {
          // Pareto frontier: ascending cost, strictly increasing accuracy.
          EXPECT_GE(menu[i].frame_ms, menu[i - 1].frame_ms);
          EXPECT_GT(menu[i].accuracy, menu[i - 1].accuracy);
        }
      }
    }
  }
}

TEST(CpuFamilyMenuTest, MaskedMenuIsNonEmptyAndCpuOnly) {
  const TrainedModels& extended = TinyCpuFamilyModels();
  const TrainedModels& base = TinyModels();
  SchedulerConfig config = LiteReconfigProtocol::FullConfig();
  for (double slo : {25.0, 33.3, 50.0, 100.0}) {
    DecisionContext ctx = MenuContext(/*gpu_available=*/false, slo);
    DecisionCostTable table;
    std::vector<BranchOption> menu =
        BuildBranchMenu(extended, config, ctx, kLightProbe, table);
    // While the space holds a CPU family, masking the GPU away never leaves
    // the allocator without options...
    EXPECT_FALSE(menu.empty()) << "slo " << slo;
    for (const BranchOption& option : menu) {
      EXPECT_TRUE(extended.space->at(option.branch).detector.cpu)
          << extended.space->at(option.branch).Id();
    }
    // ...whereas the same mask over the default space leaves nothing.
    std::vector<BranchOption> base_menu =
        BuildBranchMenu(base, config, ctx, kLightProbe, table);
    EXPECT_TRUE(base_menu.empty()) << "slo " << slo;
  }
}

TEST(CpuFamilyMenuTest, MaskedCostTablePricesGpuBranchesInfinite) {
  const TrainedModels& extended = TinyCpuFamilyModels();
  SchedulerConfig config = LiteReconfigProtocol::FullConfig();
  DecisionContext masked = MenuContext(/*gpu_available=*/false);
  DecisionContext open = MenuContext(/*gpu_available=*/true);
  DecisionCostTable masked_table;
  masked_table.Rebuild(extended, config, masked, kLightProbe);
  DecisionCostTable open_table;
  open_table.Rebuild(extended, config, open, kLightProbe);
  ASSERT_EQ(masked_table.size(), extended.space->size());
  for (size_t b = 0; b < extended.space->size(); ++b) {
    if (extended.space->at(b).detector.cpu) {
      // CPU branches price identically masked or not: denial does not change
      // the CPU clock.
      EXPECT_EQ(masked_table.CostMs(b, 0.0), open_table.CostMs(b, 0.0)) << b;
      EXPECT_TRUE(std::isfinite(masked_table.CostMs(b, 0.0))) << b;
    } else {
      // Priced infeasible, never removed: +inf keeps the index space intact.
      EXPECT_TRUE(std::isinf(masked_table.CostMs(b, 0.0))) << b;
      EXPECT_FALSE(masked_table.Feasible(b, 0.0)) << b;
    }
  }
  // The masked cheapest scan lands on a CPU branch with finite cost.
  size_t cheapest = masked_table.Cheapest(0.0);
  EXPECT_TRUE(extended.space->at(cheapest).detector.cpu);
  EXPECT_TRUE(std::isfinite(masked_table.CostMs(cheapest, 0.0)));
}

TEST(CpuFamilySchedulerTest, FastPathMatchesReferenceUnderAvailabilityMask) {
  const TrainedModels& extended = TinyCpuFamilyModels();
  const SyntheticVideo& video = TinyValidation().videos[0];
  DetectionList anchor =
      ExecutionKernel::DetectAnchor(video, 0, extended.space->at(0), 3);
  SchedulerConfig config = LiteReconfigProtocol::FullConfig();
  LiteReconfigScheduler fast(&extended, config);
  for (bool gpu_available : {true, false}) {
    DecisionContext ctx;
    ctx.video = &video;
    ctx.frame = 8;
    ctx.anchor_detections = &anchor;
    ctx.current_branch = 0;
    ctx.slo_ms = 33.3;
    ctx.frames_remaining = video.frame_count() - 8;
    ctx.gpu_available = gpu_available;
    SchedulerDecision a = fast.Decide(ctx);
    SchedulerDecision b = DecideReference(extended, config, ctx);
    EXPECT_EQ(a.branch_index, b.branch_index) << "mask " << gpu_available;
    EXPECT_EQ(a.infeasible, b.infeasible);
    EXPECT_EQ(a.predicted_accuracy, b.predicted_accuracy);
    EXPECT_EQ(a.predicted_frame_ms, b.predicted_frame_ms);
    if (!gpu_available) {
      EXPECT_TRUE(extended.space->at(a.branch_index).detector.cpu);
    }
  }
}

// --- The GPU-denied fault kind ---

TEST(DenialFaultTest, DenialIntervalsAreSeededSortedAndNonOverlapping) {
  FaultSpec spec = FaultSpec::GpuDenied();
  FaultPlan a(spec, /*video_seed=*/42, /*frame_count=*/400, /*fault_seed=*/7);
  FaultPlan b(spec, 42, 400, 7);
  const std::vector<int>& starts = a.starts(IntervalKind::kDenial);
  const int length = a.Length(IntervalKind::kDenial);
  ASSERT_EQ(starts.size(), b.starts(IntervalKind::kDenial).size());
  ASSERT_FALSE(starts.empty());
  int previous_end = 0;
  for (size_t i = 0; i < starts.size(); ++i) {
    EXPECT_EQ(starts[i], b.starts(IntervalKind::kDenial)[i]);
    EXPECT_EQ(length, b.Length(IntervalKind::kDenial));
    EXPECT_GE(starts[i], previous_end) << "overlap at " << i;
    previous_end = starts[i] + length;
  }
  for (int frame = 0; frame < 400; ++frame) {
    int index = a.IndexAt(IntervalKind::kDenial, frame);
    EXPECT_EQ(a.GpuDeniedAt(frame), index >= 0) << frame;
    if (index >= 0) {
      EXPECT_EQ(a.DenialEndAt(frame),
                starts[static_cast<size_t>(index)] + length)
          << frame;
      EXPECT_GT(a.DenialEndAt(frame), frame) << frame;
    } else {
      EXPECT_EQ(a.DenialEndAt(frame), frame) << frame;
    }
  }
  // Per-stream sanitization strips denial (device-wide by nature).
  EXPECT_EQ(spec.WithoutIntervals().denials_per_100_frames, 0.0);
}

EvalResult RunDenied(const TrainedModels& models, const FaultSpec& faults,
                     int threads) {
  LiteReconfigProtocol protocol(&models, LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalConfig config;
  config.slo_ms = 33.3;
  config.threads = threads;
  config.faults = faults;
  config.fault_seed = 11;
  config.degrade = true;
  return OnlineRunner::Run(protocol, TinyValidation(), config);
}

TEST(DenialFaultTest, CpuFamilyServesDeniedGofsAndBeatsCoasting) {
  FaultSpec spec = FaultSpec::GpuDenied();
  // The tiny 60-frame videos need a denser, longer schedule than the preset:
  // dense so every video sees an interval, long so tracker drift over the
  // window outweighs the CPU detector's quality penalty (short outages favor
  // coasting from a healthy GPU anchor; that tradeoff is the point).
  spec.denials_per_100_frames = 3.0;
  spec.denial_frames = 48;
  EvalResult family = RunDenied(TinyCpuFamilyModels(), spec, 2);
  EvalResult coast = RunDenied(TinyModels(), spec, 2);
  ASSERT_GT(family.denied_gofs, 0);
  ASSERT_GT(coast.denied_gofs, 0);
  // With the family, denied GoFs run scheduled CPU detection; without it,
  // every denied GoF coasts.
  EXPECT_GT(family.cpu_fallback_gofs, 0);
  EXPECT_EQ(coast.cpu_fallback_gofs, 0);
  EXPECT_GT(family.map, coast.map);
  EXPECT_LE(family.deadline_misses, coast.deadline_misses);
  // Both keep every stream alive through total GPU loss.
  EXPECT_EQ(family.frames, coast.frames);
  EXPECT_FALSE(family.oom);
}

TEST(DenialFaultTest, DenialRunsAreIdenticalAcrossThreadCounts) {
  FaultSpec spec = FaultSpec::GpuDenied();
  spec.denials_per_100_frames = 5.0;
  spec.denial_frames = 24;
  EvalResult sequential = RunDenied(TinyCpuFamilyModels(), spec, 1);
  for (int threads : {2, 8}) {
    EvalResult parallel = RunDenied(TinyCpuFamilyModels(), spec, threads);
    EXPECT_EQ(sequential.map, parallel.map);
    EXPECT_EQ(sequential.mean_ms, parallel.mean_ms);
    EXPECT_EQ(sequential.p95_ms, parallel.p95_ms);
    EXPECT_EQ(sequential.denied_gofs, parallel.denied_gofs);
    EXPECT_EQ(sequential.cpu_fallback_gofs, parallel.cpu_fallback_gofs);
    ASSERT_EQ(sequential.gof_frame_ms.size(), parallel.gof_frame_ms.size());
    for (size_t i = 0; i < sequential.gof_frame_ms.size(); ++i) {
      EXPECT_EQ(sequential.gof_frame_ms[i], parallel.gof_frame_ms[i]) << i;
    }
  }
}

TEST(DenialFaultTest, CpuFamilyIsInertWithoutDenials) {
  // Without denial intervals the CPU branches are Pareto-dominated by their
  // GPU references (lower accuracy, higher latency), so the extended space
  // must reproduce the default space's run bit for bit — the no-fault surface
  // of --cpu_family is byte-identical to a build without it.
  EvalResult base = RunDenied(TinyModels(), FaultSpec::None(), 2);
  EvalResult family = RunDenied(TinyCpuFamilyModels(), FaultSpec::None(), 2);
  EXPECT_EQ(base.map, family.map);
  EXPECT_EQ(base.mean_ms, family.mean_ms);
  EXPECT_EQ(base.p95_ms, family.p95_ms);
  EXPECT_EQ(base.switch_count, family.switch_count);
  EXPECT_EQ(family.denied_gofs, 0);
  EXPECT_EQ(family.cpu_fallback_gofs, 0);
  EXPECT_EQ(EvalResultJson(base), EvalResultJson(family));
}

}  // namespace
}  // namespace litereconfig
