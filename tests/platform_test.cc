#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/platform/device.h"
#include "src/platform/latency.h"
#include "src/platform/switching.h"
#include "src/util/stats.h"
#include "tests/pricing_reference.h"

namespace litereconfig {
namespace {

Branch TrackedBranch(int shape, int nprop, int gof, TrackerType type, int ds) {
  Branch branch;
  branch.detector = {shape, nprop};
  branch.gof = gof;
  branch.has_tracker = true;
  branch.tracker = {type, ds};
  return branch;
}

TEST(DeviceTest, ProfilesAreSane) {
  const DeviceProfile& tx2 = GetDeviceProfile(DeviceType::kTx2);
  const DeviceProfile& xavier = GetDeviceProfile(DeviceType::kXavier);
  EXPECT_EQ(tx2.name, "tx2");
  EXPECT_EQ(xavier.name, "xavier");
  EXPECT_DOUBLE_EQ(tx2.gpu_scale, 1.0);
  EXPECT_GT(xavier.gpu_scale, tx2.gpu_scale);
  EXPECT_GT(xavier.memory_gb, tx2.memory_gb);
}

TEST(ContentionTest, InflationGrowsWithLevel) {
  ContentionGenerator none(0.0);
  ContentionGenerator half(0.5);
  ContentionGenerator heavy(0.9);
  EXPECT_DOUBLE_EQ(none.GpuInflation(), 1.0);
  EXPECT_GT(half.GpuInflation(), 1.5);
  EXPECT_GT(heavy.GpuInflation(), half.GpuInflation());
}

TEST(ContentionTest, LevelIsClamped) {
  ContentionGenerator over(2.0);
  EXPECT_DOUBLE_EQ(over.level(), 0.99);
  ContentionGenerator under(-1.0);
  EXPECT_DOUBLE_EQ(under.level(), 0.0);
}

TEST(LatencyModelTest, DetectorMonotoneInKnobs) {
  LatencyModel model(DeviceType::kTx2, 0.0);
  EXPECT_LT(model.DetectorMs({224, 100}), model.DetectorMs({576, 100}));
  EXPECT_LT(model.DetectorMs({448, 1}), model.DetectorMs({448, 100}));
}

TEST(LatencyModelTest, Tx2FasterRcnnCalibration) {
  // Anchors: heaviest branch around 500 ms, lightest around 50 ms on the TX2.
  LatencyModel model(DeviceType::kTx2, 0.0);
  EXPECT_NEAR(model.DetectorMs({576, 100}), 505.0, 20.0);
  EXPECT_NEAR(model.DetectorMs({224, 1}), 50.0, 10.0);
}

TEST(LatencyModelTest, XavierIsFaster) {
  LatencyModel tx2(DeviceType::kTx2, 0.0);
  LatencyModel xavier(DeviceType::kXavier, 0.0);
  EXPECT_LT(xavier.DetectorMs({576, 100}), tx2.DetectorMs({576, 100}));
  EXPECT_LT(xavier.TrackerMs({TrackerType::kCsrt, 1}, 3),
            tx2.TrackerMs({TrackerType::kCsrt, 1}, 3));
}

TEST(LatencyModelTest, ContentionInflatesGpuOnly) {
  LatencyModel calm(DeviceType::kTx2, 0.0);
  LatencyModel contended(DeviceType::kTx2, 0.5);
  EXPECT_GT(contended.DetectorMs({448, 100}), 1.5 * calm.DetectorMs({448, 100}));
  // Trackers are CPU-resident and unaffected by GPU contention.
  EXPECT_DOUBLE_EQ(contended.TrackerMs({TrackerType::kKcf, 2}, 3),
                   calm.TrackerMs({TrackerType::kKcf, 2}, 3));
}

TEST(LatencyModelTest, TrackerScalesWithObjectsAndDs) {
  LatencyModel model(DeviceType::kTx2, 0.0);
  EXPECT_LT(model.TrackerMs({TrackerType::kKcf, 2}, 1),
            model.TrackerMs({TrackerType::kKcf, 2}, 8));
  EXPECT_GT(model.TrackerMs({TrackerType::kKcf, 1}, 3),
            model.TrackerMs({TrackerType::kKcf, 4}, 3));
  // Cost ordering across tracker types.
  EXPECT_LT(model.TrackerMs({TrackerType::kMedianFlow, 4}, 3),
            model.TrackerMs({TrackerType::kKcf, 4}, 3));
  EXPECT_LT(model.TrackerMs({TrackerType::kKcf, 1}, 3),
            model.TrackerMs({TrackerType::kCsrt, 1}, 3));
}

TEST(LatencyModelTest, BranchFrameAmortizesOverGof) {
  LatencyModel model(DeviceType::kTx2, 0.0);
  Branch det_only;
  det_only.detector = {576, 100};
  det_only.gof = 1;
  Branch tracked = TrackedBranch(576, 100, 20, TrackerType::kMedianFlow, 4);
  double det_ms = model.BranchFrameMs(det_only, 3);
  double tracked_ms = model.BranchFrameMs(tracked, 3);
  EXPECT_LT(tracked_ms, det_ms / 5.0);
  EXPECT_GT(tracked_ms, det_ms / 25.0);
}

TEST(LatencyModelTest, FeatureCostsMatchTable1OnTx2) {
  LatencyModel model(DeviceType::kTx2, 0.0);
  EXPECT_NEAR(model.FeatureExtractMs(FeatureKind::kHoc), 14.14, 1e-9);
  EXPECT_NEAR(model.FeaturePredictMs(FeatureKind::kHoc), 4.94, 1e-9);
  EXPECT_NEAR(model.FeatureExtractMs(FeatureKind::kMobileNetV2), 153.96, 1e-9);
}

TEST(LatencyModelTest, GpuFeatureCostsScaleWithDeviceAndContention) {
  LatencyModel tx2(DeviceType::kTx2, 0.0);
  LatencyModel xavier(DeviceType::kXavier, 0.0);
  LatencyModel contended(DeviceType::kTx2, 0.5);
  EXPECT_LT(xavier.FeatureExtractMs(FeatureKind::kMobileNetV2),
            tx2.FeatureExtractMs(FeatureKind::kMobileNetV2));
  EXPECT_GT(contended.FeatureExtractMs(FeatureKind::kMobileNetV2),
            tx2.FeatureExtractMs(FeatureKind::kMobileNetV2));
  // HOG extraction is CPU-bound: contention leaves it unchanged.
  EXPECT_DOUBLE_EQ(contended.FeatureExtractMs(FeatureKind::kHog),
                   tx2.FeatureExtractMs(FeatureKind::kHog));
}

TEST(LatencyModelTest, SampleIsUnbiasedAndPositive) {
  LatencyModel model(DeviceType::kTx2, 0.0);
  Pcg32 rng(5);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    double sample = model.Sample(100.0, rng);
    EXPECT_GT(sample, 0.0);
    stat.Add(sample);
  }
  EXPECT_NEAR(stat.mean(), 100.0, 0.5);
  EXPECT_NEAR(stat.stddev(), 5.0, 0.5);
}

TEST(SwitchingTest, NoCostForSameBranch) {
  SwitchingCostModel model(DeviceType::kTx2);
  Branch branch = TrackedBranch(448, 100, 8, TrackerType::kKcf, 2);
  EXPECT_DOUBLE_EQ(model.OfflineCostMs(branch, branch), 0.0);
}

TEST(SwitchingTest, HeavierDestinationCostsMore) {
  SwitchingCostModel model(DeviceType::kTx2);
  Branch light = TrackedBranch(224, 1, 8, TrackerType::kKcf, 2);
  Branch heavy = TrackedBranch(576, 100, 8, TrackerType::kKcf, 2);
  Branch medium = TrackedBranch(320, 10, 8, TrackerType::kKcf, 2);
  EXPECT_GT(model.OfflineCostMs(medium, heavy), model.OfflineCostMs(medium, light));
}

TEST(SwitchingTest, LighterSourceCostsMore) {
  SwitchingCostModel model(DeviceType::kTx2);
  Branch light = TrackedBranch(224, 1, 8, TrackerType::kKcf, 2);
  Branch heavy = TrackedBranch(576, 100, 8, TrackerType::kKcf, 2);
  Branch dest = TrackedBranch(448, 10, 8, TrackerType::kKcf, 2);
  EXPECT_GT(model.OfflineCostMs(light, dest), model.OfflineCostMs(heavy, dest));
}

TEST(SwitchingTest, MostTransitionsBelowTenMs) {
  // Paper Figure 5(a): the offline matrix is generally below 10 ms.
  SwitchingCostModel model(DeviceType::kTx2);
  const BranchSpace& space = BranchSpace::Default();
  int over = 0;
  int total = 0;
  for (const DetectorConfig& from : space.detector_configs()) {
    for (const DetectorConfig& to : space.detector_configs()) {
      Branch a = TrackedBranch(from.shape, from.nprop, 8, TrackerType::kKcf, 2);
      Branch b = TrackedBranch(to.shape, to.nprop, 8, TrackerType::kKcf, 2);
      double cost = model.OfflineCostMs(a, b);
      EXPECT_GE(cost, 0.0);
      ++total;
      if (cost > 10.0) {
        ++over;
      }
    }
  }
  EXPECT_LT(over, total / 5);
}

TEST(SwitchingTest, TrackerOnlyChangeIsCheap) {
  SwitchingCostModel model(DeviceType::kTx2);
  Branch a = TrackedBranch(448, 100, 8, TrackerType::kKcf, 2);
  Branch b = TrackedBranch(448, 100, 8, TrackerType::kCsrt, 1);
  double cost = model.OfflineCostMs(a, b);
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 2.0);
}

TEST(SwitchingTest, OnlineCostHasOutliersThatFade) {
  SwitchingCostModel model(DeviceType::kTx2);
  Branch a = TrackedBranch(224, 1, 8, TrackerType::kKcf, 2);
  Branch b = TrackedBranch(576, 100, 8, TrackerType::kKcf, 2);
  Pcg32 rng(11);
  int early_outliers = 0;
  int late_outliers = 0;
  for (int i = 0; i < 4000; ++i) {
    if (model.OnlineCostMs(a, b, /*switches_so_far=*/0, rng) > 500.0) {
      ++early_outliers;
    }
    if (model.OnlineCostMs(a, b, /*switches_so_far=*/200, rng) > 500.0) {
      ++late_outliers;
    }
  }
  EXPECT_GT(early_outliers, 0);
  EXPECT_LT(late_outliers, early_outliers);
}

TEST(SwitchingTest, OnlineCostZeroWhenNoSwitch) {
  SwitchingCostModel model(DeviceType::kTx2);
  Branch branch = TrackedBranch(448, 100, 8, TrackerType::kKcf, 2);
  Pcg32 rng(13);
  EXPECT_DOUBLE_EQ(model.OnlineCostMs(branch, branch, 0, rng), 0.0);
}

TEST(SwitchingTest, HeavinessInUnitRange) {
  for (int shape : kDetectorShapes) {
    for (int nprop : kDetectorNprops) {
      double h = SwitchingCostModel::DetectorHeaviness({shape, nprop});
      EXPECT_GE(h, 0.0);
      EXPECT_LE(h, 1.0);
    }
  }
  EXPECT_GT(SwitchingCostModel::DetectorHeaviness({576, 100}),
            SwitchingCostModel::DetectorHeaviness({224, 1}));
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// The per-knob pricing tables against the closed forms (tests/
// pricing_reference.h), bit for bit, for every branch of both spaces on both
// devices, calm and contended, at nominal and throttled clocks; plus knob
// values outside the tables, which price through the closed forms.
TEST(PricingTableTest, TabledCostsMatchClosedForms) {
  for (const BranchSpace* space :
       {&BranchSpace::Default(), &BranchSpace::WithCpuFamily()}) {
    for (DeviceType device : {DeviceType::kTx2, DeviceType::kXavier}) {
      for (double level : {0.0, 0.6}) {
        LatencyModel model(device, level);
        for (double thermal : {1.0, 1.3}) {
          model.set_thermal_scale(thermal);
          for (const Branch& branch : space->branches()) {
            EXPECT_EQ(Bits(model.DetectorMs(branch.detector)),
                      Bits(ReferenceDetectorMs(model, branch.detector)))
                << branch.Id();
            for (int objects : {0, 1, 3, 8}) {
              EXPECT_EQ(Bits(model.TrackerMs(branch.tracker, objects)),
                        Bits(ReferenceTrackerMs(model, branch.tracker, objects)))
                  << branch.Id();
              EXPECT_EQ(Bits(model.BranchFrameMs(branch, objects)),
                        Bits(ReferenceBranchFrameMs(model, branch, objects)))
                  << branch.Id();
            }
          }
        }
      }
    }
  }
  LatencyModel model(DeviceType::kTx2, 0.3);
  for (DetectorConfig config : {DetectorConfig{400, 50}, DetectorConfig{448, 5},
                                DetectorConfig{448, 1, true}}) {
    EXPECT_EQ(DetectorKnobIndex(config), -1);
    EXPECT_EQ(Bits(model.DetectorMs(config)),
              Bits(ReferenceDetectorMs(model, config)));
  }
  TrackerConfig off_table = {TrackerType::kKcf, 3};
  EXPECT_EQ(Bits(model.TrackerMs(off_table, 2)),
            Bits(ReferenceTrackerMs(model, off_table, 2)));
}

// A switch-cost row equals the pairwise costs bit for bit, from every branch
// of both spaces on both devices: over the detector-major space order, over
// that order reversed and interleaved (the heaviness memo then sees short
// runs and revisits), and with a destination off the knob grid.
TEST(SwitchingTest, OfflineCostRowMatchesPairwiseCosts) {
  for (const BranchSpace* space :
       {&BranchSpace::Default(), &BranchSpace::WithCpuFamily()}) {
    std::vector<Branch> forward = space->branches();
    std::vector<Branch> shuffled(forward.rbegin(), forward.rend());
    for (size_t i = 0; i + 1 < shuffled.size(); i += 3) {
      std::swap(shuffled[i], shuffled[shuffled.size() - 1 - i]);
    }
    Branch off_grid = forward.back();
    off_grid.detector = {400, 50};
    shuffled.push_back(off_grid);
    for (DeviceType device : {DeviceType::kTx2, DeviceType::kXavier}) {
      SwitchingCostModel model(device);
      std::vector<double> row;
      for (const std::vector<Branch>* to : {&forward, &shuffled}) {
        for (const Branch& from : space->branches()) {
          model.OfflineCostRow(from, *to, row);
          ASSERT_EQ(row.size(), to->size());
          for (size_t b = 0; b < to->size(); ++b) {
            EXPECT_EQ(Bits(row[b]), Bits(model.OfflineCostMs(from, (*to)[b])))
                << from.Id() << " -> " << (*to)[b].Id();
          }
        }
      }
    }
  }
}

TEST(PricingTableTest, DetectorKnobIndexIsDenseOverOfferedConfigs) {
  const std::vector<DetectorConfig>& configs =
      BranchSpace::WithCpuFamily().detector_configs();
  ASSERT_EQ(configs.size(), static_cast<size_t>(kNumDetectorKnobs));
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(DetectorKnobIndex(configs[i]), static_cast<int>(i));
  }
}

}  // namespace
}  // namespace litereconfig
