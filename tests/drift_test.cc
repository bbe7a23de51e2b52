#include <gtest/gtest.h>

#include "src/sched/drift.h"
#include "src/util/rng.h"

namespace litereconfig {
namespace {

DetectionList MakeDetections(int count, double score, Pcg32* rng = nullptr) {
  DetectionList dets;
  for (int i = 0; i < count; ++i) {
    Detection det;
    det.box = Box{0, 0, 50, 50};
    det.score = rng != nullptr ? score + rng->Normal(0.0, 0.02) : score;
    dets.push_back(det);
  }
  return dets;
}

TEST(DriftMonitorTest, NoDriftBeforeWindowsFill) {
  DriftMonitor monitor;
  monitor.ObserveLatency(10.0, 20.0);
  monitor.ObserveDetections(MakeDetections(3, 0.9));
  EXPECT_FALSE(monitor.Check().Any());
}

TEST(DriftMonitorTest, UnbiasedLatencyIsQuiet) {
  DriftMonitor monitor;
  Pcg32 rng(3);
  for (int i = 0; i < 64; ++i) {
    monitor.ObserveLatency(10.0, 10.0 * rng.LogNormal(0.0, 0.05));
  }
  DriftStatus status = monitor.Check();
  EXPECT_FALSE(status.latency_drift);
  EXPECT_LT(std::abs(status.latency_rel_bias), 0.1);
}

TEST(DriftMonitorTest, SustainedLatencyBiasFlags) {
  DriftMonitor monitor;
  for (size_t i = 0; i < 2 * kDriftWindow; ++i) {
    monitor.ObserveLatency(10.0, 15.0);  // +50% sustained
  }
  DriftStatus status = monitor.Check();
  EXPECT_TRUE(status.latency_drift);
  EXPECT_NEAR(status.latency_rel_bias, 0.5, 1e-9);
}

TEST(DriftMonitorTest, NegativeBiasAlsoFlags) {
  DriftMonitor monitor;
  for (size_t i = 0; i < 2 * kDriftWindow; ++i) {
    monitor.ObserveLatency(10.0, 6.0);
  }
  EXPECT_TRUE(monitor.Check().latency_drift);
}

TEST(DriftMonitorTest, LatencyWindowForgets) {
  // A past bias must wash out once recent observations are unbiased.
  DriftMonitor monitor;
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveLatency(10.0, 16.0);
  }
  EXPECT_TRUE(monitor.Check().latency_drift);
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveLatency(10.0, 10.0);
  }
  EXPECT_FALSE(monitor.Check().latency_drift);
}

TEST(DriftMonitorTest, StableContentIsQuiet) {
  DriftMonitor monitor;
  Pcg32 rng(5);
  for (int i = 0; i < 64; ++i) {
    monitor.ObserveDetections(MakeDetections(4, 0.8, &rng));
  }
  EXPECT_FALSE(monitor.Check().content_drift);
}

TEST(DriftMonitorTest, ScoreShiftFlagsContentDrift) {
  DriftMonitor monitor;
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(4, 0.9));  // baseline
  }
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(4, 0.55));  // harder content
  }
  DriftStatus status = monitor.Check();
  EXPECT_TRUE(status.content_drift);
  EXPECT_NEAR(status.score_shift, 0.35, 1e-9);
}

TEST(DriftMonitorTest, CountShiftFlagsContentDrift) {
  DriftMonitor monitor;
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(2, 0.8));
  }
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(8, 0.8));  // crowd arrived
  }
  DriftStatus status = monitor.Check();
  EXPECT_TRUE(status.content_drift);
  EXPECT_NEAR(status.count_shift, 6.0, 1e-9);
}

TEST(DriftMonitorTest, LowScoreDetectionsIgnored) {
  DriftMonitor monitor;
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(4, 0.8));
  }
  for (size_t i = 0; i < kDriftWindow; ++i) {
    DetectionList dets = MakeDetections(4, 0.8);
    DetectionList noise = MakeDetections(10, 0.1);  // below threshold
    dets.insert(dets.end(), noise.begin(), noise.end());
    monitor.ObserveDetections(dets);
  }
  EXPECT_FALSE(monitor.Check().content_drift);
}

TEST(DriftMonitorTest, RebaselineAcceptsNewRegime) {
  DriftMonitor monitor;
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(2, 0.9));
  }
  for (size_t i = 0; i < kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(7, 0.5));
  }
  ASSERT_TRUE(monitor.Check().content_drift);
  monitor.Rebaseline();
  EXPECT_FALSE(monitor.Check().Any());
  for (size_t i = 0; i < 2 * kDriftWindow; ++i) {
    monitor.ObserveDetections(MakeDetections(7, 0.5));
  }
  EXPECT_FALSE(monitor.Check().content_drift);
}

TEST(DriftMonitorTest, ZeroPredictionIgnored) {
  DriftMonitor monitor;
  for (size_t i = 0; i < 2 * kDriftWindow; ++i) {
    monitor.ObserveLatency(0.0, 100.0);
  }
  EXPECT_FALSE(monitor.Check().latency_drift);
}

}  // namespace
}  // namespace litereconfig
