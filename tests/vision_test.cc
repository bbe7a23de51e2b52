#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "src/vision/box.h"
#include "src/vision/metrics.h"
#include "tests/ap_reference.h"

namespace litereconfig {
namespace {

TEST(BoxTest, AreaAndCenter) {
  Box b{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(b.Area(), 1200.0);
  EXPECT_DOUBLE_EQ(b.CenterX(), 25.0);
  EXPECT_DOUBLE_EQ(b.CenterY(), 40.0);
  EXPECT_FALSE(b.Empty());
}

TEST(BoxTest, EmptyBoxes) {
  EXPECT_TRUE((Box{0, 0, 0, 10}).Empty());
  EXPECT_TRUE((Box{0, 0, 10, -1}).Empty());
  EXPECT_DOUBLE_EQ((Box{0, 0, -5, 10}).Area(), 0.0);
}

TEST(BoxTest, FromCenterRoundTrips) {
  Box b = Box::FromCenter(50, 60, 20, 30);
  EXPECT_DOUBLE_EQ(b.x, 40.0);
  EXPECT_DOUBLE_EQ(b.y, 45.0);
  EXPECT_DOUBLE_EQ(b.CenterX(), 50.0);
  EXPECT_DOUBLE_EQ(b.CenterY(), 60.0);
}

TEST(BoxTest, ClippedToFrame) {
  Box b{-10, -10, 30, 30};
  Box c = b.ClippedTo(100, 100);
  EXPECT_DOUBLE_EQ(c.x, 0.0);
  EXPECT_DOUBLE_EQ(c.y, 0.0);
  EXPECT_DOUBLE_EQ(c.w, 20.0);
  EXPECT_DOUBLE_EQ(c.h, 20.0);
}

TEST(BoxTest, ClippedFullyOutsideIsEmpty) {
  Box b{200, 200, 10, 10};
  EXPECT_TRUE(b.ClippedTo(100, 100).Empty());
}

TEST(IouTest, IdenticalBoxesIsOne) {
  Box b{10, 10, 20, 20};
  EXPECT_DOUBLE_EQ(Iou(b, b), 1.0);
}

TEST(IouTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(Iou(Box{0, 0, 10, 10}, Box{20, 20, 10, 10}), 0.0);
}

TEST(IouTest, KnownOverlap) {
  // Two 10x10 boxes overlapping in a 5x10 strip: inter 50, union 150.
  EXPECT_NEAR(Iou(Box{0, 0, 10, 10}, Box{5, 0, 10, 10}), 50.0 / 150.0, 1e-12);
}

TEST(IouTest, EmptyBoxIsZero) {
  EXPECT_DOUBLE_EQ(Iou(Box{0, 0, 0, 0}, Box{0, 0, 10, 10}), 0.0);
}

TEST(IouTest, SymmetricProperty) {
  Pcg32 rng(3);
  for (int i = 0; i < 200; ++i) {
    Box a{rng.Uniform(0, 50), rng.Uniform(0, 50), rng.Uniform(1, 30),
          rng.Uniform(1, 30)};
    Box b{rng.Uniform(0, 50), rng.Uniform(0, 50), rng.Uniform(1, 30),
          rng.Uniform(1, 30)};
    EXPECT_NEAR(Iou(a, b), Iou(b, a), 1e-12);
    double iou = Iou(a, b);
    EXPECT_GE(iou, 0.0);
    EXPECT_LE(iou, 1.0);
  }
}

TEST(IouTest, ContainmentEqualsAreaRatio) {
  Box outer{0, 0, 20, 20};
  Box inner{5, 5, 10, 10};
  EXPECT_NEAR(Iou(outer, inner), 100.0 / 400.0, 1e-12);
}

GroundTruthList OneGt(double x, double y, double w, double h, int cls) {
  GroundTruthBox gt;
  gt.box = Box{x, y, w, h};
  gt.class_id = cls;
  return {gt};
}

Detection Det(double x, double y, double w, double h, int cls, double score) {
  Detection d;
  d.box = Box{x, y, w, h};
  d.class_id = cls;
  d.score = score;
  return d;
}

TEST(ApEvaluatorTest, PerfectDetectionGivesApOne) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(10, 10, 20, 20, 0), {Det(10, 10, 20, 20, 0, 0.9)});
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 1.0);
  EXPECT_DOUBLE_EQ(eval.MeanAveragePrecision(), 1.0);
}

TEST(ApEvaluatorTest, MissedDetectionGivesApZero) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(10, 10, 20, 20, 0), {});
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 0.0);
}

TEST(ApEvaluatorTest, WrongClassIsFalsePositive) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(10, 10, 20, 20, 0), {Det(10, 10, 20, 20, 1, 0.9)});
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 0.0);
  // Class 1 has no ground truth: it contributes nothing to mAP.
  EXPECT_DOUBLE_EQ(eval.MeanAveragePrecision(), 0.0);
  EXPECT_EQ(eval.GroundTruthClasses(), std::vector<int>{0});
}

TEST(ApEvaluatorTest, LowIouDoesNotMatch) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(0, 0, 10, 10, 0), {Det(8, 8, 10, 10, 0, 0.9)});
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 0.0);
}

TEST(ApEvaluatorTest, HalfRecall) {
  ApEvaluator eval;
  GroundTruthList gts = OneGt(0, 0, 10, 10, 0);
  GroundTruthBox second;
  second.box = Box{50, 50, 10, 10};
  second.class_id = 0;
  gts.push_back(second);
  eval.AddFrame(gts, {Det(0, 0, 10, 10, 0, 0.9)});
  // One of two instances found at precision 1 -> AP = 0.5.
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 0.5);
}

TEST(ApEvaluatorTest, FalsePositiveBeforeTruePositiveLowersAp) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(0, 0, 10, 10, 0),
                {Det(50, 50, 10, 10, 0, 0.95), Det(0, 0, 10, 10, 0, 0.9)});
  // TP arrives second: precision at full recall is 1/2; envelope gives AP 0.5.
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 0.5);
}

TEST(ApEvaluatorTest, FalsePositiveAfterTruePositiveKeepsApOne) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(0, 0, 10, 10, 0),
                {Det(0, 0, 10, 10, 0, 0.95), Det(50, 50, 10, 10, 0, 0.5)});
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 1.0);
}

TEST(ApEvaluatorTest, DuplicateDetectionsOnlyOneMatches) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(0, 0, 10, 10, 0),
                {Det(0, 0, 10, 10, 0, 0.95), Det(1, 1, 10, 10, 0, 0.90)});
  // Second detection is a duplicate -> FP at recall 1. AP stays 1 (envelope).
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 1.0);
}

TEST(ApEvaluatorTest, MatchesAcrossFramesIndependently) {
  ApEvaluator eval;
  eval.AddFrame(OneGt(0, 0, 10, 10, 0), {Det(0, 0, 10, 10, 0, 0.9)});
  eval.AddFrame(OneGt(0, 0, 10, 10, 0), {});
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 0.5);
  EXPECT_EQ(eval.frame_count(), 2u);
}

TEST(ApEvaluatorTest, MeanOverClassesWithGroundTruth) {
  ApEvaluator eval;
  GroundTruthList gts = OneGt(0, 0, 10, 10, 0);
  GroundTruthBox other;
  other.box = Box{30, 30, 10, 10};
  other.class_id = 5;
  gts.push_back(other);
  eval.AddFrame(gts, {Det(0, 0, 10, 10, 0, 0.9)});
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(0), 1.0);
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(5), 0.0);
  EXPECT_DOUBLE_EQ(eval.MeanAveragePrecision(), 0.5);
}

TEST(ApEvaluatorTest, ApForUnknownClassIsZero) {
  ApEvaluator eval;
  EXPECT_DOUBLE_EQ(eval.AveragePrecision(17), 0.0);
  EXPECT_DOUBLE_EQ(eval.MeanAveragePrecision(), 0.0);
}

// Class 9 only ever appears in detections.
constexpr int kDetectionOnlyClass = 9;

// A random frame for the equivalence test below, drawn from its own seeded
// stream. Integer coordinates keep every IoU exact: a shift by a third of the
// width lands on IoU 0.5 exactly, half the width on 1/3. Scores come from a
// four-value grid, so ties within and across frames are common.
std::pair<GroundTruthList, DetectionList> RandomFrame(uint64_t seed) {
  Pcg32 rng(seed);
  GroundTruthList truth;
  DetectionList dets;
  uint32_t shape = rng.UniformInt(8);  // 0: empty, 1: truth only, 2: detections only
  if (shape == 0) {
    return {truth, dets};
  }
  auto score = [&] { return (1 + rng.UniformInt(4)) / 4.0; };
  if (shape != 2) {
    for (uint32_t n = 1 + rng.UniformInt(4); n > 0; --n) {
      GroundTruthBox gt;
      gt.box = Box{10.0 * rng.UniformInt(20), 10.0 * rng.UniformInt(20),
                   30.0 * (1 + rng.UniformInt(3)), 10.0 * (2 + rng.UniformInt(3))};
      gt.class_id = static_cast<int>(rng.UniformInt(3));
      truth.push_back(gt);
    }
  }
  if (shape != 1) {
    for (const GroundTruthBox& gt : truth) {
      // Zero to two detections of this object; two are duplicates.
      for (uint32_t n = rng.UniformInt(3); n > 0; --n) {
        Box box = gt.box;
        switch (rng.UniformInt(4)) {
          case 0: break;                                         // IoU 1
          case 1: box.x += gt.box.w / 3.0; break;                // IoU exactly 0.5
          case 2: box.x += gt.box.w / 2.0; break;                // IoU 1/3
          default: box.y += 1.0 + rng.UniformInt(3); break;      // IoU in (0.5, 1)
        }
        int cls = rng.UniformInt(5) == 0 ? static_cast<int>(rng.UniformInt(3))
                                         : gt.class_id;
        dets.push_back(Det(box.x, box.y, box.w, box.h, cls, score()));
      }
    }
    for (uint32_t n = rng.UniformInt(3); n > 0; --n) {
      Box box{10.0 * rng.UniformInt(20), 10.0 * rng.UniformInt(20), 30, 20};
      int cls = rng.UniformInt(4) == 0 ? kDetectionOnlyClass
                                       : static_cast<int>(rng.UniformInt(3));
      dets.push_back(Det(box.x, box.y, box.w, box.h, cls, score()));
    }
    for (size_t i = dets.size(); i > 1; --i) {
      std::swap(dets[i - 1], dets[rng.UniformInt(static_cast<uint32_t>(i))]);
    }
  }
  return {truth, dets};
}

// Frame-local matching must reproduce the global-matching reference bit for
// bit, including after per-video evaluators are merged in order.
TEST(ApEvaluatorTest, RandomizedMatchesGlobalReference) {
  Pcg32 rng(20221);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(trial);
    ReferenceApEvaluator reference;
    ApEvaluator merged;
    ApEvaluator video;
    std::vector<ApEvaluator> parts;
    for (uint32_t frames = rng.UniformInt(30); frames > 0; --frames) {
      if (rng.UniformInt(6) == 0) {
        merged.Merge(video);
        parts.push_back(video);
        video = ApEvaluator();
      }
      auto [truth, dets] = RandomFrame(rng.NextU32());
      reference.AddFrame(truth, dets);
      video.AddFrame(truth, dets);
    }
    merged.Merge(video);
    parts.push_back(video);

    EXPECT_EQ(merged.frame_count(), reference.frame_count());
    EXPECT_EQ(merged.GroundTruthClasses(), reference.GroundTruthClasses());
    for (int class_id = 0; class_id <= kDetectionOnlyClass; ++class_id) {
      EXPECT_EQ(merged.AveragePrecision(class_id), reference.AveragePrecision(class_id))
          << "class " << class_id;
    }
    EXPECT_EQ(merged.MeanAveragePrecision(), reference.MeanAveragePrecision());
    std::vector<const ApEvaluator*> part_ptrs;
    for (const ApEvaluator& part : parts) {
      part_ptrs.push_back(&part);
    }
    for (int threads : {1, 2, 4, 8}) {
      EXPECT_EQ(ApEvaluator::MergedMeanAveragePrecision(part_ptrs, threads),
                reference.MeanAveragePrecision())
          << "threads " << threads;
    }
  }
}

// With no ground truth there is no class to average: no parts, or parts whose
// only class never appears in the ground truth, give 0.
TEST(ApEvaluatorTest, MergedMeanAveragePrecisionWithoutGroundTruthIsZero) {
  EXPECT_EQ(ApEvaluator::MergedMeanAveragePrecision({}, 4), 0.0);
  ApEvaluator first;
  ApEvaluator second;
  first.AddFrame({}, {Det(0, 0, 10, 10, kDetectionOnlyClass, 0.9)});
  second.AddFrame({}, {});
  second.AddFrame({}, {Det(5, 5, 10, 10, kDetectionOnlyClass, 0.4)});
  std::vector<const ApEvaluator*> parts = {&first, &second};
  for (int threads : {1, 4}) {
    EXPECT_EQ(ApEvaluator::MergedMeanAveragePrecision(parts, threads), 0.0);
  }
}

// Property sweep: mAP is monotone non-increasing in added localization error.
class ApNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(ApNoiseSweep, NoiseNeverHelps) {
  double noise = GetParam();
  Pcg32 rng(101);
  ApEvaluator clean;
  ApEvaluator noisy;
  for (int f = 0; f < 50; ++f) {
    GroundTruthList gts;
    DetectionList clean_dets;
    DetectionList noisy_dets;
    for (int o = 0; o < 4; ++o) {
      double x = rng.Uniform(0, 500);
      double y = rng.Uniform(0, 300);
      GroundTruthBox gt;
      gt.box = Box{x, y, 40, 40};
      gt.class_id = o % 3;
      gts.push_back(gt);
      clean_dets.push_back(Det(x, y, 40, 40, o % 3, 0.9));
      noisy_dets.push_back(Det(x + rng.Normal(0, noise), y + rng.Normal(0, noise),
                               40, 40, o % 3, 0.9));
    }
    clean.AddFrame(gts, clean_dets);
    noisy.AddFrame(gts, noisy_dets);
  }
  EXPECT_LE(noisy.MeanAveragePrecision(), clean.MeanAveragePrecision() + 1e-9);
  EXPECT_DOUBLE_EQ(clean.MeanAveragePrecision(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, ApNoiseSweep,
                         ::testing::Values(0.0, 2.0, 5.0, 10.0, 25.0));

}  // namespace
}  // namespace litereconfig
