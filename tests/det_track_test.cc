#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "src/det/detector.h"
#include "src/track/tracker.h"
#include "src/util/stats.h"
#include "src/vision/metrics.h"

namespace litereconfig {
namespace {

SyntheticVideo MakeVideo(uint64_t seed, SceneArchetype archetype, int frames = 60) {
  VideoSpec spec;
  spec.seed = seed;
  spec.frame_count = frames;
  spec.archetype = archetype;
  return SyntheticVideo::Generate(spec);
}

// A frame guaranteed to have at least one object.
int FirstPopulatedFrame(const SyntheticVideo& video) {
  for (int t = 0; t < video.frame_count(); ++t) {
    if (!video.frame(t).objects.empty()) {
      return t;
    }
  }
  ADD_FAILURE() << "video has no objects";
  return 0;
}

TEST(DetectorTest, Deterministic) {
  SyntheticVideo video = MakeVideo(1, SceneArchetype::kCrowded);
  DetectorConfig config{448, 100};
  DetectionList a = DetectorSim::Detect(video, 5, config);
  DetectionList b = DetectorSim::Detect(video, 5, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].box.x, b[i].box.x);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
    EXPECT_EQ(a[i].class_id, b[i].class_id);
  }
}

TEST(DetectorTest, RunSaltChangesOutcome) {
  SyntheticVideo video = MakeVideo(2, SceneArchetype::kCrowded);
  DetectorConfig config{448, 100};
  DetectionList a = DetectorSim::Detect(video, 5, config, {}, 1);
  DetectionList b = DetectorSim::Detect(video, 5, config, {}, 2);
  bool differs = a.size() != b.size();
  if (!differs && !a.empty()) {
    differs = a[0].box.x != b[0].box.x || a[0].score != b[0].score;
  }
  EXPECT_TRUE(differs);
}

TEST(DetectorTest, ProbabilityMonotoneInShapeForSlowObjects) {
  // For slow objects higher resolution strictly helps. (For fast objects the
  // motion-blur term can make coarser inputs competitive — the AdaScale
  // premise — so monotonicity only holds at low speed.)
  SyntheticVideo video = MakeVideo(3, SceneArchetype::kSparse);
  int t = FirstPopulatedFrame(video);
  SceneObjectState obj = video.frame(t).objects[0];
  obj.vx = 0.0;
  obj.vy = 0.0;
  obj.gt.box.h = 40.0;  // small enough that the size factor is not saturated
  obj.gt.box.w = 40.0;
  double prev = 0.0;
  for (int shape : kDetectorShapes) {
    double p = DetectorSim::DetectionProbability(video, obj, {shape, 100}, {}, 0);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(DetectorTest, FastObjectsCanPreferCoarserShapes) {
  // The motion-blur/resolution interaction: crank speed high enough and the
  // finest shape is no longer the best single-object choice.
  SyntheticVideo video = MakeVideo(3, SceneArchetype::kSparse);
  int t = FirstPopulatedFrame(video);
  SceneObjectState obj = video.frame(t).objects[0];
  obj.gt.box.h = 400.0;  // large: size factor saturates at any shape
  obj.gt.box.w = 400.0;
  obj.vx = 90.0;
  obj.vy = 0.0;
  double coarse = DetectorSim::DetectionProbability(video, obj, {224, 100}, {}, 0);
  double fine = DetectorSim::DetectionProbability(video, obj, {576, 100}, {}, 0);
  EXPECT_GT(coarse, fine);
}

TEST(DetectorTest, ProbabilityMonotoneInNprop) {
  SyntheticVideo video = MakeVideo(4, SceneArchetype::kCrowded);
  int t = FirstPopulatedFrame(video);
  const SceneObjectState& obj = video.frame(t).objects[0];
  double prev = 0.0;
  for (int nprop : kDetectorNprops) {
    double p = DetectorSim::DetectionProbability(video, obj, {576, nprop}, {}, 2);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(DetectorTest, OcclusionReducesProbability) {
  SyntheticVideo video = MakeVideo(5, SceneArchetype::kSparse);
  int t = FirstPopulatedFrame(video);
  SceneObjectState obj = video.frame(t).objects[0];
  obj.occlusion = 0.0;
  double clear_p = DetectorSim::DetectionProbability(video, obj, {576, 100}, {}, 0);
  obj.occlusion = 0.8;
  double hidden_p = DetectorSim::DetectionProbability(video, obj, {576, 100}, {}, 0);
  EXPECT_LT(hidden_p, clear_p);
}

TEST(DetectorTest, LowerRankLowersProbabilityAtSmallNprop) {
  SyntheticVideo video = MakeVideo(6, SceneArchetype::kCrowded);
  int t = FirstPopulatedFrame(video);
  const SceneObjectState& obj = video.frame(t).objects[0];
  double top = DetectorSim::DetectionProbability(video, obj, {576, 1}, {}, 0);
  double deep = DetectorSim::DetectionProbability(video, obj, {576, 1}, {}, 5);
  EXPECT_GT(top, deep);
}

TEST(DetectorTest, HigherQualityProfileDetectsBetter) {
  SyntheticVideo video = MakeVideo(7, SceneArchetype::kFastSmall);
  DetectorQuality strong;
  strong.size_midpoint = 10.0;
  strong.motion_half_speed = 150.0;
  DetectorQuality weak;
  weak.size_midpoint = 24.0;
  weak.motion_half_speed = 40.0;
  int t = FirstPopulatedFrame(video);
  const SceneObjectState& obj = video.frame(t).objects[0];
  EXPECT_GT(DetectorSim::DetectionProbability(video, obj, {448, 100}, strong, 0),
            DetectorSim::DetectionProbability(video, obj, {448, 100}, weak, 0));
}

TEST(DetectorTest, HigherResolutionGivesHigherMapOnSmallObjects) {
  // End-to-end over many frames: 576/100 must beat 224/1 on fast-small content.
  ApEvaluator high;
  ApEvaluator low;
  for (uint64_t seed = 10; seed < 16; ++seed) {
    SyntheticVideo video = MakeVideo(seed, SceneArchetype::kFastSmall);
    for (int t = 0; t < video.frame_count(); ++t) {
      high.AddFrame(video.frame(t).VisibleGroundTruth(),
                    DetectorSim::Detect(video, t, {576, 100}));
      low.AddFrame(video.frame(t).VisibleGroundTruth(),
                   DetectorSim::Detect(video, t, {224, 1}));
    }
  }
  EXPECT_GT(high.MeanAveragePrecision(), low.MeanAveragePrecision() + 0.1);
}

TEST(DetectorTest, DetectionsStayInFrame) {
  SyntheticVideo video = MakeVideo(8, SceneArchetype::kCrowded);
  for (int t = 0; t < video.frame_count(); t += 7) {
    for (const Detection& det : DetectorSim::Detect(video, t, {320, 100})) {
      EXPECT_GE(det.box.x, 0.0);
      EXPECT_GE(det.box.y, 0.0);
      EXPECT_LE(det.box.x + det.box.w, video.spec().width + 1e-9);
      EXPECT_LE(det.box.y + det.box.h, video.spec().height + 1e-9);
      EXPECT_GT(det.score, 0.0);
      EXPECT_LT(det.score, 1.0);
      EXPECT_GE(det.class_id, 0);
      EXPECT_LT(det.class_id, 30);
    }
  }
}

TEST(TrackerTest, TraitsOrdering) {
  // CSRT is the most robust and most expensive; MedianFlow the opposite.
  const TrackerTraits& mf = GetTrackerTraits(TrackerType::kMedianFlow);
  const TrackerTraits& csrt = GetTrackerTraits(TrackerType::kCsrt);
  EXPECT_GT(mf.drift, csrt.drift);
  EXPECT_GT(mf.loss_hazard, csrt.loss_hazard);
  EXPECT_LT(mf.cost_factor, csrt.cost_factor);
  EXPECT_LT(mf.occlusion_robustness, csrt.occlusion_robustness);
}

TEST(TrackerTest, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (int i = 0; i < kNumTrackerTypes; ++i) {
    names.insert(TrackerName(static_cast<TrackerType>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumTrackerTypes));
}

// A Reset threshold that keeps every detection.
constexpr double kKeepAll = -std::numeric_limits<double>::infinity();

TEST(TrackerTest, ResetMirrorsDetections) {
  DetectionList dets(3);
  dets[0].object_id = 11;
  dets[1].object_id = -1;
  dets[2].object_id = 13;
  dets[2].score = 0.7;
  TrackBatch tracks;
  tracks.Reset(dets, kKeepAll);
  ASSERT_EQ(tracks.size(), 3u);
  EXPECT_EQ(tracks.object_id[0], 11);
  EXPECT_EQ(tracks.object_id[1], -1);
  EXPECT_DOUBLE_EQ(tracks.score[2], 0.7);
  EXPECT_FALSE(tracks.lost[0]);
}

TEST(TrackerTest, EmitsOneOutputPerTrack) {
  SyntheticVideo video = MakeVideo(9, SceneArchetype::kSparse);
  DetectionList dets = DetectorSim::Detect(video, 0, {576, 100});
  TrackBatch tracks;
  tracks.Reset(dets, kKeepAll);
  TrackerConfig config{TrackerType::kKcf, 2};
  DetectionList out;
  TrackerSim::StepInto(video, 1, config, tracks, /*run_salt=*/0, out);
  EXPECT_EQ(out.size(), tracks.size());
}

// Error accumulation property: the tracked box drifts from ground truth over
// time, faster for cheap trackers on fast content.
double MeanTrackingIou(SceneArchetype archetype, TrackerType type, int ds,
                       int horizon) {
  RunningStat iou;
  for (uint64_t seed = 30; seed < 40; ++seed) {
    SyntheticVideo video = MakeVideo(seed, archetype, horizon + 2);
    DetectionList anchor;
    for (const SceneObjectState& obj : video.frame(0).objects) {
      Detection det;
      det.box = obj.gt.box;
      det.class_id = obj.gt.class_id;
      det.score = 0.9;
      det.object_id = obj.gt.object_id;
      anchor.push_back(det);
    }
    TrackBatch tracks;
    tracks.Reset(anchor, kKeepAll);
    TrackerConfig config{type, ds};
    DetectionList out;
    for (int t = 1; t <= horizon; ++t) {
      TrackerSim::StepInto(video, t, config, tracks, /*run_salt=*/0, out);
    }
    for (const Detection& det : out) {
      for (const SceneObjectState& obj : video.frame(horizon).objects) {
        if (obj.gt.object_id == det.object_id) {
          iou.Add(Iou(det.box, obj.gt.box));
        }
      }
    }
  }
  return iou.mean();
}

TEST(TrackerTest, DriftGrowsWithHorizon) {
  double short_iou =
      MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kMedianFlow, 4, 3);
  double long_iou =
      MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kMedianFlow, 4, 30);
  EXPECT_GT(short_iou, long_iou);
}

TEST(TrackerTest, CsrtTracksBetterThanMedianFlowOnFastContent) {
  double mf = MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kMedianFlow,
                              4, 20);
  double csrt =
      MeanTrackingIou(SceneArchetype::kFastSmall, TrackerType::kCsrt, 1, 20);
  EXPECT_GT(csrt, mf);
}

TEST(TrackerTest, SlowContentIsEasierToTrack) {
  double slow = MeanTrackingIou(SceneArchetype::kSlowLarge,
                                TrackerType::kMedianFlow, 4, 20);
  double fast = MeanTrackingIou(SceneArchetype::kFastSmall,
                                TrackerType::kMedianFlow, 4, 20);
  EXPECT_GT(slow, fast);
}

bool OnScreen(const SyntheticVideo& video, int t, int64_t object_id) {
  const FrameObjects objects = video.frame(t).objects;
  for (size_t k = 0; k < objects.size(); ++k) {
    if (objects.object(k).object_id == object_id) {
      return true;
    }
  }
  return false;
}

// The tracker's miss path: once its object has left the screen, a track that
// was following it re-emits its last box with a decaying score.
TEST(TrackerTest, ObjectLeavingMidGofIsReportedLost) {
  // The first seeded object that leaves before its video ends, and the first
  // frame it is gone; it is tracked from three frames earlier.
  SyntheticVideo video;
  Detection anchor;
  int exit_frame = -1;
  for (uint64_t seed = 1; seed <= 40 && exit_frame < 0; ++seed) {
    video = MakeVideo(seed, SceneArchetype::kCrowded);
    for (int t = 3; t < video.frame_count() && exit_frame < 0; ++t) {
      for (const SceneObjectState& obj : video.frame(t - 3).objects) {
        if (OnScreen(video, t - 1, obj.gt.object_id) &&
            !OnScreen(video, t, obj.gt.object_id)) {
          anchor.box = obj.gt.box;
          anchor.class_id = obj.gt.class_id;
          anchor.score = 0.9;
          anchor.object_id = obj.gt.object_id;
          exit_frame = t;
          break;
        }
      }
    }
  }
  ASSERT_GE(exit_frame, 3) << "no seeded object leaves early";
  TrackBatch tracks;
  tracks.Reset({anchor}, kKeepAll);
  TrackerConfig config{TrackerType::kCsrt, 1};
  DetectionList out;
  for (int t = exit_frame - 2; t < exit_frame; ++t) {
    TrackerSim::StepInto(video, t, config, tracks, /*run_salt=*/0, out);
  }
  ASSERT_EQ(tracks.lost[0], 0) << "the track was lost before its object left";
  const Detection last = out.at(0);
  for (int t = exit_frame; t < exit_frame + 2; ++t) {
    const double score = tracks.score[0];
    TrackerSim::StepInto(video, t, config, tracks, /*run_salt=*/0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].object_id, anchor.object_id);
    EXPECT_EQ(out[0].box.x, last.box.x);
    EXPECT_EQ(out[0].box.y, last.box.y);
    EXPECT_EQ(out[0].box.w, last.box.w);
    EXPECT_EQ(out[0].box.h, last.box.h);
    EXPECT_EQ(out[0].score, score * 0.97);
  }
}

TEST(TrackerTest, LostTrackEmitsStaleBoxWithDecayingScore) {
  SyntheticVideo video = MakeVideo(10, SceneArchetype::kSparse);
  Detection track;
  track.object_id = 999999;  // no such object -> behaves like lost
  track.class_id = 2;
  track.score = 0.8;
  track.box = Box{10, 10, 50, 50};
  TrackBatch tracks;
  tracks.Reset({track}, kKeepAll);
  TrackerConfig config{TrackerType::kKcf, 2};
  DetectionList out1;
  DetectionList out2;
  TrackerSim::StepInto(video, 1, config, tracks, /*run_salt=*/0, out1);
  TrackerSim::StepInto(video, 2, config, tracks, /*run_salt=*/0, out2);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_DOUBLE_EQ(out1[0].box.x, 10.0);
  EXPECT_LT(out2[0].score, out1[0].score);
  EXPECT_LT(out1[0].score, 0.8);
}

}  // namespace
}  // namespace litereconfig
