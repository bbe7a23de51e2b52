// Tests for the cross-domain (video classification) MBEK + scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "src/cls/kernel.h"
#include "src/cls/scheduler.h"
#include "src/cls/task.h"
#include "src/util/stats.h"

namespace litereconfig {
namespace {

SyntheticVideo MakeVideo(uint64_t seed, SceneArchetype archetype, int frames = 96) {
  VideoSpec spec;
  spec.seed = seed;
  spec.frame_count = frames;
  spec.archetype = archetype;
  return SyntheticVideo::Generate(spec);
}

TEST(ClipLabelTest, PicksDominantClass) {
  SyntheticVideo video = MakeVideo(1, SceneArchetype::kSlowLarge);
  int label = ClipLabel(video, 0);
  EXPECT_GE(label, 0);
  EXPECT_LT(label, 30);
  // Determinism.
  EXPECT_EQ(label, ClipLabel(video, 0));
}

TEST(ClipLabelTest, EmptyWindowIsUnlabeled) {
  // A window past the end of the video has no visible objects.
  SyntheticVideo video = MakeVideo(2, SceneArchetype::kSparse, 30);
  EXPECT_EQ(ClipLabel(video, 30), -1);
}

TEST(Top1AccuracyTest, CountsAndIgnoresUnlabeled) {
  Top1Accuracy acc;
  acc.Add(3, 3);
  acc.Add(2, 3);
  acc.Add(1, -1);  // unlabeled: ignored
  EXPECT_EQ(acc.count(), 2u);
  EXPECT_DOUBLE_EQ(acc.Value(), 0.5);
  Top1Accuracy empty;
  EXPECT_DOUBLE_EQ(empty.Value(), 0.0);
}

TEST(ClsBranchSpaceTest, SizeAndIds) {
  const ClsBranchSpace& space = ClsBranchSpace::Default();
  EXPECT_EQ(space.size(), 3u * 4u * 3u);
  EXPECT_EQ(space.at(0).shape, 112);
  std::set<std::tuple<int, int, int>> ids;
  for (const ClsBranch& branch : space.branches()) {
    ids.insert({branch.shape, branch.frames, branch.depth});
  }
  EXPECT_EQ(ids.size(), space.size());
}

TEST(ClassifierSimTest, ProbabilityMonotoneInKnobs) {
  SyntheticVideo video = MakeVideo(3, SceneArchetype::kFastSmall);
  // More frames never hurt; deeper never hurts; larger shape never hurts
  // (the classifier has no motion-blur-vs-resolution tradeoff: its temporal
  // factor depends on the sampled frame count).
  double prev = 0.0;
  for (int frames : {1, 2, 4, 8}) {
    double p = ClassifierSim::CorrectProbability(video, 0, {224, frames, 2});
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
  prev = 0.0;
  for (int depth : {0, 1, 2}) {
    double p = ClassifierSim::CorrectProbability(video, 0, {224, 8, depth});
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(ClassifierSimTest, FastContentNeedsMoreFrames) {
  // Compare the single-frame-to-full-rate RATIO so the (multiplicative) size
  // factor cancels: on fast content a single sampled frame retains a smaller
  // share of the full-rate accuracy than on slow content.
  RunningStat fast_ratio, slow_ratio;
  for (uint64_t seed = 10; seed < 18; ++seed) {
    SyntheticVideo fast = MakeVideo(seed, SceneArchetype::kFastSmall);
    SyntheticVideo slow = MakeVideo(seed, SceneArchetype::kSlowLarge);
    double fast_full = ClassifierSim::CorrectProbability(fast, 0, {224, 8, 1});
    double slow_full = ClassifierSim::CorrectProbability(slow, 0, {224, 8, 1});
    if (fast_full > 1e-6) {
      fast_ratio.Add(ClassifierSim::CorrectProbability(fast, 0, {224, 1, 1}) /
                     fast_full);
    }
    if (slow_full > 1e-6) {
      slow_ratio.Add(ClassifierSim::CorrectProbability(slow, 0, {224, 1, 1}) /
                     slow_full);
    }
  }
  EXPECT_LT(fast_ratio.mean(), slow_ratio.mean());
}

TEST(ClassifierSimTest, ClassifyDeterministicPerSalt) {
  SyntheticVideo video = MakeVideo(4, SceneArchetype::kCrowded);
  ClsBranch branch{224, 4, 1};
  EXPECT_EQ(ClassifierSim::Classify(video, 0, branch, 7),
            ClassifierSim::Classify(video, 0, branch, 7));
}

TEST(ClsLatencyTest, MonotoneInKnobs) {
  EXPECT_LT(ClsBranchTx2Ms({112, 1, 0}), ClsBranchTx2Ms({224, 1, 0}));
  EXPECT_LT(ClsBranchTx2Ms({224, 1, 0}), ClsBranchTx2Ms({224, 8, 0}));
  EXPECT_LT(ClsBranchTx2Ms({224, 8, 0}), ClsBranchTx2Ms({224, 8, 2}));
  // Range: the shallow single-frame variant is a few ms; the deep full-rate
  // one sits near the detector's mid-range.
  EXPECT_LT(ClsBranchTx2Ms({112, 1, 0}), 5.0);
  EXPECT_GT(ClsBranchTx2Ms({224, 8, 2}), 100.0);
}

class ClsSchedulerFixture : public ::testing::Test {
 protected:
  static const ClsTrainedModels& Models() {
    static const ClsTrainedModels* models = [] {
      ClsTrainConfig config;
      config.train_spec = {/*base_seed=*/9, /*num_videos=*/10,
                           /*frames_per_video=*/64};
      config.label_salts = 2;
      config.epochs = 60;
      return new ClsTrainedModels(ClsTrainer::Train(config, DeviceType::kTx2));
    }();
    return *models;
  }
};

TEST_F(ClsSchedulerFixture, TrainProducesCompleteBundle) {
  const ClsTrainedModels& models = Models();
  EXPECT_EQ(models.latency_ms.size(), ClsBranchSpace::Default().size());
  EXPECT_EQ(models.accuracy.size(), 2u);
  EXPECT_GT(models.hoc_cost_ms, 0.0);
}

TEST_F(ClsSchedulerFixture, DecisionsRespectBudget) {
  const ClsTrainedModels& models = Models();
  SyntheticVideo video = MakeVideo(21, SceneArchetype::kFastSmall);
  double min_branch_ms =
      *std::min_element(models.latency_ms.begin(), models.latency_ms.end());
  for (bool content : {false, true}) {
    ClsScheduler scheduler(&models, content);
    double sched_ms = content ? models.hoc_cost_ms : 0.0;
    for (double slo : {1.0, 3.0, 8.0}) {
      ClsDecision decision = scheduler.Decide(video, 0, slo);
      double window_ms = models.latency_ms[decision.branch_index] +
                         decision.scheduler_cost_ms;
      bool anything_feasible = min_branch_ms + sched_ms <= slo * kClsWindowFrames;
      if (anything_feasible) {
        EXPECT_LE(window_ms, slo * kClsWindowFrames + 1e-9)
            << "content=" << content << " slo=" << slo;
      }
      EXPECT_EQ(decision.used_content, content);
    }
  }
}

TEST_F(ClsSchedulerFixture, LooserSloBuysAccuracy) {
  const ClsTrainedModels& models = Models();
  Dataset val = BuildDataset(
      DatasetSpec{/*base_seed=*/9, /*num_videos=*/6, /*frames_per_video=*/64},
      DatasetSplit::kVal);
  ClsEvalResult tight = RunClsPolicy(models, /*content_aware=*/true, val, 1.0);
  ClsEvalResult loose = RunClsPolicy(models, /*content_aware=*/true, val, 10.0);
  EXPECT_GE(loose.top1, tight.top1 - 0.02);
  EXPECT_GT(loose.mean_frame_ms, tight.mean_frame_ms);
}

TEST_F(ClsSchedulerFixture, ContentAwareIsNotWorseAtMidSlo) {
  const ClsTrainedModels& models = Models();
  Dataset val = BuildDataset(
      DatasetSpec{/*base_seed=*/9, /*num_videos=*/6, /*frames_per_video=*/64},
      DatasetSplit::kVal);
  ClsEvalResult aware = RunClsPolicy(models, /*content_aware=*/true, val, 5.0);
  ClsEvalResult agnostic = RunClsPolicy(models, /*content_aware=*/false, val, 5.0);
  EXPECT_GE(aware.top1, agnostic.top1 - 0.03);
}

}  // namespace
}  // namespace litereconfig
