#include <gtest/gtest.h>

#include <set>

#include "src/mbek/branch.h"
#include "src/mbek/kernel.h"
#include "src/mbek/pareto.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace litereconfig {
namespace {

SyntheticVideo MakeVideo(uint64_t seed, SceneArchetype archetype, int frames = 80) {
  VideoSpec spec;
  spec.seed = seed;
  spec.frame_count = frames;
  spec.archetype = archetype;
  return SyntheticVideo::Generate(spec);
}

TEST(BranchTest, IdIsStableAndUnique) {
  const BranchSpace& space = BranchSpace::Default();
  std::set<std::string> ids;
  for (const Branch& branch : space.branches()) {
    ids.insert(branch.Id());
  }
  EXPECT_EQ(ids.size(), space.size());
}

TEST(BranchTest, IdFormat) {
  Branch det_only;
  det_only.detector = {448, 10};
  det_only.gof = 1;
  EXPECT_EQ(det_only.Id(), "s448_n10_g1_det");
  Branch tracked;
  tracked.detector = {576, 100};
  tracked.gof = 8;
  tracked.has_tracker = true;
  tracked.tracker = {TrackerType::kKcf, 2};
  EXPECT_EQ(tracked.Id(), "s576_n100_g8_kcf_ds2");
}

TEST(BranchSpaceTest, ExpectedSize) {
  const BranchSpace& space = BranchSpace::Default();
  // 4 shapes x 3 nprops = 12 detector configs; each has 1 det-only branch plus
  // 4 GoF sizes x 4 tracker configs.
  EXPECT_EQ(space.detector_configs().size(), 12u);
  EXPECT_EQ(space.size(), 12u * (1u + 4u * 4u));
}

TEST(BranchSpaceTest, FindLocatesEveryBranch) {
  const BranchSpace& space = BranchSpace::Default();
  for (size_t i = 0; i < space.size(); ++i) {
    auto found = space.Find(space.at(i));
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, i);
  }
}

TEST(BranchSpaceTest, FindRejectsUnknownBranch) {
  Branch odd;
  odd.detector = {999, 7};
  EXPECT_FALSE(BranchSpace::Default().Find(odd).has_value());
}

TEST(KernelTest, GofLengthAndAnchor) {
  SyntheticVideo video = MakeVideo(1, SceneArchetype::kSparse);
  Branch branch;
  branch.detector = {448, 100};
  branch.gof = 8;
  branch.has_tracker = true;
  branch.tracker = {TrackerType::kMedianFlow, 4};
  GofResult result = ExecutionKernel::RunGof(video, 0, branch);
  EXPECT_EQ(result.frames.size(), 8u);
  EXPECT_EQ(result.frames[0].size(), result.anchor_detections.size());
}

TEST(KernelTest, GofTruncatesAtVideoEnd) {
  SyntheticVideo video = MakeVideo(2, SceneArchetype::kSparse, 20);
  Branch branch;
  branch.detector = {320, 10};
  branch.gof = 50;
  branch.has_tracker = true;
  branch.tracker = {TrackerType::kKcf, 2};
  GofResult result = ExecutionKernel::RunGof(video, 15, branch);
  EXPECT_EQ(result.frames.size(), 5u);
}

TEST(KernelTest, PastEndReturnsEmpty) {
  SyntheticVideo video = MakeVideo(3, SceneArchetype::kSparse, 20);
  Branch branch;
  branch.detector = {320, 10};
  EXPECT_TRUE(ExecutionKernel::RunGof(video, 20, branch).frames.empty());
  EXPECT_TRUE(ExecutionKernel::DetectAnchor(video, 20, branch).empty());
  EXPECT_TRUE(ExecutionKernel::TrackRemainder(video, 20, branch, {}).empty());
}

// RunGof must equal its decomposition exactly: LiteReconfigProtocol runs a
// GoF as DetectAnchor, then the latency accounting, then TrackRemainder, and
// the bit-identity of EvalResults rests on this.
TEST(KernelTest, RunGofEqualsDetectAnchorPlusTrackRemainder) {
  const BranchSpace& space = BranchSpace::Default();
  for (uint64_t seed : {11u, 12u}) {
    SyntheticVideo video = MakeVideo(seed, seed % 2 == 0
                                               ? SceneArchetype::kCrowded
                                               : SceneArchetype::kSparse);
    for (size_t b = 0; b < space.size(); b += 23) {
      const Branch& branch = space.at(b);
      for (int start : {0, 37, video.frame_count() - 2}) {
        GofResult composed;
        composed.anchor_detections =
            ExecutionKernel::DetectAnchor(video, start, branch, /*run_salt=*/5);
        composed.frames.push_back(composed.anchor_detections);
        for (DetectionList& frame : ExecutionKernel::TrackRemainder(
                 video, start, branch, composed.anchor_detections,
                 /*run_salt=*/5)) {
          composed.frames.push_back(std::move(frame));
        }
        GofResult whole = ExecutionKernel::RunGof(video, start, branch,
                                                  /*run_salt=*/5);
        ASSERT_EQ(whole.frames.size(), composed.frames.size())
            << "branch " << b << " start " << start;
        ASSERT_EQ(whole.anchor_detections.size(),
                  composed.anchor_detections.size());
        for (size_t f = 0; f < whole.frames.size(); ++f) {
          ASSERT_EQ(whole.frames[f].size(), composed.frames[f].size())
              << "frame " << f;
          for (size_t d = 0; d < whole.frames[f].size(); ++d) {
            EXPECT_EQ(whole.frames[f][d].box.x, composed.frames[f][d].box.x);
            EXPECT_EQ(whole.frames[f][d].box.y, composed.frames[f][d].box.y);
            EXPECT_EQ(whole.frames[f][d].box.w, composed.frames[f][d].box.w);
            EXPECT_EQ(whole.frames[f][d].box.h, composed.frames[f][d].box.h);
            EXPECT_EQ(whole.frames[f][d].score, composed.frames[f][d].score);
            EXPECT_EQ(whole.frames[f][d].class_id,
                      composed.frames[f][d].class_id);
          }
        }
      }
    }
  }
}

void ExpectSameFrame(const DetectionList& a, const DetectionList& b,
                     const char* what, size_t f) {
  ASSERT_EQ(a.size(), b.size()) << what << " frame " << f;
  for (size_t d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a[d].box.x, b[d].box.x) << what << " frame " << f;
    EXPECT_EQ(a[d].box.y, b[d].box.y) << what << " frame " << f;
    EXPECT_EQ(a[d].box.w, b[d].box.w) << what << " frame " << f;
    EXPECT_EQ(a[d].box.h, b[d].box.h) << what << " frame " << f;
    EXPECT_EQ(a[d].score, b[d].score) << what << " frame " << f;
    EXPECT_EQ(a[d].class_id, b[d].class_id) << what << " frame " << f;
  }
}

// The arena forms (TrackRemainderInto / TrackOnlyInto) must be bit-identical
// to the allocating TrackRemainder and to a fresh-arena call, including when
// one scratch arena is reused across consecutive GoFs of different branches
// and track populations — the steady-state shape of GofExecutor.
TEST(KernelTest, ArenaFormsMatchAllocatingWrappersAcrossReusedScratch) {
  const BranchSpace& space = BranchSpace::Default();
  SyntheticVideo video = MakeVideo(21, SceneArchetype::kCrowded);
  TrackBatch scratch;  // deliberately shared across every iteration below
  for (size_t b = 0; b < space.size(); b += 17) {
    const Branch& branch = space.at(b);
    for (int start : {0, 29, video.frame_count() - 3}) {
      DetectionList anchor =
          ExecutionKernel::DetectAnchor(video, start, branch, /*run_salt=*/7);
      std::vector<DetectionList> reference = ExecutionKernel::TrackRemainder(
          video, start, branch, anchor, /*run_salt=*/7);
      std::vector<DetectionList> arena(reference.size());
      int written = ExecutionKernel::TrackRemainderInto(
          video, start, branch, anchor, /*run_salt=*/7, scratch, arena.data());
      ASSERT_EQ(static_cast<size_t>(written), reference.size())
          << "branch " << b << " start " << start;
      for (size_t f = 0; f < reference.size(); ++f) {
        ExpectSameFrame(arena[f], reference[f], "remainder", f);
      }

      // TrackOnlyInto's reference is a call on a fresh arena.
      TrackerConfig tail{TrackerType::kMedianFlow, 4};
      std::vector<DetectionList> only_ref(6);
      TrackBatch fresh;
      only_ref.resize(static_cast<size_t>(ExecutionKernel::TrackOnlyInto(
          video, start, 6, tail, anchor, /*run_salt=*/7, fresh, only_ref.data())));
      std::vector<DetectionList> only_arena(only_ref.size());
      int only_written = ExecutionKernel::TrackOnlyInto(
          video, start, 6, tail, anchor, /*run_salt=*/7, scratch,
          only_arena.data());
      ASSERT_EQ(static_cast<size_t>(only_written), only_ref.size());
      for (size_t f = 0; f < only_ref.size(); ++f) {
        ExpectSameFrame(only_arena[f], only_ref[f], "track-only", f);
      }
    }
  }
}

TEST(KernelTest, SnippetAccuracyInUnitRange) {
  SyntheticVideo video = MakeVideo(4, SceneArchetype::kCrowded);
  for (size_t b = 0; b < BranchSpace::Default().size(); b += 17) {
    double acc = ExecutionKernel::SnippetAccuracy(video, 0, 40,
                                                  BranchSpace::Default().at(b));
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(KernelTest, SnippetAccuracyDeterministic) {
  SyntheticVideo video = MakeVideo(5, SceneArchetype::kFastSmall);
  const Branch& branch = BranchSpace::Default().at(3);
  EXPECT_DOUBLE_EQ(ExecutionKernel::SnippetAccuracy(video, 0, 40, branch, 7),
                   ExecutionKernel::SnippetAccuracy(video, 0, 40, branch, 7));
}

// The content-vs-branch interaction the whole paper rests on: on fast content,
// short GoFs beat long GoFs with a cheap tracker; on slow content the long GoF
// is nearly free. Averaged over seeds for robustness.
TEST(KernelTest, LongGofHurtsFastContentMoreThanSlowContent) {
  Branch short_gof;
  short_gof.detector = {576, 100};
  short_gof.gof = 4;
  short_gof.has_tracker = true;
  short_gof.tracker = {TrackerType::kMedianFlow, 4};
  Branch long_gof = short_gof;
  long_gof.gof = 50;

  RunningStat fast_short, fast_long, slow_short, slow_long;
  for (uint64_t seed = 50; seed < 58; ++seed) {
    SyntheticVideo fast = MakeVideo(seed, SceneArchetype::kFastSmall);
    SyntheticVideo slow = MakeVideo(seed, SceneArchetype::kSlowLarge);
    fast_short.Add(ExecutionKernel::SnippetAccuracy(fast, 0, 60, short_gof));
    fast_long.Add(ExecutionKernel::SnippetAccuracy(fast, 0, 60, long_gof));
    slow_short.Add(ExecutionKernel::SnippetAccuracy(slow, 0, 60, short_gof));
    slow_long.Add(ExecutionKernel::SnippetAccuracy(slow, 0, 60, long_gof));
  }
  // Relative retention: long GoFs keep a larger share of the short-GoF
  // accuracy on slow content than on fast content.
  double fast_retention = fast_long.mean() / std::max(1e-9, fast_short.mean());
  double slow_retention = slow_long.mean() / std::max(1e-9, slow_short.mean());
  EXPECT_GT(slow_retention, fast_retention);
  // And the absolute drop on fast content is material.
  EXPECT_GT(fast_short.mean() - fast_long.mean(), 0.02);
}

TEST(KernelTest, BetterDetectorConfigGivesBetterSnippetAccuracy) {
  Branch strong;
  strong.detector = {576, 100};
  strong.gof = 1;
  Branch weak;
  weak.detector = {224, 1};
  weak.gof = 1;
  RunningStat gap;
  for (uint64_t seed = 60; seed < 66; ++seed) {
    SyntheticVideo video = MakeVideo(seed, SceneArchetype::kCrowded);
    gap.Add(ExecutionKernel::SnippetAccuracy(video, 0, 40, strong) -
            ExecutionKernel::SnippetAccuracy(video, 0, 40, weak));
  }
  EXPECT_GT(gap.mean(), 0.1);
}

TEST(ParetoTest, ExtractsFrontier) {
  std::vector<OperatingPoint> points = {
      {10.0, 0.40},  // frontier
      {20.0, 0.35},  // dominated by the first
      {25.0, 0.50},  // frontier
      {30.0, 0.50},  // dominated (same accuracy, later)
      {50.0, 0.60},  // frontier
  };
  std::vector<size_t> frontier = ParetoFrontier(points);
  EXPECT_EQ(frontier, (std::vector<size_t>{0, 2, 4}));
}

TEST(ParetoTest, EmptyAndSingle) {
  EXPECT_TRUE(ParetoFrontier({}).empty());
  EXPECT_EQ(ParetoFrontier({{5.0, 0.5}}), std::vector<size_t>{0});
}

TEST(ParetoTest, FrontierIsMonotone) {
  std::vector<OperatingPoint> points;
  Pcg32 rng(77);
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.Uniform(1, 100), rng.Uniform(0, 1)});
  }
  std::vector<size_t> frontier = ParetoFrontier(points);
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(points[frontier[i]].latency_ms, points[frontier[i - 1]].latency_ms);
    EXPECT_GT(points[frontier[i]].accuracy, points[frontier[i - 1]].accuracy);
  }
  // No point dominates a frontier point.
  for (size_t f : frontier) {
    for (size_t p = 0; p < points.size(); ++p) {
      bool dominates = points[p].latency_ms < points[f].latency_ms &&
                       points[p].accuracy > points[f].accuracy;
      EXPECT_FALSE(dominates);
    }
  }
}

}  // namespace
}  // namespace litereconfig
