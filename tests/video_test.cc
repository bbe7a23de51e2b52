#include <gtest/gtest.h>

#include <bit>
#include <iterator>
#include <memory>
#include <set>

#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/video/classes.h"
#include "src/video/dataset.h"
#include "src/video/latent.h"
#include "src/video/scene.h"
#include "src/video/synthetic_video.h"

namespace litereconfig {
namespace {

VideoSpec Spec(uint64_t seed, SceneArchetype archetype, int frames = 120) {
  VideoSpec spec;
  spec.seed = seed;
  spec.frame_count = frames;
  spec.archetype = archetype;
  return spec;
}

TEST(ClassesTest, NamesAndPriorsAreDefined) {
  std::set<std::string_view> names;
  for (int c = 0; c < kNumClasses; ++c) {
    names.insert(ClassName(c));
    const ClassPriors& priors = GetClassPriors(c);
    EXPECT_GT(priors.size_fraction, 0.0);
    EXPECT_LT(priors.size_fraction, 1.0);
    EXPECT_GT(priors.speed_fraction, 0.0);
    EXPECT_GT(priors.aspect_ratio, 0.0);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumClasses));
}

TEST(SceneTest, ArchetypesAreDistinctAndValid) {
  std::set<std::string_view> names;
  for (int a = 0; a < kNumArchetypes; ++a) {
    SceneArchetype arch = static_cast<SceneArchetype>(a);
    names.insert(ArchetypeName(arch));
    const ArchetypeParams& params = GetArchetypeParams(arch);
    EXPECT_GT(params.object_count_mean, 0.0);
    EXPECT_GE(params.clutter, 0.0);
    EXPECT_LE(params.clutter, 1.0);
    for (int cls : params.class_pool) {
      EXPECT_GE(cls, 0);
      EXPECT_LT(cls, kNumClasses);
    }
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumArchetypes));
}

TEST(SyntheticVideoTest, GenerationIsDeterministic) {
  SyntheticVideo a = SyntheticVideo::Generate(Spec(99, SceneArchetype::kCrowded));
  SyntheticVideo b = SyntheticVideo::Generate(Spec(99, SceneArchetype::kCrowded));
  ASSERT_EQ(a.frame_count(), b.frame_count());
  for (int t = 0; t < a.frame_count(); ++t) {
    ASSERT_EQ(a.frame(t).objects.size(), b.frame(t).objects.size());
    for (size_t i = 0; i < a.frame(t).objects.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.frame(t).objects[i].gt.box.x, b.frame(t).objects[i].gt.box.x);
      EXPECT_DOUBLE_EQ(a.frame(t).objects[i].occlusion,
                       b.frame(t).objects[i].occlusion);
    }
  }
}

TEST(SyntheticVideoTest, DifferentSeedsDiffer) {
  SyntheticVideo a = SyntheticVideo::Generate(Spec(1, SceneArchetype::kSparse));
  SyntheticVideo b = SyntheticVideo::Generate(Spec(2, SceneArchetype::kSparse));
  bool any_different = a.frame(0).objects.size() != b.frame(0).objects.size();
  if (!any_different && !a.frame(0).objects.empty()) {
    any_different =
        a.frame(0).objects[0].gt.box.x != b.frame(0).objects[0].gt.box.x;
  }
  EXPECT_TRUE(any_different);
}

TEST(SyntheticVideoTest, BoxesStayInsideFrame) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (int a = 0; a < kNumArchetypes; ++a) {
      SyntheticVideo video =
          SyntheticVideo::Generate(Spec(seed, static_cast<SceneArchetype>(a)));
      for (int t = 0; t < video.frame_count(); ++t) {
        for (const SceneObjectState& obj : video.frame(t).objects) {
          EXPECT_GE(obj.gt.box.x, -1e-6);
          EXPECT_GE(obj.gt.box.y, -1e-6);
          EXPECT_LE(obj.gt.box.x + obj.gt.box.w, video.spec().width + 1e-6);
          EXPECT_LE(obj.gt.box.y + obj.gt.box.h, video.spec().height + 1e-6);
        }
      }
    }
  }
}

TEST(SyntheticVideoTest, AlwaysAtLeastOneObjectSomewhere) {
  SyntheticVideo video = SyntheticVideo::Generate(Spec(3, SceneArchetype::kSparse));
  size_t total = 0;
  for (int t = 0; t < video.frame_count(); ++t) {
    total += video.frame(t).objects.size();
  }
  EXPECT_GT(total, 0u);
}

TEST(SyntheticVideoTest, OcclusionIsBounded) {
  SyntheticVideo video = SyntheticVideo::Generate(Spec(7, SceneArchetype::kCrowded));
  for (int t = 0; t < video.frame_count(); ++t) {
    for (const SceneObjectState& obj : video.frame(t).objects) {
      EXPECT_GE(obj.occlusion, 0.0);
      EXPECT_LE(obj.occlusion, 1.0);
    }
  }
}

TEST(SyntheticVideoTest, ClassesComeFromArchetypePool) {
  const ArchetypeParams& params = GetArchetypeParams(SceneArchetype::kFastSmall);
  std::set<int> pool(params.class_pool.begin(), params.class_pool.end());
  SyntheticVideo video = SyntheticVideo::Generate(Spec(11, SceneArchetype::kFastSmall));
  for (int t = 0; t < video.frame_count(); ++t) {
    for (const SceneObjectState& obj : video.frame(t).objects) {
      EXPECT_TRUE(pool.count(obj.gt.class_id)) << obj.gt.class_id;
    }
  }
}

// The content premise: archetypes actually differ in the statistics the
// scheduler exploits. Averaged over several seeds to avoid flakiness.
TEST(SyntheticVideoTest, FastSmallIsFasterAndSmallerThanSlowLarge) {
  RunningStat fast_speed, slow_speed, fast_size, slow_size;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SyntheticVideo fast =
        SyntheticVideo::Generate(Spec(seed, SceneArchetype::kFastSmall));
    SyntheticVideo slow =
        SyntheticVideo::Generate(Spec(seed + 100, SceneArchetype::kSlowLarge));
    for (int t = 0; t < fast.frame_count(); ++t) {
      for (const SceneObjectState& obj : fast.frame(t).objects) {
        fast_speed.Add(obj.Speed());
        fast_size.Add(obj.gt.box.h);
      }
    }
    for (int t = 0; t < slow.frame_count(); ++t) {
      for (const SceneObjectState& obj : slow.frame(t).objects) {
        slow_speed.Add(obj.Speed());
        slow_size.Add(obj.gt.box.h);
      }
    }
  }
  EXPECT_GT(fast_speed.mean(), 2.0 * slow_speed.mean());
  EXPECT_LT(fast_size.mean(), slow_size.mean());
}

TEST(SyntheticVideoTest, CrowdedHasMoreObjects) {
  RunningStat crowded, sparse;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SyntheticVideo c = SyntheticVideo::Generate(Spec(seed, SceneArchetype::kCrowded));
    SyntheticVideo s = SyntheticVideo::Generate(Spec(seed, SceneArchetype::kSparse));
    for (int t = 0; t < c.frame_count(); ++t) {
      crowded.Add(static_cast<double>(c.frame(t).objects.size()));
    }
    for (int t = 0; t < s.frame_count(); ++t) {
      sparse.Add(static_cast<double>(s.frame(t).objects.size()));
    }
  }
  EXPECT_GT(crowded.mean(), sparse.mean() + 1.0);
}

TEST(SyntheticVideoTest, PhaseMultiplierIsPositiveAndPiecewise) {
  SyntheticVideo video = SyntheticVideo::Generate(Spec(13, SceneArchetype::kSparse));
  for (int t = 0; t < video.frame_count(); ++t) {
    double m = video.PhaseSpeedMultiplier(t);
    EXPECT_GT(m, 0.0);
    EXPECT_LT(m, 3.0);
  }
}

// Mixes every frame's object count and the bit pattern of every state field
// into `h`.
void MixScene(HashState& h, const SyntheticVideo& video) {
  h.Mix(static_cast<uint64_t>(video.frame_count()));
  for (int t = 0; t < video.frame_count(); ++t) {
    const FrameTruth& frame = video.frame(t);
    h.Mix(frame.objects.size());
    for (const SceneObjectState& obj : frame.objects) {
      for (double v : {obj.gt.box.x, obj.gt.box.y, obj.gt.box.w, obj.gt.box.h}) {
        h.Mix(std::bit_cast<uint64_t>(v));
      }
      h.Mix(static_cast<uint64_t>(obj.gt.class_id));
      h.Mix(static_cast<uint64_t>(obj.gt.object_id));
      for (double v : {obj.vx, obj.vy, obj.occlusion, obj.r, obj.g, obj.b, obj.texture}) {
        h.Mix(std::bit_cast<uint64_t>(v));
      }
    }
  }
}

// Every archetype's generated scenes, pinned by hash: three seeds, 300 frames
// each. The determinism tests compare two videos of the same build, so only
// this test sees a change that moves a state (a draw order, an FP expression,
// the overlap pass's object range). Scene plans draw Normal and LogNormal,
// so the expected values are those of detmath's Log, SinCos and Exp
// (src/util/detmath.h); the generator's own sin, cos and hypot calls are
// still the host's libm.
TEST(VideoTest, GeneratedScenesArePinned) {
  const uint64_t pinned[] = {
      0x2a055063b89055a0ull,  // kSlowLarge
      0x4ab9eff4ae5bf50cull,  // kFastSmall
      0x47ef68a3a33077ecull,  // kCrowded
      0x0e98996c1600e4eaull,  // kSparse
      0x4c0a37cb96444d7bull,  // kHighClutter
  };
  ASSERT_EQ(std::size(pinned), static_cast<size_t>(kNumArchetypes));
  for (int a = 0; a < kNumArchetypes; ++a) {
    HashState h;
    for (uint64_t seed : {3ull, 42ull, 1234ull}) {
      MixScene(h, SyntheticVideo::Generate(
                      Spec(seed, static_cast<SceneArchetype>(a), /*frames=*/300)));
    }
    EXPECT_EQ(h.Get(), pinned[a]) << ArchetypeName(static_cast<SceneArchetype>(a));
  }

  // A copy reads only its own buffer: it hashes the same once the source is
  // gone (under AddressSanitizer, a view into the source fails here).
  auto source = std::make_unique<SyntheticVideo>(
      SyntheticVideo::Generate(Spec(42, SceneArchetype::kCrowded, /*frames=*/300)));
  HashState expected;
  MixScene(expected, *source);
  SyntheticVideo copy = *source;
  source.reset();
  HashState copied;
  MixScene(copied, copy);
  EXPECT_EQ(copied.Get(), expected.Get());
}

// The frame view joins each pose with its object's constants: every state it
// assembles, by index or by iteration, is that pair, the accessors read the
// same values, an object shows at most once per frame, and the frames'
// objects add up to the video's poses.
TEST(VideoTest, FrameViewJoinsPosesWithObjectConstants) {
  for (int a = 0; a < kNumArchetypes; ++a) {
    for (uint64_t seed : {5ull, 77ull}) {
      SyntheticVideo video = SyntheticVideo::Generate(
          Spec(seed, static_cast<SceneArchetype>(a), /*frames=*/200));
      size_t total = 0;
      for (int t = 0; t < video.frame_count(); ++t) {
        const FrameObjects objects = video.frame(t).objects;
        std::set<int64_t> ids;
        size_t k = 0;
        for (const SceneObjectState& state : objects) {
          const ObjectPose& pose = objects.pose(k);
          ASSERT_LT(pose.object, video.objects().size());
          const SceneObject& object = video.objects()[pose.object];
          EXPECT_EQ(&objects.object(k), &object);
          EXPECT_TRUE(ids.insert(object.object_id).second) << object.object_id;
          // The box accessor, the iterated state and the indexed state.
          for (const Box& b : {objects.box(k), state.gt.box, objects[k].gt.box}) {
            EXPECT_EQ(b.x, pose.x);
            EXPECT_EQ(b.y, pose.y);
            EXPECT_EQ(b.w, object.w);
            EXPECT_EQ(b.h, object.h);
          }
          EXPECT_EQ(state.gt.class_id, object.class_id);
          EXPECT_EQ(state.gt.object_id, object.object_id);
          EXPECT_EQ(state.vx, pose.vx);
          EXPECT_EQ(state.vy, pose.vy);
          EXPECT_EQ(state.occlusion, pose.occlusion);
          EXPECT_EQ(state.r, object.r);
          EXPECT_EQ(state.g, object.g);
          EXPECT_EQ(state.b, object.b);
          EXPECT_EQ(state.texture, object.texture);
          EXPECT_EQ(state.Speed(), pose.Speed());
          ++k;
        }
        EXPECT_EQ(k, objects.size());
        total += objects.size();
      }
      EXPECT_EQ(total, video.pose_count());
    }
  }
}

TEST(FrameTruthTest, VisibleGroundTruthExcludesFullyHidden) {
  SceneObject square;
  square.w = 10;
  square.h = 10;
  ObjectPose visible;
  visible.occlusion = 0.3;
  ObjectPose hidden;
  hidden.x = 20;
  hidden.y = 20;
  hidden.occlusion = 0.99;
  const SceneObject objects[] = {square};
  const ObjectPose poses[] = {visible, hidden};
  const FrameTruth frame{FrameObjects(poses, objects)};
  EXPECT_EQ(frame.VisibleGroundTruth().size(), 1u);
  // The reused-list form drops whatever the list held before.
  GroundTruthList truth(3, frame.objects[1].gt);
  frame.VisibleGroundTruth(truth);
  ASSERT_EQ(truth.size(), 1u);
  EXPECT_EQ(truth[0].box.x, visible.x);
  EXPECT_EQ(truth[0].box.y, visible.y);
}

TEST(LatentTest, DimensionMatches) {
  SyntheticVideo video = SyntheticVideo::Generate(Spec(17, SceneArchetype::kCrowded));
  std::vector<double> latent = ComputeFrameLatent(video, 10);
  EXPECT_EQ(latent.size(), static_cast<size_t>(kFrameLatentDim));
}

TEST(LatentTest, TracksObjectCount) {
  SyntheticVideo crowded = SyntheticVideo::Generate(Spec(19, SceneArchetype::kCrowded));
  SyntheticVideo sparse = SyntheticVideo::Generate(Spec(19, SceneArchetype::kSparse));
  RunningStat crowded_count, sparse_count;
  for (int t = 0; t < 60; ++t) {
    crowded_count.Add(ComputeFrameLatent(crowded, t)[0]);
    sparse_count.Add(ComputeFrameLatent(sparse, t)[0]);
  }
  EXPECT_GT(crowded_count.mean(), sparse_count.mean());
}

TEST(DatasetTest, BuildsRequestedVideos) {
  DatasetSpec spec;
  spec.num_videos = 7;
  spec.frames_per_video = 50;
  Dataset dataset = BuildDataset(spec, DatasetSplit::kTrain);
  ASSERT_EQ(dataset.videos.size(), 7u);
  for (const SyntheticVideo& video : dataset.videos) {
    EXPECT_EQ(video.frame_count(), 50);
  }
}

TEST(DatasetTest, TrainValSplitsAreDisjointBySeed) {
  DatasetSpec spec;
  spec.num_videos = 10;
  spec.frames_per_video = 30;
  Dataset train = BuildDataset(spec, DatasetSplit::kTrain);
  Dataset val = BuildDataset(spec, DatasetSplit::kVal);
  std::set<uint64_t> train_seeds;
  for (const SyntheticVideo& video : train.videos) {
    train_seeds.insert(video.spec().seed);
  }
  for (const SyntheticVideo& video : val.videos) {
    EXPECT_FALSE(train_seeds.count(video.spec().seed));
  }
}

TEST(DatasetTest, CyclesThroughArchetypes) {
  DatasetSpec spec;
  spec.num_videos = kNumArchetypes * 2;
  spec.frames_per_video = 20;
  Dataset dataset = BuildDataset(spec, DatasetSplit::kVal);
  std::set<SceneArchetype> seen;
  for (const SyntheticVideo& video : dataset.videos) {
    seen.insert(video.spec().archetype);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kNumArchetypes));
}

TEST(DatasetTest, SnippetsCoverVideosWithStride) {
  DatasetSpec spec;
  spec.num_videos = 3;
  spec.frames_per_video = 100;
  Dataset dataset = BuildDataset(spec, DatasetSplit::kTrain);
  std::vector<SnippetRef> snippets = MakeSnippets(dataset, 40, 30);
  // Starts per video: 0, 30, 60 -> 3 snippets per video.
  EXPECT_EQ(snippets.size(), 9u);
  for (const SnippetRef& snippet : snippets) {
    EXPECT_LE(snippet.start + snippet.length, 100);
  }
}

TEST(DatasetTest, SnippetLongerThanVideoYieldsNone) {
  DatasetSpec spec;
  spec.num_videos = 1;
  spec.frames_per_video = 30;
  Dataset dataset = BuildDataset(spec, DatasetSplit::kTrain);
  EXPECT_TRUE(MakeSnippets(dataset, 50, 10).empty());
}

}  // namespace
}  // namespace litereconfig
