// Tests for runtime mechanics added on top of the core loop: the GoF
// executor's draw contract, tail track-only continuation, per-GoF accounting,
// preheat calibration, and confident-count policies.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/pipeline/workbench.h"
#include "src/runtime/gof_executor.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

TEST(CountConfidentTest, CountsAboveThreshold) {
  DetectionList dets(4);
  dets[0].score = 0.9;
  dets[1].score = 0.31;
  dets[2].score = 0.29;
  dets[3].score = kConfidentScoreThreshold;
  EXPECT_EQ(CountConfident(dets), 3);
  EXPECT_EQ(CountConfident({}), 0);
}

TEST(TrackOnlyTest, EmitsRequestedFrames) {
  const SyntheticVideo& video = TinyValidation().videos[0];
  DetectionList init = FasterRcnnSim::Detect(video, 10, {448, 100});
  TrackerConfig tracker{TrackerType::kKcf, 2};
  std::vector<DetectionList> frames(5);
  TrackBatch scratch;
  EXPECT_EQ(ExecutionKernel::TrackOnlyInto(video, 11, 5, tracker, init, 0, scratch,
                                           frames.data()),
            5);
  // Only confident detections are tracked.
  for (const DetectionList& frame : frames) {
    EXPECT_EQ(static_cast<int>(frame.size()), CountConfident(init));
  }
}

TEST(TrackOnlyTest, TruncatesAtVideoEnd) {
  const SyntheticVideo& video = TinyValidation().videos[0];
  DetectionList init = FasterRcnnSim::Detect(video, 0, {448, 100});
  TrackerConfig tracker{TrackerType::kMedianFlow, 4};
  std::vector<DetectionList> frames(100);
  TrackBatch scratch;
  EXPECT_EQ(ExecutionKernel::TrackOnlyInto(video, video.frame_count() - 3, 100,
                                           tracker, init, 0, scratch, frames.data()),
            3);
  EXPECT_EQ(ExecutionKernel::TrackOnlyInto(video, video.frame_count(), 5, tracker,
                                           init, 0, scratch, frames.data()),
            0);
}

// The executor's draw contract. The oracle is a second Pcg32 seeded like the
// executor's latency stream, replaying the Sample/OnlineCostMs calls the
// contract promises, in order; any extra, missing or reordered draw shows up
// as an inexact sample.
class GofExecutorTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSeed = 0x5eedull;
  static constexpr uint64_t kSalt = 11;

  GofExecutorTest() {
    // Two tracking branches with different detectors, so a change between
    // them is a real switch.
    for (size_t b = 0; b < space_.size(); ++b) {
      const Branch& branch = space_.at(b);
      if (!branch.has_tracker || branch.gof < 4) {
        continue;
      }
      if (!first_.has_value()) {
        first_ = b;
      } else if (branch.detector != space_.at(*first_).detector) {
        second_ = b;
        break;
      }
    }
  }

  GofExecutor MakeExecutor(double slo_ms = 50.0) {
    return GofExecutor(video_, platform_,
                       FaultRuntime(nullptr, video_.spec().seed, video_.frame_count(),
                                    /*fault_seed=*/1, /*degrade=*/true, 0.3),
                       kSeed, kSalt, slo_ms, &space_, &switching_);
  }

  // The oracle's tracker total for `frames` samples at `tracked` objects.
  double TrackerTotal(const TrackerConfig& tracker, int tracked, int frames,
                      Pcg32& oracle) const {
    double total = 0.0;
    for (int i = 0; i < frames; ++i) {
      total += platform_.Sample(platform_.TrackerMs(tracker, tracked), oracle);
    }
    return total;
  }

  const SyntheticVideo& video_ = TinyValidation().videos[0];
  const BranchSpace& space_ = BranchSpace::Default();
  LatencyModel platform_{DeviceType::kTx2, 0.3};
  SwitchingCostModel switching_{DeviceType::kTx2};
  std::optional<size_t> first_;
  std::optional<size_t> second_;
};

TEST_F(GofExecutorTest, DrawsSwitchThenDetectorThenTrackerSamples) {
  ASSERT_TRUE(first_.has_value() && second_.has_value());
  const Branch& first = space_.at(*first_);
  const Branch& second = space_.at(*second_);
  GofExecutor exec = MakeExecutor();
  Pcg32 oracle(kSeed);
  std::vector<DetectionList> out(64);

  // The first SwitchTo has no current branch: it draws nothing.
  exec.BeginGof(0);
  exec.SwitchTo(*first_);
  EXPECT_FALSE(exec.samples().switched);
  EXPECT_EQ(exec.samples().switch_ms, 0.0);
  double first_mean = platform_.DetectorMs(first.detector);
  exec.Detect(0, first, first.gof, first_mean, 1.0, out.data());
  EXPECT_EQ(exec.samples().detector_ms, platform_.Sample(first_mean, oracle));
  EXPECT_EQ(exec.samples().tracker_ms,
            TrackerTotal(first.tracker, CountConfident(out[0]), first.gof - 1, oracle));
  exec.TrackRemainder(0, first, first.gof, out.data());

  // A branch change: the switch, the outlier-scaled detector sample, then
  // length - 1 tracker samples priced at the anchor's confident count.
  int t = first.gof;
  exec.BeginGof(t);
  exec.SwitchTo(*second_);
  EXPECT_TRUE(exec.samples().switched);
  EXPECT_EQ(exec.samples().switch_ms,
            switching_.OnlineCostMs(first, second, 0, oracle));
  EXPECT_EQ(exec.switch_count(), 1);
  double second_mean = platform_.DetectorMs(second.detector);
  exec.Detect(t, second, second.gof, second_mean, 3.0, out.data());
  double nominal = platform_.Sample(second_mean, oracle);
  EXPECT_EQ(exec.samples().detector_nominal_ms, nominal);
  EXPECT_EQ(exec.samples().detector_ms, nominal * 3.0);
  EXPECT_EQ(exec.samples().tracker_ms,
            TrackerTotal(second.tracker, CountConfident(out[0]), second.gof - 1,
                         oracle));
  EXPECT_EQ(exec.samples().length, second.gof);
}

TEST_F(GofExecutorTest, TrackRemainderDrawsNothingAndTrackDrawsPerEmittedFrame) {
  ASSERT_TRUE(first_.has_value());
  const Branch& branch = space_.at(*first_);
  GofExecutor exec = MakeExecutor();
  Pcg32 oracle(kSeed);
  std::vector<DetectionList> out(64);
  exec.BeginGof(0);
  exec.SwitchTo(*first_);
  double mean = platform_.DetectorMs(branch.detector);
  exec.Detect(0, branch, branch.gof, mean, 1.0, out.data());
  platform_.Sample(mean, oracle);
  TrackerTotal(branch.tracker, CountConfident(out[0]), branch.gof - 1, oracle);
  exec.TrackRemainder(0, branch, branch.gof, out.data());

  // A tail GoF asking for more frames than remain stops at the end of the
  // video, one tracker sample per emitted frame, priced at the init frame's
  // confident count.
  DetectionList init = out[static_cast<size_t>(branch.gof - 1)];
  int t = video_.frame_count() - 3;
  std::vector<DetectionList> tail(10);
  exec.BeginGof(t);
  exec.Track(t, 10, branch.tracker, init, tail.data());
  EXPECT_EQ(exec.samples().length, 3);
  EXPECT_EQ(exec.samples().tracker_ms,
            TrackerTotal(branch.tracker, CountConfident(init), 3, oracle));
  EXPECT_EQ(exec.samples().detector_ms, 0.0);
  EXPECT_EQ(exec.samples().switch_ms, 0.0);
}

TEST_F(GofExecutorTest, OutputsMatchRunGof) {
  ASSERT_TRUE(first_.has_value() && second_.has_value());
  GofExecutor exec = MakeExecutor();
  std::vector<DetectionList> out(64);
  for (size_t index : {*first_, *second_}) {
    const Branch& branch = space_.at(index);
    for (int start : {0, 29, video_.frame_count() - 3}) {
      GofResult reference = ExecutionKernel::RunGof(video_, start, branch, kSalt);
      int length = std::min(branch.gof, video_.frame_count() - start);
      exec.BeginGof(start);
      exec.SwitchTo(index);
      exec.Detect(start, branch, length, 10.0, 1.0, out.data());
      exec.TrackRemainder(start, branch, length, out.data());
      ASSERT_EQ(reference.frames.size(), static_cast<size_t>(length));
      for (int f = 0; f < length; ++f) {
        const DetectionList& want = reference.frames[static_cast<size_t>(f)];
        const DetectionList& got = out[static_cast<size_t>(f)];
        ASSERT_EQ(got.size(), want.size()) << "branch " << index << " frame " << f;
        for (size_t d = 0; d < want.size(); ++d) {
          EXPECT_EQ(got[d].box.x, want[d].box.x);
          EXPECT_EQ(got[d].box.y, want[d].box.y);
          EXPECT_EQ(got[d].box.w, want[d].box.w);
          EXPECT_EQ(got[d].box.h, want[d].box.h);
          EXPECT_EQ(got[d].score, want[d].score);
          EXPECT_EQ(got[d].class_id, want[d].class_id);
          EXPECT_EQ(got[d].object_id, want[d].object_id);
        }
      }
    }
  }
}

TEST_F(GofExecutorTest, BookCountsMissExactlyAboveSlo) {
  ASSERT_TRUE(first_.has_value());
  const Branch& branch = space_.at(*first_);
  GofExecutor exec = MakeExecutor(/*slo_ms=*/40.0);
  std::vector<DetectionList> out(64);
  exec.BeginGof(0);
  exec.SwitchTo(*first_);
  exec.Detect(0, branch, branch.gof, 10.0, 1.0, out.data());
  EXPECT_FALSE(exec.Book(40.0, /*coasted=*/false));
  EXPECT_EQ(exec.faults().accounting().deadline_misses, 0);
  EXPECT_TRUE(exec.Book(std::nextafter(40.0, 100.0), /*coasted=*/false));
  EXPECT_EQ(exec.faults().accounting().deadline_misses, 1);
  EXPECT_FALSE(exec.Book(39.0, /*coasted=*/false));
  EXPECT_EQ(exec.faults().accounting().deadline_misses, 1);
  EXPECT_EQ(exec.gof_frame_ms(),
            (std::vector<double>{40.0, std::nextafter(40.0, 100.0), 39.0}));
  EXPECT_EQ(exec.TakeGofLengths(),
            (std::vector<int>{branch.gof, branch.gof, branch.gof}));
}

TEST(GofAccountingTest, LengthsSumToFrames) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  const SyntheticVideo& video = TinyValidation().videos[1];
  LatencyModel platform(DeviceType::kTx2, 0.0);
  SwitchingCostModel switching(DeviceType::kTx2);
  RunEnv env{&platform, &switching, 50.0, 1};
  protocol.Reset();
  VideoRunStats stats = protocol.RunVideo(video, env);
  ASSERT_EQ(stats.gof_lengths.size(), stats.gof_frame_ms.size());
  int total = 0;
  for (int len : stats.gof_lengths) {
    EXPECT_GT(len, 0);
    total += len;
  }
  EXPECT_EQ(total, static_cast<int>(stats.frames.size()));
}

TEST(GofAccountingTest, WeightedSamplesMatchComponentTotals) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  const SyntheticVideo& video = TinyValidation().videos[2];
  LatencyModel platform(DeviceType::kTx2, 0.5);
  SwitchingCostModel switching(DeviceType::kTx2);
  RunEnv env{&platform, &switching, 50.0, 3};
  protocol.Reset();
  VideoRunStats stats = protocol.RunVideo(video, env);
  double weighted = 0.0;
  for (size_t i = 0; i < stats.gof_frame_ms.size(); ++i) {
    weighted += stats.gof_frame_ms[i] * stats.gof_lengths[i];
  }
  EXPECT_NEAR(weighted,
              stats.detector_ms + stats.tracker_ms + stats.scheduler_ms +
                  stats.switch_ms,
              1e-6);
}

TEST(PreheatTest, CalibrationConvergesToContentionFactor) {
  // Run two videos under 50% contention; by the end of the first the protocol's
  // choices must reflect the ~1.74x inflation (no SLO violations on video two).
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  LatencyModel platform(DeviceType::kTx2, 0.5);
  SwitchingCostModel switching(DeviceType::kTx2);
  RunEnv env{&platform, &switching, 50.0, 1};
  protocol.Reset();
  protocol.RunVideo(TinyValidation().videos[0], env);
  VideoRunStats second = protocol.RunVideo(TinyValidation().videos[1], env);
  int violations = 0;
  for (double v : second.gof_frame_ms) {
    if (v > 50.0) {
      ++violations;
    }
  }
  EXPECT_LE(violations, static_cast<int>(second.gof_frame_ms.size() / 4));
}

TEST(WorkbenchTest, CacheDirIsCreated) {
  std::string dir = CacheDir();
  EXPECT_FALSE(dir.empty());
  EXPECT_TRUE(std::filesystem::exists(dir));
}

// Workbench's splits are LazyDatasets: every read returns one object, even
// when several threads race to read first, and it equals a fresh build.
TEST(WorkbenchTest, LazySplitReturnsOneObjectAcrossConcurrentFirstReads) {
  const DatasetSpec spec = Workbench::DefaultValidationSpec();
  const LazyDataset validation(spec, DatasetSplit::kVal);
  ThreadPool pool(4);
  const std::vector<const Dataset*> reads =
      pool.ParallelMap(8, [&](size_t) { return &validation.GetOrBuild(); });
  for (const Dataset* read : reads) {
    EXPECT_EQ(read, reads[0]);
  }
  EXPECT_EQ(&validation.GetOrBuild(), reads[0]);

  const Dataset expected = BuildDataset(spec, DatasetSplit::kVal);
  const Dataset& built = validation.GetOrBuild();
  ASSERT_EQ(built.videos.size(), expected.videos.size());
  for (size_t v = 0; v < expected.videos.size(); ++v) {
    const SyntheticVideo& a = built.videos[v];
    const SyntheticVideo& b = expected.videos[v];
    EXPECT_EQ(a.spec().seed, b.spec().seed);
    EXPECT_EQ(a.spec().archetype, b.spec().archetype);
    ASSERT_EQ(a.frame_count(), b.frame_count());
    ASSERT_EQ(a.pose_count(), b.pose_count());
    for (int t = 0; t < a.frame_count(); ++t) {
      const FrameObjects fa = a.frame(t).objects;
      const FrameObjects fb = b.frame(t).objects;
      ASSERT_EQ(fa.size(), fb.size());
      for (size_t k = 0; k < fa.size(); ++k) {
        EXPECT_EQ(fa.object(k).object_id, fb.object(k).object_id);
        EXPECT_EQ(fa.pose(k).x, fb.pose(k).x);
        EXPECT_EQ(fa.pose(k).y, fb.pose(k).y);
        EXPECT_EQ(fa.pose(k).occlusion, fb.pose(k).occlusion);
      }
    }
  }
}

TEST(TailContinuationTest, NoOversizedTailSamplesAtTightSlo) {
  // The stream-tail artifact this mechanism removes: with short videos and a
  // tight SLO, last GoFs must not systematically blow up to detector-scale
  // latency. One oversized sample is tolerated — a rare switching cold-miss
  // outlier (paper Figure 5b) can land on any GoF, including the last.
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  LatencyModel platform(DeviceType::kTx2, 0.0);
  SwitchingCostModel switching(DeviceType::kTx2);
  RunEnv env{&platform, &switching, 33.3, 1};
  protocol.Reset();
  int oversized_tails = 0;
  for (const SyntheticVideo& video : TinyValidation().videos) {
    VideoRunStats stats = protocol.RunVideo(video, env);
    ASSERT_FALSE(stats.gof_frame_ms.empty());
    if (stats.gof_frame_ms.back() >= 60.0) {
      ++oversized_tails;
    }
  }
  EXPECT_LE(oversized_tails, 1);
}

}  // namespace
}  // namespace litereconfig
