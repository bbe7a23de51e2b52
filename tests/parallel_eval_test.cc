// The parallel evaluation engine's binding contract: OnlineRunner::Run produces
// a field-for-field identical EvalResult for every thread count. The fan-out
// merges per-video stats and AP accumulations in video order, so threads only
// change wall-clock time, never metrics.
#include <gtest/gtest.h>

#include "src/baselines/approxdet.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/util/rng.h"
#include "src/vision/metrics.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

// Exact equality everywhere: the requirement is bit-identical results, not
// metrics that agree to within a tolerance.
void ExpectIdentical(const EvalResult& a, const EvalResult& b) {
  EXPECT_EQ(a.map, b.map);
  EXPECT_EQ(a.mean_ms, b.mean_ms);
  EXPECT_EQ(a.p95_ms, b.p95_ms);
  EXPECT_EQ(a.violation_rate, b.violation_rate);
  EXPECT_EQ(a.detector_frac, b.detector_frac);
  EXPECT_EQ(a.tracker_frac, b.tracker_frac);
  EXPECT_EQ(a.scheduler_frac, b.scheduler_frac);
  EXPECT_EQ(a.switch_frac, b.switch_frac);
  EXPECT_EQ(a.branch_coverage, b.branch_coverage);
  EXPECT_EQ(a.switch_count, b.switch_count);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.oom, b.oom);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_absorbed, b.faults_absorbed);
  EXPECT_EQ(a.degraded_frames, b.degraded_frames);
  EXPECT_EQ(a.mean_recovery_gofs, b.mean_recovery_gofs);
  EXPECT_EQ(a.recalibrations, b.recalibrations);
  EXPECT_EQ(a.reanchors, b.reanchors);
  EXPECT_EQ(a.preemptive_replans, b.preemptive_replans);
  EXPECT_EQ(a.forecast_absorbed, b.forecast_absorbed);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].kind, b.failures[i].kind) << "failure " << i;
    EXPECT_EQ(a.failures[i].frame, b.failures[i].frame) << "failure " << i;
    EXPECT_EQ(a.failures[i].recovered, b.failures[i].recovered) << "failure " << i;
    EXPECT_EQ(a.failures[i].video_seed, b.failures[i].video_seed) << "failure " << i;
  }
  ASSERT_EQ(a.gof_frame_ms.size(), b.gof_frame_ms.size());
  for (size_t i = 0; i < a.gof_frame_ms.size(); ++i) {
    EXPECT_EQ(a.gof_frame_ms[i], b.gof_frame_ms[i]) << "GoF sample " << i;
  }
}

EvalResult RunWithThreads(Protocol& protocol, int threads,
                          double contention = 0.0) {
  EvalConfig config;
  config.slo_ms = 33.3;
  config.gpu_contention = contention;
  config.threads = threads;
  return OnlineRunner::Run(protocol, TinyValidation(), config);
}

TEST(ParallelEvalTest, LiteReconfigIsIdenticalAcrossThreadCounts) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult sequential = RunWithThreads(protocol, 1);
  EXPECT_GT(sequential.frames, 0u);
  for (int threads : {2, 4, 8}) {
    EvalResult parallel = RunWithThreads(protocol, threads);
    ExpectIdentical(sequential, parallel);
  }
}

TEST(ParallelEvalTest, LiteReconfigIsIdenticalUnderContention) {
  // Contention exercises the per-video preheat calibration path; it too must
  // be independent of the fan-out width.
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult sequential = RunWithThreads(protocol, 1, /*contention=*/0.5);
  EvalResult parallel = RunWithThreads(protocol, 4, /*contention=*/0.5);
  ExpectIdentical(sequential, parallel);
}

TEST(ParallelEvalTest, ParallelRunIsStableAcrossRepeats) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult first = RunWithThreads(protocol, 4);
  EvalResult second = RunWithThreads(protocol, 4);
  ExpectIdentical(first, second);
}

// Faults and the predictive-robustness loops armed: the fault streams, the
// burst estimator and the drift monitor are per video, so the run must still
// be identical at every thread count.
TEST(ParallelEvalTest, PipelinedRunIsIdenticalUnderFaultsAndPredictive) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalConfig base;
  base.slo_ms = 33.3;
  base.faults = FaultSpec::Moderate();
  base.fault_seed = 11;
  base.degrade = true;
  base.predictive = true;
  base.threads = 1;
  EvalResult serial = OnlineRunner::Run(protocol, TinyValidation(), base);
  EXPECT_GT(serial.faults_injected, 0);
  for (int threads : {2, 4, 8}) {
    EvalConfig config = base;
    config.threads = threads;
    EvalResult parallel = OnlineRunner::Run(protocol, TinyValidation(), config);
    ExpectIdentical(serial, parallel);
  }
}

// Same identity with GPU contention armed as well: contention drives the
// per-GoF calibration EWMA, so every decision prices under a fresh
// calibration while the stream's kept cost table is rebuilt in place.
TEST(ParallelEvalTest, PipelinedBatchedRunIsIdenticalUnderFaultsAndContention) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalConfig base;
  base.slo_ms = 33.3;
  base.gpu_contention = 0.5;
  base.faults = FaultSpec::Moderate();
  base.fault_seed = 23;
  base.degrade = true;
  base.predictive = true;
  base.threads = 1;
  EvalResult serial = OnlineRunner::Run(protocol, TinyValidation(), base);
  EXPECT_GT(serial.frames, 0u);
  for (int threads : {2, 4, 8}) {
    EvalConfig config = base;
    config.threads = threads;
    EvalResult parallel = OnlineRunner::Run(protocol, TinyValidation(), config);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelEvalTest, ApproxDetIsIdenticalAcrossThreadCounts) {
  ApproxDetProtocol protocol(&TinyModels());
  EvalResult sequential = RunWithThreads(protocol, 1, /*contention=*/0.5);
  EvalResult parallel = RunWithThreads(protocol, 4, /*contention=*/0.5);
  ExpectIdentical(sequential, parallel);
}

TEST(ParallelEvalTest, DefaultThreadsMatchesExplicitOne) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "lrc");
  EvalResult defaulted = RunWithThreads(protocol, /*threads=*/0);
  EvalResult sequential = RunWithThreads(protocol, 1);
  ExpectIdentical(defaulted, sequential);
}

// ApEvaluator::Merge must reproduce the sequential accumulation exactly —
// OnlineRunner's video-order merge of per-video evaluators depends on it.
TEST(ParallelEvalTest, ApEvaluatorMergeMatchesSequentialAccumulation) {
  Pcg32 rng(1234);
  std::vector<GroundTruthList> truths;
  std::vector<DetectionList> detections;
  for (int frame = 0; frame < 40; ++frame) {
    GroundTruthList truth;
    DetectionList dets;
    int objects = 1 + static_cast<int>(rng.NextU32() % 4);
    for (int i = 0; i < objects; ++i) {
      GroundTruthBox gt;
      gt.box = Box{rng.NextDouble() * 500, rng.NextDouble() * 300, 60, 40};
      gt.class_id = static_cast<int>(rng.NextU32() % 5);
      truth.push_back(gt);
      Detection det;
      // Slightly jittered copy of the truth box with a varying score; some
      // scores tie on purpose to exercise stable-sort order preservation.
      det.box = Box{gt.box.x + rng.NextDouble() * 10, gt.box.y, 60, 40};
      det.class_id = gt.class_id;
      det.score = (rng.NextU32() % 8) / 8.0;
      dets.push_back(det);
    }
    truths.push_back(std::move(truth));
    detections.push_back(std::move(dets));
  }

  ApEvaluator sequential;
  for (size_t frame = 0; frame < truths.size(); ++frame) {
    sequential.AddFrame(truths[frame], detections[frame]);
  }

  // Split the frames into three "videos", evaluate each independently, merge.
  ApEvaluator merged;
  for (size_t begin : {size_t{0}, size_t{13}, size_t{27}}) {
    size_t end = begin == 0 ? 13 : (begin == 13 ? 27 : truths.size());
    ApEvaluator per_video;
    for (size_t frame = begin; frame < end; ++frame) {
      per_video.AddFrame(truths[frame], detections[frame]);
    }
    merged.Merge(per_video);
  }

  EXPECT_EQ(merged.frame_count(), sequential.frame_count());
  ASSERT_EQ(merged.GroundTruthClasses(), sequential.GroundTruthClasses());
  for (int class_id : sequential.GroundTruthClasses()) {
    EXPECT_EQ(merged.AveragePrecision(class_id),
              sequential.AveragePrecision(class_id))
        << "class " << class_id;
  }
  EXPECT_EQ(merged.MeanAveragePrecision(), sequential.MeanAveragePrecision());
}

TEST(ParallelEvalTest, MergeIntoEmptyEvaluatorIsIdentity) {
  GroundTruthList truth;
  GroundTruthBox gt;
  gt.box = Box{10, 10, 50, 50};
  gt.class_id = 2;
  truth.push_back(gt);
  Detection det;
  det.box = gt.box;
  det.class_id = 2;
  det.score = 0.9;

  ApEvaluator source;
  source.AddFrame(truth, {det});
  ApEvaluator target;
  target.Merge(source);
  EXPECT_EQ(target.frame_count(), source.frame_count());
  EXPECT_EQ(target.MeanAveragePrecision(), source.MeanAveragePrecision());
}

}  // namespace
}  // namespace litereconfig
