#include "src/mbek/kernel.h"

#include <algorithm>

#include "src/vision/metrics.h"

namespace litereconfig {

namespace {

// CPU-only branches always run the YOLO-LITE-style profile — the caller's
// quality override describes a GPU family and does not apply to them.
DetectorQuality EffectiveQuality(const Branch& branch,
                                 const DetectorQuality& quality) {
  return branch.detector.cpu ? CpuDetectorQuality() : quality;
}

}  // namespace

DetectionList ExecutionKernel::DetectAnchor(const SyntheticVideo& video, int start,
                                            const Branch& branch,
                                            uint64_t run_salt,
                                            const DetectorQuality& quality) {
  if (start >= video.frame_count()) {
    return {};
  }
  return DetectorSim::Detect(video, start, branch.detector,
                             EffectiveQuality(branch, quality), run_salt);
}

int ExecutionKernel::TrackRemainderInto(const SyntheticVideo& video, int start,
                                        const Branch& branch,
                                        const DetectionList& anchor_detections,
                                        uint64_t run_salt, TrackBatch& scratch,
                                        DetectionList* out_frames,
                                        const DetectorQuality& quality) {
  int remaining = video.frame_count() - start;
  int length = std::min(branch.gof, remaining);
  if (length <= 1) {
    return 0;
  }
  if (branch.has_tracker) {
    // Only confident detections are handed to the tracker — the same policy the
    // latency accounting charges for.
    scratch.Reset(anchor_detections, kConfidentScoreThreshold);
    for (int t = start + 1; t < start + length; ++t) {
      TrackerSim::StepInto(video, t, branch.tracker, scratch, run_salt,
                           out_frames[t - start - 1]);
    }
  } else {
    // A detector-only branch with gof > 1 would re-detect each frame; in the
    // curated space detector-only branches have gof == 1, but handle it anyway.
    for (int t = start + 1; t < start + length; ++t) {
      out_frames[t - start - 1] = DetectorSim::Detect(
          video, t, branch.detector, EffectiveQuality(branch, quality), run_salt);
    }
  }
  return length - 1;
}

std::vector<DetectionList> ExecutionKernel::TrackRemainder(
    const SyntheticVideo& video, int start, const Branch& branch,
    const DetectionList& anchor_detections, uint64_t run_salt,
    const DetectorQuality& quality) {
  std::vector<DetectionList> frames;
  int remaining = video.frame_count() - start;
  int length = std::min(branch.gof, remaining);
  if (length <= 1) {
    return frames;
  }
  frames.resize(static_cast<size_t>(length - 1));
  TrackBatch scratch;
  TrackRemainderInto(video, start, branch, anchor_detections, run_salt, scratch,
                     frames.data(), quality);
  return frames;
}

GofResult ExecutionKernel::RunGof(const SyntheticVideo& video, int start,
                                  const Branch& branch, uint64_t run_salt,
                                  const DetectorQuality& quality) {
  GofResult result;
  int remaining = video.frame_count() - start;
  int length = std::min(branch.gof, remaining);
  if (length <= 0) {
    return result;
  }
  result.anchor_detections = DetectAnchor(video, start, branch, run_salt, quality);
  result.frames.reserve(static_cast<size_t>(length));
  result.frames.push_back(result.anchor_detections);
  std::vector<DetectionList> rest =
      TrackRemainder(video, start, branch, result.anchor_detections, run_salt, quality);
  for (DetectionList& dets : rest) {
    result.frames.push_back(std::move(dets));
  }
  return result;
}

int ExecutionKernel::TrackOnlyInto(const SyntheticVideo& video, int start,
                                   int length, const TrackerConfig& tracker,
                                   const DetectionList& init_detections,
                                   uint64_t run_salt, TrackBatch& scratch,
                                   DetectionList* out_frames) {
  int end = std::min(video.frame_count(), start + length);
  if (end <= start) {
    return 0;
  }
  scratch.Reset(init_detections, kConfidentScoreThreshold);
  for (int t = start; t < end; ++t) {
    TrackerSim::StepInto(video, t, tracker, scratch, run_salt,
                         out_frames[t - start]);
  }
  return end - start;
}

double ExecutionKernel::SnippetAccuracy(const SyntheticVideo& video, int start,
                                        int length, const Branch& branch,
                                        uint64_t run_salt,
                                        const DetectorQuality& quality) {
  ApEvaluator eval;
  GroundTruthList truth;
  int end = std::min(video.frame_count(), start + length);
  int t = start;
  while (t < end) {
    GofResult gof = RunGof(video, t, branch, run_salt, quality);
    if (gof.frames.empty()) {
      break;
    }
    for (size_t i = 0; i < gof.frames.size() && t + static_cast<int>(i) < end; ++i) {
      int frame_idx = t + static_cast<int>(i);
      video.frame(frame_idx).VisibleGroundTruth(truth);
      eval.AddFrame(truth, gof.frames[i]);
    }
    t += static_cast<int>(gof.frames.size());
  }
  return eval.MeanAveragePrecision();
}

}  // namespace litereconfig
