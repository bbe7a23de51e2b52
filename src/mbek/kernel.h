// Execution of one branch over Groups-of-Frames, and snippet-level accuracy
// evaluation (the training label generator for the content-aware accuracy model).
#ifndef SRC_MBEK_KERNEL_H_
#define SRC_MBEK_KERNEL_H_

#include <cstdint>
#include <vector>

#include "src/mbek/branch.h"
#include "src/track/tracker.h"
#include "src/video/synthetic_video.h"
#include "src/vision/box.h"

namespace litereconfig {

struct GofResult {
  // Per-frame outputs for frames [start, start + frames.size()).
  std::vector<DetectionList> frames;
  // The detector's output on the anchor (first) frame; the source of the
  // ResNet50/CPoP features and of the light features' object statistics.
  DetectionList anchor_detections;
};

class ExecutionKernel {
 public:
  // Runs `branch` starting at frame `start`, for min(branch.gof, frames left)
  // frames. The detector runs on the anchor; the tracker (if any) on the rest.
  // `quality` selects the detector family (default: the MBEK's Faster R-CNN).
  // Composed from DetectAnchor + TrackRemainder below.
  static GofResult RunGof(const SyntheticVideo& video, int start, const Branch& branch,
                          uint64_t run_salt = 0,
                          const DetectorQuality& quality = {});

  // The anchor half of RunGof: the detector on frame `start` alone. Returns an
  // empty list when no frames remain.
  static DetectionList DetectAnchor(const SyntheticVideo& video, int start,
                                    const Branch& branch, uint64_t run_salt = 0,
                                    const DetectorQuality& quality = {});

  // The remainder half of RunGof: the per-frame outputs for frames
  // (start, start + min(branch.gof, frames left)) — i.e. everything after the
  // anchor — given the anchor's detections. A pure function of its arguments.
  static std::vector<DetectionList> TrackRemainder(
      const SyntheticVideo& video, int start, const Branch& branch,
      const DetectionList& anchor_detections, uint64_t run_salt = 0,
      const DetectorQuality& quality = {});

  // Arena form of TrackRemainder: writes frame start+1+i's outputs into
  // out_frames[i] (each slot cleared and reserved to the track count) and
  // returns the number of frames written. `scratch` is the GoF's SoA track
  // arena — Reset() reuses its column capacity, so a steady-state GoF costs
  // zero track-state allocations and each output lands once, directly in its
  // final slot (no per-frame std::vector<DetectionList> churn). Bit-identical
  // to TrackRemainder (pinned by KernelTest): the same confident-filter
  // policy, the same keyed per-track substreams, the same arithmetic.
  static int TrackRemainderInto(const SyntheticVideo& video, int start,
                                const Branch& branch,
                                const DetectionList& anchor_detections,
                                uint64_t run_salt, TrackBatch& scratch,
                                DetectionList* out_frames,
                                const DetectorQuality& quality = {});

  // Mean average precision of running the branch in steady state over the
  // snippet [start, start + length): consecutive GoFs, evaluated against the
  // visible ground truth. This is the per-(snippet, branch) accuracy label.
  static double SnippetAccuracy(const SyntheticVideo& video, int start, int length,
                                const Branch& branch, uint64_t run_salt = 0,
                                const DetectorQuality& quality = {});

  // Tail continuation: extends tracking over frames [start, start + length)
  // from the given detections (typically the previous GoF's last outputs)
  // WITHOUT running the detector. Used when too few frames remain in the
  // stream to amortize another detector invocation.
  static std::vector<DetectionList> TrackOnly(const SyntheticVideo& video, int start,
                                              int length,
                                              const TrackerConfig& tracker,
                                              const DetectionList& init_detections,
                                              uint64_t run_salt = 0);

  // Arena form of TrackOnly: writes frame start+i's outputs into out_frames[i]
  // and returns the number of frames written (min(length, frames left); 0 when
  // nothing remains). Same arena/identity contract as TrackRemainderInto.
  static int TrackOnlyInto(const SyntheticVideo& video, int start, int length,
                           const TrackerConfig& tracker,
                           const DetectionList& init_detections,
                           uint64_t run_salt, TrackBatch& scratch,
                           DetectionList* out_frames);
};

}  // namespace litereconfig

#endif  // SRC_MBEK_KERNEL_H_
