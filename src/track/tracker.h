// Visual tracker models for tracking-by-detection.
//
// The MBEK pairs the detector with one of four trackers (paper Section 4):
// MedianFlow, KCF, CSRT, and dense optical flow, each trading robustness for
// speed, plus a frame-downsampling knob (ds) that makes any tracker faster and
// less precise. A track is simulated as the ground-truth trajectory corrupted by
// an error state that random-walks over time: positional drift grows with object
// speed, the downsampling ratio, and the tracker's drift coefficient, and the
// track can be lost outright (box freezes) with a per-frame hazard that grows
// with speed, downsampling, and occlusion.
#ifndef SRC_TRACK_TRACKER_H_
#define SRC_TRACK_TRACKER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/video/synthetic_video.h"
#include "src/vision/box.h"

namespace litereconfig {

enum class TrackerType {
  kMedianFlow = 0,  // cheap, fragile on fast motion
  kKcf = 1,         // mid cost, mid robustness
  kCsrt = 2,        // expensive, robust
  kOpticalFlow = 3, // dense flow: robust to crowding, costly on CPU
  kCount,
};

inline constexpr int kNumTrackerTypes = static_cast<int>(TrackerType::kCount);

std::string_view TrackerName(TrackerType type);

struct TrackerConfig {
  TrackerType type = TrackerType::kMedianFlow;
  int downsample = 4;  // frame downsampling ratio fed to the tracker

  bool operator==(const TrackerConfig&) const = default;
};

// Per-tracker behaviour coefficients (also consumed by the latency model).
struct TrackerTraits {
  // Positional drift (px of error growth per frame per unit apparent speed).
  double drift = 0.1;
  // Baseline per-frame probability of losing a slow, unoccluded target.
  double loss_hazard = 0.01;
  // Robustness to occlusion in [0, 1]; 1 means occlusion barely matters.
  double occlusion_robustness = 0.5;
  // Relative compute cost (1.0 = MedianFlow at ds=1).
  double cost_factor = 1.0;
};

const TrackerTraits& GetTrackerTraits(TrackerType type);

// The tracked objects of one GoF, one column per field, all columns resized
// together. A batch is the arena for one GoF's tracker half: Reset() reuses
// the column capacity, so in steady state a GoF costs zero track-state
// allocations.
struct TrackBatch {
  std::vector<int64_t> object_id;  // -1 when tracking a false positive
  std::vector<int> class_id;
  std::vector<double> score;
  // Accumulated positional error (px, original frame coordinates).
  std::vector<double> offset_x;
  std::vector<double> offset_y;
  // Multiplicative scale error.
  std::vector<double> scale_error;
  std::vector<uint8_t> lost;
  // Last emitted box (used verbatim once the track is lost).
  std::vector<Box> last_box;

  size_t size() const { return object_id.size(); }

  // Re-initializes the batch from the detections with score >= min_score (the
  // confident-filter policy the execution kernel applies to anchor outputs),
  // in detection order. Detections whose object_id is -1 (false positives)
  // are tracked as static boxes. Keeps column capacity.
  void Reset(const DetectionList& detections, double min_score);
};

class TrackerSim {
 public:
  // Advances every track of the batch to frame t of the video and writes that
  // frame's outputs into `out` (cleared and reserved; the caller owns
  // placement, so GoF loops can write each frame straight into its final
  // slot). Each track draws from its own substream, keyed by (video seed, t,
  // object, tracker, ds, run_salt) rather than by order; run_salt
  // distinguishes independent online runs.
  static void StepInto(const SyntheticVideo& video, int t,
                       const TrackerConfig& config, TrackBatch& batch,
                       uint64_t run_salt, DetectionList& out);
};

}  // namespace litereconfig

#endif  // SRC_TRACK_TRACKER_H_
