// Deterministic synthetic video generation.
//
// A video is a set of objects with piecewise-smooth trajectories (waypoint velocity
// perturbations, border bouncing, scripted occlusion episodes, pairwise-overlap
// occlusion) over a frame sequence, plus global "activity phases" that modulate
// motion speed within the video so content characteristics change mid-stream — the
// condition under which an adaptive scheduler must reconfigure.
//
// All randomness derives from the video seed; generation is bit-reproducible.
#ifndef SRC_VIDEO_SYNTHETIC_VIDEO_H_
#define SRC_VIDEO_SYNTHETIC_VIDEO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/video/scene.h"
#include "src/vision/box.h"

namespace litereconfig {

// Instantaneous state of one object in one frame.
struct SceneObjectState {
  GroundTruthBox gt;
  // Velocity in pixels/frame.
  double vx = 0.0;
  double vy = 0.0;
  // Fraction of the object hidden (scripted episode or overlap), in [0, 1].
  double occlusion = 0.0;
  // Appearance: dominant color in [0, 1] and texture contrast in [0, 1].
  double r = 0.5;
  double g = 0.5;
  double b = 0.5;
  double texture = 0.5;

  double Speed() const;
};

// One frame's objects: a view into the owning video's scene buffer, valid while
// that video lives.
struct FrameTruth {
  std::span<const SceneObjectState> objects;

  // Ground truth for evaluation: objects that are not (almost) fully hidden.
  // Clears `out` and fills it, so a loop that reuses one list allocates only
  // when a frame shows more objects than any frame before it.
  void VisibleGroundTruth(GroundTruthList& out) const;
  GroundTruthList VisibleGroundTruth() const;
};

struct VideoSpec {
  uint64_t seed = 1;
  int width = 1280;
  int height = 720;
  int frame_count = 180;
  // Capture rate; sets the per-frame capture interval used when a frame drop
  // stalls the pipeline until the next capture.
  double fps = 30.0;
  SceneArchetype archetype = SceneArchetype::kSparse;
};

class SyntheticVideo {
 public:
  static SyntheticVideo Generate(const VideoSpec& spec);

  const VideoSpec& spec() const { return spec_; }
  int frame_count() const { return static_cast<int>(offsets_.size()) - 1; }
  FrameTruth frame(int t) const {
    const size_t i = static_cast<size_t>(t);
    return {std::span(states_).subspan(offsets_[i], offsets_[i + 1] - offsets_[i])};
  }
  // Speed multiplier of the activity phase active at frame t.
  double PhaseSpeedMultiplier(int t) const;

 private:
  VideoSpec spec_;
  // Every frame's object states, frame after frame: frame t owns
  // states_[offsets_[t], offsets_[t + 1]). Offsets, not views, so a copied or
  // moved video reads only its own buffer.
  std::vector<SceneObjectState> states_;
  std::vector<size_t> offsets_ = {0};
  // (start_frame, speed multiplier) pairs, sorted by start_frame.
  std::vector<std::pair<int, double>> phases_;
};

}  // namespace litereconfig

#endif  // SRC_VIDEO_SYNTHETIC_VIDEO_H_
