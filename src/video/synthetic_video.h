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

// What one object keeps for its whole video: identity, size and appearance.
struct SceneObject {
  int class_id = 0;
  int64_t object_id = -1;
  double w = 0.0;
  double h = 0.0;
  // Appearance: dominant color in [0, 1] and texture contrast in [0, 1].
  double r = 0.5;
  double g = 0.5;
  double b = 0.5;
  double texture = 0.5;
};

// What one on-screen object has in one frame: where it is and how it moves.
struct ObjectPose {
  // Top-left corner of the ground-truth box, in pixels.
  double x = 0.0;
  double y = 0.0;
  // Velocity in pixels/frame.
  double vx = 0.0;
  double vy = 0.0;
  // Fraction of the object hidden (scripted episode or overlap), in [0, 1].
  double occlusion = 0.0;
  // Index of the object's SceneObject in its video.
  uint32_t object = 0;

  double Speed() const;
};

// The scene store's per-frame unit: one pose per on-screen object per frame.
static_assert(sizeof(ObjectPose) == 48, "a pose holds only what moves");

// Instantaneous state of one object in one frame: a pose joined with its
// object's constants.
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

// The state of `object` at `pose`.
inline SceneObjectState JoinState(const ObjectPose& pose, const SceneObject& object) {
  SceneObjectState state;
  state.gt = {Box{pose.x, pose.y, object.w, object.h}, object.class_id, object.object_id};
  state.vx = pose.vx;
  state.vy = pose.vy;
  state.occlusion = pose.occlusion;
  state.r = object.r;
  state.g = object.g;
  state.b = object.b;
  state.texture = object.texture;
  return state;
}

// One frame's objects: a read-only view over the frame's poses and the video's
// objects, valid (with its iterators and the references it returns) while that
// video lives. Indexing and iteration join each SceneObjectState by value;
// per-frame loops that read a few fields use pose(k), object(k) and box(k),
// which join nothing.
class FrameObjects {
 public:
  class Iterator {
   public:
    SceneObjectState operator*() const {
      return JoinState(*pose_, objects_[pose_->object]);
    }
    Iterator& operator++() {
      ++pose_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return pose_ == other.pose_; }

   private:
    friend class FrameObjects;
    Iterator(const ObjectPose* pose, const SceneObject* objects)
        : pose_(pose), objects_(objects) {}

    const ObjectPose* pose_;
    const SceneObject* objects_;
  };

  FrameObjects() = default;
  // `poses` index into `objects`.
  FrameObjects(std::span<const ObjectPose> poses, std::span<const SceneObject> objects)
      : poses_(poses), objects_(objects) {}

  size_t size() const { return poses_.size(); }
  bool empty() const { return poses_.empty(); }
  SceneObjectState operator[](size_t k) const { return JoinState(pose(k), object(k)); }
  Iterator begin() const { return {poses_.data(), objects_.data()}; }
  Iterator end() const { return {poses_.data() + poses_.size(), objects_.data()}; }

  const ObjectPose& pose(size_t k) const { return poses_[k]; }
  const SceneObject& object(size_t k) const { return objects_[poses_[k].object]; }
  // The ground-truth box of object k, the same value as (*this)[k].gt.box.
  Box box(size_t k) const {
    const ObjectPose& p = pose(k);
    const SceneObject& o = object(k);
    return Box{p.x, p.y, o.w, o.h};
  }

 private:
  std::span<const ObjectPose> poses_;
  std::span<const SceneObject> objects_;
};

struct FrameTruth {
  FrameObjects objects;

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
    return {FrameObjects(
        std::span(poses_).subspan(offsets_[i], offsets_[i + 1] - offsets_[i]),
        objects_)};
  }
  // Every object of the video, on screen or not, in pose-index order.
  std::span<const SceneObject> objects() const { return objects_; }
  // On-screen objects summed over all frames.
  size_t pose_count() const { return poses_.size(); }
  // Speed multiplier of the activity phase active at frame t.
  double PhaseSpeedMultiplier(int t) const;

 private:
  VideoSpec spec_;
  // Each object's constants, once.
  std::vector<SceneObject> objects_;
  // Every frame's poses, frame after frame: frame t owns
  // poses_[offsets_[t], offsets_[t + 1]). Offsets, not views, so a copied or
  // moved video reads only its own buffers.
  std::vector<ObjectPose> poses_;
  std::vector<size_t> offsets_ = {0};
  // (start_frame, speed multiplier) pairs, sorted by start_frame.
  std::vector<std::pair<int, double>> phases_;
};

}  // namespace litereconfig

#endif  // SRC_VIDEO_SYNTHETIC_VIDEO_H_
