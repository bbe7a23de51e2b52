#include "src/cls/kernel.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"
#include "src/video/classes.h"
#include "src/video/scene.h"

namespace litereconfig {

namespace {

constexpr int kClsShapes[] = {112, 168, 224};
constexpr int kClsFrames[] = {1, 2, 4, 8};
constexpr int kClsDepths[] = {0, 1, 2};

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Per-depth discriminative power (deeper models resolve harder content).
constexpr double kDepthMidpointPx[] = {26.0, 18.0, 13.0};
constexpr double kDepthCeiling[] = {0.80, 0.90, 0.96};

}  // namespace

ClsBranchSpace::ClsBranchSpace() {
  for (int shape : kClsShapes) {
    for (int frames : kClsFrames) {
      for (int depth : kClsDepths) {
        branches_.push_back({shape, frames, depth});
      }
    }
  }
}

const ClsBranchSpace& ClsBranchSpace::Default() {
  static const ClsBranchSpace* space = new ClsBranchSpace();
  return *space;
}

double ClassifierSim::CorrectProbability(const SyntheticVideo& video, int start,
                                         const ClsBranch& branch) {
  const VideoSpec& spec = video.spec();
  int end = std::min(video.frame_count(), start + kClsWindowFrames);
  // Dominant object statistics over the window.
  double size_sum = 0.0;
  double speed_sum = 0.0;
  double occl_sum = 0.0;
  int samples = 0;
  for (int t = start; t < end; ++t) {
    for (const SceneObjectState& obj : video.frame(t).objects) {
      size_sum += obj.gt.box.h;
      speed_sum += obj.Speed();
      occl_sum += obj.occlusion;
      ++samples;
    }
  }
  if (samples == 0) {
    return 0.0;
  }
  double scale = static_cast<double>(branch.shape) / spec.height;
  double apparent_h = size_sum / samples * scale;
  double speed = speed_sum / samples;
  double occlusion = occl_sum / samples;
  double clutter = GetArchetypeParams(spec.archetype).clutter;

  // Apparent-size discriminability at this depth.
  double size_factor = Sigmoid(
      (apparent_h - kDepthMidpointPx[static_cast<size_t>(branch.depth)]) / 7.0);
  // Temporal coverage: fast content needs more sampled frames to pin the label
  // (single-frame classification of a motion-blurred window is unreliable).
  double needed = 1.0 + speed / 5.0;
  double temporal_factor =
      1.0 - std::exp(-static_cast<double>(branch.frames) / needed);
  double occl_factor = std::max(0.0, 1.0 - 0.8 * occlusion);
  // Clutter punishes shallow networks far more than deep ones: the
  // content-dependent crossover between "spend the budget on frames" (fast
  // scenes) and "spend it on depth" (cluttered scenes).
  double clutter_factor =
      1.0 - (0.55 - 0.2 * static_cast<double>(branch.depth)) * clutter;
  double p = kDepthCeiling[static_cast<size_t>(branch.depth)] * size_factor *
             temporal_factor * occl_factor * clutter_factor;
  return std::clamp(p, 0.0, 1.0);
}

int ClassifierSim::Classify(const SyntheticVideo& video, int start,
                            const ClsBranch& branch, uint64_t run_salt) {
  int label = ClipLabel(video, start);
  if (label < 0) {
    return -1;
  }
  Pcg32 rng(HashKeys({video.spec().seed, static_cast<uint64_t>(start),
                      static_cast<uint64_t>(branch.shape),
                      static_cast<uint64_t>(branch.frames),
                      static_cast<uint64_t>(branch.depth), run_salt, 0xc1a55ull}));
  if (rng.Bernoulli(CorrectProbability(video, start, branch))) {
    return label;
  }
  // Confusion: with another class in the scene when possible, else random.
  std::vector<int> others;
  int end = std::min(video.frame_count(), start + kClsWindowFrames);
  for (int t = start; t < end; ++t) {
    for (const SceneObjectState& obj : video.frame(t).objects) {
      if (obj.gt.class_id != label) {
        others.push_back(obj.gt.class_id);
      }
    }
  }
  if (!others.empty() && rng.Bernoulli(0.6)) {
    return others[rng.UniformInt(static_cast<uint32_t>(others.size()))];
  }
  return static_cast<int>(rng.UniformInt(kNumClasses));
}

double ClsBranchTx2Ms(const ClsBranch& branch) {
  // Per-window cost: depth-dependent base x resolution x sampled frames, plus
  // a fixed dispatch overhead. The deep variant at full rate lands near the
  // detector's mid-range; the shallow single-frame variant is ~4 ms.
  constexpr double kDepthBaseMs[] = {3.2, 7.5, 19.0};
  double per_frame = kDepthBaseMs[static_cast<size_t>(branch.depth)] *
                     std::pow(branch.shape / 224.0, 1.8);
  return 1.5 + per_frame * branch.frames;
}

}  // namespace litereconfig
