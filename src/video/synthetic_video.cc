#include "src/video/synthetic_video.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"
#include "src/video/classes.h"

namespace litereconfig {

namespace {

constexpr int kMaxObjects = 12;
constexpr int kWaypointInterval = 24;

// How one object moves; its constants go to the video's SceneObject list.
struct ObjectPlan {
  double x = 0.0;  // top-left at entry
  double y = 0.0;
  double vx = 0.0;
  double vy = 0.0;
  int enter_frame = 0;
  int exit_frame = 0;
  // Scripted occlusion episode; peak reached at the midpoint.
  int occl_start = -1;
  int occl_end = -1;
  double occl_peak = 0.0;
};

}  // namespace

double ObjectPose::Speed() const { return std::hypot(vx, vy); }

double SceneObjectState::Speed() const { return std::hypot(vx, vy); }

void FrameTruth::VisibleGroundTruth(GroundTruthList& out) const {
  out.clear();
  out.reserve(objects.size());
  for (size_t k = 0; k < objects.size(); ++k) {
    const Box box = objects.box(k);
    if (objects.pose(k).occlusion < 0.95 && !box.Empty()) {
      const SceneObject& object = objects.object(k);
      out.push_back({box, object.class_id, object.object_id});
    }
  }
}

GroundTruthList FrameTruth::VisibleGroundTruth() const {
  GroundTruthList out;
  VisibleGroundTruth(out);
  return out;
}

SyntheticVideo SyntheticVideo::Generate(const VideoSpec& spec) {
  SyntheticVideo video;
  video.spec_ = spec;
  const ArchetypeParams& params = GetArchetypeParams(spec.archetype);
  Pcg32 rng(HashKeys({spec.seed, 0x5ce9e0ull}));

  // Activity phases: 1-4 segments with distinct global speed multipliers.
  int num_phases = 1 + static_cast<int>(rng.UniformInt(4));
  int phase_len = std::max(1, spec.frame_count / num_phases);
  for (int p = 0; p < num_phases; ++p) {
    double mult = rng.Uniform(0.4, 2.2);
    video.phases_.emplace_back(p * phase_len, mult);
  }

  int num_objects =
      std::clamp(1 + rng.Poisson(params.object_count_mean), 1, kMaxObjects);
  std::vector<ObjectPlan> plans;
  plans.reserve(static_cast<size_t>(num_objects));
  video.objects_.reserve(static_cast<size_t>(num_objects));
  for (int i = 0; i < num_objects; ++i) {
    ObjectPlan plan;
    SceneObject object;
    object.object_id = static_cast<int64_t>(spec.seed % 100000) * 100 + i;
    object.class_id = params.class_pool[rng.UniformInt(8)];
    const ClassPriors& priors = GetClassPriors(object.class_id);
    object.h = spec.height * priors.size_fraction * params.size_scale *
               rng.LogNormal(0.0, 0.25);
    object.h = std::clamp(object.h, 8.0, 0.9 * spec.height);
    object.w = object.h * priors.aspect_ratio * rng.LogNormal(0.0, 0.15);
    object.w = std::clamp(object.w, 8.0, 0.95 * spec.width);
    double speed = spec.width * priors.speed_fraction * params.speed_scale *
                   rng.LogNormal(0.0, 0.30);
    double theta = rng.Uniform(0.0, 2.0 * M_PI);
    plan.vx = speed * std::cos(theta);
    plan.vy = speed * std::sin(theta);
    plan.x = rng.Uniform(0.0, std::max(1.0, spec.width - object.w));
    plan.y = rng.Uniform(0.0, std::max(1.0, spec.height - object.h));
    plan.enter_frame =
        rng.Bernoulli(0.2) ? static_cast<int>(rng.UniformInt(
                                 static_cast<uint32_t>(spec.frame_count / 2 + 1)))
                           : 0;
    plan.exit_frame =
        rng.Bernoulli(0.2)
            ? plan.enter_frame +
                  static_cast<int>(rng.UniformInt(static_cast<uint32_t>(
                      std::max(1, spec.frame_count - plan.enter_frame))))
            : spec.frame_count;
    plan.exit_frame = std::max(plan.exit_frame, plan.enter_frame + 8);
    if (rng.Bernoulli(params.occlusion_rate)) {
      int span = plan.exit_frame - plan.enter_frame;
      int len = std::max(4, span / 4);
      plan.occl_start = plan.enter_frame +
                        static_cast<int>(rng.UniformInt(
                            static_cast<uint32_t>(std::max(1, span - len))));
      plan.occl_end = plan.occl_start + len;
      plan.occl_peak = rng.Uniform(0.6, 0.95);
    }
    object.r = std::clamp(priors.r + rng.Normal(0.0, 0.06), 0.0, 1.0);
    object.g = std::clamp(priors.g + rng.Normal(0.0, 0.06), 0.0, 1.0);
    object.b = std::clamp(priors.b + rng.Normal(0.0, 0.06), 0.0, 1.0);
    object.texture = rng.Uniform(0.2, 1.0);
    plans.push_back(plan);
    video.objects_.push_back(object);
  }

  // Integrate trajectories frame by frame.
  std::vector<double> xs(plans.size()), ys(plans.size());
  std::vector<double> vxs(plans.size()), vys(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    xs[i] = plans[i].x;
    ys[i] = plans[i].y;
    vxs[i] = plans[i].vx;
    vys[i] = plans[i].vy;
  }
  // Each plan is on screen over [enter_frame, min(exit_frame, frame_count)):
  // reserve the pose buffer once.
  size_t total_poses = 0;
  for (const ObjectPlan& plan : plans) {
    total_poses += static_cast<size_t>(
        std::max(0, std::min(plan.exit_frame, spec.frame_count) - plan.enter_frame));
  }
  video.poses_.reserve(total_poses);
  video.offsets_.reserve(static_cast<size_t>(spec.frame_count) + 1);
  for (int t = 0; t < spec.frame_count; ++t) {
    double phase_mult = video.PhaseSpeedMultiplier(t);
    const size_t frame_begin = video.poses_.size();
    for (size_t i = 0; i < plans.size(); ++i) {
      const ObjectPlan& plan = plans[i];
      const SceneObject& object = video.objects_[i];
      if (t < plan.enter_frame || t >= plan.exit_frame) {
        continue;
      }
      // Waypoint perturbation of the velocity direction/magnitude.
      if (t > plan.enter_frame && (t - plan.enter_frame) % kWaypointInterval == 0) {
        Pcg32 wp(HashKeys({spec.seed, static_cast<uint64_t>(i) + 1,
                           static_cast<uint64_t>(t), 0x3a9f1ull}));
        double turn = wp.Normal(0.0, 0.5);
        double jitter = wp.LogNormal(0.0, 0.15);
        double c = std::cos(turn);
        double s = std::sin(turn);
        double nvx = (vxs[i] * c - vys[i] * s) * jitter;
        double nvy = (vxs[i] * s + vys[i] * c) * jitter;
        vxs[i] = nvx;
        vys[i] = nvy;
      }
      // Advance with border bounce.
      double step_vx = vxs[i] * phase_mult;
      double step_vy = vys[i] * phase_mult;
      xs[i] += step_vx;
      ys[i] += step_vy;
      if (xs[i] < 0.0 || xs[i] + object.w > spec.width) {
        vxs[i] = -vxs[i];
        xs[i] = std::clamp(xs[i], 0.0, std::max(0.0, spec.width - object.w));
      }
      if (ys[i] < 0.0 || ys[i] + object.h > spec.height) {
        vys[i] = -vys[i];
        ys[i] = std::clamp(ys[i], 0.0, std::max(0.0, spec.height - object.h));
      }

      ObjectPose pose;
      pose.x = xs[i];
      pose.y = ys[i];
      pose.vx = step_vx;
      pose.vy = step_vy;
      pose.object = static_cast<uint32_t>(i);
      // Scripted occlusion: triangular ramp to the peak.
      if (plan.occl_start >= 0 && t >= plan.occl_start && t < plan.occl_end) {
        double mid = (plan.occl_start + plan.occl_end) / 2.0;
        double half = std::max(1.0, (plan.occl_end - plan.occl_start) / 2.0);
        double ramp = 1.0 - std::abs(t - mid) / half;
        pose.occlusion = plan.occl_peak * std::clamp(ramp, 0.0, 1.0);
      }
      video.poses_.push_back(pose);
    }
    // Overlap-induced occlusion: a later-listed object passing over an earlier one
    // hides the fraction of the earlier object's area it covers. Only this
    // frame's poses, just appended, take part.
    std::span<ObjectPose> poses = std::span(video.poses_).subspan(frame_begin);
    const FrameObjects objects(poses, video.objects_);
    for (size_t a = 0; a < poses.size(); ++a) {
      const Box ba = objects.box(a);
      for (size_t b = a + 1; b < poses.size(); ++b) {
        const Box bb = objects.box(b);
        double ix0 = std::max(ba.x, bb.x);
        double iy0 = std::max(ba.y, bb.y);
        double ix1 = std::min(ba.x + ba.w, bb.x + bb.w);
        double iy1 = std::min(ba.y + ba.h, bb.y + bb.h);
        double inter = std::max(0.0, ix1 - ix0) * std::max(0.0, iy1 - iy0);
        if (inter > 0.0 && ba.Area() > 0.0) {
          double frac = inter / ba.Area();
          poses[a].occlusion =
              std::min(1.0, std::max(poses[a].occlusion, 0.85 * frac));
        }
      }
    }
    video.offsets_.push_back(video.poses_.size());
  }
  return video;
}

double SyntheticVideo::PhaseSpeedMultiplier(int t) const {
  double mult = 1.0;
  for (const auto& [start, m] : phases_) {
    if (t >= start) {
      mult = m;
    }
  }
  return mult;
}

}  // namespace litereconfig
