#include "src/video/synthetic_video.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"
#include "src/video/classes.h"

namespace litereconfig {

namespace {

constexpr int kMaxObjects = 12;
constexpr int kWaypointInterval = 24;

struct ObjectPlan {
  int class_id = 0;
  int64_t object_id = 0;
  double w = 0.0;
  double h = 0.0;
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
  double r = 0.5, g = 0.5, b = 0.5;
  double texture = 0.5;
};

}  // namespace

double SceneObjectState::Speed() const { return std::hypot(vx, vy); }

void FrameTruth::VisibleGroundTruth(GroundTruthList& out) const {
  out.clear();
  out.reserve(objects.size());
  for (const SceneObjectState& obj : objects) {
    if (obj.occlusion < 0.95 && !obj.gt.box.Empty()) {
      out.push_back(obj.gt);
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
  for (int i = 0; i < num_objects; ++i) {
    ObjectPlan plan;
    plan.object_id = static_cast<int64_t>(spec.seed % 100000) * 100 + i;
    plan.class_id = params.class_pool[rng.UniformInt(8)];
    const ClassPriors& priors = GetClassPriors(plan.class_id);
    plan.h = spec.height * priors.size_fraction * params.size_scale *
             rng.LogNormal(0.0, 0.25);
    plan.h = std::clamp(plan.h, 8.0, 0.9 * spec.height);
    plan.w = plan.h * priors.aspect_ratio * rng.LogNormal(0.0, 0.15);
    plan.w = std::clamp(plan.w, 8.0, 0.95 * spec.width);
    double speed = spec.width * priors.speed_fraction * params.speed_scale *
                   rng.LogNormal(0.0, 0.30);
    double theta = rng.Uniform(0.0, 2.0 * M_PI);
    plan.vx = speed * std::cos(theta);
    plan.vy = speed * std::sin(theta);
    plan.x = rng.Uniform(0.0, std::max(1.0, spec.width - plan.w));
    plan.y = rng.Uniform(0.0, std::max(1.0, spec.height - plan.h));
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
    plan.r = std::clamp(priors.r + rng.Normal(0.0, 0.06), 0.0, 1.0);
    plan.g = std::clamp(priors.g + rng.Normal(0.0, 0.06), 0.0, 1.0);
    plan.b = std::clamp(priors.b + rng.Normal(0.0, 0.06), 0.0, 1.0);
    plan.texture = rng.Uniform(0.2, 1.0);
    plans.push_back(plan);
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
  // reserve the scene buffer once.
  size_t total_states = 0;
  for (const ObjectPlan& plan : plans) {
    total_states += static_cast<size_t>(
        std::max(0, std::min(plan.exit_frame, spec.frame_count) - plan.enter_frame));
  }
  video.states_.reserve(total_states);
  video.offsets_.reserve(static_cast<size_t>(spec.frame_count) + 1);
  for (int t = 0; t < spec.frame_count; ++t) {
    double phase_mult = video.PhaseSpeedMultiplier(t);
    const size_t frame_begin = video.states_.size();
    for (size_t i = 0; i < plans.size(); ++i) {
      const ObjectPlan& plan = plans[i];
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
      if (xs[i] < 0.0 || xs[i] + plan.w > spec.width) {
        vxs[i] = -vxs[i];
        xs[i] = std::clamp(xs[i], 0.0, std::max(0.0, spec.width - plan.w));
      }
      if (ys[i] < 0.0 || ys[i] + plan.h > spec.height) {
        vys[i] = -vys[i];
        ys[i] = std::clamp(ys[i], 0.0, std::max(0.0, spec.height - plan.h));
      }

      SceneObjectState state;
      state.gt.box = Box{xs[i], ys[i], plan.w, plan.h};
      state.gt.class_id = plan.class_id;
      state.gt.object_id = plan.object_id;
      state.vx = step_vx;
      state.vy = step_vy;
      state.r = plan.r;
      state.g = plan.g;
      state.b = plan.b;
      state.texture = plan.texture;
      // Scripted occlusion: triangular ramp to the peak.
      if (plan.occl_start >= 0 && t >= plan.occl_start && t < plan.occl_end) {
        double mid = (plan.occl_start + plan.occl_end) / 2.0;
        double half = std::max(1.0, (plan.occl_end - plan.occl_start) / 2.0);
        double ramp = 1.0 - std::abs(t - mid) / half;
        state.occlusion = plan.occl_peak * std::clamp(ramp, 0.0, 1.0);
      }
      video.states_.push_back(state);
    }
    // Overlap-induced occlusion: a later-listed object passing over an earlier one
    // hides the fraction of the earlier object's area it covers. Only this
    // frame's states, just appended, take part.
    std::span<SceneObjectState> objects = std::span(video.states_).subspan(frame_begin);
    for (size_t a = 0; a < objects.size(); ++a) {
      for (size_t b = a + 1; b < objects.size(); ++b) {
        const Box& ba = objects[a].gt.box;
        const Box& bb = objects[b].gt.box;
        double ix0 = std::max(ba.x, bb.x);
        double iy0 = std::max(ba.y, bb.y);
        double ix1 = std::min(ba.x + ba.w, bb.x + bb.w);
        double iy1 = std::min(ba.y + ba.h, bb.y + bb.h);
        double inter = std::max(0.0, ix1 - ix0) * std::max(0.0, iy1 - iy0);
        if (inter > 0.0 && ba.Area() > 0.0) {
          double frac = inter / ba.Area();
          objects[a].occlusion =
              std::min(1.0, std::max(objects[a].occlusion, 0.85 * frac));
        }
      }
    }
    video.offsets_.push_back(video.states_.size());
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
