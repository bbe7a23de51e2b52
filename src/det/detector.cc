#include "src/det/detector.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"
#include "src/video/classes.h"
#include "src/video/latent.h"
#include "src/video/scene.h"

namespace litereconfig {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Apparent-size detectability.
double SizeFactor(double apparent_height, const DetectorQuality& q) {
  return Sigmoid((apparent_height - q.size_midpoint) / q.size_slope);
}

// Motion blur: attenuates with apparent speed (pixels per frame at input shape).
double MotionFactor(double apparent_speed, const DetectorQuality& q) {
  return 1.0 / (1.0 + std::pow(apparent_speed / q.motion_half_speed, 2.0));
}

double OcclusionFactor(double occlusion) {
  return std::max(0.0, 1.0 - std::pow(occlusion, 1.5));
}

// Proposal coverage: objects are ranked by salience; low-ranked objects (or any
// object in clutter) need more proposals to be covered.
double CoverageFactor(int nprop, int salience_rank, double clutter,
                      const DetectorQuality& q) {
  double effective_rank =
      (static_cast<double>(salience_rank + 1) + clutter * 6.0) * q.coverage_scale;
  return 1.0 - std::exp(-static_cast<double>(nprop) / (1.2 * effective_rank));
}

}  // namespace

DetectorQuality CpuDetectorQuality() {
  DetectorQuality quality;
  quality.family_salt = 0xc9a5;
  // Strictly weaker than the Faster R-CNN defaults on every axis, but a fresh
  // CPU anchor must still beat a GoF-long tracker extrapolation from a stale
  // GPU anchor — that margin is what makes scheduled CPU detection worth
  // choosing over coasting during a denial window.
  quality.size_midpoint = 19.0;
  quality.motion_half_speed = 50.0;
  quality.fp_scale = 1.15;
  quality.loc_noise_scale = 1.2;
  quality.class_accuracy = 0.87;
  return quality;
}

double DetectorSim::DetectionProbability(const SyntheticVideo& video,
                                         const SceneObjectState& object,
                                         const DetectorConfig& config,
                                         const DetectorQuality& quality,
                                         int salience_rank) {
  const VideoSpec& spec = video.spec();
  double scale = static_cast<double>(config.shape) / spec.height;
  double apparent_h = object.gt.box.h * scale;
  // Motion blur lives in the captured frame; downsampling attenuates it (the
  // AdaScale effect), but resizing ABOVE the native resolution cannot add blur.
  double apparent_speed = object.Speed() * std::min(1.0, scale);
  double clutter = GetArchetypeParams(spec.archetype).clutter;
  double p = SizeFactor(apparent_h, quality) * MotionFactor(apparent_speed, quality) *
             OcclusionFactor(object.occlusion) *
             CoverageFactor(config.nprop, salience_rank, clutter, quality);
  return std::clamp(p, 0.0, 1.0);
}

DetectionList DetectorSim::Detect(const SyntheticVideo& video, int t,
                                  const DetectorConfig& config,
                                  const DetectorQuality& quality, uint64_t run_salt) {
  const VideoSpec& spec = video.spec();
  const FrameObjects objects = video.frame(t).objects;
  double scale = static_cast<double>(config.shape) / spec.height;
  double clutter = GetArchetypeParams(spec.archetype).clutter;
  Pcg32 rng(HashKeys({spec.seed, static_cast<uint64_t>(t),
                      static_cast<uint64_t>(config.shape),
                      static_cast<uint64_t>(config.nprop), quality.family_salt,
                      run_salt, 0xde7ull}));

  // Salience ranking: larger, higher-contrast, less-occluded objects come first.
  // Each object's key is computed once, before the stable sort.
  struct Ranked {
    double salience;
    size_t k;
  };
  std::vector<Ranked> order(objects.size());
  for (size_t k = 0; k < objects.size(); ++k) {
    order[k] = {objects.box(k).Area() * (1.0 - objects.pose(k).occlusion) *
                    (0.5 + objects.object(k).texture),
                k};
  }
  std::stable_sort(order.begin(), order.end(), [](const Ranked& a, const Ranked& b) {
    return a.salience > b.salience;
  });

  DetectionList detections;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const SceneObjectState obj = objects[order[rank].k];
    double p =
        DetectionProbability(video, obj, config, quality, static_cast<int>(rank));
    if (!rng.Bernoulli(p)) {
      continue;
    }
    // Localization noise: finer shapes localize better; fast objects smear.
    double res_penalty = std::pow(576.0 / config.shape, 0.7);
    double speed_term = 1.0 + obj.Speed() / 50.0;
    double center_sigma = (1.5 + 0.03 * obj.gt.box.h) * res_penalty * speed_term /
                          3.0 * quality.loc_noise_scale;
    double size_sigma = 0.06 * std::sqrt(res_penalty) * quality.loc_noise_scale;
    Detection det;
    double w = obj.gt.box.w * rng.LogNormal(0.0, size_sigma);
    double h = obj.gt.box.h * rng.LogNormal(0.0, size_sigma);
    det.box = Box::FromCenter(obj.gt.box.CenterX() + rng.Normal(0.0, center_sigma),
                              obj.gt.box.CenterY() + rng.Normal(0.0, center_sigma), w, h)
                  .ClippedTo(spec.width, spec.height);
    // Classification: mostly correct; errors more likely for small objects.
    double apparent_h = obj.gt.box.h * scale;
    double correct_prob =
        quality.class_accuracy + 0.08 * Sigmoid((apparent_h - 24.0) / 8.0);
    det.class_id = rng.Bernoulli(std::min(0.995, correct_prob))
                       ? obj.gt.class_id
                       : static_cast<int>(rng.UniformInt(kNumClasses));
    det.object_id = obj.gt.object_id;
    // Confidence correlates with the detection quality.
    double q = SizeFactor(apparent_h, quality) *
               MotionFactor(obj.Speed() * std::min(1.0, scale), quality) *
               OcclusionFactor(obj.occlusion);
    det.score =
        std::clamp(Sigmoid(3.0 * (q - 0.25) + rng.Normal(0.0, 0.5)), 0.02, 0.999);
    detections.push_back(det);
  }

  // False positives: rise with proposal count and clutter.
  double fp_rate = (0.08 + 1.1 * clutter) *
                   std::pow(static_cast<double>(config.nprop) / 100.0, 0.4) *
                   quality.fp_scale;
  int num_fp = rng.Poisson(fp_rate);
  for (int i = 0; i < num_fp; ++i) {
    Detection det;
    double h = 20.0 * rng.LogNormal(0.0, 0.6);
    double w = h * rng.LogNormal(0.2, 0.4);
    det.box = Box::FromCenter(rng.Uniform(0.0, spec.width),
                              rng.Uniform(0.0, spec.height), w, h)
                  .ClippedTo(spec.width, spec.height);
    det.class_id = static_cast<int>(rng.UniformInt(kNumClasses));
    double u = rng.NextDouble();
    det.score = 0.05 + 0.45 * u * u;
    det.object_id = -1;
    detections.push_back(det);
  }
  return detections;
}

}  // namespace litereconfig
