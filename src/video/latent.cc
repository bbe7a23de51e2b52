#include "src/video/latent.h"

#include <cmath>

#include "src/util/stats.h"
#include "src/video/classes.h"
#include "src/video/scene.h"

namespace litereconfig {

std::vector<double> ComputeFrameLatent(const SyntheticVideo& video, int t) {
  const VideoSpec& spec = video.spec();
  const ArchetypeParams& params = GetArchetypeParams(spec.archetype);
  const FrameTruth& frame = video.frame(t);

  RunningStat size_stat;
  RunningStat speed_stat;
  RunningStat occl_stat;
  RunningStat tex_stat;
  double mean_r = 0.0, mean_g = 0.0, mean_b = 0.0;
  std::vector<double> class_hist(kNumClasses, 0.0);
  for (const SceneObjectState& obj : frame.objects) {
    size_stat.Add(obj.gt.box.h / spec.height);
    speed_stat.Add(obj.Speed() / spec.width);
    occl_stat.Add(obj.occlusion);
    tex_stat.Add(obj.texture);
    mean_r += obj.r;
    mean_g += obj.g;
    mean_b += obj.b;
    class_hist[static_cast<size_t>(obj.gt.class_id)] += 1.0;
  }
  size_t n = frame.objects.size();
  if (n > 0) {
    mean_r /= static_cast<double>(n);
    mean_g /= static_cast<double>(n);
    mean_b /= static_cast<double>(n);
    for (double& v : class_hist) {
      v /= static_cast<double>(n);
    }
  }

  std::vector<double> latent;
  latent.reserve(kFrameLatentDim);
  latent.push_back(static_cast<double>(n) / 8.0);
  latent.push_back(size_stat.mean());
  latent.push_back(size_stat.stddev());
  latent.push_back(speed_stat.mean() * 20.0);  // scale to O(1)
  latent.push_back(speed_stat.stddev() * 20.0);
  latent.push_back(occl_stat.mean());
  latent.push_back(params.clutter);
  latent.push_back(video.PhaseSpeedMultiplier(t) / 2.2);
  latent.push_back(mean_r);
  latent.push_back(mean_g);
  latent.push_back(mean_b);
  latent.push_back(tex_stat.mean());
  for (double c : params.bg_top) {
    latent.push_back(c);
  }
  for (double c : params.bg_bottom) {
    latent.push_back(c);
  }
  for (double v : class_hist) {
    latent.push_back(v);
  }
  return latent;
}

}  // namespace litereconfig
