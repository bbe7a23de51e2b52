// Per-frame content latent descriptor.
//
// This is the "true" content state of a frame: object statistics, motion, clutter,
// palette, and class mix. Two consumers: (1) the simulated neural features
// (ResNet50/CPoP/MobileNetV2) are nonlinear projections of this latent, standing in
// for what real CNN embeddings encode about a frame; (2) tests use it to verify that
// feature extractors actually track content.
#ifndef SRC_VIDEO_LATENT_H_
#define SRC_VIDEO_LATENT_H_

#include <vector>

#include "src/video/synthetic_video.h"

namespace litereconfig {

// Layout: [count, size_mean, size_std, speed_mean, speed_std, occl_mean, clutter,
//          phase_mult, obj_r, obj_g, obj_b, texture_mean, bg(6), class_hist(30)].
inline constexpr int kFrameLatentDim = 18 + 30;

std::vector<double> ComputeFrameLatent(const SyntheticVideo& video, int t);

}  // namespace litereconfig

#endif  // SRC_VIDEO_LATENT_H_
