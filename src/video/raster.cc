#include "src/video/raster.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"
#include "src/video/scene.h"

namespace litereconfig {

namespace {

uint8_t ToByte(double v) {
  return static_cast<uint8_t>(std::clamp(v, 0.0, 1.0) * 255.0 + 0.5);
}

// Maps a finished pixel hash to noise in [-0.5, 0.5). A pixel's noise is
// NoiseFromHash(HashKeys({seed, x, y, salt})).
double NoiseFromHash(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0) - 0.5;
}

}  // namespace

Image RenderFrame(const SyntheticVideo& video, int t) {
  const VideoSpec& spec = video.spec();
  const ArchetypeParams& params = GetArchetypeParams(spec.archetype);
  uint64_t frame_seed = HashKeys({spec.seed, static_cast<uint64_t>(t), 0x7a57e2ull});

  Image img;
  img.width = kRasterWidth;
  img.height = kRasterHeight;
  img.data.assign(static_cast<size_t>(kRasterWidth * kRasterHeight * 3), 0);

  // Background: vertical gradient between the archetype palette anchors, plus
  // per-pixel grain whose amplitude follows the scene's clutter level (busy
  // backgrounds are textured everywhere, not just at the speckles).
  double grain_amp = 0.03 + 0.12 * params.clutter;
  // The grain is the pixel noise of (frame_seed, x, y, c) — the render
  // hot loop. The hash mixes its keys sequentially, so the (seed, x) prefix is
  // shared by a whole column and the (seed, x, y) prefix by a pixel's three
  // channels: checkpointing those prefixes drops the per-pixel work from
  // twelve key mixes to four while producing the identical hashes.
  HashState seed_state;
  seed_state.Mix(frame_seed);
  std::vector<HashState> col_prefix(static_cast<size_t>(img.width));
  for (int x = 0; x < img.width; ++x) {
    col_prefix[static_cast<size_t>(x)] = seed_state;
    col_prefix[static_cast<size_t>(x)].Mix(static_cast<uint64_t>(x));
  }
  for (int y = 0; y < img.height; ++y) {
    double alpha = static_cast<double>(y) / std::max(1, img.height - 1);
    double base[3];
    for (int c = 0; c < 3; ++c) {
      base[c] = params.bg_top[static_cast<size_t>(c)] * (1.0 - alpha) +
                params.bg_bottom[static_cast<size_t>(c)] * alpha;
    }
    for (int x = 0; x < img.width; ++x) {
      HashState pixel = col_prefix[static_cast<size_t>(x)];
      pixel.Mix(static_cast<uint64_t>(y));
      for (int c = 0; c < 3; ++c) {
        HashState channel = pixel;
        channel.Mix(static_cast<uint64_t>(c));
        double grain = grain_amp * NoiseFromHash(channel.Get());
        img.Set(x, y, c, ToByte(base[c] + grain));
      }
    }
  }

  // Clutter speckles: small high-contrast rectangles, count tracks clutter level.
  Pcg32 clutter_rng(HashKeys({frame_seed, 0xc1077e2ull}));
  int num_speckles = static_cast<int>(params.clutter * 280.0);
  for (int s = 0; s < num_speckles; ++s) {
    int cx = static_cast<int>(clutter_rng.UniformInt(static_cast<uint32_t>(img.width)));
    int cy = static_cast<int>(clutter_rng.UniformInt(static_cast<uint32_t>(img.height)));
    int sw = 1 + static_cast<int>(clutter_rng.UniformInt(3));
    int sh = 1 + static_cast<int>(clutter_rng.UniformInt(3));
    double lum = clutter_rng.Uniform(0.0, 1.0);
    for (int y = cy; y < std::min(img.height, cy + sh); ++y) {
      for (int x = cx; x < std::min(img.width, cx + sw); ++x) {
        for (int c = 0; c < 3; ++c) {
          img.Set(x, y, c, ToByte(lum));
        }
      }
    }
  }

  // Objects as filled ellipses, blended by visibility (1 - occlusion).
  double sx = static_cast<double>(img.width) / spec.width;
  double sy = static_cast<double>(img.height) / spec.height;
  const FrameTruth& frame = video.frame(t);
  for (const SceneObjectState& obj : frame.objects) {
    double visibility = 1.0 - obj.occlusion;
    if (visibility <= 0.05) {
      continue;
    }
    double cx = obj.gt.box.CenterX() * sx;
    double cy = obj.gt.box.CenterY() * sy;
    double rx = std::max(0.6, obj.gt.box.w * sx / 2.0);
    double ry = std::max(0.6, obj.gt.box.h * sy / 2.0);
    int x0 = std::max(0, static_cast<int>(cx - rx));
    int x1 = std::min(img.width - 1, static_cast<int>(cx + rx));
    int y0 = std::max(0, static_cast<int>(cy - ry));
    int y1 = std::min(img.height - 1, static_cast<int>(cy + ry));
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        double dx = (x - cx) / rx;
        double dy = (y - cy) / ry;
        if (dx * dx + dy * dy > 1.0) {
          continue;
        }
        // The pixel noise of (frame_seed, x, y, object_id) via the grain loop's
        // (seed, x) column checkpoints: two key mixes instead of four.
        HashState px_state = col_prefix[static_cast<size_t>(x)];
        px_state.Mix(static_cast<uint64_t>(y));
        px_state.Mix(static_cast<uint64_t>(static_cast<int>(obj.gt.object_id)));
        double tex = obj.texture * 0.15 * NoiseFromHash(px_state.Get());
        double color[3] = {obj.r + tex, obj.g + tex, obj.b + tex};
        for (int c = 0; c < 3; ++c) {
          double bg = img.At(x, y, c) / 255.0;
          img.Set(x, y, c, ToByte(bg * (1.0 - visibility) + color[c] * visibility));
        }
      }
    }
  }
  return img;
}

}  // namespace litereconfig
