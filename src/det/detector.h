// Analytic object detector model.
//
// The real system runs detector CNNs whose accuracy responds to two knobs: the
// input shape (short-side resolution after resizing) and, for two-stage models,
// the number of region proposals kept after the RPN (nprop). This model reproduces
// those response surfaces directly:
//   * per-object recall is a product of (a) apparent-size detectability at the
//     chosen shape, (b) motion-blur attenuation, (c) occlusion attenuation, and
//     (d) proposal coverage, which ranks objects by salience and taxes low ranks
//     when nprop is small or the scene is cluttered;
//   * localization noise shrinks with shape and grows with speed;
//   * false positives grow with nprop and scene clutter;
//   * classification errors occur at a small size-dependent rate.
// Every draw is seeded by (video, frame, knobs, family, run salt): a given branch
// produces identical detections whenever it is re-run, as a deployed network would.
//
// Different detector families (Faster R-CNN, SSD, YOLOv3, EfficientDet, and the
// accuracy-optimized video models SELSA/MEGA/REPP) share this machinery through a
// DetectorQuality profile that shifts the response surfaces.
#ifndef SRC_DET_DETECTOR_H_
#define SRC_DET_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "src/video/synthetic_video.h"
#include "src/vision/box.h"

namespace litereconfig {

// Detector knobs (paper Figure 5 identifies detector branches by this pair).
struct DetectorConfig {
  int shape = 448;   // short-side input resolution
  int nprop = 100;   // region proposals kept
  // CPU-only execution: a YOLO-LITE-style single-stage model that runs with no
  // GPU kernel at all. nprop is fixed at 100 (single-stage models keep every
  // candidate); latency prices through the CPU clock and the accuracy surface
  // uses CpuDetectorQuality().
  bool cpu = false;

  bool operator==(const DetectorConfig&) const = default;
};

inline constexpr int kDetectorShapes[] = {224, 320, 448, 576};
inline constexpr int kDetectorNprops[] = {1, 10, 100};
// Shapes offered by the CPU-only family (larger inputs are not real-time on
// a mobile CPU).
inline constexpr int kCpuDetectorShapes[] = {224, 320};

// Dense index of a configuration over the offered knob values: the GPU family
// shape-major over kDetectorShapes x kDetectorNprops (0-11), then the CPU
// family by kCpuDetectorShapes (12-13; its nprop is not a knob). -1 for any
// other configuration. Keys the per-knob latency tables of src/platform,
// whose CPU-family terms do not depend on nprop.
inline constexpr int kNumDetectorKnobs = 14;
constexpr int DetectorKnobIndex(const DetectorConfig& config) {
  auto slot = [](const auto& values, int value) {
    for (size_t i = 0; i < std::size(values); ++i) {
      if (values[i] == value) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  constexpr int kNprops = static_cast<int>(std::size(kDetectorNprops));
  constexpr int kGpuKnobs = static_cast<int>(std::size(kDetectorShapes)) * kNprops;
  static_assert(kGpuKnobs + static_cast<int>(std::size(kCpuDetectorShapes)) ==
                kNumDetectorKnobs);
  if (config.cpu) {
    int shape = slot(kCpuDetectorShapes, config.shape);
    return shape < 0 ? -1 : kGpuKnobs + shape;
  }
  int shape = slot(kDetectorShapes, config.shape);
  int nprop = slot(kDetectorNprops, config.nprop);
  return shape < 0 || nprop < 0 ? -1 : shape * kNprops + nprop;
}

// Family-specific response-surface coefficients. Defaults model Faster R-CNN
// with a ResNet-50 backbone (the MBEK's detector).
struct DetectorQuality {
  // Distinguishes RNG streams of different families on the same frame.
  uint64_t family_salt = 0;
  // Apparent height (px) at which recall reaches 50%; lower catches smaller
  // objects. Single-stage detectors are weaker on small objects (higher value).
  double size_midpoint = 16.0;
  double size_slope = 6.0;
  // Apparent speed (px/frame) at which motion blur halves recall.
  double motion_half_speed = 55.0;
  // Multiplier on the false-positive rate.
  double fp_scale = 1.0;
  // Multiplier on localization noise.
  double loc_noise_scale = 1.0;
  // Base classification accuracy.
  double class_accuracy = 0.90;
  // Multiplier applied to the coverage factor's proposal demand (two-stage
  // models honor nprop; single-stage models keep this at 1 with nprop = 100).
  double coverage_scale = 1.0;
};

// The YOLO-LITE-style CPU-only family: a shallow single-stage model tuned for
// no-GPU execution. Weaker on small and fast objects, noisier boxes, more
// false positives — the accuracy floor that makes detection on CPU still worth
// scheduling over tracker-only coasting during GPU-denied intervals.
DetectorQuality CpuDetectorQuality();

class DetectorSim {
 public:
  // Runs the detector on frame t. run_salt distinguishes independent online runs.
  static DetectionList Detect(const SyntheticVideo& video, int t,
                              const DetectorConfig& config,
                              const DetectorQuality& quality = {},
                              uint64_t run_salt = 0);

  // The per-object detection probability, exposed for tests and calibration.
  static double DetectionProbability(const SyntheticVideo& video,
                                     const SceneObjectState& object,
                                     const DetectorConfig& config,
                                     const DetectorQuality& quality,
                                     int salience_rank);
};

// Backwards-compatible alias: the MBEK's detector is the Faster R-CNN profile.
class FasterRcnnSim {
 public:
  static DetectionList Detect(const SyntheticVideo& video, int t,
                              const DetectorConfig& config, uint64_t run_salt = 0) {
    return DetectorSim::Detect(video, t, config, DetectorQuality{}, run_salt);
  }
};

}  // namespace litereconfig

#endif  // SRC_DET_DETECTOR_H_
