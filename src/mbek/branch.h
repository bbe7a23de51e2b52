// Execution branches of the multi-branch execution kernel (MBEK).
//
// A branch fixes every tuning knob of the tracking-by-detection pipeline: the
// detector's input shape and proposal count, the Group-of-Frames (GoF) size (the
// detector runs on the first frame of each GoF, the tracker on the rest), the
// tracker type, and the tracker's downsampling ratio (paper Section 2.4).
#ifndef SRC_MBEK_BRANCH_H_
#define SRC_MBEK_BRANCH_H_

#include <optional>
#include <string>
#include <vector>

#include "src/det/detector.h"
#include "src/track/tracker.h"

namespace litereconfig {

struct Branch {
  DetectorConfig detector;
  // GoF size; 1 means the detector runs on every frame (no tracker).
  int gof = 1;
  bool has_tracker = false;
  TrackerConfig tracker;

  bool operator==(const Branch&) const = default;

  // Stable human-readable identifier, e.g. "s448_n100_g8_kcf_ds2"; CPU-only
  // branches carry a "c" prefix, e.g. "c224_n100_g8_kcf_ds2".
  std::string Id() const;
};

// Degradation rules shared by every runtime that executes branches.
//
// When no branch fits and at most this many frames are left in the stream,
// too few to amortize another detector pass, the runtime rides out the tail
// on the tracker instead.
inline constexpr int kTailFrames = 12;
// Object count assumed when a runtime ranks branches by cost without a live
// count (the watchdog fallback and the cheapest-branch probes).
inline constexpr int kFallbackObjectCount = 3;
// The tracker a stream coasts on after a detector-only branch.
inline constexpr TrackerConfig kDefaultCoastTracker{TrackerType::kMedianFlow, 4};

// The tracker that extends a stream from `branch` without running the
// detector (coast mode and tail continuation).
inline TrackerConfig CoastTracker(const Branch& branch) {
  return branch.has_tracker ? branch.tracker : kDefaultCoastTracker;
}

// The curated branch space used throughout the reproduction: 12 detector
// configurations x (detector-only + 4 GoF sizes x 4 tracker configurations).
class BranchSpace {
 public:
  static const BranchSpace& Default();

  // Default() extended with the YOLO-LITE-style CPU-only detector family:
  // shapes {224, 320} at nprop 100 (single-stage, keeps every candidate),
  // each as detector-only plus the 4 GoF sizes x 4 tracker configurations.
  // Opt-in — the default space (and every cached model bundle keyed on it)
  // is untouched.
  static const BranchSpace& WithCpuFamily();

  const std::vector<Branch>& branches() const { return branches_; }
  size_t size() const { return branches_.size(); }
  const Branch& at(size_t index) const { return branches_[index]; }

  // Index of an exact branch; nullopt if absent.
  std::optional<size_t> Find(const Branch& branch) const;

  // The distinct detector configurations, in heatmap order (paper Figure 5).
  const std::vector<DetectorConfig>& detector_configs() const {
    return detector_configs_;
  }

 private:
  explicit BranchSpace(bool with_cpu_family = false);

  std::vector<Branch> branches_;
  std::vector<DetectorConfig> detector_configs_;
};

}  // namespace litereconfig

#endif  // SRC_MBEK_BRANCH_H_
