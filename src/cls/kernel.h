// The classification MBEK: an ApproxNet-style multi-branch video classifier.
//
// Knobs (each an ApproxNet tuning knob): input shape, number of frames sampled
// from the window, and network depth. The analytic accuracy model mirrors the
// detector's: correctness depends on the dominant object's apparent size at the
// chosen shape, on how well the sampled frames cover the window under motion
// (fast content needs more samples), on occlusion, and on depth; errors confuse
// the label with another class present in the scene when possible.
#ifndef SRC_CLS_KERNEL_H_
#define SRC_CLS_KERNEL_H_

#include <cstdint>
#include <vector>

#include "src/cls/task.h"

namespace litereconfig {

struct ClsBranch {
  int shape = 224;   // input resolution (short side)
  int frames = 4;    // frames sampled from the kClsWindowFrames-frame window
  int depth = 1;     // 0 = shallow, 1 = mid, 2 = deep network variant

  bool operator==(const ClsBranch&) const = default;
};

class ClsBranchSpace {
 public:
  static const ClsBranchSpace& Default();
  const std::vector<ClsBranch>& branches() const { return branches_; }
  size_t size() const { return branches_.size(); }
  const ClsBranch& at(size_t index) const { return branches_[index]; }

 private:
  ClsBranchSpace();
  std::vector<ClsBranch> branches_;
};

class ClassifierSim {
 public:
  // Classifies the window starting at `start`. Returns the predicted class id
  // (-1 = "background": the window looked empty to the classifier).
  static int Classify(const SyntheticVideo& video, int start, const ClsBranch& branch,
                      uint64_t run_salt = 0);

  // Probability of a correct label, exposed for tests and calibration.
  static double CorrectProbability(const SyntheticVideo& video, int start,
                                   const ClsBranch& branch);
};

// Mean per-window inference latency on the TX2 (ms), zero contention. Scale by
// the platform's GpuScaledMs for other devices/contention.
double ClsBranchTx2Ms(const ClsBranch& branch);

}  // namespace litereconfig

#endif  // SRC_CLS_KERNEL_H_
