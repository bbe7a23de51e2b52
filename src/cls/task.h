// Cross-domain generalization (paper Section 6): video CLASSIFICATION as a
// second task behind the same scheduler machinery.
//
// The paper argues the MBEK + cost-benefit-scheduler design carries to other
// vision tasks; its sibling system ApproxNet exposes the same style of knobs on
// a video classifier. This module defines the classification task over the
// synthetic corpus: a clip's label is its dominant object class over a
// look-ahead window, and the metric is top-1 accuracy.
#ifndef SRC_CLS_TASK_H_
#define SRC_CLS_TASK_H_

#include "src/video/synthetic_video.h"

namespace litereconfig {

// The classification window length (frames); the classifier kernel samples a
// subset of these frames, as ApproxNet's frame-sampling knob does.
inline constexpr int kClsWindowFrames = 16;

// Ground-truth clip label: the class with the largest accumulated visible box
// area over the kClsWindowFrames frames from `start`; -1 when the window
// contains no visible object.
int ClipLabel(const SyntheticVideo& video, int start);

// Running top-1 accuracy.
class Top1Accuracy {
 public:
  void Add(int predicted, int label);
  double Value() const;
  size_t count() const { return total_; }

 private:
  size_t correct_ = 0;
  size_t total_ = 0;
};

}  // namespace litereconfig

#endif  // SRC_CLS_TASK_H_
