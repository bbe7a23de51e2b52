// VOC-protocol mean average precision over video frames.
//
// This follows the standard ImageNet-VID / PASCAL evaluation: detections of each
// class are ranked globally by confidence, greedily matched per frame against the
// not-yet-claimed ground truth with IoU >= 0.5, and AP is the area under the
// interpolated precision-recall curve. mAP averages AP over classes that appear in
// the ground truth. A detection only competes within its own frame and class, so
// AddFrame matches each frame on arrival, in the frame's stable score order, and
// keeps one (score, true positive) record per detection: exactly the global
// result (DESIGN.md, "Frame-local AP matching").
#ifndef SRC_VISION_METRICS_H_
#define SRC_VISION_METRICS_H_

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "src/vision/box.h"

namespace litereconfig {

class ApEvaluator {
 public:
  // Adds and matches one evaluated frame. Detections and ground truth must
  // describe the same frame; frames are independent for matching purposes.
  void AddFrame(const GroundTruthList& ground_truth, const DetectionList& detections);

  // Appends another evaluator's frames after this one's, as if other's AddFrame
  // calls had been replayed here in order. Merging per-video evaluators in video
  // order therefore reproduces the sequential single-evaluator accumulation
  // bit-for-bit — the parallel evaluation engine relies on this.
  void Merge(const ApEvaluator& other);

  // AP for one class; 0 if the class never appears in the ground truth.
  double AveragePrecision(int class_id) const;

  // Mean AP over all classes with at least one ground-truth instance.
  double MeanAveragePrecision() const;

  // Classes observed in the ground truth so far.
  std::vector<int> GroundTruthClasses() const;

  // Bit for bit what Merge-ing `parts` in order into an empty evaluator and
  // calling MeanAveragePrecision() returns, without building that evaluator:
  // each class joins its records from the parts in part order and is ranked
  // in its own ThreadPool::Shared() task, up to `threads` at a time. The APs
  // are summed in class order.
  static double MergedMeanAveragePrecision(std::span<const ApEvaluator* const> parts,
                                           int threads);

  size_t frame_count() const { return frame_count_; }

 private:
  struct MatchedDetection {
    double score = 0.0;
    bool true_positive = false;
  };
  struct ClassData {
    // Frame order, then each frame's stable score order.
    std::vector<MatchedDetection> detections;
    size_t total_ground_truth = 0;
  };

  // AP of one class's records, in frame order, given its positive GT count.
  static double RankedAveragePrecision(std::vector<MatchedDetection> records,
                                       size_t total_ground_truth);

  // A detection matches a ground-truth box at this IoU or above.
  static constexpr double kIouThreshold = 0.5;

  size_t frame_count_ = 0;
  std::map<int, ClassData> classes_;
  // AddFrame scratch, reused across frames.
  std::vector<size_t> order_;
  std::vector<bool> claimed_;
};

}  // namespace litereconfig

#endif  // SRC_VISION_METRICS_H_
