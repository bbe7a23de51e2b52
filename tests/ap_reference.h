// Reference VOC evaluator for tests: the global-matching formulation.
//
// Detections of each class are kept with their frame and box, ranked globally by
// a stable sort on score, and greedily matched per frame against the
// not-yet-claimed ground truth. ApEvaluator (src/vision/metrics.h) matches each
// frame as it arrives instead; tests compare the two bit for bit.
#ifndef TESTS_AP_REFERENCE_H_
#define TESTS_AP_REFERENCE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <map>
#include <vector>

#include "src/vision/box.h"

namespace litereconfig {

class ReferenceApEvaluator {
 public:
  explicit ReferenceApEvaluator(double iou_threshold = 0.5)
      : iou_threshold_(iou_threshold) {}

  void AddFrame(const GroundTruthList& ground_truth, const DetectionList& detections) {
    size_t frame = frame_count_++;
    for (const GroundTruthBox& gt : ground_truth) {
      ClassData& data = classes_[gt.class_id];
      data.ground_truth[frame].push_back(gt.box);
      ++data.total_ground_truth;
    }
    for (const Detection& det : detections) {
      ClassData& data = classes_[det.class_id];
      data.detections.push_back({det.score, frame, det.box});
    }
  }

  void Merge(const ReferenceApEvaluator& other) {
    assert(iou_threshold_ == other.iou_threshold_);
    size_t offset = frame_count_;
    frame_count_ += other.frame_count_;
    for (const auto& [class_id, other_data] : other.classes_) {
      ClassData& data = classes_[class_id];
      for (const ScoredDetection& det : other_data.detections) {
        data.detections.push_back({det.score, det.frame + offset, det.box});
      }
      for (const auto& [frame, boxes] : other_data.ground_truth) {
        std::vector<Box>& merged = data.ground_truth[frame + offset];
        merged.insert(merged.end(), boxes.begin(), boxes.end());
      }
      data.total_ground_truth += other_data.total_ground_truth;
    }
  }

  double AveragePrecision(int class_id) const {
    auto it = classes_.find(class_id);
    if (it == classes_.end() || it->second.total_ground_truth == 0) {
      return 0.0;
    }
    const ClassData& data = it->second;
    std::vector<ScoredDetection> dets = data.detections;
    std::stable_sort(dets.begin(), dets.end(),
                     [](const ScoredDetection& a, const ScoredDetection& b) {
                       return a.score > b.score;
                     });
    // Per frame, which ground-truth boxes are already claimed.
    std::map<size_t, std::vector<bool>> claimed;
    for (const auto& [frame, boxes] : data.ground_truth) {
      claimed[frame].assign(boxes.size(), false);
    }
    std::vector<bool> is_tp(dets.size(), false);
    for (size_t i = 0; i < dets.size(); ++i) {
      auto gt_it = data.ground_truth.find(dets[i].frame);
      if (gt_it == data.ground_truth.end()) {
        continue;
      }
      const std::vector<Box>& gts = gt_it->second;
      std::vector<bool>& used = claimed[dets[i].frame];
      double best_iou = iou_threshold_;
      int best_idx = -1;
      for (size_t g = 0; g < gts.size(); ++g) {
        if (used[g]) {
          continue;
        }
        double iou = Iou(dets[i].box, gts[g]);
        if (iou >= best_iou) {
          best_iou = iou;
          best_idx = static_cast<int>(g);
        }
      }
      if (best_idx >= 0) {
        used[static_cast<size_t>(best_idx)] = true;
        is_tp[i] = true;
      }
    }
    // Precision-recall curve with the interpolated (monotone envelope) AP.
    double total_gt = static_cast<double>(data.total_ground_truth);
    std::vector<double> precision;
    std::vector<double> recall;
    precision.reserve(dets.size());
    recall.reserve(dets.size());
    double tp = 0.0;
    double fp = 0.0;
    for (size_t i = 0; i < dets.size(); ++i) {
      if (is_tp[i]) {
        tp += 1.0;
      } else {
        fp += 1.0;
      }
      precision.push_back(tp / (tp + fp));
      recall.push_back(tp / total_gt);
    }
    if (precision.empty()) {
      return 0.0;
    }
    // Monotone non-increasing precision envelope from the right.
    for (size_t i = precision.size() - 1; i-- > 0;) {
      precision[i] = std::max(precision[i], precision[i + 1]);
    }
    double ap = recall[0] * precision[0];
    for (size_t i = 1; i < precision.size(); ++i) {
      ap += (recall[i] - recall[i - 1]) * precision[i];
    }
    return ap;
  }

  double MeanAveragePrecision() const {
    double sum = 0.0;
    size_t n = 0;
    for (const auto& [class_id, data] : classes_) {
      if (data.total_ground_truth == 0) {
        continue;
      }
      sum += AveragePrecision(class_id);
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  std::vector<int> GroundTruthClasses() const {
    std::vector<int> out;
    for (const auto& [class_id, data] : classes_) {
      if (data.total_ground_truth > 0) {
        out.push_back(class_id);
      }
    }
    return out;
  }

  size_t frame_count() const { return frame_count_; }

 private:
  struct ScoredDetection {
    double score = 0.0;
    size_t frame = 0;
    Box box;
  };
  struct ClassData {
    std::vector<ScoredDetection> detections;
    // Ground-truth boxes per frame index.
    std::map<size_t, std::vector<Box>> ground_truth;
    size_t total_ground_truth = 0;
  };

  double iou_threshold_;
  size_t frame_count_ = 0;
  std::map<int, ClassData> classes_;
};

}  // namespace litereconfig

#endif  // TESTS_AP_REFERENCE_H_
