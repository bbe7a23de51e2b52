#include "src/vision/metrics.h"

#include <algorithm>

#include "src/util/thread_pool.h"

namespace litereconfig {

void ApEvaluator::AddFrame(const GroundTruthList& ground_truth,
                           const DetectionList& detections) {
  ++frame_count_;
  for (const GroundTruthBox& gt : ground_truth) {
    ++classes_[gt.class_id].total_ground_truth;
  }
  // Stable rank by descending score; the reused vector allocates nothing.
  auto higher = [&](size_t a, size_t b) {
    return detections[a].score > detections[b].score;
  };
  order_.clear();
  for (size_t i = 0; i < detections.size(); ++i) {
    order_.insert(std::upper_bound(order_.begin(), order_.end(), i, higher), i);
  }
  claimed_.assign(ground_truth.size(), false);
  for (size_t i : order_) {
    const Detection& det = detections[i];
    double best_iou = kIouThreshold;
    size_t best = ground_truth.size();
    for (size_t g = 0; g < ground_truth.size(); ++g) {
      if (claimed_[g] || ground_truth[g].class_id != det.class_id) {
        continue;
      }
      double iou = Iou(det.box, ground_truth[g].box);
      if (iou >= best_iou) {
        best_iou = iou;
        best = g;
      }
    }
    bool true_positive = best < ground_truth.size();
    if (true_positive) {
      claimed_[best] = true;
    }
    classes_[det.class_id].detections.push_back({det.score, true_positive});
  }
}

void ApEvaluator::Merge(const ApEvaluator& other) {
  frame_count_ += other.frame_count_;
  for (const auto& [class_id, other_data] : other.classes_) {
    ClassData& data = classes_[class_id];
    data.detections.insert(data.detections.end(), other_data.detections.begin(),
                           other_data.detections.end());
    data.total_ground_truth += other_data.total_ground_truth;
  }
}

double ApEvaluator::AveragePrecision(int class_id) const {
  auto it = classes_.find(class_id);
  if (it == classes_.end() || it->second.total_ground_truth == 0) {
    return 0.0;
  }
  return RankedAveragePrecision(it->second.detections, it->second.total_ground_truth);
}

double ApEvaluator::RankedAveragePrecision(std::vector<MatchedDetection> records,
                                           size_t total_ground_truth) {
  std::stable_sort(records.begin(), records.end(),
                   [](const MatchedDetection& a, const MatchedDetection& b) {
                     return a.score > b.score;
                   });
  // Precision-recall curve with the interpolated (monotone envelope) AP.
  double total_gt = static_cast<double>(total_ground_truth);
  std::vector<double> precision;
  std::vector<double> recall;
  precision.reserve(records.size());
  recall.reserve(records.size());
  double tp = 0.0;
  double fp = 0.0;
  for (const MatchedDetection& det : records) {
    if (det.true_positive) {
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

double ApEvaluator::MeanAveragePrecision() const {
  std::vector<int> classes = GroundTruthClasses();
  double sum = 0.0;
  for (int class_id : classes) {
    sum += AveragePrecision(class_id);
  }
  return classes.empty() ? 0.0 : sum / static_cast<double>(classes.size());
}

double ApEvaluator::MergedMeanAveragePrecision(
    std::span<const ApEvaluator* const> parts, int threads) {
  // What Merge would append per class, as runs in part order.
  struct ClassRuns {
    std::vector<const std::vector<MatchedDetection>*> runs;
    size_t records = 0;
    size_t total_ground_truth = 0;
  };
  std::map<int, ClassRuns> joined;
  for (const ApEvaluator* part : parts) {
    for (const auto& [class_id, data] : part->classes_) {
      ClassRuns& cls = joined[class_id];
      cls.runs.push_back(&data.detections);
      cls.records += data.detections.size();
      cls.total_ground_truth += data.total_ground_truth;
    }
  }
  std::vector<const ClassRuns*> classes;  // GroundTruthClasses() order
  for (const auto& [class_id, cls] : joined) {
    if (cls.total_ground_truth > 0) {
      classes.push_back(&cls);
    }
  }
  std::vector<double> ap(classes.size());
  ThreadPool::Shared().ParallelFor(
      classes.size(),
      [&](size_t c) {
        std::vector<MatchedDetection> records;
        records.reserve(classes[c]->records);
        for (const std::vector<MatchedDetection>* run : classes[c]->runs) {
          records.insert(records.end(), run->begin(), run->end());
        }
        ap[c] = RankedAveragePrecision(std::move(records), classes[c]->total_ground_truth);
      },
      threads);
  double sum = 0.0;
  for (double class_ap : ap) {
    sum += class_ap;
  }
  return classes.empty() ? 0.0 : sum / static_cast<double>(classes.size());
}

std::vector<int> ApEvaluator::GroundTruthClasses() const {
  std::vector<int> out;
  for (const auto& [class_id, data] : classes_) {
    if (data.total_ground_truth > 0) {
      out.push_back(class_id);
    }
  }
  return out;
}

}  // namespace litereconfig
