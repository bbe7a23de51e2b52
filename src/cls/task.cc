#include "src/cls/task.h"

#include <algorithm>
#include <map>

namespace litereconfig {

int ClipLabel(const SyntheticVideo& video, int start) {
  std::map<int, double> area_by_class;
  int end = std::min(video.frame_count(), start + kClsWindowFrames);
  for (int t = start; t < end; ++t) {
    for (const SceneObjectState& obj : video.frame(t).objects) {
      if (obj.occlusion < 0.95) {
        area_by_class[obj.gt.class_id] += obj.gt.box.Area() * (1.0 - obj.occlusion);
      }
    }
  }
  int best = -1;
  double best_area = 0.0;
  for (const auto& [class_id, area] : area_by_class) {
    if (area > best_area) {
      best_area = area;
      best = class_id;
    }
  }
  return best;
}

void Top1Accuracy::Add(int predicted, int label) {
  if (label < 0) {
    return;  // unlabeled window
  }
  ++total_;
  if (predicted == label) {
    ++correct_;
  }
}

double Top1Accuracy::Value() const {
  return total_ == 0 ? 0.0 : static_cast<double>(correct_) / total_;
}

}  // namespace litereconfig
