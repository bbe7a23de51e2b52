#include "src/track/tracker.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/rng.h"

namespace litereconfig {

namespace {

constexpr TrackerTraits kTraits[kNumTrackerTypes] = {
    // drift, loss_hazard, occlusion_robustness, cost_factor
    {0.120, 0.020, 0.25, 1.0},  // MedianFlow
    {0.070, 0.010, 0.45, 2.2},  // KCF
    {0.030, 0.004, 0.80, 7.5},  // CSRT
    {0.045, 0.006, 0.65, 5.0},  // OpticalFlow
};

constexpr std::string_view kNames[kNumTrackerTypes] = {"medianflow", "kcf", "csrt",
                                                       "optical_flow"};

// Index of the object with `object_id` among the frame's objects, or
// objects.size() when it is not on screen.
size_t FindObject(const FrameObjects& objects, int64_t object_id) {
  for (size_t k = 0; k < objects.size(); ++k) {
    if (objects.object(k).object_id == object_id) {
      return k;
    }
  }
  return objects.size();
}

}  // namespace

std::string_view TrackerName(TrackerType type) {
  int idx = static_cast<int>(type);
  assert(idx >= 0 && idx < kNumTrackerTypes);
  return kNames[idx];
}

const TrackerTraits& GetTrackerTraits(TrackerType type) {
  int idx = static_cast<int>(type);
  assert(idx >= 0 && idx < kNumTrackerTypes);
  return kTraits[idx];
}

void TrackBatch::Reset(const DetectionList& detections, double min_score) {
  object_id.clear();
  class_id.clear();
  score.clear();
  offset_x.clear();
  offset_y.clear();
  scale_error.clear();
  lost.clear();
  last_box.clear();
  for (const Detection& det : detections) {
    if (det.score < min_score) {
      continue;
    }
    object_id.push_back(det.object_id);
    class_id.push_back(det.class_id);
    score.push_back(det.score);
    offset_x.push_back(0.0);
    offset_y.push_back(0.0);
    scale_error.push_back(1.0);
    lost.push_back(0);
    last_box.push_back(det.box);
  }
}

void TrackerSim::StepInto(const SyntheticVideo& video, int t,
                          const TrackerConfig& config, TrackBatch& batch,
                          uint64_t run_salt, DetectionList& out) {
  const VideoSpec& spec = video.spec();
  const FrameObjects objects = video.frame(t).objects;
  const TrackerTraits& traits = GetTrackerTraits(config.type);
  double ds = static_cast<double>(config.downsample);
  out.clear();
  out.reserve(batch.size());
  // Substreams are keyed as {seed, t, object_id + 2, type, ds, salt, tag}; the
  // {seed, t} prefix is shared by every track in the frame, so it is mixed
  // once and checkpointed — the per-track suffix mixes the remaining five keys
  // and yields exactly HashKeys over all seven.
  HashState frame_prefix;
  frame_prefix.Mix(spec.seed);
  frame_prefix.Mix(static_cast<uint64_t>(t));
  for (size_t i = 0; i < batch.size(); ++i) {
    HashState h = frame_prefix;
    h.Mix(static_cast<uint64_t>(batch.object_id[i] + 2));
    h.Mix(static_cast<uint64_t>(config.type));
    h.Mix(static_cast<uint64_t>(config.downsample));
    h.Mix(run_salt);
    h.Mix(0x77acull);
    Pcg32 rng(h.Get());
    const size_t k = batch.object_id[i] >= 0
                         ? FindObject(objects, batch.object_id[i])
                         : objects.size();
    if (batch.lost[i] != 0 || k == objects.size()) {
      // A lost track (or a tracked false positive, or an exited object) keeps
      // emitting its stale box with decaying confidence.
      batch.score[i] *= 0.97;
      Detection det;
      det.box = batch.last_box[i];
      det.class_id = batch.class_id[i];
      det.score = batch.score[i];
      det.object_id = batch.object_id[i];
      out.push_back(det);
      continue;
    }
    const ObjectPose& pose = objects.pose(k);
    double speed = pose.Speed();
    // Loss hazard: fast motion, heavy downsampling, and occlusion all raise it;
    // robust trackers discount the occlusion term.
    double hazard = traits.loss_hazard * (1.0 + speed / 25.0) *
                    (0.5 + 0.5 * ds) *
                    (1.0 + 3.0 * pose.occlusion * (1.0 - traits.occlusion_robustness));
    if (rng.Bernoulli(std::min(0.5, hazard))) {
      batch.lost[i] = 1;
      batch.score[i] *= 0.9;
      Detection det;
      det.box = batch.last_box[i];
      det.class_id = batch.class_id[i];
      det.score = batch.score[i];
      det.object_id = batch.object_id[i];
      out.push_back(det);
      continue;
    }
    // Drift: the error offset random-walks with a step proportional to the
    // tracker's drift coefficient, the apparent speed, and the downsampling.
    double step = traits.drift * (0.6 + speed) * std::sqrt(ds) * 0.5;
    batch.offset_x[i] += rng.Normal(0.0, step);
    batch.offset_y[i] += rng.Normal(0.0, step);
    batch.scale_error[i] *= rng.LogNormal(0.0, 0.004 * std::sqrt(ds) *
                                                   (1.0 + traits.drift * 10.0));
    batch.score[i] *= 0.998;
    const Box truth = objects.box(k);
    Detection det;
    det.box = Box::FromCenter(truth.CenterX() + batch.offset_x[i],
                              truth.CenterY() + batch.offset_y[i],
                              truth.w * batch.scale_error[i],
                              truth.h * batch.scale_error[i])
                  .ClippedTo(spec.width, spec.height);
    det.class_id = batch.class_id[i];
    det.score = batch.score[i];
    det.object_id = batch.object_id[i];
    batch.last_box[i] = det.box;
    out.push_back(det);
  }
}

}  // namespace litereconfig
