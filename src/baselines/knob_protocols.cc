#include "src/baselines/knob_protocols.h"

#include <algorithm>
#include <cassert>

#include "src/util/strings.h"

namespace litereconfig {

namespace {

constexpr double kProfileSafetyMargin = 0.92;
constexpr int kProfileSnippetLength = 40;
// Typical object count assumed when profiling tracker latency.
constexpr int kProfileObjectCount = 3;

}  // namespace

Branch KnobSetting::ToBranch() const {
  Branch branch;
  branch.detector = {shape, 100};  // one-stage models have no nprop knob
  branch.gof = has_tracker ? gof : 1;
  branch.has_tracker = has_tracker;
  branch.tracker = tracker;
  return branch;
}

std::string KnobSetting::Id(BaselineFamily family) const {
  std::string base = StrFormat("%s_s%d", std::string(BaselineFamilyName(family)).c_str(),
                               shape);
  if (!has_tracker) {
    return base + "_det";
  }
  return base + StrFormat("_g%d_%s_ds%d", gof,
                          std::string(TrackerName(tracker.type)).c_str(),
                          tracker.downsample);
}

std::vector<KnobSetting> StaticKnobProtocol::KnobSpace(BaselineFamily family) {
  std::vector<int> shapes;
  if (family == BaselineFamily::kSsd) {
    shapes = {224, 288, 320, 384, 448, 512};
  } else {
    shapes = {256, 320, 384, 416, 480, 512};
  }
  constexpr int kGofs[] = {2, 4, 8, 20, 50};
  constexpr TrackerConfig kTrackers[] = {
      {TrackerType::kMedianFlow, 4},
      {TrackerType::kKcf, 2},
  };
  std::vector<KnobSetting> space;
  for (int shape : shapes) {
    KnobSetting det_only;
    det_only.shape = shape;
    det_only.has_tracker = false;
    det_only.gof = 1;
    space.push_back(det_only);
    for (int gof : kGofs) {
      for (const TrackerConfig& tracker : kTrackers) {
        KnobSetting setting;
        setting.shape = shape;
        setting.gof = gof;
        setting.has_tracker = true;
        setting.tracker = tracker;
        space.push_back(setting);
      }
    }
  }
  return space;
}

StaticKnobProtocol::StaticKnobProtocol(BaselineFamily family, std::string name,
                                       const Dataset& profiling_data,
                                       const LatencyModel& profile_platform,
                                       double slo_ms, int max_profile_snippets)
    : family_(family), name_(std::move(name)) {
  assert(profile_platform.contention().level() == 0.0 &&
         "profiling runs without contention");
  std::vector<SnippetRef> snippets =
      MakeSnippets(profiling_data, kProfileSnippetLength, kProfileSnippetLength * 2);
  if (static_cast<int>(snippets.size()) > max_profile_snippets) {
    snippets.resize(static_cast<size_t>(max_profile_snippets));
  }
  const DetectorQuality& quality = GetBaselineQuality(family_);
  double best_accuracy = -1.0;
  for (const KnobSetting& setting : KnobSpace(family_)) {
    KnobProfileEntry entry;
    entry.setting = setting;
    Branch branch = setting.ToBranch();
    double acc_sum = 0.0;
    for (const SnippetRef& snippet : snippets) {
      acc_sum += ExecutionKernel::SnippetAccuracy(*snippet.video, snippet.start,
                                                  snippet.length, branch,
                                                  /*run_salt=*/0xbeef, quality);
    }
    entry.mean_accuracy =
        snippets.empty() ? 0.0 : acc_sum / static_cast<double>(snippets.size());
    double det_ms =
        profile_platform.GpuScaledMs(BaselineDetectorTx2Ms(family_, setting.shape));
    if (setting.has_tracker) {
      double track_ms =
          profile_platform.TrackerMs(setting.tracker, kProfileObjectCount);
      entry.mean_frame_ms =
          (det_ms + track_ms * (setting.gof - 1)) / static_cast<double>(setting.gof);
    } else {
      entry.mean_frame_ms = det_ms;
    }
    profile_.push_back(entry);
    if (entry.mean_frame_ms <= slo_ms * kProfileSafetyMargin &&
        entry.mean_accuracy > best_accuracy) {
      best_accuracy = entry.mean_accuracy;
      chosen_ = setting;
    }
  }
  if (best_accuracy < 0.0) {
    // Nothing fits the objective: run the cheapest setting (the run will
    // violate the SLO and be reported as "F", as in the paper).
    auto cheapest = std::min_element(
        profile_.begin(), profile_.end(),
        [](const KnobProfileEntry& a, const KnobProfileEntry& b) {
          return a.mean_frame_ms < b.mean_frame_ms;
        });
    chosen_ = cheapest->setting;
  }
}

VideoRunStats StaticKnobProtocol::RunVideo(const SyntheticVideo& video,
                                           const RunEnv& env) {
  const DeviceProfile& device = GetDeviceProfile(env.platform->device());
  VideoRunStats stats;
  if (MemoryGb() > device.memory_gb) {
    stats.MarkOom();
    return stats;
  }
  Branch branch = chosen_.ToBranch();
  stats.branches_used.insert(chosen_.Id(family_));
  // Frames land in place, as in LiteReconfigProtocol::RunVideo.
  stats.frames.resize(static_cast<size_t>(video.frame_count()));
  // The knob is fixed, so the fault response is retry/coast only — there is
  // no cheaper branch to fall back to and nothing to switch.
  GofExecutor exec = OfflineExecutor(
      video, env,
      HashKeys({video.spec().seed, env.run_salt, static_cast<uint64_t>(family_),
                0x40bull}),
      /*space=*/nullptr, GetBaselineQuality(family_));
  int t = 0;
  while (t < video.frame_count()) {
    exec.BeginGof(t);
    double det_mean =
        exec.platform().GpuScaledMs(BaselineDetectorTx2Ms(family_, chosen_.shape));
    FaultRuntime::DetectorOutcome outcome =
        exec.faults().ResolveDetector(t, det_mean, branch.has_tracker && t > 0);
    DetectionList* gof_frames = stats.frames.data() + t;
    int length = std::min(branch.gof, video.frame_count() - t);
    if (outcome.coast) {
      // Coast mode: the detector is down, extend tracking from the last
      // emitted outputs for one GoF.
      exec.Track(t, length, branch.tracker, stats.frames[t - 1], gof_frames);
      const GofSamples& coast = exec.samples();
      stats.tracker_ms += coast.tracker_ms;
      exec.Book((coast.tracker_ms + outcome.penalty_ms) /
                    static_cast<double>(coast.length),
                /*coasted=*/true);
      t += coast.length;
      continue;
    }
    exec.Detect(t, branch, length, det_mean, outcome.outlier_scale, gof_frames);
    const GofSamples& drawn = exec.samples();
    stats.detector_ms += drawn.detector_ms + outcome.penalty_ms;
    stats.tracker_ms += drawn.tracker_ms;
    exec.Book((drawn.detector_ms + drawn.tracker_ms + outcome.penalty_ms) /
                  static_cast<double>(length),
              /*coasted=*/false);
    exec.TrackRemainder(t, branch, length, gof_frames);
    t += length;
  }
  TakeBooks(exec, stats);
  return stats;
}

}  // namespace litereconfig
