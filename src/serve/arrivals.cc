#include "src/serve/arrivals.h"

#include <algorithm>
#include <cmath>

#include "src/util/rng.h"

namespace litereconfig {

namespace {

// SLO-class mix (relative weights).
constexpr double kStrictWeight = 0.25;
constexpr double kStandardWeight = 0.5;
constexpr double kBestEffortWeight = 0.25;
constexpr double kTotalWeight =
    kStrictWeight + kStandardWeight + kBestEffortWeight;

}  // namespace

std::vector<StreamRequest> GenerateArrivals(const ArrivalSpec& spec) {
  Pcg32 rng(HashKeys({spec.seed, 0x5e21eull}));
  std::vector<StreamRequest> requests;
  requests.reserve(static_cast<size_t>(std::max(spec.num_streams, 0)));
  double arrival = 0.0;
  for (int i = 0; i < spec.num_streams; ++i) {
    StreamRequest request;
    request.stream_id = static_cast<uint64_t>(i);
    if (i > 0 && spec.mean_interarrival_rounds > 0.0) {
      arrival += rng.Exponential(1.0 / spec.mean_interarrival_rounds);
    }
    request.arrival_round = static_cast<int>(std::floor(arrival));
    request.video.seed = HashKeys({spec.seed, static_cast<uint64_t>(i), 0x51d0ull});
    request.video.width = spec.width;
    request.video.height = spec.height;
    request.video.frame_count = spec.frames_per_video;
    request.video.fps = spec.fps;
    request.video.archetype = static_cast<SceneArchetype>(i % kNumArchetypes);
    request.slo_ms = spec.slo_ms;
    double draw = rng.Uniform(0.0, kTotalWeight);
    if (draw < kStrictWeight) {
      request.slo_class = SloClass::kStrict;
    } else if (draw < kStrictWeight + kStandardWeight) {
      request.slo_class = SloClass::kStandard;
    } else {
      request.slo_class = SloClass::kBestEffort;
    }
    requests.push_back(request);
  }
  std::sort(requests.begin(), requests.end(),
            [](const StreamRequest& a, const StreamRequest& b) {
              if (a.arrival_round != b.arrival_round) {
                return a.arrival_round < b.arrival_round;
              }
              return a.stream_id < b.stream_id;
            });
  return requests;
}

}  // namespace litereconfig
