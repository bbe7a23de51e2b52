// Seeded arrival traces: the open set of live streams the service admits.
//
// A trace is a pure function of its spec — stream inter-arrivals, SLO classes
// and per-stream video seeds all come from hash-seeded Pcg32 substreams, never
// from wall-clock or call order — so a serving run is reproducible
// bit-for-bit at any thread count (the parallel_eval_test contract, extended
// to the whole service).
#ifndef SRC_SERVE_ARRIVALS_H_
#define SRC_SERVE_ARRIVALS_H_

#include <cstdint>
#include <vector>

#include "src/serve/slo_class.h"
#include "src/video/synthetic_video.h"

namespace litereconfig {

// One stream wanting service: its video, SLO target and class, and the
// planning round it arrives at.
struct StreamRequest {
  uint64_t stream_id = 0;
  int arrival_round = 0;
  VideoSpec video;
  SloClass slo_class = SloClass::kStandard;
  double slo_ms = 33.3;
};

struct ArrivalSpec {
  uint64_t seed = 1;
  int num_streams = 8;
  // Mean rounds between consecutive arrivals (exponential inter-arrivals).
  double mean_interarrival_rounds = 2.0;
  // Per-stream video shape; archetypes cycle across streams.
  int frames_per_video = 120;
  int width = 1280;
  int height = 720;
  double fps = 30.0;
  double slo_ms = 33.3;
};

// Materializes the trace: requests sorted by (arrival_round, stream_id).
// Identical specs produce identical traces.
std::vector<StreamRequest> GenerateArrivals(const ArrivalSpec& spec);

}  // namespace litereconfig

#endif  // SRC_SERVE_ARRIVALS_H_
