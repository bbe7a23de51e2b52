#include "perfbench/workloads.h"

#include <cmath>
#include <map>

#include "perfbench/host.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace litereconfig::perfbench {
namespace {

// Salts that keep the workloads' seeded inputs apart at one --seed.
constexpr uint64_t kOfflineFullSalt = 0x0ff1f011ull;
constexpr uint64_t kOfflineMinCostSalt = 0x0ff13c05ull;
constexpr uint64_t kServeSalt = 0x5e7eb057ull;
constexpr uint64_t kFaultSalt = 0xfa017ull;

// Production-scale input sizes, and the self-test's tiny ones.
constexpr int kOfflineVideos = 400;
constexpr int kOfflineFrames = 300;
constexpr int kServeStreams = 1024;
constexpr int kServeFrames = 300;
constexpr int kTinyVideos = 6;
constexpr int kTinyFrames = 60;
constexpr int kTinyStreams = 8;

bool Finite(double v) { return std::isfinite(v); }

// Runs the wrapped protocol unchanged, and checks and reports each video.
class CheckingProtocol : public Protocol {
 public:
  CheckingProtocol(Protocol& inner, const RunHooks& hooks)
      : inner_(inner), hooks_(hooks) {}

  std::string_view name() const override { return inner_.name(); }
  double MemoryGb() const override { return inner_.MemoryGb(); }
  void Reset() override { inner_.Reset(); }

  VideoRunStats RunVideo(const SyntheticVideo& video, const RunEnv& env) override {
    double start = NowMicros();
    VideoRunStats stats = inner_.RunVideo(video, env);
    double end = NowMicros();
    long gof_frames = 0;
    for (int length : stats.gof_lengths) {
      gof_frames += length;
    }
    if (gof_frames != static_cast<long>(stats.frames.size()) ||
        stats.frames.size() != static_cast<size_t>(video.frame_count())) {
      bad_videos_.fetch_add(1);
    }
    if (hooks_.on_video) {
      hooks_.on_video(start, end);
    }
    return stats;
  }

  int bad_videos() const { return bad_videos_.load(); }

 private:
  Protocol& inner_;
  const RunHooks& hooks_;
  std::atomic<int> bad_videos_{0};
};

RunOutput RunOffline(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                     const TrainedModels& models, int threads, const RunHooks& hooks) {
  LiteReconfigProtocol protocol(&models, spec.scheduler, spec.variant);
  protocol.set_trace_writer(hooks.trace);
  EvalConfig config;
  config.slo_ms = spec.slo_ms;
  config.threads = threads;
  config.now_us = hooks.now_us;

  RunOutput out;
  EvalResult result;
  double cpu0 = ProcessCpuSeconds();
  out.start_us = NowMicros();
  if (hooks.check_gofs) {
    CheckingProtocol checking(protocol, hooks);
    result = OnlineRunner::Run(checking, inputs.dataset, config);
    out.end_us = NowMicros();
    if (checking.bad_videos() > 0) {
      out.problems.push_back(std::to_string(checking.bad_videos()) +
                             " videos whose GoF lengths do not sum to their frames");
    }
  } else {
    result = OnlineRunner::Run(protocol, inputs.dataset, config);
    out.end_us = NowMicros();
  }
  out.cpu_ms = (ProcessCpuSeconds() - cpu0) * 1000.0;

  out.json = EvalResultJson(result);
  out.frames = result.frames;
  out.map_pct = result.map * 100.0;
  out.p95_ms = result.p95_ms;
  out.deadline_misses = result.deadline_misses;
  out.phases = result.phases;
  if (result.oom || !result.failures.empty()) {
    out.problems.push_back("fatal failure or OOM in a fault-free run");
  }
  if (result.frames != inputs.input_frames) {
    out.problems.push_back("produced " + std::to_string(result.frames) +
                           " frames for " + std::to_string(inputs.input_frames) +
                           " input frames");
  }
  if (result.gof_frame_ms.empty()) {
    out.problems.push_back("no GoF latency samples");
  }
  if (!Finite(result.map) || !Finite(result.p95_ms) || !Finite(result.mean_ms)) {
    out.problems.push_back("non-finite simulated metric");
  }
  return out;
}

RunOutput RunServe(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                   const TrainedModels& models, int threads, const RunHooks& hooks) {
  ServeConfig config = spec.serve;
  config.threads = threads;
  // Sums every stream's GoF lengths as the service reports them.
  std::map<uint64_t, long> gof_frames;
  if (hooks.check_gofs || hooks.observer) {
    config.observer = [&gof_frames, &hooks](const ServeEvent& event) {
      if (hooks.check_gofs && event.kind == ServeEvent::Kind::kGof) {
        gof_frames[event.stream_id] += event.gof.gof_length;
      }
      if (hooks.observer) {
        hooks.observer(event);
      }
    };
  }
  RunOutput out;
  double cpu0 = ProcessCpuSeconds();
  out.start_us = NowMicros();
  ServeEval eval = ServeRunner::Run(models, spec.arrivals, config, hooks.trace);
  out.end_us = NowMicros();
  out.cpu_ms = (ProcessCpuSeconds() - cpu0) * 1000.0;
  const ServeResult& result = eval.result;

  out.json = ServeEvalJson(eval);
  out.frames = result.total_frames;
  out.map_pct = result.mean_accuracy * 100.0;
  out.deadline_misses = result.total_misses;
  std::vector<double> samples;

  std::map<uint64_t, const StreamRequest*> requests;
  for (const StreamRequest& request : inputs.requests) {
    requests[request.stream_id] = &request;
  }
  size_t served = 0;
  size_t shed = 0;
  int bad_streams = 0;
  bool fatal = false;
  bool finite = Finite(result.mean_accuracy);
  for (const StreamOutcome& outcome : result.streams) {
    auto it = requests.find(outcome.stream_id);
    if (it == requests.end()) {
      ++bad_streams;
      continue;
    }
    size_t requested = static_cast<size_t>(it->second->video.frame_count);
    bool complete = outcome.frames == requested;
    bool shed_ok = outcome.rejected ? outcome.frames == 0
                                    : outcome.frames <= requested &&
                                          (complete || outcome.evicted);
    if (!shed_ok) {
      ++bad_streams;
    }
    if (hooks.check_gofs && !outcome.rejected &&
        gof_frames[outcome.stream_id] != static_cast<long>(outcome.frames)) {
      ++bad_streams;
    }
    served += outcome.frames;
    shed += requested - std::min(requested, outcome.frames);
    for (const FailureReport& failure : outcome.robustness.failures) {
      fatal = fatal || failure.kind == FailureKind::kOom;
    }
    for (double ms : outcome.gof_frame_ms) {
      finite = finite && Finite(ms);
      samples.push_back(ms);
    }
  }
  out.p95_ms = samples.empty() ? 0.0 : Percentile(samples, 0.95);
  if (result.streams.size() != inputs.requests.size()) {
    out.problems.push_back("stream count differs from the arrival trace");
  }
  if (bad_streams > 0) {
    out.problems.push_back(std::to_string(bad_streams) +
                           " streams with inconsistent frame accounting");
  }
  if (served != result.total_frames || served + shed != inputs.input_frames) {
    out.problems.push_back("served plus shed frames differ from the input frames");
  }
  if (fatal) {
    out.problems.push_back("fatal failure (OOM) in a served stream");
  }
  if (samples.empty() || !finite || !Finite(out.p95_ms)) {
    out.problems.push_back("non-finite or missing simulated metric");
  }
  return out;
}

}  // namespace

std::optional<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed,
                                         bool tiny) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "offline_full" || name == "offline_mincost_mt") {
    bool full = name == "offline_full";
    spec.kind = WorkloadKind::kOffline;
    spec.threads = full ? 1 : 4;
    spec.scheduler = full ? LiteReconfigProtocol::FullConfig()
                          : LiteReconfigProtocol::MinCostConfig();
    spec.variant = full ? "LiteReconfig" : "LiteReconfig-MinCost";
    spec.dataset.base_seed =
        HashKeys({seed, full ? kOfflineFullSalt : kOfflineMinCostSalt});
    spec.dataset.num_videos = tiny ? kTinyVideos : kOfflineVideos;
    spec.dataset.frames_per_video = tiny ? kTinyFrames : kOfflineFrames;
    return spec;
  }
  if (name == "serve_burst") {
    spec.kind = WorkloadKind::kServe;
    // threads=1: at threads=4 every round wakes the pool for ~7 GoF steps,
    // and on a shared VM the wake-up latency alone swung the call wall 2x
    // between runs; the fan-out is measured on offline_mincost_mt instead.
    spec.threads = 1;
    spec.arrivals.seed = HashKeys({seed, kServeSalt});
    spec.arrivals.num_streams = tiny ? kTinyStreams : kServeStreams;
    spec.arrivals.frames_per_video = tiny ? kTinyFrames : kServeFrames;
    spec.arrivals.mean_interarrival_rounds = 1.0;
    spec.serve.allocator.mode = AllocatorMode::kCostBenefit;
    spec.serve.faults.spec = FaultSpec::Moderate();
    spec.serve.faults.fault_seed = HashKeys({seed, kFaultSalt});
    return spec;
  }
  return std::nullopt;
}

WorkloadInputs BuildInputs(const WorkloadSpec& spec) {
  WorkloadInputs inputs;
  if (spec.kind == WorkloadKind::kOffline) {
    inputs.dataset = BuildDataset(spec.dataset, DatasetSplit::kVal);
    for (const SyntheticVideo& video : inputs.dataset.videos) {
      inputs.input_frames += static_cast<size_t>(video.frame_count());
    }
  } else {
    inputs.requests = GenerateArrivals(spec.arrivals);
    for (const StreamRequest& request : inputs.requests) {
      inputs.input_frames += static_cast<size_t>(request.video.frame_count);
    }
  }
  return inputs;
}

RunOutput RunWorkload(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                      const TrainedModels& models, int threads, const RunHooks& hooks) {
  return spec.kind == WorkloadKind::kOffline
             ? RunOffline(spec, inputs, models, threads, hooks)
             : RunServe(spec, inputs, models, threads, hooks);
}

}  // namespace litereconfig::perfbench
