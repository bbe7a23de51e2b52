#include "perfbench/layers.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/host.h"
#include "src/features/feature.h"
#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/serve/stream_session.h"
#include "src/util/mutex.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/video/raster.h"
#include "src/vision/metrics.h"

namespace litereconfig::perfbench {
namespace {

// Replays run on at most this many videos (or streams) of the workload,
// spread evenly over it, so a traced run stays a few seconds long.
constexpr size_t kReplayVideos = 24;

// Metric-name slugs of the feature kinds, indexed by FeatureKind.
constexpr std::array<const char*, kNumFeatureKinds> kKindSlug = {
    "light", "hoc", "hog", "resnet50", "cpop", "mobilenetv2"};

const char* Slug(FeatureKind kind) { return kKindSlug[static_cast<size_t>(kind)]; }

// Spans recorded from the benchmark's side of each layer boundary: name,
// start, end, the span that caused it, and the host thread it ran on.
struct Span {
  std::string name;
  int parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
  int lane = 0;
};

class SpanLog {
 public:
  // Opens a span on the calling thread; returns its id.
  int Begin(const std::string& name, int parent) {
    return Add(name, parent, NowMicros(), -1.0);
  }
  void End(int id) {
    double now = NowMicros();
    MutexLock lock(mu_);
    spans_[static_cast<size_t>(id)].end_us = now;
  }
  // Sets a span's interval after the fact.
  void Set(int id, double start_us, double end_us) {
    MutexLock lock(mu_);
    spans_[static_cast<size_t>(id)].start_us = start_us;
    spans_[static_cast<size_t>(id)].end_us = end_us;
  }
  // Records a finished span (thread-safe).
  int Add(const std::string& name, int parent, double start_us, double end_us) {
    std::thread::id self = std::this_thread::get_id();
    MutexLock lock(mu_);
    auto lane = lanes_.emplace(self, static_cast<int>(lanes_.size())).first->second;
    spans_.push_back({name, parent, start_us, end_us, lane});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Duration minus the part of it covered by the span's children.
  double SelfUs(int id) {
    MutexLock lock(mu_);
    const Span& span = spans_[static_cast<size_t>(id)];
    std::vector<std::pair<double, double>> covered;
    for (const Span& child : spans_) {
      if (&child != &span && child.parent == id) {
        covered.emplace_back(std::max(child.start_us, span.start_us),
                             std::min(child.end_us, span.end_us));
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double reach = span.start_us;
    for (const auto& [start, end] : covered) {
      double from = std::max(start, reach);
      if (end > from) {
        union_us += end - from;
        reach = end;
      }
    }
    return (span.end_us - span.start_us) - union_us;
  }
  // One JSON object per span; times are microseconds on one host clock.
  bool Write(const std::string& path, const std::string& workload) {
    std::error_code ec;
    std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
      std::filesystem::create_directories(parent, ec);
    }
    std::ofstream out(path);
    MutexLock lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << span.name
          << "\",\"parent\":" << span.parent << ",\"start_us\":"
          << FmtDouble(span.start_us, 3) << ",\"end_us\":" << FmtDouble(span.end_us, 3)
          << ",\"lane\":" << span.lane << ",\"workload\":\"" << workload << "\"}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  Mutex mu_;
  std::vector<Span> spans_ LR_GUARDED_BY(mu_);
  std::map<std::thread::id, int> lanes_ LR_GUARDED_BY(mu_);
};

// Times the calls made inside one replay span: total and count.
struct CallTimer {
  double total_us = 0.0;
  long calls = 0;

  template <typename Fn>
  auto Time(const Fn& fn) {
    WallTimer timer;
    auto result = fn();
    total_us += timer.ElapsedMicros();
    ++calls;
    return result;
  }
  double PerCallUs() const { return calls > 0 ? total_us / static_cast<double>(calls) : 0.0; }
};

// One scheduling decision the traced call recorded, with what a replay needs.
struct DecisionPoint {
  size_t video = 0;
  int frame = 0;
  size_t branch = 0;
  int gof_length = 0;
  double gpu_cal = 1.0;
};

// What the serving observer saw during the traced call.
struct ServeTimeline {
  double last_event_us = -1.0;
  double step_us = 0.0;     // round planning + parallel step, wall
  double control_us = 0.0;  // sequential admission, merge and event emission
  int step_round = -1;
  double round_start_us = -1.0;
  std::vector<double> round_ms;
  long gof_steps = 0;
  long decisions = 0;
  long admits = 0, queued = 0, rejects = 0, evictions = 0, renegotiations = 0,
       coasts = 0;
  // Per stream: the (level, budget) of each of its GoF steps, in order.
  std::map<uint64_t, std::vector<std::pair<double, double>>> conditions;
  // Receives each round's planning + step interval as a span.
  std::function<void(double start_us, double end_us)> on_step;

  void Observe(const ServeEvent& event) {
    double now = NowMicros();
    using Kind = ServeEvent::Kind;
    bool post_step = event.kind == Kind::kFault || event.kind == Kind::kDemote ||
                     event.kind == Kind::kRestore || event.kind == Kind::kGof ||
                     event.kind == Kind::kDepart;
    // Time before the first event is service set-up and stays in the residual.
    bool started = last_event_us >= 0.0;
    double since = started ? now - last_event_us : 0.0;
    if (post_step && event.round != step_round) {
      // The first report of a round: the time since the previous event was
      // spent planning the round and stepping every session.
      step_us += since;
      if (on_step && started) {
        on_step(last_event_us, now);
      }
      if (round_start_us >= 0.0) {
        round_ms.push_back((now - round_start_us) / 1000.0);
      }
      round_start_us = now;
      step_round = event.round;
    } else {
      control_us += since;
    }
    last_event_us = now;
    switch (event.kind) {
      case Kind::kGof:
        ++gof_steps;
        decisions += event.gof.tail || event.gof.coasted || event.gof.forced ? 0 : 1;
        coasts += event.gof.coasted ? 1 : 0;
        conditions[event.stream_id].emplace_back(event.level, event.budget_ms);
        break;
      case Kind::kAdmit:
        ++admits;
        break;
      case Kind::kQueue:
        ++queued;
        break;
      case Kind::kReject:
        ++rejects;
        break;
      case Kind::kEvict:
        ++evictions;
        break;
      case Kind::kRenegotiate:
        ++renegotiations;
        break;
      default:
        break;
    }
  }
};

struct LayerRow {
  std::string name;
  double self_ms = 0.0;
};

// Evenly spread indices of at most `limit` of `n` items.
std::vector<size_t> Spread(size_t n, size_t limit) {
  std::vector<size_t> picked;
  size_t take = std::min(n, limit);
  for (size_t i = 0; i < take; ++i) {
    picked.push_back(i * n / take);
  }
  return picked;
}

}  // namespace

TracedReport RunTraced(const WorkloadSpec& spec, const WorkloadInputs& inputs,
                       const TrainedModels& models, double untraced_wall_ms,
                       const std::string& reference_json, const std::string& span_path,
                       std::ostream& report) {
  const bool offline = spec.kind == WorkloadKind::kOffline;
  const int threads = spec.threads;
  TracedReport out;
  auto metric = [&out](const std::string& name, double value, const std::string& unit) {
    out.metrics.push_back({name, value, unit});
  };

  SpanLog spans;
  int root = spans.Begin("traced", -1);

  // 1. The traced call: decision trace, phase clock, per-video spans, observer.
  std::ostringstream trace_text;
  TraceWriter writer(trace_text);
  ServeTimeline timeline;
  int call = spans.Begin(offline ? "pipeline.run" : "serve.run", root);
  RunHooks hooks;
  hooks.now_us = NowMicros;
  hooks.trace = &writer;
  hooks.check_gofs = true;
  if (offline) {
    hooks.on_video = [&spans, call](double start, double end) {
      spans.Add("pipeline.video", call, start, end);
    };
  } else {
    timeline.on_step = [&spans, call](double start, double end) {
      spans.Add("serve.step", call, start, end);
    };
    hooks.observer = [&timeline](const ServeEvent& event) { timeline.Observe(event); };
  }
  RunOutput traced = RunWorkload(spec, inputs, models, threads, hooks);
  spans.Set(call, traced.start_us, traced.end_us);
  out.problems = traced.problems;
  if (traced.json != reference_json) {
    out.problems.push_back("the traced result differs from the untraced one");
  }
  double wall_ms = traced.wall_ms();
  double outside_children_ms = spans.SelfUs(call) / 1000.0;

  // Recorded decisions, in video (or stream) order.
  std::vector<uint64_t> order;
  std::vector<std::unique_ptr<SyntheticVideo>> owned;
  std::vector<const StreamRequest*> requests;
  std::map<uint64_t, size_t> index_of;
  if (offline) {
    for (const SyntheticVideo& video : inputs.dataset.videos) {
      index_of[video.spec().seed] = order.size();
      order.push_back(video.spec().seed);
    }
  } else {
    for (const StreamRequest& request : inputs.requests) {
      index_of[request.stream_id] = order.size();
      order.push_back(request.stream_id);
      requests.push_back(&request);
    }
  }
  writer.Flush(order);
  std::istringstream trace_in(trace_text.str());
  std::string trace_error;
  std::optional<std::vector<DecisionRecord>> records =
      TraceReader::ReadAllStrict(trace_in, &trace_error);
  if (!records) {
    out.problems.push_back("decision trace does not parse: " + trace_error);
    records.emplace();
  }
  std::map<std::string, size_t> branch_of;
  for (size_t b = 0; b < models.space->size(); ++b) {
    branch_of[models.space->at(b).Id()] = b;
  }
  std::vector<std::vector<DecisionPoint>> points(order.size());
  std::array<long, kNumFeatureKinds> feature_calls = {};
  long render_calls = 0;
  long traced_decisions = 0;
  for (const DecisionRecord& record : *records) {
    auto video = index_of.find(record.video_seed);
    auto branch = branch_of.find(record.branch_id);
    if (record.event != "decision" || video == index_of.end() ||
        branch == branch_of.end()) {
      continue;
    }
    ++traced_decisions;
    bool rendered = false;
    for (FeatureKind kind : kHeavyFeatures) {
      if (std::find(record.features.begin(), record.features.end(),
                    std::string(FeatureName(kind))) != record.features.end()) {
        ++feature_calls[static_cast<size_t>(kind)];
        rendered = rendered || FeatureNeedsRaster(kind);
      }
    }
    render_calls += rendered ? 1 : 0;
    points[video->second].push_back(
        {video->second, record.frame, branch->second, record.gof_length, record.gpu_cal});
  }

  // 2. Replays of each layer's public calls on the recorded inputs.
  int replay = spans.Begin("replay", root);
  std::vector<size_t> sample = Spread(order.size(), kReplayVideos);
  if (!offline) {
    owned.resize(order.size());
    for (size_t v : sample) {
      owned[v] = std::make_unique<SyntheticVideo>(
          SyntheticVideo::Generate(requests[v]->video));
    }
  }
  auto video_at = [&](size_t v) -> const SyntheticVideo& {
    return offline ? inputs.dataset.videos[v] : *owned[v];
  };
  std::vector<const DecisionPoint*> replayed;
  for (size_t v : sample) {
    for (const DecisionPoint& point : points[v]) {
      replayed.push_back(&point);
    }
  }
  auto scoped = [&](const std::string& name, const auto& body) {
    int id = spans.Begin("replay." + name, replay);
    body();
    spans.End(id);
  };

  // The detector on each recorded (frame, branch); a decision's input anchor
  // is the previous GoF's detector output on the same video.
  CallTimer detect;
  std::vector<DetectionList> anchors(replayed.size());
  scoped("mbek.detect_anchor", [&] {
    for (size_t i = 0; i < replayed.size(); ++i) {
      const DecisionPoint& p = *replayed[i];
      anchors[i] = detect.Time([&] {
        return ExecutionKernel::DetectAnchor(video_at(p.video), p.frame,
                                             models.space->at(p.branch), 1);
      });
    }
  });
  auto input_anchor = [&](size_t i) -> const DetectionList& {
    return i > 0 && replayed[i - 1]->video == replayed[i]->video ? anchors[i - 1]
                                                                 : anchors[i];
  };
  CallTimer track;
  long tracked_frames = 0;
  std::vector<std::vector<DetectionList>> tracked(replayed.size());
  scoped("mbek.track", [&] {
    for (size_t i = 0; i < replayed.size(); ++i) {
      const DecisionPoint& p = *replayed[i];
      Branch branch = models.space->at(p.branch);
      branch.gof = std::max(p.gof_length, 1);
      tracked[i] = track.Time([&] {
        return ExecutionKernel::TrackRemainder(video_at(p.video), p.frame, branch,
                                               anchors[i], 1);
      });
      tracked_frames += static_cast<long>(tracked[i].size());
    }
  });
  CallTimer render;
  std::vector<Image> images(replayed.size());
  scoped("video.render", [&] {
    for (size_t i = 0; i < replayed.size(); ++i) {
      images[i] = render.Time(
          [&] { return RenderFrame(video_at(replayed[i]->video), replayed[i]->frame); });
    }
  });
  std::array<CallTimer, kNumFeatureKinds> extract;
  std::vector<std::array<std::vector<double>, kNumFeatureKinds>> features(
      replayed.size());
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    FeatureKind kind = static_cast<FeatureKind>(k);
    scoped(std::string("features.") + Slug(kind), [&] {
      for (size_t i = 0; i < replayed.size(); ++i) {
        const DecisionPoint& p = *replayed[i];
        features[i][static_cast<size_t>(k)] = extract[static_cast<size_t>(k)].Time([&] {
          return ExtractFeature(kind, video_at(p.video), p.frame, input_anchor(i),
                                FeatureNeedsRaster(kind) ? &images[i] : nullptr);
        });
      }
    });
  }
  std::array<CallTimer, kNumFeatureKinds> predict;
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    FeatureKind kind = static_cast<FeatureKind>(k);
    const AccuracyPredictor& model = models.accuracy.at(kind);
    scoped(std::string("nn.predict.") + Slug(kind), [&] {
      for (size_t i = 0; i < replayed.size(); ++i) {
        const auto& row = features[i];
        predict[static_cast<size_t>(k)].Time([&] {
          return model.Predict(row[0], kind == FeatureKind::kLight
                                           ? std::vector<double>{}
                                           : row[static_cast<size_t>(k)]);
        });
      }
    });
  }
  CallTimer decide;
  SchedulerConfig sched_config = offline ? spec.scheduler : spec.serve.scheduler;
  LiteReconfigScheduler scheduler(&models, sched_config);
  scoped("sched.decide", [&] {
    for (size_t i = 0; i < replayed.size(); ++i) {
      const DecisionPoint& p = *replayed[i];
      const SyntheticVideo& video = video_at(p.video);
      bool continues = i > 0 && replayed[i - 1]->video == p.video;
      DecisionContext ctx;
      ctx.video = &video;
      ctx.frame = p.frame;
      ctx.anchor_detections = &input_anchor(i);
      if (continues) {
        ctx.current_branch = replayed[i - 1]->branch;
        ctx.gpu_cal = replayed[i - 1]->gpu_cal;
      }
      ctx.slo_ms = offline ? spec.slo_ms : requests[p.video]->slo_ms;
      ctx.frames_remaining = video.frame_count() - p.frame;
      decide.Time([&] { return scheduler.Decide(ctx).branch_index; });
    }
  });
  CallTimer add_frame;
  std::map<size_t, ApEvaluator> per_video;
  scoped("vision.add_frame", [&] {
    for (size_t i = 0; i < replayed.size(); ++i) {
      const DecisionPoint& p = *replayed[i];
      const SyntheticVideo& video = video_at(p.video);
      ApEvaluator& eval = per_video[p.video];
      add_frame.Time([&] {
        eval.AddFrame(video.frame(p.frame).VisibleGroundTruth(), anchors[i]);
        return 0;
      });
      for (size_t f = 0; f < tracked[i].size(); ++f) {
        int t = p.frame + 1 + static_cast<int>(f);
        if (t < video.frame_count()) {
          add_frame.Time([&] {
            eval.AddFrame(video.frame(t).VisibleGroundTruth(), tracked[i][f]);
            return 0;
          });
        }
      }
    }
  });
  double merge_ms = 0.0;
  scoped("vision.merge", [&] {
    WallTimer timer;
    ApEvaluator merged;
    for (const auto& [v, eval] : per_video) {
      merged.Merge(eval);
    }
    double map = merged.MeanAveragePrecision();
    merge_ms = timer.ElapsedMs();
    if (!std::isfinite(map)) {
      out.problems.push_back("replayed detections give a non-finite mAP");
    }
  });
  // Standalone sessions built from the workload's own streams (or videos),
  // stepped under the conditions the traced call recorded for them.
  CallTimer menu;
  CallTimer step;
  SwitchingCostModel switching(DeviceType::kTx2);
  scoped("serve.session", [&] {
    for (size_t v : sample) {
      StreamRequest request;
      if (offline) {
        request.stream_id = v;
        request.video = inputs.dataset.videos[v].spec();
        request.slo_ms = spec.slo_ms;
      } else {
        request = *requests[v];
      }
      StreamSession session(&models, sched_config, request, &switching,
                            spec.serve.service_salt);
      const std::vector<std::pair<double, double>>& seen =
          timeline.conditions[request.stream_id];
      for (size_t round = 0; !session.done(); ++round) {
        auto [level, budget] = round < seen.size() ? seen[round]
                                                   : std::pair<double, double>{0.0, 0.0};
        menu.Time([&] { return session.Menu(level).size(); });
        step.Time([&] { return session.StepGof(level, budget).gof_length; });
      }
    }
  });
  spans.End(replay);
  spans.End(root);
  if (!spans.Write(span_path, spec.name)) {
    out.problems.push_back("cannot write the span file " + span_path);
  }

  // 3. The per-layer table of the traced call. Phases of the per-video
  // fan-out are thread-summed, so they are shown as their share of the
  // call's `threads`-wide capacity; the merge runs alone on the calling
  // thread after the fan-out and counts in full. The rows plus the residual
  // (workers idle in the fan-out, runner bookkeeping) add up to the wall time.
  std::vector<LayerRow> rows;
  double per = 1.0 / static_cast<double>(threads);
  const PhaseProfile& ph = traced.phases;
  double decide_ms = ph.decide_us / 1000.0;
  double detect_ms = ph.detect_us / 1000.0;
  double track_ms = ph.track_us / 1000.0;
  double join_ms = ph.defer_join_us / 1000.0;
  double eval_ms = ph.eval_us / 1000.0;
  double run_ms = ph.run_us / 1000.0;
  double phase_merge_ms = ph.merge_us / 1000.0;
  if (offline) {
    rows.push_back({"sched (decide: features, nn, cost table, scan)", decide_ms * per});
    rows.push_back({"mbek.detect", detect_ms * per});
    rows.push_back({"mbek.track", track_ms * per});
    rows.push_back({"pipeline.defer_join", join_ms * per});
    rows.push_back({"pipeline.video_other",
                    (run_ms - decide_ms - detect_ms - track_ms - join_ms) * per});
    rows.push_back({"vision.eval", eval_ms * per});
    rows.push_back({"pipeline.merge", phase_merge_ms});
  } else {
    rows.push_back({"serve.step (plan + parallel StepGof)", timeline.step_us / 1000.0});
    rows.push_back({"serve.control (admission, departures, events)",
                    timeline.control_us / 1000.0});
  }
  double accounted_ms = 0.0;
  for (const LayerRow& row : rows) {
    accounted_ms += row.self_ms;
  }
  double residual_ms = wall_ms - accounted_ms;
  if (residual_ms < 0.0) {
    out.problems.push_back("layer self times exceed the traced wall time");
  }
  const LayerRow* largest = &rows.front();
  for (const LayerRow& row : rows) {
    largest = row.self_ms > largest->self_ms ? &row : largest;
  }
  auto share = [wall_ms](double ms) {
    return FmtDouble(wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0, 1) + "%";
  };
  report << "[perfbench] traced call: " << FmtDouble(wall_ms, 2) << " ms wall on "
         << threads << " thread(s); untraced median " << FmtDouble(untraced_wall_ms, 2)
         << " ms; tracing overhead " << FmtDouble(wall_ms - untraced_wall_ms, 2)
         << " ms\n";
  TablePrinter table({"layer", "self ms", "share"});
  for (const LayerRow& row : rows) {
    table.AddRow({row.name, FmtDouble(row.self_ms, 3), share(row.self_ms)});
    report << "[perfbench] layer\t" << row.name << "\t" << FmtDouble(row.self_ms, 6)
           << "\n";
  }
  table.AddRow({"residual", FmtDouble(residual_ms, 3), share(residual_ms)});
  table.AddRow({"traced wall", FmtDouble(wall_ms, 3), "100.0%"});
  table.Print(report);
  report << "[perfbench] span self time of the call outside its "
         << (offline ? "per-video" : "per-round step") << " spans: "
         << FmtDouble(outside_children_ms, 3) << " ms\n";
  report << "[perfbench] residual\t" << FmtDouble(residual_ms, 6) << "\n"
         << "[perfbench] traced_wall\t" << FmtDouble(wall_ms, 6) << "\n"
         << "[perfbench] largest layer on " << spec.name << ": " << largest->name
         << " (" << share(largest->self_ms) << " of the traced wall)\n";

  // Unit costs from the replays, and what they imply for the traced call.
  long decisions = offline ? ph.decisions : timeline.decisions;
  TablePrinter units({"layer call (replayed)", "us/call", "replayed", "traced calls",
                      "est. ms"});
  auto unit_row = [&](const std::string& name, const CallTimer& timer, long calls) {
    units.AddRow({name, FmtDouble(timer.PerCallUs(), 2), std::to_string(timer.calls),
                  std::to_string(calls),
                  FmtDouble(timer.PerCallUs() * static_cast<double>(calls) / 1000.0, 2)});
  };
  unit_row("sched.decide", decide, decisions);
  unit_row("video.render", render, render_calls);
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    size_t kk = static_cast<size_t>(k);
    long calls = k == 0 ? decisions : feature_calls[kk];
    unit_row(std::string("features.") + kKindSlug[kk], extract[kk], calls);
    unit_row(std::string("nn.predict.") + kKindSlug[kk], predict[kk], calls);
  }
  CallTimer per_frame{track.total_us, tracked_frames};
  long steps = offline ? ph.gofs : timeline.gof_steps;
  unit_row("mbek.detect_anchor", detect, steps);
  unit_row("mbek.track_frame", per_frame, static_cast<long>(traced.frames) - steps);
  unit_row("vision.add_frame", add_frame, static_cast<long>(traced.frames));
  unit_row("serve.menu", menu, offline ? 0 : timeline.gof_steps);
  unit_row("serve.step_gof", step, offline ? 0 : steps);
  units.Print(report);

  // 4. Per-layer metrics.
  metric("traced.wall_ms", wall_ms, "ms");
  metric("traced.overhead_ms", wall_ms - untraced_wall_ms, "ms");
  metric("traced.residual_ms", residual_ms, "ms");
  metric("sim_deadline_misses", traced.deadline_misses, "count");
  metric("pipeline.decide_ms", decide_ms, "ms");
  metric("pipeline.detect_ms", detect_ms, "ms");
  metric("pipeline.track_ms", track_ms, "ms");
  metric("pipeline.eval_ms", eval_ms, "ms");
  metric("pipeline.merge_ms", phase_merge_ms, "ms");
  metric("pipeline.busy_frac", offline && wall_ms > 0.0 ? run_ms * per / wall_ms : 0.0,
         "ratio");
  metric("pipeline.gofs", ph.gofs, "count");
  metric("pipeline.deferred_gofs", ph.deferred_gofs, "count");
  metric("sched.decide_us", decide.PerCallUs(), "us");
  metric("sched.decisions", decisions, "count");
  metric("sched.table_builds", ph.table_builds, "count");
  metric("sched.table_reuse_frac",
         ph.decisions > 0 ? static_cast<double>(ph.table_reuses) / ph.decisions : 0.0,
         "ratio");
  metric("sched.switch_row_reuse_frac",
         ph.decisions > 0 ? static_cast<double>(ph.switch_row_reuses) / ph.decisions
                          : 0.0,
         "ratio");
  metric("video.render.us", render.PerCallUs(), "us");
  metric("video.render.calls", render_calls, "count");
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    size_t kk = static_cast<size_t>(k);
    long calls = k == 0 ? traced_decisions : feature_calls[kk];
    std::string slug = kKindSlug[kk];
    metric("features." + slug + ".us", extract[kk].PerCallUs(), "us");
    metric("features." + slug + ".calls", calls, "count");
    metric("nn.predict." + slug + ".us", predict[kk].PerCallUs(), "us");
    metric("nn.predict." + slug + ".calls", calls, "count");
  }
  metric("mbek.detect_anchor.us", detect.PerCallUs(), "us");
  metric("mbek.track_frame.us", per_frame.PerCallUs(), "us");
  metric("vision.add_frame.us", add_frame.PerCallUs(), "us");
  metric("vision.merge_ms", merge_ms, "ms");
  metric("serve.rounds", static_cast<double>(timeline.round_ms.size()) +
                             (timeline.step_round >= 0 ? 1.0 : 0.0),
         "count");
  metric("serve.gof_steps", timeline.gof_steps, "count");
  double rounds = static_cast<double>(timeline.round_ms.size()) + 1.0;
  metric("serve.live_streams_mean",
         timeline.step_round >= 0 ? static_cast<double>(timeline.gof_steps) / rounds : 0.0,
         "count");
  metric("serve.round_ms_p50",
         timeline.round_ms.empty() ? 0.0 : Percentile(timeline.round_ms, 0.50), "ms");
  metric("serve.round_ms_p95",
         timeline.round_ms.empty() ? 0.0 : Percentile(timeline.round_ms, 0.95), "ms");
  metric("serve.step_gof.us", step.PerCallUs(), "us");
  metric("serve.menu.us", menu.PerCallUs(), "us");
  metric("serve.busy_frac",
         timeline.step_us > 0.0 ? step.PerCallUs() * static_cast<double>(timeline.gof_steps) /
                                      (timeline.step_us * threads)
                                : 0.0,
         "ratio");
  metric("serve.admits", timeline.admits, "count");
  metric("serve.queued", timeline.queued, "count");
  metric("serve.rejects", timeline.rejects, "count");
  metric("serve.evictions", timeline.evictions, "count");
  metric("serve.renegotiations", timeline.renegotiations, "count");
  metric("serve.coasts", timeline.coasts, "count");
  return out;
}

}  // namespace litereconfig::perfbench
