// The perf-regression harness (CI perf-smoke job).
//
// Times the scheduler hot path (Decide and SelectFeatures, fast vs. the
// retained reference implementation), the accuracy-MLP forward (Mlp::Predict
// vs. the single-chain oracle in tests/mlp_reference.h) and the end-to-end
// OnlineRunner::Run (fast vs. reference scheduler, and intra-video pipelining
// on vs. off), then writes the machine-readable BENCH_perf.json into the
// working directory (the repo root in CI).
//
// Exit status doubles as the in-binary acceptance gate: the fast Decide path
// must be at least 2x the reference in kFull mode, and the pipelined+batched
// execution plan must not run slower than the serial reference executor
// (e2e_pipeline speedup >= 1.0). The ratios are machine-independent (both
// sides run on the same host in the same process); CI additionally compares
// the absolute numbers against bench/perf_baseline.json to catch regressions
// over time.
//
// --profile additionally runs one instrumented pass of the pipelined e2e
// variant and reports where its wall time goes phase by phase
// (decide/detect/track/defer-join/eval/merge), as a table and a "profile"
// section in the JSON.
//
// Usage: bench_perf [--threads=N] [--out=PATH] [--profile]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/pipeline/trainer.h"
#include "src/sched/scheduler_session.h"
#include "src/util/rng.h"
#include "src/video/dataset.h"
#include "tests/mlp_reference.h"

namespace litereconfig {
namespace {

// The injected PhaseClockFn for --profile: monotonic microseconds since the
// first call (PhaseProfile only ever subtracts, so the epoch is arbitrary).
double NowMicros() {
  // detlint: allow(mutable-global) bench-only wall-clock epoch, subtract-only
  static WallTimer timer;
  return timer.ElapsedMicros();
}

struct DecisionCase {
  SyntheticVideo video;
  DetectionList anchor;
  double slo_ms = 33.3;
};

// A small pool of realistic decision inputs: real frames, real detector
// outputs, SLOs spanning tight to loose.
std::vector<DecisionCase> MakeCases(const TrainedModels& models) {
  DatasetSpec spec;
  spec.base_seed = 21;
  spec.num_videos = 4;
  spec.frames_per_video = 40;
  Dataset dataset = BuildDataset(spec, DatasetSplit::kVal);
  std::vector<DecisionCase> cases;
  Pcg32 rng(HashKeys({0xbe7cull, 0x9e2full}));
  for (const SyntheticVideo& video : dataset.videos) {
    for (int frame : {0, 13, 27}) {
      DecisionCase c{video, {}, 10.0 + rng.NextDouble() * 60.0};
      c.anchor = ExecutionKernel::DetectAnchor(
          video, frame, models.space->at(rng.NextU32() % models.space->size()),
          /*run_salt=*/3);
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

DecisionContext MakeContext(const DecisionCase& c, size_t current) {
  DecisionContext ctx;
  ctx.video = &c.video;
  ctx.frame = 0;
  ctx.anchor_detections = &c.anchor;
  ctx.slo_ms = c.slo_ms;
  ctx.current_branch = current;
  ctx.frames_remaining = c.video.frame_count();
  return ctx;
}

// Mean microseconds per Decide over `iters` calls round-robining the cases.
template <typename DecideFn>
double TimeDecide(const std::vector<DecisionCase>& cases, int iters,
                  const DecideFn& decide) {
  size_t sink = 0;
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    const DecisionCase& c = cases[static_cast<size_t>(i) % cases.size()];
    sink += decide(MakeContext(c, static_cast<size_t>(i) % 7)).branch_index;
  }
  double total_us = timer.ElapsedMicros();
  // Consume the sink so the calls cannot be elided.
  if (sink == static_cast<size_t>(-1)) {
    std::cout << "";
  }
  return total_us / static_cast<double>(iters);
}

template <typename SelectFn>
double TimeSelect(const TrainedModels& models,
                  const std::vector<DecisionCase>& cases, int iters,
                  const SelectFn& select) {
  size_t sink = 0;
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    const DecisionCase& c = cases[static_cast<size_t>(i) % cases.size()];
    std::vector<double> light = ComputeLightFeatures(
        c.video.spec().width, c.video.spec().height, c.anchor);
    std::vector<double> light_pred =
        models.accuracy.at(FeatureKind::kLight).Predict(light, {});
    sink += select(light, light_pred, MakeContext(c, static_cast<size_t>(i) % 7))
                .size();
  }
  double total_us = timer.ElapsedMicros();
  if (sink == static_cast<size_t>(-1)) {
    std::cout << "";
  }
  return total_us / static_cast<double>(iters);
}

// Mean microseconds per Decide over repeated-context streaks: 16 consecutive
// decisions share one context, the shape of a stream in a stable regime (same
// branch, slowly-moving calibration). With a persistent SchedulerSession the
// 15 repeats replay the cached cost table (and, for heavy-feature-free
// decisions, the whole decision); `session == nullptr` times the fresh path
// on the identical call pattern.
double TimeDecideStreaks(const LiteReconfigScheduler& sched,
                         const std::vector<DecisionCase>& cases, int iters,
                         SchedulerSession* session) {
  size_t sink = 0;
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    size_t streak = static_cast<size_t>(i) / 16;
    const DecisionCase& c = cases[streak % cases.size()];
    sink += sched.Decide(MakeContext(c, streak % 7), session).branch_index;
  }
  double total_us = timer.ElapsedMicros();
  if (sink == static_cast<size_t>(-1)) {
    std::cout << "";
  }
  return total_us / static_cast<double>(iters);
}

// Mean microseconds per forward over `iters` calls round-robining the inputs:
// Mlp::Predict when `blocked`, the single-chain oracle otherwise. The oracle
// reads the weights exported before the timer starts, so the ratio times the
// two forwards and not the export.
double TimeMlpForward(const Mlp& mlp, const std::vector<std::vector<double>>& inputs,
                      int iters, bool blocked) {
  const std::vector<Matrix> row_major = mlp.weights();
  double sink = 0.0;
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    const std::vector<double>& input = inputs[static_cast<size_t>(i) % inputs.size()];
    sink += blocked ? mlp.Predict(input).back()
                    : ReferenceMlpPredict(row_major, mlp.biases(), input).back();
  }
  double total_us = timer.ElapsedMicros();
  if (std::isnan(sink)) {
    std::cout << "";
  }
  return total_us / static_cast<double>(iters);
}

// One end-to-end OnlineRunner::Run variant: scheduler config + pipeline flag.
struct RunVariant {
  SchedulerConfig sched;
  bool pipeline = true;
};

// Best-of-reps wall clock per variant, with the variants interleaved within
// each rep so clock-frequency drift hits all of them alike.
std::vector<double> TimeRuns(const TrainedModels& models, const Dataset& dataset,
                             int threads, const std::vector<RunVariant>& variants,
                             int reps) {
  std::vector<double> best_ms(variants.size(), 0.0);
  for (int r = 0; r < reps; ++r) {
    for (size_t v = 0; v < variants.size(); ++v) {
      LiteReconfigProtocol protocol(&models, variants[v].sched, "LiteReconfig");
      EvalConfig config;
      config.slo_ms = 33.3;
      config.threads = threads;
      config.pipeline = variants[v].pipeline;
      WallTimer timer;
      EvalResult result = OnlineRunner::Run(protocol, dataset, config);
      double ms = timer.ElapsedMs();
      if (result.frames == 0) {
        std::cerr << "bench_perf: empty evaluation result\n";
        std::exit(2);
      }
      best_ms[v] = r == 0 ? ms : std::min(best_ms[v], ms);
    }
  }
  return best_ms;
}

std::string JsonSection(const std::string& name, double fast, double reference,
                        const std::string& unit) {
  std::ostringstream out;
  out << "  \"" << name << "\": {\"fast_" << unit << "\": " << fast
      << ", \"reference_" << unit << "\": " << reference
      << ", \"speedup\": " << (fast > 0.0 ? reference / fast : 0.0) << "}";
  return out.str();
}

int Run(int argc, char** argv) {
  int threads = BenchThreads(argc, argv);
  std::string out_path = "BENCH_perf.json";
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--profile") {
      profile = true;
    }
  }

  // Tiny-scale models: the fast-vs-reference ratio depends on the branch
  // space (shared with production scale), not on training fidelity, and CI
  // needs this binary cheap.
  TrainedModels models =
      OfflineTrainer::Train(TrainConfig::Tiny(), BranchSpace::Default());
  std::vector<DecisionCase> cases = MakeCases(models);

  constexpr int kDecideIters = 300;
  LiteReconfigScheduler full(&models, LiteReconfigProtocol::FullConfig());
  double full_fast_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return full.Decide(ctx);
  });
  double full_ref_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return full.DecideReference(ctx);
  });

  LiteReconfigScheduler mincost(&models, LiteReconfigProtocol::MinCostConfig());
  double mincost_fast_us =
      TimeDecide(cases, kDecideIters,
                 [&](const DecisionContext& ctx) { return mincost.Decide(ctx); });
  double mincost_ref_us = TimeDecide(
      cases, kDecideIters,
      [&](const DecisionContext& ctx) { return mincost.DecideReference(ctx); });

  double select_fast_us = TimeSelect(
      models, cases, kDecideIters,
      [&](const std::vector<double>& light, const std::vector<double>& light_pred,
          const DecisionContext& ctx) {
        return full.SelectFeatures(light, light_pred, ctx);
      });
  double select_ref_us = TimeSelect(
      models, cases, kDecideIters,
      [&](const std::vector<double>& light, const std::vector<double>& light_pred,
          const DecisionContext& ctx) {
        return full.SelectFeaturesReference(light, light_pred, ctx);
      });

  // The accuracy-MLP forward at the production heavy-model shape ({100, 96,
  // 96, 96, 204}: TrainConfig's hidden width over the default branch space),
  // best of interleaved reps.
  Mlp heavy_mlp(AccuracyPredictor::DefaultMlpConfig(
      FeatureKind::kResNet50, BranchSpace::Default().size(),
      TrainConfig().hidden_width, /*epochs=*/1));
  std::vector<std::vector<double>> mlp_inputs;
  Pcg32 mlp_rng(HashKeys({0xf0dull, 0x8b10ull}));
  for (int i = 0; i < 16; ++i) {
    std::vector<double>& input = mlp_inputs.emplace_back(
        heavy_mlp.config().layer_dims.front());
    for (double& v : input) {
      v = mlp_rng.Uniform(-1.0, 1.0);
    }
  }
  constexpr int kMlpIters = 2000;
  double mlp_fast_us = 0.0;
  double mlp_ref_us = 0.0;
  for (int r = 0; r < 5; ++r) {
    double fast = TimeMlpForward(heavy_mlp, mlp_inputs, kMlpIters, /*blocked=*/true);
    double ref = TimeMlpForward(heavy_mlp, mlp_inputs, kMlpIters, /*blocked=*/false);
    mlp_fast_us = r == 0 ? fast : std::min(mlp_fast_us, fast);
    mlp_ref_us = r == 0 ? ref : std::min(mlp_ref_us, ref);
  }

  // The batched scheduler: persistent-session Decide vs the identical fresh
  // call pattern (repeated-context streaks; see TimeDecideStreaks).
  SchedulerSession reuse_session;
  double reuse_session_us =
      TimeDecideStreaks(full, cases, kDecideIters, &reuse_session);
  double reuse_fresh_us = TimeDecideStreaks(full, cases, kDecideIters, nullptr);
  const SchedulerSession::Counters& reuse = reuse_session.counters();

  // Fewer videos than workers: idle workers can absorb the deferred tracker
  // halves, which is the production-shaped case of a stream count below the
  // core count. The headline e2e comparison is fast-path vs reference
  // scheduler (the scheduler pass dominates the per-GoF cost); pipeline on/off
  // is reported alongside it.
  DatasetSpec e2e_spec;
  e2e_spec.base_seed = 33;
  e2e_spec.num_videos = 2;
  e2e_spec.frames_per_video = 360;
  Dataset e2e_dataset = BuildDataset(e2e_spec, DatasetSplit::kVal);
  RunVariant run_fast{LiteReconfigProtocol::FullConfig(), /*pipeline=*/true};
  RunVariant run_reference = run_fast;
  run_reference.sched.use_fast_path = false;
  RunVariant run_serial = run_fast;
  run_serial.pipeline = false;
  std::vector<double> run_ms = TimeRuns(
      models, e2e_dataset, threads, {run_fast, run_reference, run_serial},
      /*reps=*/9);
  double run_fast_ms = run_ms[0];
  double run_reference_ms = run_ms[1];
  double run_serial_ms = run_ms[2];

  double decide_speedup = full_fast_us > 0.0 ? full_ref_us / full_fast_us : 0.0;
  double pipeline_speedup =
      run_fast_ms > 0.0 ? run_serial_ms / run_fast_ms : 0.0;
  double reuse_speedup =
      reuse_session_us > 0.0 ? reuse_fresh_us / reuse_session_us : 0.0;

  // One instrumented pass of the pipelined variant: where the wall time goes.
  PhaseProfile phases;
  double profile_wall_ms = 0.0;
  if (profile) {
    LiteReconfigProtocol protocol(&models, run_fast.sched, "LiteReconfig");
    EvalConfig config;
    config.slo_ms = 33.3;
    config.threads = threads;
    config.pipeline = true;
    config.now_us = NowMicros;
    WallTimer timer;
    EvalResult result = OnlineRunner::Run(protocol, e2e_dataset, config);
    profile_wall_ms = timer.ElapsedMs();
    phases = result.phases;
  }

  TablePrinter table({"section", "fast", "reference", "speedup"});
  table.AddRow({"Decide (kFull), us", FmtDouble(full_fast_us, 1),
                FmtDouble(full_ref_us, 1), FmtDouble(decide_speedup, 2)});
  table.AddRow({"Decide (kMinCost), us", FmtDouble(mincost_fast_us, 1),
                FmtDouble(mincost_ref_us, 1),
                FmtDouble(mincost_fast_us > 0.0 ? mincost_ref_us / mincost_fast_us
                                                : 0.0,
                          2)});
  table.AddRow({"SelectFeatures, us", FmtDouble(select_fast_us, 1),
                FmtDouble(select_ref_us, 1),
                FmtDouble(select_fast_us > 0.0 ? select_ref_us / select_fast_us
                                               : 0.0,
                          2)});
  table.AddRow({"Mlp forward (heavy shape), us", FmtDouble(mlp_fast_us, 2),
                FmtDouble(mlp_ref_us, 2),
                FmtDouble(mlp_fast_us > 0.0 ? mlp_ref_us / mlp_fast_us : 0.0, 2)});
  table.AddRow({"Run e2e (sched fast/ref), ms", FmtDouble(run_fast_ms, 1),
                FmtDouble(run_reference_ms, 1),
                FmtDouble(run_fast_ms > 0.0 ? run_reference_ms / run_fast_ms
                                            : 0.0,
                          2)});
  table.AddRow({"Run e2e (pipeline on/off), ms", FmtDouble(run_fast_ms, 1),
                FmtDouble(run_serial_ms, 1), FmtDouble(pipeline_speedup, 2)});
  table.AddRow({"Decide streaks (session/fresh), us",
                FmtDouble(reuse_session_us, 1), FmtDouble(reuse_fresh_us, 1),
                FmtDouble(reuse_speedup, 2)});
  table.Print(std::cout);

  if (profile) {
    double accounted_us = phases.decide_us + phases.detect_us +
                          phases.track_us + phases.defer_join_us +
                          phases.eval_us + phases.merge_us;
    TablePrinter prof({"phase", "ms", "share"});
    auto share = [&](double us) {
      return FmtDouble(profile_wall_ms > 0.0
                           ? 100.0 * us / (profile_wall_ms * 1000.0)
                           : 0.0,
                       1) +
             "%";
    };
    prof.AddRow({"decide", FmtDouble(phases.decide_us / 1000.0, 2),
                 share(phases.decide_us)});
    prof.AddRow({"detect", FmtDouble(phases.detect_us / 1000.0, 2),
                 share(phases.detect_us)});
    prof.AddRow({"track", FmtDouble(phases.track_us / 1000.0, 2),
                 share(phases.track_us)});
    prof.AddRow({"defer-join", FmtDouble(phases.defer_join_us / 1000.0, 2),
                 share(phases.defer_join_us)});
    prof.AddRow({"eval", FmtDouble(phases.eval_us / 1000.0, 2),
                 share(phases.eval_us)});
    prof.AddRow({"merge", FmtDouble(phases.merge_us / 1000.0, 2),
                 share(phases.merge_us)});
    prof.AddRow({"other", FmtDouble(profile_wall_ms - accounted_us / 1000.0, 2),
                 share(profile_wall_ms * 1000.0 - accounted_us)});
    prof.AddRow({"total wall", FmtDouble(profile_wall_ms, 2), "100.0%"});
    prof.Print(std::cout);
    std::cout << "[bench] profile: " << phases.gofs << " gofs ("
              << phases.deferred_gofs << " deferred, " << phases.inline_gofs
              << " inline), " << phases.decisions << " session decisions ("
              << phases.decision_reuses << " replayed, " << phases.table_reuses
              << " table reuses, " << phases.table_builds << " builds, "
              << phases.switch_row_reuses << " switch-row reuses)\n";
  }

  std::ofstream json(out_path);
  json << "{\n";
  json << "  \"threads\": " << threads << ",\n";
  json << JsonSection("decide_full", full_fast_us, full_ref_us, "us") << ",\n";
  json << JsonSection("decide_mincost", mincost_fast_us, mincost_ref_us, "us")
       << ",\n";
  json << JsonSection("select_features", select_fast_us, select_ref_us, "us")
       << ",\n";
  json << JsonSection("mlp_forward", mlp_fast_us, mlp_ref_us, "us") << ",\n";
  json << JsonSection("e2e_run", run_fast_ms, run_reference_ms, "ms") << ",\n";
  json << "  \"e2e_pipeline\": {\"on_ms\": " << run_fast_ms
       << ", \"off_ms\": " << run_serial_ms
       << ", \"speedup\": " << pipeline_speedup << "},\n";
  json << "  \"cost_table_reuse\": {\"session_us\": " << reuse_session_us
       << ", \"fresh_us\": " << reuse_fresh_us
       << ", \"speedup\": " << reuse_speedup
       << ", \"decision_reuses\": " << reuse.decision_reuses
       << ", \"table_reuses\": " << reuse.table_reuses
       << ", \"table_builds\": " << reuse.table_builds
       << ", \"switch_row_reuses\": " << reuse.switch_row_reuses
       << ", \"decisions\": " << reuse.decisions << "}";
  if (profile) {
    json << ",\n  \"profile\": {\"wall_ms\": " << profile_wall_ms
         << ", \"decide_ms\": " << phases.decide_us / 1000.0
         << ", \"detect_ms\": " << phases.detect_us / 1000.0
         << ", \"track_ms\": " << phases.track_us / 1000.0
         << ", \"defer_join_ms\": " << phases.defer_join_us / 1000.0
         << ", \"eval_ms\": " << phases.eval_us / 1000.0
         << ", \"merge_ms\": " << phases.merge_us / 1000.0
         << ", \"gofs\": " << phases.gofs
         << ", \"deferred_gofs\": " << phases.deferred_gofs
         << ", \"inline_gofs\": " << phases.inline_gofs << "}";
  }
  json << "\n}\n";
  json.close();
  std::cout << "[bench] wrote " << out_path << "\n";

  if (decide_speedup < 2.0) {
    std::cerr << "bench_perf: Decide (kFull) fast path is only "
              << FmtDouble(decide_speedup, 2)
              << "x the reference; the acceptance gate is 2x\n";
    return 1;
  }
  if (pipeline_speedup < 1.0) {
    std::cerr << "bench_perf: the pipelined+batched plan is "
              << FmtDouble(pipeline_speedup, 2)
              << "x the serial reference executor; the acceptance gate is "
                 "1.0x (pipelining must never cost throughput)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
