// The perf-regression harness (CI perf-smoke job).
//
// Times the scheduler hot path (Decide and SelectFeatures against the
// reference scheduler in tests/decide_reference.h), the accuracy-MLP forward
// (Mlp::Predict vs. the single-chain oracle in tests/mlp_reference.h) and the
// end-to-end OnlineRunner::Run, then writes the machine-readable
// BENCH_perf.json into the working directory (the repo root in CI).
//
// Exit status doubles as the in-binary acceptance gate: Decide must be at
// least 2x the reference in kFull mode. The ratio is machine-independent
// (both sides run on the same host in the same process); CI additionally
// compares the absolute numbers against bench/perf_baseline.json to catch
// regressions over time.
//
// --profile additionally runs one instrumented pass of the e2e run and
// reports where its wall time goes phase by phase
// (decide/detect/track/eval/merge), as a table and a "profile" section in the
// JSON.
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
#include "src/util/rng.h"
#include "src/video/dataset.h"
#include "tests/decide_reference.h"
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

// Best-of-reps wall clock of the end-to-end LiteReconfig evaluation.
double TimeRun(const TrainedModels& models, const Dataset& dataset, int threads,
               int reps) {
  double best_ms = 0.0;
  for (int r = 0; r < reps; ++r) {
    LiteReconfigProtocol protocol(&models, LiteReconfigProtocol::FullConfig(),
                                  "LiteReconfig");
    EvalConfig config;
    config.slo_ms = 33.3;
    config.threads = threads;
    WallTimer timer;
    EvalResult result = OnlineRunner::Run(protocol, dataset, config);
    double ms = timer.ElapsedMs();
    if (result.frames == 0) {
      std::cerr << "bench_perf: empty evaluation result\n";
      std::exit(2);
    }
    best_ms = r == 0 ? ms : std::min(best_ms, ms);
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
  const SchedulerConfig full_config = LiteReconfigProtocol::FullConfig();
  LiteReconfigScheduler full(&models, full_config);
  double full_fast_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return full.Decide(ctx);
  });
  double full_ref_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return DecideReference(models, full_config, ctx);
  });

  const SchedulerConfig mincost_config = LiteReconfigProtocol::MinCostConfig();
  LiteReconfigScheduler mincost(&models, mincost_config);
  double mincost_fast_us =
      TimeDecide(cases, kDecideIters,
                 [&](const DecisionContext& ctx) { return mincost.Decide(ctx); });
  double mincost_ref_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return DecideReference(models, mincost_config, ctx);
  });

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
        return SelectFeaturesReference(models, full_config, light, light_pred, ctx);
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

  // Fewer videos than workers, one of them HOG-heavy: the shape CI has timed
  // since the fast scheduler landed.
  DatasetSpec e2e_spec;
  e2e_spec.base_seed = 33;
  e2e_spec.num_videos = 2;
  e2e_spec.frames_per_video = 360;
  Dataset e2e_dataset = BuildDataset(e2e_spec, DatasetSplit::kVal);
  double run_ms = TimeRun(models, e2e_dataset, threads, /*reps=*/9);

  double decide_speedup = full_fast_us > 0.0 ? full_ref_us / full_fast_us : 0.0;

  // One instrumented pass of the e2e run: where the wall time goes.
  PhaseProfile phases;
  double profile_wall_ms = 0.0;
  if (profile) {
    LiteReconfigProtocol protocol(&models, full_config, "LiteReconfig");
    EvalConfig config;
    config.slo_ms = 33.3;
    config.threads = threads;
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
  table.AddRow({"Run e2e, ms", FmtDouble(run_ms, 1), "-", "-"});
  table.Print(std::cout);

  if (profile) {
    double accounted_us = phases.decide_us + phases.detect_us + phases.track_us +
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
    prof.AddRow({"eval", FmtDouble(phases.eval_us / 1000.0, 2),
                 share(phases.eval_us)});
    prof.AddRow({"merge", FmtDouble(phases.merge_us / 1000.0, 2),
                 share(phases.merge_us)});
    prof.AddRow({"other", FmtDouble(profile_wall_ms - accounted_us / 1000.0, 2),
                 share(profile_wall_ms * 1000.0 - accounted_us)});
    prof.AddRow({"total wall", FmtDouble(profile_wall_ms, 2), "100.0%"});
    prof.Print(std::cout);
    std::cout << "[bench] profile: " << phases.gofs << " gofs, " << phases.decisions
              << " decisions (" << phases.switch_row_reuses
              << " switch-row reuses)\n";
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
  json << "  \"e2e_run\": {\"fast_ms\": " << run_ms << "}";
  if (profile) {
    json << ",\n  \"profile\": {\"wall_ms\": " << profile_wall_ms
         << ", \"decide_ms\": " << phases.decide_us / 1000.0
         << ", \"detect_ms\": " << phases.detect_us / 1000.0
         << ", \"track_ms\": " << phases.track_us / 1000.0
         << ", \"eval_ms\": " << phases.eval_us / 1000.0
         << ", \"merge_ms\": " << phases.merge_us / 1000.0
         << ", \"gofs\": " << phases.gofs << "}";
  }
  json << "\n}\n";
  json.close();
  std::cout << "[bench] wrote " << out_path << "\n";

  if (decide_speedup < 2.0) {
    std::cerr << "bench_perf: Decide (kFull) is only " << FmtDouble(decide_speedup, 2)
              << "x the reference; the acceptance gate is 2x\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
