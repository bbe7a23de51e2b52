// The three same-process speed floors (CI perf job).
//
// Times the scheduler hot path (Decide in kFull mode against the reference
// scheduler in tests/decide_reference.h), the accuracy-MLP forward
// (Mlp::Predict against the single-chain oracle in tests/mlp_reference.h) and
// the embedding tail (detmath's lane Tanh and Pcg32::FillNormal against one
// scalar Tanh and Normal per output), then writes the machine-readable
// BENCH_perf.json into the working directory (the repo root in CI).
//
// Exit status is the gate: Decide must be at least 2x its reference, the
// forward at least 1.5x its oracle and the embedding tail at least 1.5x its
// scalar loop. Both sides of each ratio run on the same host in the same
// process, so the floors hold on any machine. End-to-end speed is
// perfbench's (perfbench/run.py), on the production workloads.
//
// Usage: bench_perf [--threads=N] [--out=PATH]
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/mbek/kernel.h"
#include "src/pipeline/trainer.h"
#include "src/util/detmath.h"
#include "src/util/rng.h"
#include "src/video/dataset.h"
#include "tests/decide_reference.h"
#include "tests/mlp_reference.h"

namespace litereconfig {
namespace {

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

// Mean microseconds per embedding tail over `iters` calls: the 1,024
// outputs of one ResNet50 extraction through tanh plus Normal noise
// (src/features/embedding.cc), on the lane forms (detmath's Tanh over the
// span, then FillNormal) when `lanes`, one scalar Tanh and Normal per output
// otherwise. Both sides see the same values and the same generator seeds.
double TimeEmbeddingTail(const std::vector<double>& values, int iters, bool lanes) {
  std::vector<double> out(values.size());
  std::vector<double> noise(values.size());
  double sink = 0.0;
  WallTimer timer;
  for (int i = 0; i < iters; ++i) {
    Pcg32 rng(static_cast<uint64_t>(i));
    if (lanes) {
      std::copy(values.begin(), values.end(), out.begin());
      Tanh(out);
      rng.FillNormal(noise, 0.0, 0.04);
      for (size_t o = 0; o < out.size(); ++o) {
        out[o] += noise[o];
      }
    } else {
      for (size_t o = 0; o < out.size(); ++o) {
        out[o] = Tanh(values[o]) + rng.Normal(0.0, 0.04);
      }
    }
    sink += out.back();
  }
  double total_us = timer.ElapsedMicros();
  if (std::isnan(sink)) {
    std::cout << "";
  }
  return total_us / static_cast<double>(iters);
}

int Run(int argc, char** argv) {
  int threads = BenchThreads(argc, argv);
  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
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
  double decide_fast_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return full.Decide(ctx);
  });
  double decide_ref_us = TimeDecide(cases, kDecideIters, [&](const DecisionContext& ctx) {
    return DecideReference(models, full_config, ctx);
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

  // The embedding tail at ResNet50's width, on pre-tanh values spread as
  // the projection's are, best of interleaved reps.
  std::vector<double> tail_values(1024);
  Pcg32 tail_rng(HashKeys({0x7a11ull, 0x2e54e7ull}));
  for (double& v : tail_values) {
    v = tail_rng.Uniform(-3.0, 3.0);
  }
  constexpr int kTailIters = 400;
  double tail_lanes_us = 0.0;
  double tail_scalar_us = 0.0;
  for (int r = 0; r < 5; ++r) {
    double lanes = TimeEmbeddingTail(tail_values, kTailIters, /*lanes=*/true);
    double scalar = TimeEmbeddingTail(tail_values, kTailIters, /*lanes=*/false);
    tail_lanes_us = r == 0 ? lanes : std::min(tail_lanes_us, lanes);
    tail_scalar_us = r == 0 ? scalar : std::min(tail_scalar_us, scalar);
  }

  struct Section {
    const char* key;  // the BENCH_perf.json section
    const char* name;
    double fast_us;
    double reference_us;
    double floor;
    double speedup() const { return fast_us > 0.0 ? reference_us / fast_us : 0.0; }
  };
  const Section sections[] = {
      {"decide_full", "Decide (kFull)", decide_fast_us, decide_ref_us, 2.0},
      {"mlp_forward", "Mlp forward (heavy shape)", mlp_fast_us, mlp_ref_us, 1.5},
      {"embedding_tail", "Embedding tail (lane Tanh + FillNormal)", tail_lanes_us,
       tail_scalar_us, 1.5},
  };
  TablePrinter table({"section", "fast us", "reference us", "speedup", "floor"});
  std::ofstream json(out_path);
  json << "{\n  \"threads\": " << threads;
  for (const Section& s : sections) {
    table.AddRow({s.name, FmtDouble(s.fast_us, 2), FmtDouble(s.reference_us, 2),
                  FmtDouble(s.speedup(), 2), FmtDouble(s.floor, 1)});
    json << ",\n  \"" << s.key << "\": {\"fast_us\": " << s.fast_us
         << ", \"reference_us\": " << s.reference_us
         << ", \"speedup\": " << s.speedup() << "}";
  }
  json << "\n}\n";
  json.close();
  table.Print(std::cout);
  std::cout << "[bench] wrote " << out_path << "\n";

  int status = 0;
  for (const Section& s : sections) {
    if (s.speedup() < s.floor) {
      std::cerr << "bench_perf: " << s.name << " is only " << FmtDouble(s.speedup(), 2)
                << "x its reference; the floor is " << FmtDouble(s.floor, 1) << "x\n";
      status = 1;
    }
  }
  return status;
}

}  // namespace
}  // namespace litereconfig

int main(int argc, char** argv) { return litereconfig::Run(argc, argv); }
