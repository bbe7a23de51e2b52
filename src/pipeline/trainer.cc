#include "src/pipeline/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <optional>
#include <utility>

#include "src/features/light.h"
#include "src/mbek/kernel.h"
#include "src/pipeline/litereconfig_protocol.h"
#include "src/pipeline/runner.h"
#include "src/platform/latency.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace litereconfig {

namespace {

// The reference detector run that provides the anchor detections (light-feature
// object statistics, CPoP logits) on a training snippet's first frame.
constexpr DetectorConfig kReferenceDetector{448, 100};

// Seeds the kernel runs behind the accuracy labels and the Ben(F) holdout
// evaluations; part of the model-cache fingerprint.
constexpr uint64_t kLabelSalt = 0x7abe1ull;

}  // namespace

TrainConfig TrainConfig::Tiny() {
  TrainConfig config;
  config.train_spec = {/*base_seed=*/7, /*num_videos=*/10, /*frames_per_video=*/60};
  config.snippet_length = 20;
  config.snippet_stride = 20;
  config.max_snippets = 24;
  config.hidden_width = 32;
  config.epochs = 150;
  config.holdout_fraction = 0.2;  // 2 holdout videos for the Ben tabulation
  return config;
}

uint64_t TrainConfig::Fingerprint() const {
  return HashKeys({train_spec.base_seed, static_cast<uint64_t>(train_spec.num_videos),
                   static_cast<uint64_t>(train_spec.frames_per_video),
                   static_cast<uint64_t>(snippet_length),
                   static_cast<uint64_t>(snippet_stride),
                   static_cast<uint64_t>(max_snippets),
                   static_cast<uint64_t>(hidden_width), static_cast<uint64_t>(epochs),
                   static_cast<uint64_t>(device),
                   static_cast<uint64_t>(holdout_fraction * 1000.0), kLabelSalt,
                   // v5: the content features' tanh and Box-Muller noise
                   // moved from the host's libm to detmath, which moves the
                   // last bits of the training data, so older cached bundles
                   // are stale.
                   /*format version=*/5ull});
}

std::vector<SnippetData> OfflineTrainer::BuildSnippetData(const TrainConfig& config,
                                                          const BranchSpace& space,
                                                          const Dataset& dataset) {
  std::vector<SnippetRef> snippets =
      MakeSnippets(dataset, config.snippet_length, config.snippet_stride);
  if (static_cast<int>(snippets.size()) > config.max_snippets) {
    // Keep an evenly spread subset so every video/archetype stays represented.
    std::vector<SnippetRef> kept;
    double step = static_cast<double>(snippets.size()) / config.max_snippets;
    for (int i = 0; i < config.max_snippets; ++i) {
      kept.push_back(snippets[static_cast<size_t>(i * step)]);
    }
    snippets = std::move(kept);
  }
  // Snippets are independent (labels and features derive only from the snippet
  // and the label salt), so the profiling pass fans out across workers; each
  // row is written into its index slot, keeping the output order deterministic.
  std::vector<SnippetData> data(snippets.size());
  ThreadPool::Shared().ParallelFor(snippets.size(), [&](size_t i) {
    const SnippetRef& snippet = snippets[i];
    SnippetData row;
    // Per-branch accuracy labels, averaged over two independent kernel runs to
    // halve the label noise the nets would otherwise fit.
    row.labels.reserve(space.size());
    for (const Branch& branch : space.branches()) {
      double a = ExecutionKernel::SnippetAccuracy(
          *snippet.video, snippet.start, snippet.length, branch, kLabelSalt);
      double b = ExecutionKernel::SnippetAccuracy(*snippet.video, snippet.start,
                                                  snippet.length, branch,
                                                  kLabelSalt + 1);
      row.labels.push_back(0.5 * (a + b));
    }
    // All scheduler features from the snippet's first frame.
    DetectionList anchor = FasterRcnnSim::Detect(*snippet.video, snippet.start,
                                                 kReferenceDetector, kLabelSalt);
    row.features.resize(kNumFeatureKinds);
    for (int k = 0; k < kNumFeatureKinds; ++k) {
      row.features[static_cast<size_t>(k)] = ExtractFeature(
          static_cast<FeatureKind>(k), *snippet.video, snippet.start, anchor);
    }
    data[i] = std::move(row);
  });
  return data;
}

TrainedModels OfflineTrainer::Train(const TrainConfig& config,
                                    const BranchSpace& space) {
  TrainedModels models;
  models.space = &space;
  models.device = config.device;

  // Platform profile at zero contention: latency predictor + feature costs.
  LatencyModel profile(config.device, /*gpu_contention_level=*/0.0);
  models.latency = LatencyPredictor::Profile(space, profile);
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    FeatureKind kind = static_cast<FeatureKind>(k);
    models.feature_extract_ms[static_cast<size_t>(k)] = profile.FeatureExtractMs(kind);
    models.feature_predict_ms[static_cast<size_t>(k)] = profile.FeaturePredictMs(kind);
  }
  models.switching.emplace(config.device);

  // Split the training videos: predictor training vs. Ben(F) holdout.
  Dataset all_videos = BuildDataset(config.train_spec, DatasetSplit::kTrain);
  size_t holdout_videos = std::max<size_t>(
      1, static_cast<size_t>(std::round(config.holdout_fraction *
                                        static_cast<double>(all_videos.videos.size()))));
  Dataset train;
  Dataset ben_holdout;
  for (size_t i = 0; i < all_videos.videos.size(); ++i) {
    if (i + holdout_videos >= all_videos.videos.size()) {
      ben_holdout.videos.push_back(std::move(all_videos.videos[i]));
    } else {
      train.videos.push_back(std::move(all_videos.videos[i]));
    }
  }

  // Snippet labels and features.
  std::vector<SnippetData> data = BuildSnippetData(config, space, train);
  size_t n = data.size();
  assert(n > 0);
  size_t fit_n = n;

  // Dataset-mean accuracy per branch (ApproxDet's content-agnostic view).
  std::vector<double> mean_accuracy(space.size(), 0.0);
  for (const SnippetData& row : data) {
    for (size_t b = 0; b < space.size(); ++b) {
      mean_accuracy[b] += row.labels[b];
    }
  }
  for (double& v : mean_accuracy) {
    v /= static_cast<double>(n);
  }
  models.SetMeanBranchAccuracy(std::move(mean_accuracy));

  // One accuracy predictor per feature kind (kLight = content-agnostic model).
  // The per-kind trainings are independent; train them concurrently and emplace
  // the results in kind order afterwards.
  std::vector<std::optional<AccuracyPredictor>> trained =
      ThreadPool::Shared().ParallelMap(
          static_cast<size_t>(kNumFeatureKinds),
          [&](size_t k) -> std::optional<AccuracyPredictor> {
            FeatureKind kind = static_cast<FeatureKind>(k);
            MlpConfig mlp_config = AccuracyPredictor::DefaultMlpConfig(
                kind, space.size(), config.hidden_width, config.epochs);
            AccuracyPredictor predictor(kind, Mlp(mlp_config));
            Matrix x(fit_n, mlp_config.layer_dims.front());
            Matrix y(fit_n, space.size());
            for (size_t i = 0; i < fit_n; ++i) {
              const SnippetData& row = data[i];
              std::vector<double> input = predictor.BuildInput(
                  row.features[static_cast<size_t>(FeatureKind::kLight)],
                  kind == FeatureKind::kLight
                      ? std::vector<double>{}
                      : row.features[static_cast<size_t>(kind)]);
              for (size_t j = 0; j < input.size(); ++j) {
                x(i, j) = input[j];
              }
              for (size_t b = 0; b < space.size(); ++b) {
                y(i, b) = row.labels[b];
              }
            }
            predictor.Train(x, y);
            return predictor;
          });
  for (int k = 0; k < kNumFeatureKinds; ++k) {
    models.accuracy.emplace(static_cast<FeatureKind>(k),
                            std::move(*trained[static_cast<size_t>(k)]));
  }

  // Ben(F) tabulation: the realized end-to-end mAP improvement on the held-out
  // videos when the scheduler uses feature f's content-aware model (feature
  // overhead ignored — Eq. 4 charges the cost separately in the constraint)
  // over the light-only model, per SLO bucket.
  auto holdout_map = [&](const SchedulerConfig& sched_config, double slo_ms) {
    LiteReconfigProtocol protocol(&models, sched_config, "ben-tabulation");
    EvalConfig eval;
    eval.device = config.device;
    eval.slo_ms = slo_ms;
    eval.run_salt = HashKeys({kLabelSalt, 0xbe4ull});
    return OnlineRunner::Run(protocol, ben_holdout, eval).map;
  };
  // Every (bucket, scheduler-config) holdout evaluation is independent; flatten
  // the grid and fan it out. Per bucket, slot 0 is the light-only baseline and
  // slots 1.. are the forced heavy features.
  const std::vector<double>& buckets = BenefitTable::Buckets();
  constexpr size_t kNumHeavy = std::size(kHeavyFeatures);
  const size_t stride = 1 + kNumHeavy;
  std::vector<double> grid_maps = ThreadPool::Shared().ParallelMap(
      buckets.size() * stride, [&](size_t idx) {
        double bucket = buckets[idx / stride];
        size_t slot = idx % stride;
        if (slot == 0) {
          SchedulerConfig light_config;
          light_config.mode = LiteReconfigMode::kMinCost;
          light_config.charge_feature_overhead = false;
          return holdout_map(light_config, bucket);
        }
        return holdout_map(
            LiteReconfigProtocol::ForcedFeatureConfig(kHeavyFeatures[slot - 1]),
            bucket);
      });
  for (size_t bi = 0; bi < buckets.size(); ++bi) {
    double light_map = grid_maps[bi * stride];
    for (size_t f = 0; f < kNumHeavy; ++f) {
      models.ben.Set(kHeavyFeatures[f], buckets[bi],
                     grid_maps[bi * stride + 1 + f] - light_map);
    }
  }
  return models;
}

}  // namespace litereconfig
