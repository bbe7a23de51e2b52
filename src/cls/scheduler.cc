#include "src/cls/scheduler.h"

#include <algorithm>
#include <cassert>

#include "src/features/costs.h"
#include "src/features/hoc.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/video/raster.h"

namespace litereconfig {

namespace {

constexpr double kClsSloMargin = 0.92;

// The classification task has no detector output; its light features are the
// static frame geometry (so the light-only model is purely content-agnostic).
std::vector<double> ClsLightFeatures(const SyntheticVideo& video) {
  return {video.spec().height / 720.0, video.spec().width / 1280.0, 0.0, 0.0};
}

std::vector<double> WindowHoc(const SyntheticVideo& video, int start) {
  return ComputeHoc(RenderFrame(video, start));
}

}  // namespace

ClsTrainedModels ClsTrainer::Train(const ClsTrainConfig& config, DeviceType device) {
  const ClsBranchSpace& space = ClsBranchSpace::Default();
  ClsTrainedModels models;
  models.space = &space;
  models.device = device;

  LatencyModel platform(device, 0.0);
  models.latency_ms.reserve(space.size());
  for (const ClsBranch& branch : space.branches()) {
    models.latency_ms.push_back(platform.GpuScaledMs(ClsBranchTx2Ms(branch)));
  }
  models.hoc_cost_ms = platform.FeatureExtractMs(FeatureKind::kHoc) +
                       platform.FeaturePredictMs(FeatureKind::kHoc);

  // Per-window per-branch correctness labels (averaged over independent runs).
  Dataset train = BuildDataset(config.train_spec, DatasetSplit::kTrain);
  struct Row {
    std::vector<double> hoc;
    std::vector<double> labels;
  };
  std::vector<Row> rows;
  for (const SyntheticVideo& video : train.videos) {
    for (int start = 0; start + kClsWindowFrames <= video.frame_count();
         start += kClsWindowFrames) {
      int label = ClipLabel(video, start);
      if (label < 0) {
        continue;
      }
      Row row;
      row.hoc = WindowHoc(video, start);
      row.labels.reserve(space.size());
      for (const ClsBranch& branch : space.branches()) {
        double correct = 0.0;
        for (int salt = 0; salt < config.label_salts; ++salt) {
          correct += ClassifierSim::Classify(video, start, branch,
                                             static_cast<uint64_t>(salt)) == label
                         ? 1.0
                         : 0.0;
        }
        row.labels.push_back(correct / config.label_salts);
      }
      rows.push_back(std::move(row));
    }
  }
  assert(!rows.empty());

  for (FeatureKind kind : {FeatureKind::kLight, FeatureKind::kHoc}) {
    MlpConfig mlp_config = AccuracyPredictor::DefaultMlpConfig(
        kind, space.size(), config.hidden_width, config.epochs);
    AccuracyPredictor predictor(kind, Mlp(mlp_config));
    Matrix x(rows.size(), mlp_config.layer_dims.front());
    Matrix y(rows.size(), space.size());
    std::vector<double> light = {720.0 / 720.0, 1280.0 / 1280.0, 0.0, 0.0};
    for (size_t i = 0; i < rows.size(); ++i) {
      std::vector<double> input = predictor.BuildInput(
          light, kind == FeatureKind::kLight ? std::vector<double>{} : rows[i].hoc);
      for (size_t j = 0; j < input.size(); ++j) {
        x(i, j) = input[j];
      }
      for (size_t b = 0; b < space.size(); ++b) {
        y(i, b) = rows[i].labels[b];
      }
    }
    predictor.Train(x, y);
    models.accuracy.emplace(kind, std::move(predictor));
  }
  return models;
}

ClsScheduler::ClsScheduler(const ClsTrainedModels* models, bool content_aware)
    : models_(models), content_aware_(content_aware) {
  assert(models_ != nullptr && models_->space != nullptr);
}

ClsDecision ClsScheduler::Decide(const SyntheticVideo& video, int window_start,
                                 double slo_ms) const {
  std::vector<double> light = ClsLightFeatures(video);
  ClsDecision decision;
  std::vector<double> pred;
  double sched_ms = 0.0;
  if (content_aware_) {
    pred = models_->accuracy.at(FeatureKind::kHoc)
               .Predict(light, WindowHoc(video, window_start));
    sched_ms = models_->hoc_cost_ms;
    decision.used_content = true;
  } else {
    pred = models_->accuracy.at(FeatureKind::kLight).Predict(light, {});
  }
  decision.scheduler_cost_ms = sched_ms;

  double budget = slo_ms * kClsSloMargin * kClsWindowFrames;
  double best_acc = -1.0;
  size_t best = 0;
  double cheapest = 1e18;
  size_t cheapest_idx = 0;
  for (size_t b = 0; b < models_->space->size(); ++b) {
    double window_ms = models_->latency_ms[b] + sched_ms;
    if (window_ms < cheapest) {
      cheapest = window_ms;
      cheapest_idx = b;
    }
    if (window_ms > budget) {
      continue;
    }
    if (pred[b] > best_acc) {
      best_acc = pred[b];
      best = b;
    }
  }
  if (best_acc < 0.0) {
    best = cheapest_idx;
    best_acc = pred[cheapest_idx];
  }
  decision.branch_index = best;
  decision.predicted_accuracy = best_acc;
  return decision;
}

ClsEvalResult RunClsPolicy(const ClsTrainedModels& models, bool content_aware,
                           const Dataset& dataset, double slo_ms,
                           uint64_t run_salt) {
  ClsScheduler scheduler(&models, content_aware);
  LatencyModel platform(models.device, 0.0);
  Top1Accuracy accuracy;
  RunningStat frame_ms;
  size_t windows = 0;
  for (const SyntheticVideo& video : dataset.videos) {
    Pcg32 rng(HashKeys({video.spec().seed, run_salt, 0xc15e7ull}));
    for (int start = 0; start + kClsWindowFrames <= video.frame_count();
         start += kClsWindowFrames) {
      ClsDecision decision = scheduler.Decide(video, start, slo_ms);
      const ClsBranch& branch = models.space->at(decision.branch_index);
      int predicted = ClassifierSim::Classify(video, start, branch, run_salt);
      accuracy.Add(predicted, ClipLabel(video, start));
      double window_ms =
          platform.Sample(models.latency_ms[decision.branch_index], rng) +
          decision.scheduler_cost_ms;
      frame_ms.Add(window_ms / kClsWindowFrames);
      ++windows;
    }
  }
  ClsEvalResult result;
  result.top1 = accuracy.Value();
  result.mean_frame_ms = frame_ms.mean();
  result.windows = windows;
  return result;
}

}  // namespace litereconfig
