#include "src/sched/cpu_family.h"

#include <cassert>
#include <cstddef>
#include <vector>

#include "src/mbek/branch.h"
#include "src/nn/matrix.h"
#include "src/platform/latency.h"
#include "src/sched/accuracy_predictor.h"
#include "src/sched/latency_predictor.h"

namespace litereconfig {

namespace {

// The GPU branch a CPU branch inherits its learned accuracy surface from: the
// same shape, proposal count, GoF and tracker, executed on the full detector.
size_t ReferenceIndex(const BranchSpace& base_space, const Branch& cpu_branch) {
  Branch reference = cpu_branch;
  reference.detector.cpu = false;
  std::optional<size_t> index = base_space.Find(reference);
  assert(index.has_value());
  return *index;
}

// Rebuilds one accuracy predictor with `extended` output branches. Hidden
// layers copy verbatim; the linear output layer gains one row (and bias) per
// CPU branch, a kCpuAccuracyFactor-scaled copy of the reference branch's row.
// Because the output activation is the identity, the appended unit's pre-clamp
// prediction is exactly factor * reference for every input, and the original
// outputs are bit-identical.
AccuracyPredictor ExtendPredictor(const AccuracyPredictor& base,
                                  const BranchSpace& base_space,
                                  const BranchSpace& extended) {
  MlpConfig config = base.mlp().config();
  assert(!config.layer_dims.empty() &&
         config.layer_dims.back() == base_space.size());
  config.layer_dims.back() = extended.size();

  std::vector<Matrix> weights = base.mlp().weights();
  std::vector<std::vector<double>> biases = base.mlp().biases();
  assert(!weights.empty());
  const Matrix& base_out = weights.back();
  const std::vector<double>& base_bias = biases.back();
  Matrix out(extended.size(), base_out.cols());
  std::vector<double> bias(extended.size(), 0.0);
  for (size_t b = 0; b < extended.size(); ++b) {
    double factor = 1.0;
    size_t source = b;
    if (b >= base_space.size()) {
      factor = CpuBranchAccuracyFactor(extended.at(b).gof);
      source = ReferenceIndex(base_space, extended.at(b));
    }
    for (size_t c = 0; c < base_out.cols(); ++c) {
      out(b, c) = factor * base_out(source, c);
    }
    bias[b] = factor * base_bias[source];
  }
  weights.back() = std::move(out);
  biases.back() = std::move(bias);
  return AccuracyPredictor(base.kind(), Mlp(config, weights, std::move(biases)));
}

}  // namespace

TrainedModels ExtendWithCpuFamily(const TrainedModels& base) {
  assert(base.space != nullptr);
  const BranchSpace& base_space = *base.space;
  const BranchSpace& extended = BranchSpace::WithCpuFamily();
  assert(extended.size() > base_space.size());

  TrainedModels models;
  models.space = &extended;
  models.device = base.device;

  // Re-profile over the extended space from the same analytic platform model
  // the offline trainer used (zero contention). The profile is deterministic,
  // so the original branches' entries reproduce bit-identically and the CPU
  // detectors price through the CPU clock.
  LatencyModel profile(base.device, /*gpu_contention_level=*/0.0);
  models.latency = LatencyPredictor::Profile(extended, profile);

  for (const auto& [kind, predictor] : base.accuracy) {
    models.accuracy.emplace(kind,
                            ExtendPredictor(predictor, base_space, extended));
  }

  std::vector<double> mean_accuracy = base.mean_branch_accuracy();
  mean_accuracy.reserve(extended.size());
  for (size_t b = base_space.size(); b < extended.size(); ++b) {
    size_t source = ReferenceIndex(base_space, extended.at(b));
    mean_accuracy.push_back(CpuBranchAccuracyFactor(extended.at(b).gof) *
                            base.mean_branch_accuracy()[source]);
  }
  models.SetMeanBranchAccuracy(std::move(mean_accuracy));

  models.ben = base.ben;
  models.feature_extract_ms = base.feature_extract_ms;
  models.feature_predict_ms = base.feature_predict_ms;
  models.switching = base.switching;
  return models;
}

}  // namespace litereconfig
