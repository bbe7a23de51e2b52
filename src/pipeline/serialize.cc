#include "src/pipeline/serialize.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "src/nn/matrix.h"

namespace litereconfig {

namespace {

constexpr uint64_t kMagic = 0x4c52434d30303034ull;  // "LRCM0004"
// Longest stored array; also bounds layer widths, so width products cannot wrap.
constexpr uint64_t kMaxArrayLength = 1ull << 28;

void WriteU64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteDouble(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void WriteDoubles(std::ostream& os, std::span<const double> v) {
  WriteU64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
}

// A model-cache file being read, with the bytes left in it: every stored
// length is checked against them before anything is allocated for it.
struct CacheInput {
  std::istream& stream;
  uint64_t bytes_left = 0;
};

bool ReadBytes(CacheInput& in, void* out, uint64_t n) {
  if (n > in.bytes_left) {
    return false;
  }
  in.bytes_left -= n;
  in.stream.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
  return in.stream.good();
}

bool ReadU64(CacheInput& in, uint64_t& v) { return ReadBytes(in, &v, sizeof(v)); }

// An array's stored length, if it is at most kMaxArrayLength and the bytes
// left can hold that many doubles.
bool ReadLength(CacheInput& in, uint64_t& n) {
  return ReadU64(in, n) && n <= kMaxArrayLength && n <= in.bytes_left / sizeof(double);
}

// An array as stored, NaN and infinity included: for the accuracy nets, whose
// constructor rejects them (one pass over ~300k parameters, not two).
bool ReadDoublesUnchecked(CacheInput& in, std::vector<double>& v) {
  uint64_t n = 0;
  if (!ReadLength(in, n)) {
    return false;
  }
  v.resize(n);
  return ReadBytes(in, v.data(), n * sizeof(double));
}

// One accuracy-net layer's weights, stored row-major (rows = outputs), read
// into `w` input-major: through `scratch`, reused across layers and nets,
// then transposed into storage that is not zero-filled first.
bool ReadInputMajorWeights(CacheInput& in, size_t rows, size_t cols,
                           std::vector<double>& scratch, Matrix& w) {
  uint64_t n = 0;
  if (!ReadLength(in, n) || n != rows * cols) {
    return false;
  }
  if (scratch.size() < n) {
    scratch.resize(n);
  }
  if (!ReadBytes(in, scratch.data(), n * sizeof(double))) {
    return false;
  }
  w = Matrix::TransposeOf(std::span<const double>(scratch.data(), n), rows, cols);
  return true;
}

// The double readers reject NaN and infinity: no stored parameter may hold one.
bool ReadDouble(CacheInput& in, double& v) {
  return ReadBytes(in, &v, sizeof(v)) && std::isfinite(v);
}

bool ReadDoubles(CacheInput& in, std::vector<double>& v) {
  return ReadDoublesUnchecked(in, v) && AllFinite(v);
}

}  // namespace

namespace {

bool WriteBundle(const TrainedModels& models, uint64_t fingerprint,
                 const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return false;
  }
  WriteU64(os, kMagic);
  WriteU64(os, fingerprint);
  WriteU64(os, static_cast<uint64_t>(models.device));

  // Latency predictor.
  WriteDoubles(os, models.latency.detector_ms());
  WriteU64(os, models.latency.tracker_models().size());
  for (const RidgeRegression& model : models.latency.tracker_models()) {
    WriteDoubles(os, model.weights());
    WriteDouble(os, model.bias());
  }

  // Accuracy predictors.
  WriteU64(os, models.accuracy.size());
  for (const auto& [kind, predictor] : models.accuracy) {
    WriteU64(os, static_cast<uint64_t>(kind));
    const MlpConfig& config = predictor.mlp().config();
    WriteU64(os, config.layer_dims.size());
    for (size_t dim : config.layer_dims) {
      WriteU64(os, dim);
    }
    // Stored row-major, as Mlp::weights() exports them.
    std::vector<Matrix> weights = predictor.mlp().weights();
    for (size_t l = 0; l < weights.size(); ++l) {
      WriteDoubles(os, weights[l].data());
      WriteDoubles(os, predictor.mlp().biases()[l]);
    }
  }

  WriteDoubles(os, models.mean_branch_accuracy());

  // Ben table.
  WriteU64(os, models.ben.entries().size());
  for (const auto& [key, value] : models.ben.entries()) {
    WriteU64(os, static_cast<uint64_t>(key.first));
    WriteU64(os, static_cast<uint64_t>(key.second));
    WriteDouble(os, value);
  }

  for (double v : models.feature_extract_ms) {
    WriteDouble(os, v);
  }
  for (double v : models.feature_predict_ms) {
    WriteDouble(os, v);
  }
  os.close();
  return !os.fail();
}

}  // namespace

bool SaveTrainedModels(const TrainedModels& models, uint64_t fingerprint,
                       const std::string& path) {
  // Written to a uniquely named file beside the target, then renamed over it:
  // a reader (another bench loading the cache) sees the old bundle or the new
  // one, never a half-written file.
  std::string temp = path + ".tmp.XXXXXX";
  int fd = mkstemp(temp.data());
  if (fd < 0) {
    return false;
  }
  // mkstemp creates the file owner-only; keep the usual cache permissions.
  bool ok = fchmod(fd, 0644) == 0;
  ok = close(fd) == 0 && ok;
  ok = ok && WriteBundle(models, fingerprint, temp) &&
       std::rename(temp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(temp.c_str());
  }
  return ok;
}

std::optional<TrainedModels> LoadTrainedModels(const std::string& path,
                                               uint64_t fingerprint,
                                               const BranchSpace& space) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  std::streamoff size = file ? static_cast<std::streamoff>(file.tellg()) : -1;
  if (size < 0 || !file.seekg(0)) {
    return std::nullopt;
  }
  CacheInput is{file, static_cast<uint64_t>(size)};
  uint64_t magic = 0;
  uint64_t stored_fingerprint = 0;
  uint64_t device = 0;
  if (!ReadU64(is, magic) || magic != kMagic ||
      !ReadU64(is, stored_fingerprint) || stored_fingerprint != fingerprint ||
      !ReadU64(is, device)) {
    return std::nullopt;
  }
  TrainedModels models;
  models.space = &space;
  models.device = static_cast<DeviceType>(device);
  models.switching.emplace(models.device);

  std::vector<double> detector_ms;
  if (!ReadDoubles(is, detector_ms) || detector_ms.size() != space.size()) {
    return std::nullopt;
  }
  uint64_t num_trackers = 0;
  if (!ReadU64(is, num_trackers) || num_trackers != space.size()) {
    return std::nullopt;
  }
  std::vector<RidgeRegression> trackers;
  for (uint64_t i = 0; i < num_trackers; ++i) {
    std::vector<double> weights;
    double bias = 0.0;
    if (!ReadDoubles(is, weights) || !ReadDouble(is, bias)) {
      return std::nullopt;
    }
    trackers.push_back(RidgeRegression::FromParts(std::move(weights), bias));
  }
  models.latency.Restore(space, std::move(detector_ms), std::move(trackers));

  uint64_t num_predictors = 0;
  if (!ReadU64(is, num_predictors) || num_predictors > kNumFeatureKinds) {
    return std::nullopt;
  }
  std::vector<double> scratch;
  for (uint64_t p = 0; p < num_predictors; ++p) {
    uint64_t kind_raw = 0;
    uint64_t num_dims = 0;
    if (!ReadU64(is, kind_raw) || kind_raw >= kNumFeatureKinds ||
        !ReadU64(is, num_dims) || num_dims < 2 || num_dims > 16) {
      return std::nullopt;
    }
    FeatureKind kind = static_cast<FeatureKind>(kind_raw);
    MlpConfig config;
    for (uint64_t d = 0; d < num_dims; ++d) {
      uint64_t dim = 0;
      if (!ReadU64(is, dim) || dim == 0 || dim > kMaxArrayLength) {
        return std::nullopt;
      }
      config.layer_dims.push_back(dim);
    }
    // The net must map this kind's input to one output per branch.
    if (config.layer_dims.front() != AccuracyPredictor::InputDim(kind) ||
        config.layer_dims.back() != space.size()) {
      return std::nullopt;
    }
    size_t num_layers = config.layer_dims.size() - 1;
    std::vector<Matrix> weights(num_layers);
    std::vector<std::vector<double>> biases(num_layers);
    for (size_t l = 0; l < num_layers; ++l) {
      size_t in = config.layer_dims[l];
      size_t out = config.layer_dims[l + 1];
      if (!ReadInputMajorWeights(is, out, in, scratch, weights[l]) ||
          !ReadDoublesUnchecked(is, biases[l]) || biases[l].size() != out) {
        return std::nullopt;
      }
    }
    try {
      models.accuracy.emplace(
          kind, AccuracyPredictor(kind, Mlp::FromInputMajor(config, std::move(weights),
                                                            std::move(biases))));
    } catch (const std::invalid_argument&) {
      return std::nullopt;  // a NaN or infinite weight or bias
    }
  }

  std::vector<double> mean_accuracy;
  if (!ReadDoubles(is, mean_accuracy) || mean_accuracy.size() != space.size()) {
    return std::nullopt;
  }
  models.SetMeanBranchAccuracy(std::move(mean_accuracy));

  uint64_t num_ben = 0;
  if (!ReadU64(is, num_ben) || num_ben > 1024) {
    return std::nullopt;
  }
  std::map<std::pair<int, int>, double> ben_entries;
  for (uint64_t i = 0; i < num_ben; ++i) {
    uint64_t kind = 0;
    uint64_t bucket = 0;
    double value = 0.0;
    if (!ReadU64(is, kind) || !ReadU64(is, bucket) || !ReadDouble(is, value)) {
      return std::nullopt;
    }
    ben_entries[{static_cast<int>(kind), static_cast<int>(bucket)}] = value;
  }
  models.ben.Restore(std::move(ben_entries));

  for (double& v : models.feature_extract_ms) {
    if (!ReadDouble(is, v)) {
      return std::nullopt;
    }
  }
  for (double& v : models.feature_predict_ms) {
    if (!ReadDouble(is, v)) {
      return std::nullopt;
    }
  }
  return models;
}

}  // namespace litereconfig
