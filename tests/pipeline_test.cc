#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include <sys/resource.h>

#include "src/pipeline/litereconfig_protocol.h"
#include "src/util/stats.h"
#include "src/pipeline/runner.h"
#include "src/pipeline/serialize.h"
#include "src/pipeline/trainer.h"
#include "tests/test_support.h"

namespace litereconfig {
namespace {

TEST(TrainerTest, TinyConfigFingerprintIsStable) {
  EXPECT_EQ(TrainConfig::Tiny().Fingerprint(), TrainConfig::Tiny().Fingerprint());
  TrainConfig other = TrainConfig::Tiny();
  other.epochs += 1;
  EXPECT_NE(other.Fingerprint(), TrainConfig::Tiny().Fingerprint());
}

TEST(TrainerTest, BuildSnippetDataShapes) {
  TrainConfig config = TrainConfig::Tiny();
  const BranchSpace& space = BranchSpace::Default();
  Dataset train = BuildDataset(config.train_spec, DatasetSplit::kTrain);
  std::vector<SnippetData> data =
      OfflineTrainer::BuildSnippetData(config, space, train);
  ASSERT_FALSE(data.empty());
  EXPECT_LE(static_cast<int>(data.size()), config.max_snippets);
  for (const SnippetData& row : data) {
    EXPECT_EQ(row.labels.size(), space.size());
    EXPECT_EQ(row.features.size(), static_cast<size_t>(kNumFeatureKinds));
    for (double label : row.labels) {
      EXPECT_GE(label, 0.0);
      EXPECT_LE(label, 1.0);
    }
    for (int k = 0; k < kNumFeatureKinds; ++k) {
      EXPECT_EQ(row.features[static_cast<size_t>(k)].size(),
                static_cast<size_t>(FeatureDimension(static_cast<FeatureKind>(k))));
    }
  }
}

TEST(TrainerTest, ProducesCompleteBundle) {
  const TrainedModels& models = TinyModels();
  const BranchSpace& space = BranchSpace::Default();
  EXPECT_EQ(models.space, &space);
  EXPECT_EQ(models.accuracy.size(), static_cast<size_t>(kNumFeatureKinds));
  EXPECT_EQ(models.mean_branch_accuracy().size(), space.size());
  for (double v : models.mean_branch_accuracy()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_EQ(models.latency.branch_count(), space.size());
  EXPECT_TRUE(models.switching.has_value());
  // Feature costs were profiled (TX2 zero contention = Table 1 values).
  EXPECT_NEAR(models.feature_extract_ms[static_cast<size_t>(FeatureKind::kHoc)],
              14.14, 1e-9);
  // Ben entries exist for every heavy feature and bucket.
  EXPECT_EQ(models.ben.entries().size(),
            5u * BenefitTable::Buckets().size());
}

TEST(TrainerTest, MeanBranchAccuracyPrefersStrongDetector) {
  const TrainedModels& models = TinyModels();
  const BranchSpace& space = BranchSpace::Default();
  Branch strong;
  strong.detector = {576, 100};
  strong.gof = 1;
  Branch weak;
  weak.detector = {224, 1};
  weak.gof = 1;
  size_t strong_idx = *space.Find(strong);
  size_t weak_idx = *space.Find(weak);
  EXPECT_GT(models.mean_branch_accuracy()[strong_idx],
            models.mean_branch_accuracy()[weak_idx]);
}

TEST(SerializeTest, RoundTripPreservesPredictions) {
  const TrainedModels& models = TinyModels();
  std::string path = std::filesystem::temp_directory_path() /
                     "lrc_serialize_roundtrip.bin";
  uint64_t fingerprint = TrainConfig::Tiny().Fingerprint();
  ASSERT_TRUE(SaveTrainedModels(models, fingerprint, path));
  auto loaded = LoadTrainedModels(path, fingerprint, BranchSpace::Default());
  ASSERT_TRUE(loaded.has_value());

  std::vector<double> light = {1.0, 1.0, 0.375, 0.2};
  std::vector<double> pred_a =
      models.accuracy.at(FeatureKind::kLight).Predict(light, {});
  std::vector<double> pred_b =
      loaded->accuracy.at(FeatureKind::kLight).Predict(light, {});
  EXPECT_EQ(pred_a, pred_b);
  EXPECT_EQ(loaded->mean_branch_accuracy(), models.mean_branch_accuracy());
  // The accuracy order is derived on load, not stored.
  EXPECT_EQ(loaded->branches_by_mean_accuracy(), models.branches_by_mean_accuracy());
  EXPECT_EQ(loaded->device, models.device);
  for (size_t b = 0; b < models.latency.branch_count(); b += 31) {
    EXPECT_DOUBLE_EQ(loaded->latency.PredictFrameMs(b, light, 1.0, 1.0),
                     models.latency.PredictFrameMs(b, light, 1.0, 1.0));
  }
  EXPECT_DOUBLE_EQ(loaded->ben.Ben(FeatureKind::kHoc, 33.3),
                   models.ben.Ben(FeatureKind::kHoc, 33.3));
  std::remove(path.c_str());
}

// A fresh, empty directory under the temp directory.
std::filesystem::path FreshDirectory(const std::string& name) {
  std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  return dir;
}

std::vector<std::string> DirectoryEntries(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// The save goes through a temporary file and a rename; what lands is the
// bundle the loader reads back, every accuracy net predicting bit for bit.
TEST(SerializeTest, AtomicSaveRoundTripsThroughLoad) {
  const TrainedModels& models = TinyModels();
  std::filesystem::path dir = FreshDirectory("lrc_serialize_atomic_roundtrip");
  std::string path = dir / "models.bin";
  uint64_t fingerprint = TrainConfig::Tiny().Fingerprint();
  ASSERT_TRUE(SaveTrainedModels(models, fingerprint, path));
  auto loaded = LoadTrainedModels(path, fingerprint, BranchSpace::Default());
  ASSERT_TRUE(loaded.has_value());
  std::vector<double> light = {1.0, 1.0, 0.375, 0.2};
  for (const auto& [kind, predictor] : models.accuracy) {
    std::vector<double> content(
        kind == FeatureKind::kLight ? 0 : static_cast<size_t>(FeatureDimension(kind)),
        0.25);
    EXPECT_EQ(loaded->accuracy.at(kind).Predict(light, content),
              predictor.Predict(light, content))
        << FeatureName(kind);
  }
  std::filesystem::remove_all(dir);
}

TEST(SerializeTest, AtomicSaveLeavesNoTemporaryFile) {
  const TrainedModels& models = TinyModels();
  std::filesystem::path dir = FreshDirectory("lrc_serialize_atomic_temp");
  std::string path = dir / "models.bin";
  // The second save replaces the first.
  ASSERT_TRUE(SaveTrainedModels(models, 7, path));
  ASSERT_TRUE(SaveTrainedModels(models, 7, path));
  EXPECT_EQ(DirectoryEntries(dir), std::vector<std::string>{"models.bin"});
  EXPECT_TRUE(LoadTrainedModels(path, 7, BranchSpace::Default()).has_value());
  std::filesystem::remove_all(dir);
}

TEST(SerializeTest, SaveIntoMissingDirectoryFailsAndCreatesNothing) {
  const TrainedModels& models = TinyModels();
  std::filesystem::path parent = FreshDirectory("lrc_serialize_atomic_missing");
  std::filesystem::path missing = parent / "absent";
  EXPECT_FALSE(SaveTrainedModels(models, 7, missing / "models.bin"));
  EXPECT_FALSE(std::filesystem::exists(missing));
  EXPECT_TRUE(DirectoryEntries(parent).empty());
  std::filesystem::remove_all(parent);
}

TEST(SerializeTest, RejectsWrongFingerprint) {
  const TrainedModels& models = TinyModels();
  std::string path = std::filesystem::temp_directory_path() /
                     "lrc_serialize_fp.bin";
  ASSERT_TRUE(SaveTrainedModels(models, 111, path));
  EXPECT_FALSE(LoadTrainedModels(path, 222, BranchSpace::Default()).has_value());
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsMissingAndGarbageFiles) {
  EXPECT_FALSE(LoadTrainedModels("/nonexistent/file.bin", 1,
                                 BranchSpace::Default())
                   .has_value());
  std::string path = std::filesystem::temp_directory_path() /
                     "lrc_serialize_garbage.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a model file";
  }
  EXPECT_FALSE(LoadTrainedModels(path, 1, BranchSpace::Default()).has_value());
  std::remove(path.c_str());
}

// Saves the tiny bundle, overwrites 8 bytes at `offset` from the first accuracy
// predictor's layer widths (kind and width count precede them), and loads it.
template <typename T>
std::optional<TrainedModels> LoadPatchedBundle(const std::string& name, size_t offset,
                                               T value) {
  const TrainedModels& models = TinyModels();
  std::string path = std::filesystem::temp_directory_path() / name;
  uint64_t fingerprint = TrainConfig::Tiny().Fingerprint();
  EXPECT_TRUE(SaveTrainedModels(models, fingerprint, path));
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  const auto& [kind, predictor] = *models.accuracy.begin();
  const std::vector<size_t>& dims = predictor.mlp().config().layer_dims;
  std::vector<uint64_t> header = {static_cast<uint64_t>(kind), dims.size()};
  header.insert(header.end(), dims.begin(), dims.end());
  size_t at = bytes.find(std::string(reinterpret_cast<const char*>(header.data()),
                                     header.size() * sizeof(uint64_t)));
  if (at == std::string::npos) {
    ADD_FAILURE() << "layer widths not found in the saved bundle";
    return std::nullopt;
  }
  static_assert(sizeof(T) == sizeof(uint64_t));
  std::memcpy(&bytes[at + 2 * sizeof(uint64_t) + offset], &value, sizeof(value));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  std::optional<TrainedModels> loaded;
  EXPECT_NO_THROW(loaded = LoadTrainedModels(path, fingerprint, BranchSpace::Default()));
  std::remove(path.c_str());
  return loaded;
}

TEST(SerializeTest, RejectsHugeLayerWidthBeforeAllocating) {
  // The first hidden width: 2^34 would make the net's constructor allocate
  // terabytes and throw std::bad_alloc.
  EXPECT_FALSE(LoadPatchedBundle("lrc_serialize_width.bin", sizeof(uint64_t),
                                 uint64_t{1} << 34)
                   .has_value());
}

TEST(SerializeTest, RejectsNonFiniteWeight) {
  // Past the widths and the first weight array's length: its first weight.
  size_t first_weight =
      (TinyModels().accuracy.begin()->second.mlp().config().layer_dims.size() + 1) *
      sizeof(uint64_t);
  EXPECT_FALSE(LoadPatchedBundle("lrc_serialize_nan.bin", first_weight,
                                 std::numeric_limits<double>::quiet_NaN())
                   .has_value());
}

// Peak resident set of this process so far, in KiB (Linux ru_maxrss units).
long PeakRssKib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(SerializeTest, RejectsTruncatedArrayBeforeAllocating) {
  // A valid header, then a latency table that claims 2^28 doubles (2 GiB)
  // followed by only eight of them: the length exceeds the bytes left, so the
  // loader must refuse before it allocates the array.
  const TrainedModels& models = TinyModels();
  std::string path = std::filesystem::temp_directory_path() /
                     "lrc_serialize_truncated.bin";
  uint64_t fingerprint = TrainConfig::Tiny().Fingerprint();
  ASSERT_TRUE(SaveTrainedModels(models, fingerprint, path));
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 3 * sizeof(uint64_t) + 64);
  bytes.resize(3 * sizeof(uint64_t));  // magic, fingerprint, device
  uint64_t claimed = uint64_t{1} << 28;
  bytes.append(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
  bytes.append(std::string(8 * sizeof(double), '\0'));
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
  }
  long peak_before = PeakRssKib();
  EXPECT_FALSE(LoadTrainedModels(path, fingerprint, BranchSpace::Default()).has_value());
  EXPECT_LT(PeakRssKib() - peak_before, 256L * 1024L);
  std::remove(path.c_str());
}

class ProtocolFixture : public ::testing::Test {
 protected:
  static RunEnv MakeEnv(const LatencyModel& platform,
                        const SwitchingCostModel& switching, double slo) {
    return RunEnv{&platform, &switching, slo, 1};
  }
};

TEST_F(ProtocolFixture, LiteReconfigEmitsAllFrames) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "LiteReconfig");
  const SyntheticVideo& video = TinyValidation().videos[0];
  LatencyModel platform(DeviceType::kTx2, 0.0);
  SwitchingCostModel switching(DeviceType::kTx2);
  VideoRunStats stats = protocol.RunVideo(video, MakeEnv(platform, switching, 50.0));
  EXPECT_EQ(stats.frames.size(), static_cast<size_t>(video.frame_count()));
  EXPECT_FALSE(stats.gof_frame_ms.empty());
  EXPECT_GE(stats.branches_used.size(), 1u);
  EXPECT_GT(stats.detector_ms, 0.0);
  EXPECT_GT(stats.scheduler_ms, 0.0);
}

TEST_F(ProtocolFixture, RunIsDeterministicGivenSalt) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "LiteReconfig");
  const SyntheticVideo& video = TinyValidation().videos[1];
  LatencyModel platform(DeviceType::kTx2, 0.0);
  SwitchingCostModel switching(DeviceType::kTx2);
  protocol.Reset();
  VideoRunStats a = protocol.RunVideo(video, MakeEnv(platform, switching, 50.0));
  protocol.Reset();
  VideoRunStats b = protocol.RunVideo(video, MakeEnv(platform, switching, 50.0));
  EXPECT_EQ(a.gof_frame_ms, b.gof_frame_ms);
  EXPECT_EQ(a.switch_count, b.switch_count);
}

TEST_F(ProtocolFixture, Table4ModeExcludesSchedulerCostFromLatency) {
  LiteReconfigProtocol charged(
      &TinyModels(),
      []() {
        SchedulerConfig config;
        config.mode = LiteReconfigMode::kForceFeature;
        config.forced_feature = FeatureKind::kMobileNetV2;
        config.charge_feature_overhead = true;
        return config;
      }(),
      "charged");
  LiteReconfigProtocol uncharged(
      &TinyModels(),
      LiteReconfigProtocol::ForcedFeatureConfig(FeatureKind::kMobileNetV2),
      "uncharged");
  const SyntheticVideo& video = TinyValidation().videos[2];
  LatencyModel platform(DeviceType::kTx2, 0.0);
  SwitchingCostModel switching(DeviceType::kTx2);
  VideoRunStats a = charged.RunVideo(video, MakeEnv(platform, switching, 100.0));
  VideoRunStats b = uncharged.RunVideo(video, MakeEnv(platform, switching, 100.0));
  // Scheduler cost is recorded either way...
  EXPECT_GT(a.scheduler_ms, 0.0);
  EXPECT_GT(b.scheduler_ms, 0.0);
  // ...but the per-GoF latency samples include it only when charging is on.
  // Accounting identity: sum(sample_i * len_i) over the run equals the charged
  // component totals.
  auto charged_total = [](const VideoRunStats& stats) {
    double total = 0.0;
    for (size_t i = 0; i < stats.gof_frame_ms.size(); ++i) {
      total += stats.gof_frame_ms[i] * stats.gof_lengths[i];
    }
    return total;
  };
  EXPECT_NEAR(charged_total(a),
              a.detector_ms + a.tracker_ms + a.scheduler_ms + a.switch_ms, 1e-6);
  EXPECT_NEAR(charged_total(b), b.detector_ms + b.tracker_ms + b.switch_ms, 1e-6);
}

TEST_F(ProtocolFixture, RunnerAggregatesMetrics) {
  LiteReconfigProtocol protocol(&TinyModels(), LiteReconfigProtocol::FullConfig(),
                                "LiteReconfig");
  EvalConfig config;
  config.slo_ms = 100.0;
  EvalResult result = OnlineRunner::Run(protocol, TinyValidation(), config);
  EXPECT_GT(result.frames, 0u);
  EXPECT_GT(result.map, 0.0);
  EXPECT_LE(result.map, 1.0);
  EXPECT_GT(result.mean_ms, 0.0);
  EXPECT_GE(result.p95_ms, result.mean_ms * 0.5);
  EXPECT_GE(result.violation_rate, 0.0);
  EXPECT_LE(result.violation_rate, 1.0);
  double frac_sum = result.detector_frac + result.tracker_frac +
                    result.scheduler_frac + result.switch_frac;
  EXPECT_NEAR(frac_sum, 1.0, 1e-9);
  EXPECT_GE(result.branch_coverage, 1);
}

TEST_F(ProtocolFixture, VariantConfigsHaveExpectedModes) {
  EXPECT_EQ(LiteReconfigProtocol::FullConfig().mode, LiteReconfigMode::kFull);
  EXPECT_EQ(LiteReconfigProtocol::MinCostConfig().mode, LiteReconfigMode::kMinCost);
  for (FeatureKind kind : {FeatureKind::kResNet50, FeatureKind::kMobileNetV2}) {
    SchedulerConfig max_content = LiteReconfigProtocol::MaxContentConfig(kind);
    EXPECT_EQ(max_content.mode, LiteReconfigMode::kForceFeature);
    EXPECT_EQ(max_content.forced_feature, kind);
    EXPECT_TRUE(max_content.charge_feature_overhead);
  }
  SchedulerConfig forced =
      LiteReconfigProtocol::ForcedFeatureConfig(FeatureKind::kHog);
  EXPECT_EQ(forced.mode, LiteReconfigMode::kForceFeature);
  EXPECT_EQ(forced.forced_feature, FeatureKind::kHog);
  EXPECT_FALSE(forced.charge_feature_overhead);
}

TEST(EvalResultTest, MeetsSloLogic) {
  EvalResult result;
  result.p95_ms = 30.0;
  EXPECT_TRUE(result.MeetsSlo(33.3));
  result.p95_ms = 40.0;
  EXPECT_FALSE(result.MeetsSlo(33.3));
  result.p95_ms = 34.0;
  EXPECT_TRUE(result.MeetsSlo(33.3));  // within the 10% measurement slack
  result.oom = true;
  EXPECT_FALSE(result.MeetsSlo(33.3));
}

}  // namespace
}  // namespace litereconfig
