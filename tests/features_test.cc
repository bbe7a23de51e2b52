#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "src/features/costs.h"
#include "src/features/embedding.h"
#include "src/features/feature.h"
#include "src/features/hashing.h"
#include "src/features/hoc.h"
#include "src/features/hog.h"
#include "src/features/light.h"
#include "src/util/rng.h"
#include "src/video/classes.h"
#include "src/video/dataset.h"
#include "src/video/raster.h"
#include "tests/embedding_reference.h"
#include "tests/hash_reference.h"

namespace litereconfig {
namespace {

SyntheticVideo MakeVideo(uint64_t seed, SceneArchetype archetype) {
  VideoSpec spec;
  spec.seed = seed;
  spec.frame_count = 40;
  spec.archetype = archetype;
  return SyntheticVideo::Generate(spec);
}

double L2Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

TEST(RasterTest, DimensionsAndDeterminism) {
  SyntheticVideo video = MakeVideo(1, SceneArchetype::kCrowded);
  Image a = RenderFrame(video, 5);
  Image b = RenderFrame(video, 5);
  EXPECT_EQ(a.width, kRasterWidth);
  EXPECT_EQ(a.height, kRasterHeight);
  EXPECT_EQ(a.data, b.data);
}

TEST(RasterTest, DifferentFramesDiffer) {
  SyntheticVideo video = MakeVideo(2, SceneArchetype::kFastSmall);
  Image a = RenderFrame(video, 0);
  Image b = RenderFrame(video, 30);
  EXPECT_NE(a.data, b.data);
}

TEST(RasterTest, ClutterRaisesContrast) {
  // High-clutter scenes should have visibly more gradient energy than sparse
  // ones. (kSlowLarge is not a fair calm reference: its objects are huge and
  // textured, which is its own source of edge energy.)
  SyntheticVideo cluttered = MakeVideo(3, SceneArchetype::kHighClutter);
  SyntheticVideo calm = MakeVideo(3, SceneArchetype::kSparse);
  auto gradient_energy = [](const Image& img) {
    double sum = 0.0;
    for (int y = 0; y < img.height; ++y) {
      for (int x = 1; x < img.width; ++x) {
        sum += std::abs(img.GrayAt(x, y) - img.GrayAt(x - 1, y));
      }
    }
    return sum;
  };
  double cluttered_energy = 0.0;
  double calm_energy = 0.0;
  for (int t = 0; t < 10; ++t) {
    cluttered_energy += gradient_energy(RenderFrame(cluttered, t));
    calm_energy += gradient_energy(RenderFrame(calm, t));
  }
  EXPECT_GT(cluttered_energy, calm_energy);
}

TEST(HocTest, DimensionAndNormalization) {
  SyntheticVideo video = MakeVideo(4, SceneArchetype::kSparse);
  std::vector<double> hoc = ComputeHoc(RenderFrame(video, 0));
  ASSERT_EQ(hoc.size(), static_cast<size_t>(kHocDim));
  // Each channel's histogram sums to 1 -> total 3.
  double total = std::accumulate(hoc.begin(), hoc.end(), 0.0);
  EXPECT_NEAR(total, 3.0, 1e-9);
  for (double v : hoc) {
    EXPECT_GE(v, 0.0);
  }
}

TEST(HocTest, DistinguishesPalettes) {
  // Different archetypes use different background palettes.
  SyntheticVideo a = MakeVideo(5, SceneArchetype::kSlowLarge);
  SyntheticVideo b = MakeVideo(5, SceneArchetype::kHighClutter);
  std::vector<double> ha = ComputeHoc(RenderFrame(a, 0));
  std::vector<double> hb = ComputeHoc(RenderFrame(b, 0));
  EXPECT_GT(L2Distance(ha, hb), 0.05);
}

TEST(HogTest, DimensionMatchesFormula) {
  SyntheticVideo video = MakeVideo(6, SceneArchetype::kCrowded);
  std::vector<double> hog = ComputeHog(RenderFrame(video, 0));
  EXPECT_EQ(hog.size(), static_cast<size_t>(kHogDim));
}

TEST(HogTest, BlocksAreL2Normalized) {
  SyntheticVideo video = MakeVideo(7, SceneArchetype::kHighClutter);
  std::vector<double> hog = ComputeHog(RenderFrame(video, 0));
  // Each block of 36 values has L2 norm <= 1 (epsilon-regularized).
  for (size_t block = 0; block < hog.size(); block += 36) {
    double norm_sq = 0.0;
    for (size_t i = block; i < block + 36; ++i) {
      norm_sq += hog[i] * hog[i];
    }
    EXPECT_LE(norm_sq, 1.0 + 1e-6);
  }
}

TEST(HogTest, FlatImageIsZero) {
  Image flat;
  flat.width = kRasterWidth;
  flat.height = kRasterHeight;
  flat.data.assign(static_cast<size_t>(kRasterWidth * kRasterHeight * 3), 128);
  std::vector<double> hog = ComputeHog(flat);
  for (double v : hog) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

TEST(LightFeaturesTest, CountsAboveThreshold) {
  DetectionList dets;
  Detection strong;
  strong.box = Box{0, 0, 100, 100};
  strong.score = 0.9;
  Detection weak;
  weak.box = Box{0, 0, 50, 50};
  weak.score = 0.1;
  dets = {strong, weak};
  std::vector<double> light = ComputeLightFeatures(1280, 720, dets);
  ASSERT_EQ(light.size(), static_cast<size_t>(kLightFeatureDim));
  EXPECT_DOUBLE_EQ(light[2], 1.0 / 8.0);          // one object above threshold
  EXPECT_NEAR(light[3], 100.0 / 720.0, 1e-9);     // sqrt(100*100)/720
}

TEST(LightFeaturesTest, EmptyDetections) {
  std::vector<double> light = ComputeLightFeatures(1280, 720, {});
  EXPECT_DOUBLE_EQ(light[2], 0.0);
  EXPECT_DOUBLE_EQ(light[3], 0.0);
}

TEST(EmbeddingTest, DimensionsMatchTable1) {
  SyntheticVideo video = MakeVideo(8, SceneArchetype::kSparse);
  EXPECT_EQ(ComputeResNetFeature(video, 0).size(), static_cast<size_t>(kResNetDim));
  EXPECT_EQ(ComputeMobileNetFeature(video, 0).size(),
            static_cast<size_t>(kMobileNetDim));
  EXPECT_EQ(ComputeCpopFeature(video, 0, {}).size(), static_cast<size_t>(kCpopDim));
}

TEST(EmbeddingTest, Deterministic) {
  SyntheticVideo video = MakeVideo(9, SceneArchetype::kCrowded);
  EXPECT_EQ(ComputeResNetFeature(video, 3), ComputeResNetFeature(video, 3));
  EXPECT_EQ(ComputeMobileNetFeature(video, 3), ComputeMobileNetFeature(video, 3));
}

TEST(EmbeddingTest, CarriesContentSignal) {
  // Embeddings of very different scenes must be farther apart than embeddings
  // of neighboring frames of the same scene.
  SyntheticVideo slow = MakeVideo(10, SceneArchetype::kSlowLarge);
  SyntheticVideo fast = MakeVideo(10, SceneArchetype::kFastSmall);
  std::vector<double> slow0 = ComputeMobileNetFeature(slow, 0);
  std::vector<double> slow1 = ComputeMobileNetFeature(slow, 1);
  std::vector<double> fast0 = ComputeMobileNetFeature(fast, 0);
  EXPECT_GT(L2Distance(slow0, fast0), L2Distance(slow0, slow1));
}

// Both projections run on the dense kernel against the row-major oracle, bit
// for bit, on every frame of a few validation videos.
TEST(EmbeddingTest, MatchesRowMajorReference) {
  DatasetSpec spec;
  spec.base_seed = 3;
  spec.num_videos = 3;
  spec.frames_per_video = 60;
  Dataset dataset = BuildDataset(spec, DatasetSplit::kVal);
  for (const SyntheticVideo& video : dataset.videos) {
    for (int t = 0; t < video.frame_count(); ++t) {
      SCOPED_TRACE(testing::Message() << "video " << video.spec().seed << " frame " << t);
      std::vector<double> resnet = ComputeResNetFeature(video, t);
      std::vector<double> resnet_want = ReferenceResNetFeature(video, t);
      std::vector<double> mobilenet = ComputeMobileNetFeature(video, t);
      std::vector<double> mobilenet_want = ReferenceMobileNetFeature(video, t);
      ASSERT_EQ(resnet.size(), resnet_want.size());
      ASSERT_EQ(mobilenet.size(), mobilenet_want.size());
      for (size_t o = 0; o < resnet.size(); ++o) {
        ASSERT_EQ(std::bit_cast<uint64_t>(resnet[o]), std::bit_cast<uint64_t>(resnet_want[o]))
            << "resnet output " << o;
      }
      for (size_t o = 0; o < mobilenet.size(); ++o) {
        ASSERT_EQ(std::bit_cast<uint64_t>(mobilenet[o]),
                  std::bit_cast<uint64_t>(mobilenet_want[o]))
            << "mobilenet output " << o;
      }
    }
  }
}

TEST(EmbeddingTest, CpopReflectsDetectedClasses) {
  SyntheticVideo video = MakeVideo(11, SceneArchetype::kSparse);
  Detection det;
  det.box = Box{0, 0, 50, 50};
  det.class_id = 4;
  det.score = 0.9;
  std::vector<double> cpop = ComputeCpopFeature(video, 0, {det});
  // The detected class's logit should dominate the other class logits.
  double detected = cpop[1 + 4];
  int higher = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    if (c != 4 && cpop[static_cast<size_t>(1 + c)] >= detected) {
      ++higher;
    }
  }
  EXPECT_EQ(higher, 0);
}

TEST(HashingTest, PadsSmallInputs) {
  std::vector<double> input = {1.0, 2.0, 3.0};
  std::vector<double> out = HashProject(input, 8, 42);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[2], 3.0);
  EXPECT_DOUBLE_EQ(out[5], 0.0);
}

TEST(HashingTest, DeterministicAndSeedSensitive) {
  std::vector<double> input(500);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<double>(i) * 0.01;
  }
  EXPECT_EQ(HashProject(input, 32, 1), HashProject(input, 32, 1));
  EXPECT_NE(HashProject(input, 32, 1), HashProject(input, 32, 2));
}

// The tabled projection against the hashing loop, bit for bit, at every
// heavy kind's full width (the widths AccuracyPredictor tables), on inputs
// with +-0.0 among uniform values, plus NaNs in one sample and infinities
// of both signs in another. No sample mixes two NaN bit patterns (an input
// NaN and the one inf + -inf makes): where two different NaNs meet in one
// add, IEEE 754 leaves the result to the operand order, which is the
// compiler's choice (it differs between -march=x86-64 and x86-64-v3).
TEST(HashingTest, ProjectionMatchesHashingLoop) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Pcg32 rng(0x4a5e);
  for (FeatureKind kind : kHeavyFeatures) {
    size_t width = static_cast<size_t>(FeatureDimension(kind));
    int out_dim = std::min(FeatureDimension(kind), kHashedFeatureDim);
    uint64_t seed = HashKeys({0x4a54ull, static_cast<uint64_t>(kind)});
    HashProjection projection(width, out_dim, seed);
    for (int sample = 0; sample < 4; ++sample) {
      std::vector<double> input(width);
      for (double& v : input) {
        uint32_t pick = rng.UniformInt(16);
        double value = rng.Uniform(-2.0, 2.0);
        v = pick == 0   ? 0.0
            : pick == 1 ? -0.0
            : pick == 2 && sample == 2 ? nan
            : pick == 3 && sample == 3 ? (rng.UniformInt(2) == 0 ? inf : -inf)
                                      : value;
      }
      std::vector<double> got = projection.Project(input);
      std::vector<double> want = ReferenceHashProject(input, out_dim, seed);
      ASSERT_EQ(got.size(), want.size());
      for (size_t o = 0; o < got.size(); ++o) {
        EXPECT_EQ(std::bit_cast<uint64_t>(got[o]), std::bit_cast<uint64_t>(want[o]))
            << FeatureName(kind) << " sample " << sample << " bucket " << o;
      }
      EXPECT_EQ(HashProject(input, out_dim, seed).size(), want.size());
    }
  }
}

TEST(HashingTest, LinearInInput) {
  std::vector<double> a(300, 1.0);
  std::vector<double> b(300, 2.0);
  std::vector<double> ha = HashProject(a, 16, 7);
  std::vector<double> hb = HashProject(b, 16, 7);
  for (size_t i = 0; i < ha.size(); ++i) {
    EXPECT_NEAR(hb[i], 2.0 * ha[i], 1e-12);
  }
}

TEST(FeatureRegistryTest, NamesAndDims) {
  EXPECT_EQ(FeatureName(FeatureKind::kLight), "Light");
  EXPECT_EQ(FeatureName(FeatureKind::kMobileNetV2), "MobileNetV2");
  EXPECT_EQ(FeatureDimension(FeatureKind::kLight), kLightFeatureDim);
  EXPECT_EQ(FeatureDimension(FeatureKind::kHoc), kHocDim);
  EXPECT_EQ(FeatureDimension(FeatureKind::kHog), kHogDim);
  EXPECT_EQ(FeatureDimension(FeatureKind::kResNet50), kResNetDim);
  EXPECT_EQ(FeatureDimension(FeatureKind::kCpop), kCpopDim);
  EXPECT_EQ(FeatureDimension(FeatureKind::kMobileNetV2), kMobileNetDim);
}

class ExtractAllFeatures : public ::testing::TestWithParam<int> {};

TEST_P(ExtractAllFeatures, DimensionMatchesRegistry) {
  FeatureKind kind = static_cast<FeatureKind>(GetParam());
  SyntheticVideo video = MakeVideo(12, SceneArchetype::kCrowded);
  DetectionList anchor;
  Detection det;
  det.box = Box{10, 10, 80, 80};
  det.class_id = 7;
  det.score = 0.8;
  anchor.push_back(det);
  std::vector<double> feature = ExtractFeature(kind, video, 5, anchor);
  EXPECT_EQ(feature.size(), static_cast<size_t>(FeatureDimension(kind)));
  for (double v : feature) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ExtractAllFeatures,
                         ::testing::Range(0, kNumFeatureKinds));

TEST(FeatureCostsTest, MatchesPaperTable1) {
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kLight).extract_ms, 0.12);
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kLight).predict_ms, 3.71);
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kHoc).extract_ms, 14.14);
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kHog).extract_ms, 25.32);
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kResNet50).extract_ms, 26.96);
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kCpop).extract_ms, 3.62);
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kMobileNetV2).extract_ms, 153.96);
  EXPECT_DOUBLE_EQ(GetFeatureCost(FeatureKind::kMobileNetV2).predict_ms, 9.33);
  // CPU/GPU placement (Table 1 footnote).
  EXPECT_FALSE(GetFeatureCost(FeatureKind::kHoc).extract_on_gpu);
  EXPECT_FALSE(GetFeatureCost(FeatureKind::kHog).extract_on_gpu);
  EXPECT_TRUE(GetFeatureCost(FeatureKind::kResNet50).extract_on_gpu);
  EXPECT_TRUE(GetFeatureCost(FeatureKind::kMobileNetV2).extract_on_gpu);
}

}  // namespace
}  // namespace litereconfig
