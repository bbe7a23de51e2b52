#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace litereconfig {
namespace {

TEST(SplitMix64Test, IsDeterministic) {
  uint64_t a = 1;
  uint64_t b = 1;
  EXPECT_EQ(SplitMix64(a), SplitMix64(b));
  EXPECT_EQ(a, b);
}

TEST(SplitMix64Test, AdvancesState) {
  uint64_t state = 1;
  uint64_t first = SplitMix64(state);
  uint64_t second = SplitMix64(state);
  EXPECT_NE(first, second);
}

TEST(HashKeysTest, OrderSensitive) {
  EXPECT_NE(HashKeys({1, 2}), HashKeys({2, 1}));
}

TEST(HashKeysTest, DistinctKeysDistinctHashes) {
  // Sanity: no collisions across a small grid of composite keys.
  std::vector<uint64_t> seen;
  for (uint64_t a = 0; a < 30; ++a) {
    for (uint64_t b = 0; b < 30; ++b) {
      seen.push_back(HashKeys({a, b, 0x99ull}));
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

TEST(Pcg32Test, SameSeedSameSequence) {
  Pcg32 a(123);
  Pcg32 b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1);
  Pcg32 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.NextU32() == b.NextU32() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Pcg32Test, UniformIntBoundedAndCoversRange) {
  Pcg32 rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    uint32_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // roughly uniform
    EXPECT_LT(c, 1300);
  }
}

TEST(Pcg32Test, NormalMomentsMatch) {
  Pcg32 rng(5);
  RunningStat stat;
  for (int i = 0; i < 40000; ++i) {
    stat.Add(rng.Normal(3.0, 2.0));
  }
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Pcg32Test, LogNormalIsPositive) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.LogNormal(0.0, 0.5), 0.0);
  }
}

TEST(Pcg32Test, PoissonMeanMatches) {
  Pcg32 rng(13);
  RunningStat small;
  RunningStat large;
  for (int i = 0; i < 20000; ++i) {
    small.Add(rng.Poisson(2.5));
    large.Add(rng.Poisson(100.0));
  }
  EXPECT_NEAR(small.mean(), 2.5, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Pcg32Test, PoissonZeroLambda) {
  Pcg32 rng(17);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-1.0), 0);
}

TEST(Pcg32Test, BernoulliProbability) {
  Pcg32 rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Pcg32Test, ExponentialMeanMatches) {
  Pcg32 rng(23);
  RunningStat stat;
  for (int i = 0; i < 30000; ++i) {
    stat.Add(rng.Exponential(2.0));
  }
  EXPECT_NEAR(stat.mean(), 0.5, 0.02);
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat stat;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    stat.Add(v);
  }
  EXPECT_EQ(stat.count(), 4u);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
  EXPECT_NEAR(stat.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 1.0);
  EXPECT_DOUBLE_EQ(stat.max(), 4.0);
  EXPECT_DOUBLE_EQ(stat.sum(), 10.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.variance(), 0.0);
}

TEST(PercentileTest, KnownValues) {
  std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 5.5);
  EXPECT_NEAR(Percentile(v, 0.95), 9.55, 1e-9);
}

TEST(PercentileTest, EmptyAndSingle) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({3.0}, 0.95), 3.0);
}

TEST(PercentileTest, ClampsQuantile) {
  std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(Percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 2.0), 2.0);
}

TEST(SummarizeTest, ConsistentWithParts) {
  std::vector<double> v;
  Pcg32 rng(37);
  for (int i = 0; i < 500; ++i) {
    v.push_back(rng.Uniform(0.0, 100.0));
  }
  Summary s = Summarize(v);
  EXPECT_EQ(s.count, v.size());
  EXPECT_NEAR(s.mean, Mean(v), 1e-9);
  EXPECT_DOUBLE_EQ(s.p95, Percentile(v, 0.95));
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("a%d_%s", 3, "x"), "a3_x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(FmtDouble(2.0 / 3.0, 3), "0.667");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddSeparator();
  table.AddRow({"longer_name", "2.5"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer_name"), std::string::npos);
  // Header rule + separator + top/bottom rules = at least 4 rules.
  size_t rules = 0;
  for (size_t pos = out.find("+--"); pos != std::string::npos;
       pos = out.find("+--", pos + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(TablePrinterTest, HandlesShortRows) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  std::ostringstream os;
  table.Print(os);
  EXPECT_FALSE(os.str().empty());
}

}  // namespace
}  // namespace litereconfig
