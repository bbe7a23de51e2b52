// detmath (src/util/detmath.h): each function against the host's libm on
// seeded random inputs over its domain, its special values, its lane forms
// against its scalar form bit for bit at both widths, FillNormal against
// repeated Normal, and a pinned hash of each function's outputs.
//
// The random cases follow the RANDOMIZED_TEST idiom (SNIPPETS.md): repeated
// trials, each drawing fresh inputs from a generator seeded by its index, so
// every failure names a trial that reproduces alone.
#include "src/util/detmath.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <numbers>
#include <vector>

#include "src/util/rng.h"
#include "src/util/simd.h"

namespace litereconfig {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
constexpr double kPi = std::numbers::pi;
constexpr int kTrials = 16;
constexpr int kInputsPerTrial = 4096;

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Doubles apart from a to b (0 when both are NaN): the distance between
// their places on the ordered line of doubles, with -0.0 and +0.0 one place.
uint64_t UlpDistance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) ? 0 : std::numeric_limits<uint64_t>::max();
  }
  auto place = [](double v) {
    int64_t i = std::bit_cast<int64_t>(v);
    return i < 0 ? std::numeric_limits<int64_t>::min() - i : i;
  };
  int64_t pa = place(a);
  int64_t pb = place(b);
  return pa > pb ? static_cast<uint64_t>(pa) - static_cast<uint64_t>(pb)
                 : static_cast<uint64_t>(pb) - static_cast<uint64_t>(pa);
}

enum class Fn { kExp, kLog, kSin, kCos, kTanh };

double Scalar(Fn fn, double x) {
  double s = 0.0;
  double c = 0.0;
  switch (fn) {
    case Fn::kExp:
      return Exp(x);
    case Fn::kLog:
      return Log(x);
    case Fn::kSin:
      SinCos(x, &s, &c);
      return s;
    case Fn::kCos:
      SinCos(x, &s, &c);
      return c;
    case Fn::kTanh:
      return Tanh(x);
  }
  return kNaN;
}

double Libm(Fn fn, double x) {
  switch (fn) {
    case Fn::kExp:
      return std::exp(x);
    case Fn::kLog:
      return std::log(x);
    case Fn::kSin:
      return std::sin(x);
    case Fn::kCos:
      return std::cos(x);
    case Fn::kTanh:
      return std::tanh(x);
  }
  return kNaN;
}

// y[i] = fn(x[i]) through the template's V instantiation, whole vectors only.
template <typename V>
[[gnu::always_inline]] inline void LaneLoop(Fn fn, const std::vector<double>& x,
                                            std::vector<double>& y) {
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  for (size_t i = 0; i + kLanes <= x.size(); i += kLanes) {
    V v{};
    V r{};
    V other{};
    std::memcpy(&v, x.data() + i, sizeof(V));
    switch (fn) {
      case Fn::kExp:
        ExpV(v, r);
        break;
      case Fn::kLog:
        LogV(v, r);
        break;
      case Fn::kSin:
        SinCosV(v, r, other);
        break;
      case Fn::kCos:
        SinCosV(v, other, r);
        break;
      case Fn::kTanh:
        TanhV(v, r);
        break;
    }
    std::memcpy(y.data() + i, &r, sizeof(V));
  }
}

void LanesSse2(Fn fn, const std::vector<double>& x, std::vector<double>& y) {
  LaneLoop<Double2>(fn, x, y);
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void LanesAvx2(Fn fn, const std::vector<double>& x,
                                               std::vector<double>& y) {
  LaneLoop<Double4>(fn, x, y);
}
#else
void LanesAvx2(Fn fn, const std::vector<double>& x, std::vector<double>& y) {
  LaneLoop<Double2>(fn, x, y);
}
#endif

// One seeded input domain of a function, and its bound against the libm.
struct Domain {
  const char* name;
  Fn fn;
  double (*draw)(Pcg32& rng);
  uint64_t max_ulps;
};

// The bounds hold against glibc, whose exp, log, sin and cos are correctly
// rounded in nearly every case: detmath's are within 1 ulp of them. glibc's
// tanh runs the same fdlibm algorithm as detmath's (fused where the CPU has
// FMA) and is itself up to 2 ulps from the true value; the two are within
// 3 ulps of each other.
const Domain kDomains[] = {
    {"exp over its range", Fn::kExp, [](Pcg32& r) { return r.Uniform(-745.0, 709.7); }, 1},
    {"exp on [-1, 1]", Fn::kExp, [](Pcg32& r) { return r.Uniform(-1.0, 1.0); }, 1},
    {"exp with subnormal results", Fn::kExp,
     [](Pcg32& r) { return r.Uniform(-745.13, -708.4); }, 1},
    {"log on (0, 1], Box-Muller's", Fn::kLog, [](Pcg32& r) { return 1.0 - r.NextDouble(); }, 1},
    {"log over the normal doubles", Fn::kLog,
     [](Pcg32& r) {
       return std::ldexp(1.0 + r.NextDouble(), static_cast<int>(r.UniformInt(2046)) - 1022);
     },
     1},
    {"log of subnormals", Fn::kLog,
     [](Pcg32& r) {
       return std::ldexp(r.NextDouble(), -1022 - static_cast<int>(r.UniformInt(52)));
     },
     1},
    {"sin on [-2 pi, 2 pi]", Fn::kSin, [](Pcg32& r) { return r.Uniform(-kTwoPi, kTwoPi); }, 1},
    {"cos on [-2 pi, 2 pi]", Fn::kCos, [](Pcg32& r) { return r.Uniform(-kTwoPi, kTwoPi); }, 1},
    {"sin near 0", Fn::kSin, [](Pcg32& r) { return r.Uniform(-1e-6, 1e-6); }, 1},
    {"tanh on [-3, 3], the embeddings'", Fn::kTanh, [](Pcg32& r) { return r.Uniform(-3.0, 3.0); },
     3},
    {"tanh to saturation", Fn::kTanh, [](Pcg32& r) { return r.Uniform(-23.0, 23.0); }, 3},
    {"tanh near 0", Fn::kTanh, [](Pcg32& r) { return r.Uniform(-1e-3, 1e-3); }, 3},
};

std::vector<double> Draw(const Domain& domain, int trial) {
  Pcg32 rng(HashKeys({0xde7a7ull, static_cast<uint64_t>(domain.fn),
                      static_cast<uint64_t>(trial)}));
  std::vector<double> x(kInputsPerTrial);
  for (double& v : x) {
    v = domain.draw(rng);
  }
  return x;
}

TEST(DetmathTest, RandomizedWithinBoundOfLibm) {
  for (const Domain& domain : kDomains) {
    uint64_t worst = 0;
    double worst_x = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      for (double x : Draw(domain, trial)) {
        uint64_t ulps = UlpDistance(Scalar(domain.fn, x), Libm(domain.fn, x));
        if (ulps > worst) {
          worst = ulps;
          worst_x = x;
        }
        ASSERT_LE(ulps, domain.max_ulps)
            << domain.name << ", trial " << trial << ", x = " << x << ": "
            << Scalar(domain.fn, x) << " vs " << Libm(domain.fn, x);
      }
    }
    std::cout << domain.name << ": max " << worst << " ulp (bound " << domain.max_ulps
              << ") at x = " << worst_x << " over " << kTrials * kInputsPerTrial
              << " inputs\n";
  }
}

TEST(DetmathTest, ExpSpecialValues) {
  EXPECT_EQ(Bits(Exp(0.0)), Bits(1.0));
  EXPECT_EQ(Bits(Exp(-0.0)), Bits(1.0));
  EXPECT_EQ(Exp(kInf), kInf);
  EXPECT_EQ(Bits(Exp(-kInf)), Bits(0.0));
  EXPECT_TRUE(std::isnan(Exp(kNaN)));
  // Overflow: the last finite result, then +inf.
  const double max_arg = 0x1.62e42fefa39efp+9;
  EXPECT_LE(UlpDistance(Exp(max_arg), std::exp(max_arg)), 1u);
  EXPECT_TRUE(std::isfinite(Exp(max_arg)));
  EXPECT_EQ(Exp(std::nextafter(max_arg, kInf)), kInf);
  EXPECT_EQ(Exp(1000.0), kInf);
  // Underflow: subnormal results round once, then +0.0.
  for (double x : {-708.5, -720.0, -740.0, -744.0, -745.0}) {
    EXPECT_LE(UlpDistance(Exp(x), std::exp(x)), 1u) << x;
  }
  const double min_arg = -0x1.74910d52d3051p+9;
  EXPECT_EQ(Exp(min_arg), kDenormMin);
  EXPECT_EQ(Bits(Exp(std::nextafter(min_arg, -kInf))), Bits(0.0));
  EXPECT_EQ(Bits(Exp(-1000.0)), Bits(0.0));
}

TEST(DetmathTest, LogSpecialValues) {
  EXPECT_EQ(Bits(Log(1.0)), Bits(0.0));
  EXPECT_EQ(Log(0.0), -kInf);
  EXPECT_EQ(Log(-0.0), -kInf);
  EXPECT_EQ(Log(kInf), kInf);
  EXPECT_TRUE(std::isnan(Log(-1.0)));
  EXPECT_TRUE(std::isnan(Log(-kDenormMin)));
  EXPECT_TRUE(std::isnan(Log(-kInf)));
  EXPECT_TRUE(std::isnan(Log(kNaN)));
  for (double x : {kDenormMin, std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::max(), 1e-300, std::nextafter(1.0, 0.0),
                   std::nextafter(1.0, 2.0), std::numbers::sqrt2, std::numbers::sqrt2 / 2.0}) {
    EXPECT_LE(UlpDistance(Log(x), std::log(x)), 1u) << x;
  }
}

TEST(DetmathTest, SinCosSpecialValues) {
  double s = 1.0;
  double c = 0.0;
  SinCos(0.0, &s, &c);
  EXPECT_EQ(Bits(s), Bits(0.0));
  EXPECT_EQ(Bits(c), Bits(1.0));
  SinCos(-0.0, &s, &c);
  EXPECT_EQ(Bits(s), Bits(-0.0));
  EXPECT_EQ(Bits(c), Bits(1.0));
  SinCos(kNaN, &s, &c);
  EXPECT_TRUE(std::isnan(s));
  EXPECT_TRUE(std::isnan(c));
  // The domain's edges and the quadrant boundaries, where a result is near
  // zero and only the reduction's tail keeps its relative accuracy.
  for (double x : {kTwoPi, -kTwoPi, kPi, -kPi, kPi / 2.0, -kPi / 2.0, 1.5 * kPi, kPi / 4.0,
                   std::nextafter(kPi, 0.0), std::nextafter(kTwoPi, 0.0), 1e-300,
                   kDenormMin}) {
    SinCos(x, &s, &c);
    EXPECT_LE(UlpDistance(s, std::sin(x)), 1u) << x;
    EXPECT_LE(UlpDistance(c, std::cos(x)), 1u) << x;
  }
}

TEST(DetmathTest, TanhSpecialValues) {
  EXPECT_EQ(Bits(Tanh(0.0)), Bits(0.0));
  EXPECT_EQ(Bits(Tanh(-0.0)), Bits(-0.0));
  EXPECT_EQ(Tanh(kInf), 1.0);
  EXPECT_EQ(Tanh(-kInf), -1.0);
  EXPECT_TRUE(std::isnan(Tanh(kNaN)));
  // Saturation at |x| >= 22, as glibc's; below it the formula's own result.
  EXPECT_EQ(Tanh(22.0), 1.0);
  EXPECT_EQ(Tanh(-22.0), -1.0);
  EXPECT_EQ(Tanh(1e300), 1.0);
  for (double x : {std::nextafter(22.0, 0.0), 19.0, 1.0, std::nextafter(1.0, 0.0), 0.5,
                   -0.5, -1.0, 1e-8}) {
    EXPECT_LE(UlpDistance(Tanh(x), std::tanh(x)), 3u) << x;
  }
  // Tiny and subnormal arguments come back unchanged.
  for (double x : {1e-300, kDenormMin, -kDenormMin, std::numeric_limits<double>::min()}) {
    EXPECT_EQ(Bits(Tanh(x)), Bits(x)) << x;
  }
}

// Inputs for the lane checks: random draws from every domain plus the
// special values, in an order that puts each special value in every lane.
std::vector<double> LaneInputs(Fn fn) {
  std::vector<double> x;
  for (const Domain& domain : kDomains) {
    if (domain.fn == fn) {
      std::vector<double> drawn = Draw(domain, /*trial=*/kTrials);
      x.insert(x.end(), drawn.begin(), drawn.end());
    }
  }
  std::vector<double> special = {0.0, -0.0, kNaN, kDenormMin, -kDenormMin, 1.0, -1.0};
  if (fn == Fn::kSin || fn == Fn::kCos) {
    special.insert(special.end(), {kTwoPi, -kTwoPi, kPi, kPi / 2.0, -kPi / 2.0});
  } else {
    special.insert(special.end(), {kInf, -kInf, 22.0, -22.0, 709.8, -745.2, 1e300, -1e300,
                                   std::numeric_limits<double>::min()});
  }
  for (size_t shift = 0; shift < 4; ++shift) {
    x.insert(x.end(), shift, 0.5);
    x.insert(x.end(), special.begin(), special.end());
  }
  x.resize(x.size() / 4 * 4);
  return x;
}

void ExpectLanesMatchScalar(void (*lanes)(Fn, const std::vector<double>&, std::vector<double>&)) {
  for (Fn fn : {Fn::kExp, Fn::kLog, Fn::kSin, Fn::kCos, Fn::kTanh}) {
    std::vector<double> x = LaneInputs(fn);
    std::vector<double> y(x.size());
    lanes(fn, x, y);
    for (size_t i = 0; i < x.size(); ++i) {
      double want = Scalar(fn, x[i]);
      ASSERT_EQ(Bits(y[i]), Bits(want))
          << "fn " << static_cast<int>(fn) << " x = " << x[i] << ": " << y[i] << " vs " << want;
    }
  }
}

TEST(DetmathTest, Sse2LanesMatchScalar) { ExpectLanesMatchScalar(LanesSse2); }

TEST(DetmathTest, Avx2LanesMatchScalar) {
  if (!CpuHasAvx2()) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  ExpectLanesMatchScalar(LanesAvx2);
}

// The product's lane entry points, tails included: every length to 9, and
// the two embedding widths.
void ExpectEntryPointsMatchScalar(void (*tanh)(std::span<double>),
                                  void (*box_muller)(std::span<const double>,
                                                     std::span<const double>, std::span<double>,
                                                     std::span<double>)) {
  Pcg32 rng(0x7a4bull);
  for (size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1024, 1280}) {
    SCOPED_TRACE(testing::Message() << "length " << n);
    std::vector<double> x(n);
    std::vector<double> u1(n);
    std::vector<double> u2(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.Uniform(-4.0, 4.0);
      u1[i] = 1.0 - rng.NextDouble();
      u2[i] = rng.NextDouble();
    }
    std::vector<double> y = x;
    tanh(y);
    std::vector<double> z_cos(n);
    std::vector<double> z_sin(n);
    box_muller(u1, u2, z_cos, z_sin);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(Bits(y[i]), Bits(Tanh(x[i]))) << "tanh " << i;
      double want_cos = 0.0;
      double want_sin = 0.0;
      BoxMuller(u1[i], u2[i], &want_cos, &want_sin);
      ASSERT_EQ(Bits(z_cos[i]), Bits(want_cos)) << "box-muller cos " << i;
      ASSERT_EQ(Bits(z_sin[i]), Bits(want_sin)) << "box-muller sin " << i;
    }
  }
}

TEST(DetmathTest, Sse2EntryPointsMatchScalar) {
  ExpectEntryPointsMatchScalar(TanhSse2, BoxMullerSse2);
}

TEST(DetmathTest, Avx2EntryPointsMatchScalar) {
  if (!CpuHasAvx2()) {
    GTEST_SKIP() << "this CPU has no AVX2";
  }
  ExpectEntryPointsMatchScalar(TanhAvx2, BoxMullerAvx2);
}

// FillNormal against one Normal call per element on a copy of the generator:
// the same values bit for bit, and the same state after (the next draws of
// both agree, pending value included).
void ExpectFillNormalMatchesNormal(Pcg32 fill, size_t n, double mean, double stddev) {
  Pcg32 loop = fill;
  std::vector<double> got(n);
  fill.FillNormal(got, mean, stddev);
  for (size_t i = 0; i < n; ++i) {
    double want = loop.Normal(mean, stddev);
    ASSERT_EQ(Bits(got[i]), Bits(want)) << "element " << i << " of " << n;
  }
  for (int k = 0; k < 3; ++k) {
    ASSERT_EQ(Bits(fill.Normal()), Bits(loop.Normal())) << "draw " << k << " after " << n;
  }
  ASSERT_EQ(fill.NextU32(), loop.NextU32());
}

TEST(DetmathTest, FillNormalMatchesRepeatedNormal) {
  const size_t counts[] = {0, 1, 2, 3, 7, 63, 64, 127, 128, 129, 131, 1024, 1280};
  for (int trial = 0; trial < kTrials; ++trial) {
    for (size_t n : counts) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << ", count " << n);
      Pcg32 rng(HashKeys({0xf111ull, static_cast<uint64_t>(trial), n}));
      double mean = rng.Uniform(-5.0, 5.0);
      double stddev = rng.Uniform(0.01, 3.0);
      ExpectFillNormalMatchesNormal(rng, n, mean, stddev);
      // A pending second value at entry comes out first.
      Pcg32 pending = rng;
      pending.Normal();
      ExpectFillNormalMatchesNormal(pending, n, mean, stddev);
    }
  }
}

// The u1 <= 1e-300 redraw: NextDouble is 0.0 only when both of its 32-bit
// draws are (nearly) zero, so the test builds a generator whose first two
// draws are exactly 0. PCG32 outputs 0 from states 0 and 1; with stream 0 the
// increment is 1, so state 0 steps to state 1, and the seed below makes the
// constructor leave state 0.
TEST(DetmathTest, FillNormalRedrawsAZeroUniformAsNormalDoes) {
  constexpr uint64_t kMultiplier = 6364136223846793005ull;
  uint64_t inverse = kMultiplier;  // Newton's iteration for the inverse mod 2^64
  for (int i = 0; i < 6; ++i) {
    inverse *= 2 - kMultiplier * inverse;
  }
  ASSERT_EQ(kMultiplier * inverse, 1u);
  // The constructor leaves (1 + seed) * kMultiplier + 1 in the state.
  const uint64_t seed = (0 - inverse) - 1;
  Pcg32 probe(seed, /*stream=*/0);
  ASSERT_EQ(probe.NextDouble(), 0.0);
  for (size_t n : {1, 2, 5, 64, 200}) {
    ExpectFillNormalMatchesNormal(Pcg32(seed, 0), n, 0.0, 1.0);
  }
}

// Pinned hashes of each function's outputs on seeded inputs. Every build,
// whatever its flags or CPU (the -march=x86-64-v3 CI leg included), must
// produce these bits; a change to a function's arithmetic moves its hash.
TEST(DetmathTest, OutputsArePinned) {
  struct Pinned {
    Fn fn;
    uint64_t hash;
  };
  const Pinned pinned[] = {
      {Fn::kExp, 0xe0d72edaaa46f763ull},
      {Fn::kLog, 0x3c14b5f033a53071ull},
      {Fn::kSin, 0x2f992dd8df53bfa3ull},
      {Fn::kCos, 0x5a371a926d7e0b11ull},
      {Fn::kTanh, 0xe77f25920bb6e0d1ull},
  };
  for (const Pinned& p : pinned) {
    HashState h;
    for (double x : LaneInputs(p.fn)) {
      double y = Scalar(p.fn, x);
      h.Mix(std::isnan(y) ? 0x7ff8000000000000ull : Bits(y));  // one NaN, whatever its payload
    }
    EXPECT_EQ(h.Get(), p.hash) << "fn " << static_cast<int>(p.fn) << std::hex << " got 0x"
                               << h.Get();
  }
}

}  // namespace
}  // namespace litereconfig
