// Owned transcendental math: Exp, Log, SinCos and Tanh built only from IEEE
// + - * /, sqrt and integer bit operations, so their bits depend neither on
// the host's libm nor on which of its builds the CPU selects.
//
// Each function is written once, as a template over the value type V: double
// (the scalar form), Double2 (two SSE2 lanes) or Double4 (four AVX2 lanes).
// Every case split is a select, not a branch, and each lane of a vector
// operation is the scalar IEEE operation on that lane, so each lane of a lane
// form returns the scalar form's bits (DESIGN.md, "Owned math on the feature
// path"). With -ffp-contract=off no build fuses a multiply and an add.
//
// The algorithms and coefficients are fdlibm's, with its branches made
// selects:
//   Exp     e_exp.c: x = k ln2 + r, |r| <= ln2/2, and a rational kernel on r;
//   Log     e_log.c: x = 2^k (1 + f), sqrt(2)/2 <= 1 + f < sqrt(2), and a
//           polynomial in s = f / (2 + f);
//   SinCos  __kernel_sin and __kernel_cos on x - n pi/2, reduced in two
//           Cody-Waite steps (the medium case of __ieee754_rem_pio2);
//   Tanh    s_tanh.c over s_expm1.c, the algorithm glibc's tanh runs.
// Their errors against glibc are bounded in tests/detmath_test.cc.
//
// fdlibm: Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
// Developed at SunSoft, a Sun Microsystems, Inc. business. Permission to use,
// copy, modify, and distribute this software is freely granted, provided
// that this notice is preserved.
#ifndef SRC_UTIL_DETMATH_H_
#define SRC_UTIL_DETMATH_H_

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <type_traits>

#include "src/util/simd.h"

namespace litereconfig {

// e^x: +0.0 below -745.13 (where e^x rounds to 0), +inf above 709.78.
double Exp(double x);
// ln x: -inf at +-0.0, NaN below 0 and for NaN, +inf at +inf.
double Log(double x);
// sin x and cos x for |x| <= 2 pi (asserted), the range of Box-Muller's
// angles. NaN gives NaN.
void SinCos(double x, double* sin_x, double* cos_x);
// tanh x: +-1 for |x| >= 22, as glibc's.
double Tanh(double x);
// Box-Muller on one uniform pair, Pcg32::Normal's transform: with
// r = sqrt(-2 Log(u1)) and (s, c) = SinCos(2 pi u2), z_cos = r * c and
// z_sin = r * s. u1 in (0, 1], u2 in [0, 1).
void BoxMuller(double u1, double u2, double* z_cos, double* z_sin);

// Lane forms, bit-identical to the scalar forms element by element. They run
// at the widest vector the CPU offers, chosen once per process as the dense
// kernel does.
//
// x[i] = Tanh(x[i]).
void Tanh(std::span<double> x);
// BoxMuller(u1[i], u2[i], &z_cos[i], &z_sin[i]) for each i; the four spans
// have one length.
void BoxMuller(std::span<const double> u1, std::span<const double> u2,
               std::span<double> z_cos, std::span<double> z_sin);

// The two widths, for tests. The Avx2 forms may only be called when
// CpuHasAvx2().
void TanhSse2(std::span<double> x);
void TanhAvx2(std::span<double> x);
void BoxMullerSse2(std::span<const double> u1, std::span<const double> u2,
                   std::span<double> z_cos, std::span<double> z_sin);
void BoxMullerAvx2(std::span<const double> u1, std::span<const double> u2,
                   std::span<double> z_cos, std::span<double> z_sin);

// The templates every form above instantiates, here so that tests can run
// each function at every width: ExpV, LogV, SinCosV, TanhV and BoxMullerV,
// each writing its result through its last arguments. V is double, Double2
// or Double4. Vectors cross function boundaries only by reference
// (src/util/simd.h), and a comparison is a bool for double and a lane mask
// for a vector, which `?:` takes either way.

// The unsigned 64-bit lanes of V, for bit operations.
template <typename V>
struct LaneTraits;
template <>
struct LaneTraits<double> {
  using Bits = uint64_t;
};
template <>
struct LaneTraits<Double2> {
  using Bits = Bits2;
};
template <>
struct LaneTraits<Double4> {
  using Bits = Bits4;
};
template <typename V>
using LaneBits = typename LaneTraits<V>::Bits;

inline constexpr double kTwoPi = 2.0 * std::numbers::pi;
inline constexpr uint64_t kSignBit = 0x8000000000000000ull;
inline constexpr uint64_t kMantissaMask = 0x000fffffffffffffull;
// Adding it to |v| < 2^51 rounds v to the nearest integer n, held in the low
// bits: bits(v + kRoundShift) - kRoundShiftBits is n in two's complement.
inline constexpr double kRoundShift = 0x1.8p52;
inline constexpr uint64_t kRoundShiftBits = 0x4338000000000000ull;

// ln 2 in two parts: k * kLn2Hi is exact for |k| < 2^20.
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;

// Whether no lane of a comparison holds.
template <typename M>
[[gnu::always_inline]] inline bool NoLane(const M& m) {
  if constexpr (std::is_scalar_v<M>) {
    return m == 0;
  } else {
    for (size_t k = 0; k < sizeof(M) / sizeof(m[0]); ++k) {
      if (m[k] != 0) {
        return false;
      }
    }
    return true;
  }
}

// e^x.
template <typename V>
[[gnu::always_inline]] inline void ExpV(const V& x, V& out) {
  using B = LaneBits<V>;
  constexpr double kP1 = 0x1.555555555553ep-3;
  constexpr double kP2 = -0x1.6c16c16bebd93p-9;
  constexpr double kP3 = 0x1.1566aaf25de2cp-14;
  constexpr double kP4 = -0x1.bbd41c5d26bf1p-20;
  constexpr double kP5 = 0x1.6376972bea4d0p-25;
  constexpr double kMax = 0x1.62e42fefa39efp+9;   // 709.78: e^x overflows above
  constexpr double kMin = -0x1.74910d52d3051p+9;  // -745.13: e^x rounds to 0 below
  const V t = x * kInvLn2 + kRoundShift;
  const V k = t - kRoundShift;
  const B kb = __builtin_bit_cast(B, t) - kRoundShiftBits;
  // r = x - k ln2 as hi - lo; hi is exact (Sterbenz).
  const V hi = x - k * kLn2Hi;
  const V lo = k * kLn2Lo;
  const V r = hi - lo;
  const V rr = r * r;
  const V c = r - rr * (kP1 + rr * (kP2 + rr * (kP3 + rr * (kP4 + rr * kP5))));
  const V y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // y 2^k as (y 2^k1) 2^(k - k1) with k1 = floor(k / 2): both factors are
  // normal for every k in range, so a subnormal result rounds once.
  const B half = (kb + 2048) >> 1;  // k1 + 1024
  const V scaled = y * __builtin_bit_cast(V, (half - 1) << 52) *
                   __builtin_bit_cast(V, (kb + 2047 - half) << 52);
  const V inf = V{} + std::numeric_limits<double>::infinity();
  const V zero{};
  const V big = x > kMax ? inf : scaled;
  out = x < kMin ? zero : big;
}

// ln x.
template <typename V>
[[gnu::always_inline]] inline void LogV(const V& x, V& out) {
  using B = LaneBits<V>;
  constexpr double kLg1 = 0x1.5555555555593p-1;
  constexpr double kLg2 = 0x1.999999997fa04p-2;
  constexpr double kLg3 = 0x1.2492494229359p-2;
  constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
  constexpr double kLg5 = 0x1.7466496cb03dep-3;
  constexpr double kLg6 = 0x1.39a09d078c69fp-3;
  constexpr double kLg7 = 0x1.2f112df3e5244p-3;
  constexpr double kSqrt2 = 0x1.6a09cp+0;  // fdlibm's split point, just below sqrt(2)
  constexpr uint64_t kOneBits = 0x3ff0000000000000ull;
  constexpr uint64_t kTwo52Bits = 0x4330000000000000ull;
  // A subnormal x is scaled into the normal range first.
  const auto subnormal = x < 0x1p-1022;
  const V xs = subnormal ? x * 0x1p54 : x;
  const B bits = __builtin_bit_cast(B, xs);
  // xs = 2^e m with m in [1, 2); m is halved from ~sqrt(2) on.
  const V m1 = __builtin_bit_cast(V, (bits & kMantissaMask) | kOneBits);
  const auto upper = m1 >= kSqrt2;
  const V m = upper ? m1 * 0.5 : m1;
  // The biased exponent as a double, from the bits of 2^52 + e.
  const V biased = __builtin_bit_cast(V, ((bits >> 52) & 0x7ff) | kTwo52Bits) - 0x1p52;
  const V bias = subnormal ? V{} + 1077.0 : V{} + 1023.0;
  const V one = V{} + 1.0;
  const V k = (biased - bias) + (upper ? one : V{});
  const V f = m - 1.0;
  const V hfsq = 0.5 * f * f;
  const V s = f / (2.0 + f);
  const V z = s * s;
  const V w = z * z;
  const V t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const V t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const V r = t2 + t1;
  const V y = k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const V at_inf = x == kInf ? x : y;
  const V at_zero = x == 0.0 ? V{} - kInf : at_inf;
  const V nan = V{} + std::numeric_limits<double>::quiet_NaN();
  out = (x < 0.0) | (x != x) ? nan : at_zero;
}

// sin x and cos x for |x| <= 2 pi.
template <typename V>
[[gnu::always_inline]] inline void SinCosV(const V& x, V& sin_x, V& cos_x) {
  using B = LaneBits<V>;
  constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
  // pi/2 = kPio2_1 + kPio2_2 + kPio2_2t + O(2^-122); the first two have 33
  // bits, so n times each is exact.
  constexpr double kPio2_1 = 0x1.921fb54400000p+0;
  constexpr double kPio2_2 = 0x1.0b4611a600000p-34;
  constexpr double kPio2_2t = 0x1.3198a2e037073p-69;
  constexpr double kS1 = -0x1.5555555555549p-3;
  constexpr double kS2 = 0x1.111111110f8a6p-7;
  constexpr double kS3 = -0x1.a01a019c161d5p-13;
  constexpr double kS4 = 0x1.71de357b1fe7dp-19;
  constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
  constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
  constexpr double kC1 = 0x1.555555555554cp-5;
  constexpr double kC2 = -0x1.6c16c16c15177p-10;
  constexpr double kC3 = 0x1.a01a019cb1590p-16;
  constexpr double kC4 = -0x1.27e4f809c52adp-22;
  constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
  constexpr double kC6 = -0x1.8fae9be8838d4p-37;
  assert(NoLane((x > kTwoPi) | (x < -kTwoPi)));
  // x = n pi/2 + y0 + y1 with |y0| <= pi/4 and y1 the tail of y0.
  const V t = x * kInvPio2 + kRoundShift;
  const V n = t - kRoundShift;
  const B q = __builtin_bit_cast(B, t) - kRoundShiftBits;
  const V a = x - n * kPio2_1;  // exact (Sterbenz)
  const V w = n * kPio2_2;
  const V r = a - w;
  const V tail = n * kPio2_2t - ((a - r) - w);
  const V y0 = r - tail;
  const V y1 = (r - y0) - tail;
  // The kernels on [-pi/4, pi/4].
  const V z = y0 * y0;
  const V zz = z * z;
  const V sr = kS2 + z * (kS3 + z * kS4) + z * zz * (kS5 + z * kS6);
  const V v = z * y0;
  const V s = y0 - ((z * (0.5 * y1 - v * sr) - y1) - v * kS1);
  const V cr = z * (kC1 + z * (kC2 + z * kC3)) + zz * zz * (kC4 + z * (kC5 + z * kC6));
  const V hz = 0.5 * z;
  const V one_hz = 1.0 - hz;
  const V c = one_hz + (((1.0 - one_hz) - hz) + (z * cr - y0 * y1));
  // Quadrant n mod 4: odd ones swap the kernels, and n & 2 (sin) or
  // (n + 1) & 2 (cos) flips the sign.
  const B swap = B{} - (q & 1);
  const B sb = __builtin_bit_cast(B, s);
  const B cb = __builtin_bit_cast(B, c);
  sin_x = __builtin_bit_cast(V, ((cb & swap) | (sb & ~swap)) ^ ((q & 2) << 62));
  cos_x = __builtin_bit_cast(V, ((sb & swap) | (cb & ~swap)) ^ (((q + 1) & 2) << 62));
}

// e^y - 1 for the arguments Tanh passes below its saturation: y in (-2, 0]
// or in [2, 44), so k = round(y / ln2) is 0, -1, -2, -3, or in [3, 63].
template <typename V>
[[gnu::always_inline]] inline void Expm1V(const V& y, V& out) {
  using B = LaneBits<V>;
  constexpr double kQ1 = -0x1.11111111110f4p-5;
  constexpr double kQ2 = 0x1.a01a019fe5585p-10;
  constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
  constexpr double kQ4 = 0x1.0cfca86e65239p-18;
  constexpr double kQ5 = -0x1.afdb76e09c32dp-23;
  const V t = y * kInvLn2 + kRoundShift;
  const V k = t - kRoundShift;
  const B kb = __builtin_bit_cast(B, t) - kRoundShiftBits;
  // r = y - k ln2 as hi - lo, and c the rounding error of r.
  const V hi = y - k * kLn2Hi;
  const V lo = k * kLn2Lo;
  const V r = hi - lo;
  const V c = (hi - r) - lo;
  const V hfx = 0.5 * r;
  const V hxs = r * hfx;
  const V r1 = 1.0 + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const V t3 = 3.0 - r1 * hfx;
  const V e0 = hxs * ((r1 - t3) / (6.0 - r * t3));
  const V at_k0 = r - (r * e0 - hxs);
  // s_expm1.c's k != 0 cases that occur here, then the one for this k.
  const V e = (r * (e0 - c) - c) - hxs;
  const V two_k = __builtin_bit_cast(V, (kb + 1023) << 52);
  const V two_minus_k = __builtin_bit_cast(V, (1023 - kb) << 52);
  const V at_km1 = 0.5 * (r - e) - 0.5;
  const V far = (1.0 - (e - r)) * two_k - 1.0;             // k <= -2 or k > 56
  const V mid = ((1.0 - two_minus_k) - (e - r)) * two_k;   // 3 <= k < 20
  const V high = ((r - (e + two_minus_k)) + 1.0) * two_k;  // 20 <= k <= 56
  const V positive = k < 20.0 ? mid : high;
  const V k_far = (k <= -2.0) | (k > 56.0) ? far : positive;
  const V k_minus_one = k == -1.0 ? at_km1 : k_far;
  out = k == 0.0 ? at_k0 : k_minus_one;
}

// tanh x.
template <typename V>
[[gnu::always_inline]] inline void TanhV(const V& x, V& out) {
  using B = LaneBits<V>;
  const B xb = __builtin_bit_cast(B, x);
  const V a = __builtin_bit_cast(V, xb & ~kSignBit);
  // tanh a = 1 - 2 / (t + 2) with t = expm1(2a) from 1 on, and -t / (t + 2)
  // with t = expm1(-2a) below: one division either way.
  const auto from_one = a >= 1.0;
  const V y = from_one ? 2.0 * a : -2.0 * a;
  V t{};
  Expm1V(y, t);
  const V two = V{} + 2.0;
  const V q = (from_one ? two : -t) / (t + 2.0);
  const V z = from_one ? 1.0 - q : q;
  const V one = V{} + 1.0;
  const V saturated = a >= 22.0 ? one : z;
  // saturated is +0.0 or more, or NaN: it takes x's sign.
  out = __builtin_bit_cast(V, (__builtin_bit_cast(B, saturated) & ~kSignBit) | (xb & kSignBit));
}

// Box-Muller on one uniform pair per lane.
template <typename V>
[[gnu::always_inline]] inline void BoxMullerV(const V& u1, const V& u2, V& z_cos, V& z_sin) {
  V log_u1{};
  LogV(u1, log_u1);
  V r = -2.0 * log_u1;
  if constexpr (std::is_same_v<V, double>) {
    r = std::sqrt(r);
  } else {
    for (size_t k = 0; k < sizeof(V) / sizeof(double); ++k) {
      r[k] = std::sqrt(r[k]);
    }
  }
  const V theta = kTwoPi * u2;
  V s{};
  V c{};
  SinCosV(theta, s, c);
  z_cos = r * c;
  z_sin = r * s;
}

}  // namespace litereconfig

#endif  // SRC_UTIL_DETMATH_H_
