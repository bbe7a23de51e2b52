#include "src/util/detmath.h"

#include <cstring>

namespace litereconfig {

double Exp(double x) {
  double y = 0.0;
  ExpV(x, y);
  return y;
}

double Log(double x) {
  double y = 0.0;
  LogV(x, y);
  return y;
}

void SinCos(double x, double* sin_x, double* cos_x) { SinCosV(x, *sin_x, *cos_x); }

double Tanh(double x) {
  double y = 0.0;
  TanhV(x, y);
  return y;
}

void BoxMuller(double u1, double u2, double* z_cos, double* z_sin) {
  BoxMullerV(u1, u2, *z_cos, *z_sin);
}

namespace {

// The lane loops: whole vectors of V, then the leftover elements one at a
// time through the scalar form.
template <typename V>
[[gnu::always_inline]] inline void TanhLoop(std::span<double> x) {
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  size_t i = 0;
  for (; i + kLanes <= x.size(); i += kLanes) {
    V v{};
    V y{};
    std::memcpy(&v, x.data() + i, sizeof(V));
    TanhV(v, y);
    std::memcpy(x.data() + i, &y, sizeof(V));
  }
  for (; i < x.size(); ++i) {
    x[i] = Tanh(x[i]);
  }
}

template <typename V>
[[gnu::always_inline]] inline void BoxMullerLoop(std::span<const double> u1,
                                                 std::span<const double> u2,
                                                 std::span<double> z_cos,
                                                 std::span<double> z_sin) {
  assert(u2.size() == u1.size() && z_cos.size() == u1.size() && z_sin.size() == u1.size());
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  size_t i = 0;
  for (; i + kLanes <= u1.size(); i += kLanes) {
    V a{};
    V b{};
    V c{};
    V s{};
    std::memcpy(&a, u1.data() + i, sizeof(V));
    std::memcpy(&b, u2.data() + i, sizeof(V));
    BoxMullerV(a, b, c, s);
    std::memcpy(z_cos.data() + i, &c, sizeof(V));
    std::memcpy(z_sin.data() + i, &s, sizeof(V));
  }
  for (; i < u1.size(); ++i) {
    BoxMuller(u1[i], u2[i], &z_cos[i], &z_sin[i]);
  }
}

using TanhFn = void (*)(std::span<double>);
using BoxMullerFn = void (*)(std::span<const double>, std::span<const double>,
                             std::span<double>, std::span<double>);

}  // namespace

void TanhSse2(std::span<double> x) { TanhLoop<Double2>(x); }

void BoxMullerSse2(std::span<const double> u1, std::span<const double> u2,
                   std::span<double> z_cos, std::span<double> z_sin) {
  BoxMullerLoop<Double2>(u1, u2, z_cos, z_sin);
}

#if defined(__x86_64__) || defined(__i386__)

// The same templates, compiled for AVX2. The target string names avx2 alone:
// no fma, so -ffp-contract=off still leaves every multiply and add rounded on
// its own.
__attribute__((target("avx2"))) void TanhAvx2(std::span<double> x) { TanhLoop<Double4>(x); }

__attribute__((target("avx2"))) void BoxMullerAvx2(std::span<const double> u1,
                                                   std::span<const double> u2,
                                                   std::span<double> z_cos,
                                                   std::span<double> z_sin) {
  BoxMullerLoop<Double4>(u1, u2, z_cos, z_sin);
}

#else

// Off x86 there is no AVX2: CpuHasAvx2() is false, so nothing calls these.
void TanhAvx2(std::span<double> x) { TanhLoop<Double2>(x); }

void BoxMullerAvx2(std::span<const double> u1, std::span<const double> u2,
                   std::span<double> z_cos, std::span<double> z_sin) {
  BoxMullerLoop<Double2>(u1, u2, z_cos, z_sin);
}

#endif

void Tanh(std::span<double> x) {
  static const TanhFn kTanh = CpuHasAvx2() ? TanhAvx2 : TanhSse2;
  kTanh(x);
}

void BoxMuller(std::span<const double> u1, std::span<const double> u2,
               std::span<double> z_cos, std::span<double> z_sin) {
  static const BoxMullerFn kBoxMuller = CpuHasAvx2() ? BoxMullerAvx2 : BoxMullerSse2;
  kBoxMuller(u1, u2, z_cos, z_sin);
}

}  // namespace litereconfig
