#include "src/util/rng.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/util/detmath.h"

namespace litereconfig {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  NextU32();
  state_ += seed;
  NextU32();
}

uint32_t Pcg32::NextU32() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ull + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

double Pcg32::NextDouble() {
  // 53-bit mantissa from two draws.
  uint64_t hi = NextU32();
  uint64_t lo = NextU32();
  uint64_t bits = ((hi << 32) | lo) >> 11;
  return static_cast<double>(bits) * (1.0 / 9007199254740992.0);
}

double Pcg32::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

uint32_t Pcg32::UniformInt(uint32_t n) {
  // Lemire's nearly-divisionless bounded sampling with rejection.
  uint64_t m = static_cast<uint64_t>(NextU32()) * n;
  uint32_t l = static_cast<uint32_t>(m);
  if (l < n) {
    uint32_t t = (-n) % n;
    while (l < t) {
      m = static_cast<uint64_t>(NextU32()) * n;
      l = static_cast<uint32_t>(m);
    }
  }
  return static_cast<uint32_t>(m >> 32);
}

bool Pcg32::Bernoulli(double p) { return NextDouble() < p; }

void Pcg32::NextUniformPair(double* u1, double* u2) {
  do {
    *u1 = NextDouble();
  } while (*u1 <= 1e-300);
  *u2 = NextDouble();
}

double Pcg32::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  NextUniformPair(&u1, &u2);
  double z_cos = 0.0;
  BoxMuller(u1, u2, &z_cos, &cached_normal_);
  has_cached_normal_ = true;
  return z_cos;
}

double Pcg32::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

void Pcg32::FillNormal(std::span<double> out, double mean, double stddev) {
  size_t i = 0;
  if (has_cached_normal_ && !out.empty()) {
    has_cached_normal_ = false;
    out[i++] = mean + stddev * cached_normal_;
  }
  // Normal's uniform pairs, drawn in its order a chunk at a time, then
  // transformed by the lane form of its Box-Muller step.
  constexpr size_t kChunk = 64;
  std::array<double, kChunk> u1{};
  std::array<double, kChunk> u2{};
  std::array<double, kChunk> z_cos{};
  std::array<double, kChunk> z_sin{};
  while (i < out.size()) {
    size_t pairs = std::min(kChunk, (out.size() - i + 1) / 2);
    for (size_t p = 0; p < pairs; ++p) {
      NextUniformPair(&u1[p], &u2[p]);
    }
    BoxMuller(std::span(u1).first(pairs), std::span(u2).first(pairs),
              std::span(z_cos).first(pairs), std::span(z_sin).first(pairs));
    for (size_t p = 0; p < pairs; ++p) {
      out[i++] = mean + stddev * z_cos[p];
      if (i == out.size()) {
        // An odd count: the last pair's second value waits, as in Normal.
        cached_normal_ = z_sin[p];
        has_cached_normal_ = true;
        break;
      }
      out[i++] = mean + stddev * z_sin[p];
    }
  }
}

double Pcg32::LogNormal(double mu, double sigma) { return Exp(Normal(mu, sigma)); }

double Pcg32::Exponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -Log(u) / rate;
}

int Pcg32::Poisson(double lambda) {
  if (lambda <= 0.0) {
    return 0;
  }
  if (lambda > 64.0) {
    double v = Normal(lambda, std::sqrt(lambda));
    return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  double limit = Exp(-lambda);
  double prod = NextDouble();
  int n = 0;
  while (prod > limit) {
    prod *= NextDouble();
    ++n;
  }
  return n;
}

}  // namespace litereconfig
