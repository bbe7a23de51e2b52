// Deterministic pseudo-random number generation.
//
// Everything stochastic in the simulator is drawn from hash-seeded substreams so
// that any experiment re-runs bit-identically: a substream is keyed by the tuple of
// entity identifiers that own the draw (video id, frame index, branch id, ...), not
// by global call order. PCG32 is used as the core generator because it is small,
// fast, and has well-understood statistical quality.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>
#include <initializer_list>
#include <span>

namespace litereconfig {

// SplitMix64 step; used both as a seed expander and as a cheap mixing hash.
// Defined inline: every HashState::Mix runs one SplitMix64, so the per-pixel
// raster hashing and the per-track substream derivation are bounded by this
// function — an out-of-line call here costs more than the mixing itself.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Mixes an arbitrary list of integer keys into a single well-distributed 64-bit
// value. Order-sensitive: HashKeys({a, b}) != HashKeys({b, a}) in general.
// Defined inline below HashState.
uint64_t HashKeys(std::initializer_list<uint64_t> keys);

// Incremental form of HashKeys. Feeding the same key sequence through Mix()
// yields exactly HashKeys({...}) from Get(), and the object is trivially
// copyable — so a hot loop that derives many substreams sharing a key prefix
// (e.g. {video seed, frame} followed by a per-object suffix) can checkpoint
// the prefix once and replay only the suffix per entity. Checkpointing never
// changes any derived value; it is the same mixing chain, split in two.
class HashState {
 public:
  void Mix(uint64_t k) {
    state_ ^= k + 0x9E3779B97F4A7C15ull + (acc_ << 6) + (acc_ >> 2);
    acc_ = SplitMix64(state_);
  }
  uint64_t Get() const { return acc_; }

 private:
  uint64_t state_ = 0x853C49E6748FEA9Bull;
  uint64_t acc_ = 0;
};

// Kept as a thin loop over HashState so the incremental (checkpointable) form
// and the one-shot form can never diverge.
inline uint64_t HashKeys(std::initializer_list<uint64_t> keys) {
  HashState h;
  for (uint64_t k : keys) {
    h.Mix(k);
  }
  return h.Get();
}

// Minimal PCG32 (XSH-RR) generator with convenience distributions. Their
// transcendental steps run on detmath (src/util/detmath.h), so no draw
// depends on the host's libm.
class Pcg32 {
 public:
  explicit Pcg32(uint64_t seed, uint64_t stream = 0x9E3779B97F4A7C15ull);

  uint32_t NextU32();
  // Uniform in [0, 1).
  double NextDouble();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, n). Requires n > 0.
  uint32_t UniformInt(uint32_t n);
  bool Bernoulli(double p);
  // Standard normal via Box-Muller (second value cached).
  double Normal();
  double Normal(double mean, double stddev);
  // out[i] = Normal(mean, stddev) for each i in order, bit for bit and with
  // the same generator state after: the same uniforms in the same order, a
  // pending second value first, and an odd count leaves one pending. The
  // transform runs on detmath's lane form.
  void FillNormal(std::span<double> out, double mean, double stddev);
  // Log-normal with the given *underlying* normal parameters.
  double LogNormal(double mu, double sigma);
  double Exponential(double rate);
  // Poisson; Knuth's method for small lambda, normal approximation above 64.
  int Poisson(double lambda);

 private:
  // Box-Muller's uniform pair in Normal's draw order: u1, redrawn while
  // <= 1e-300 so that its log is finite, then u2.
  void NextUniformPair(double* u1, double* u2);

  uint64_t state_;
  uint64_t inc_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace litereconfig

#endif  // SRC_UTIL_RNG_H_
