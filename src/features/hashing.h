// Feature-hashing projection (sparse sign hashing).
//
// The accuracy predictor nets take heavy features through a fixed seeded hashing
// projection that caps the net input width at kHashedFeatureDim. This keeps the
// from-scratch trainer tractable at the full 4320-d HOG / 1280-d MobileNetV2
// widths while preserving inner products in expectation (the standard hashing
// trick); it replaces nothing in the paper's architecture — the learned
// projection layer still follows.
#ifndef SRC_FEATURES_HASHING_H_
#define SRC_FEATURES_HASHING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace litereconfig {

inline constexpr int kHashedFeatureDim = 96;

// HashProject for one (seed, input width, output width), with every input
// index's bucket and sign hashed once, at construction.
class HashProjection {
 public:
  HashProjection(size_t in_dim, int out_dim, uint64_t seed);

  size_t in_dim() const { return in_dim_; }

  // HashProject(input, out_dim, seed), bit for bit. Requires input to have
  // in_dim() entries.
  std::vector<double> Project(std::span<const double> input) const;

 private:
  size_t in_dim_;
  size_t out_dim_;
  // Per input index, when in_dim > out_dim; empty otherwise (zero padding).
  std::vector<uint32_t> bucket_;
  std::vector<double> sign_;
};

// out[h(i)] += sign(i) * x[i] in index order, deterministic in `seed`. If the
// input is already no wider than out_dim it is returned zero-padded unchanged.
std::vector<double> HashProject(const std::vector<double>& input, int out_dim,
                                uint64_t seed);

}  // namespace litereconfig

#endif  // SRC_FEATURES_HASHING_H_
