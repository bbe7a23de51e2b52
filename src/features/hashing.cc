#include "src/features/hashing.h"

#include <cassert>
#include <cstddef>

#include "src/util/rng.h"

namespace litereconfig {

HashProjection::HashProjection(size_t in_dim, int out_dim, uint64_t seed)
    : in_dim_(in_dim), out_dim_(static_cast<size_t>(out_dim)) {
  if (in_dim_ <= out_dim_) {
    return;
  }
  bucket_.resize(in_dim_);
  sign_.resize(in_dim_);
  for (size_t i = 0; i < in_dim_; ++i) {
    uint64_t h = HashKeys({seed, static_cast<uint64_t>(i)});
    bucket_[i] = static_cast<uint32_t>(h % static_cast<uint64_t>(out_dim_));
    sign_[i] = (h >> 63) != 0 ? 1.0 : -1.0;
  }
}

std::vector<double> HashProjection::Project(std::span<const double> input) const {
  assert(input.size() == in_dim_);
  std::vector<double> out(out_dim_, 0.0);
  if (bucket_.empty()) {
    for (size_t i = 0; i < input.size(); ++i) {
      out[i] = input[i];
    }
    return out;
  }
  // The product, not a negation: -1.0 * x keeps a NaN's sign where -x would
  // flip it.
  for (size_t i = 0; i < input.size(); ++i) {
    out[bucket_[i]] += sign_[i] * input[i];
  }
  return out;
}

std::vector<double> HashProject(const std::vector<double>& input, int out_dim,
                                uint64_t seed) {
  return HashProjection(input.size(), out_dim, seed).Project(input);
}

}  // namespace litereconfig
