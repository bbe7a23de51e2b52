// Reference feature hashing for tests: the hashing loop HashProject ran
// before the per-kind tables, two hash mixes per input element.
//
// HashProjection (src/features/hashing.h) hashes every index once, at
// construction, and adds into the buckets in the same index order; tests
// compare the two bit for bit.
#ifndef TESTS_HASH_REFERENCE_H_
#define TESTS_HASH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace litereconfig {

inline std::vector<double> ReferenceHashProject(const std::vector<double>& input,
                                                int out_dim, uint64_t seed) {
  std::vector<double> out(static_cast<size_t>(out_dim), 0.0);
  if (static_cast<int>(input.size()) <= out_dim) {
    for (size_t i = 0; i < input.size(); ++i) {
      out[i] = input[i];
    }
    return out;
  }
  for (size_t i = 0; i < input.size(); ++i) {
    uint64_t h = HashKeys({seed, static_cast<uint64_t>(i)});
    size_t bucket = static_cast<size_t>(h % static_cast<uint64_t>(out_dim));
    double sign = (h >> 63) != 0 ? 1.0 : -1.0;
    out[bucket] += sign * input[i];
  }
  return out;
}

}  // namespace litereconfig

#endif  // TESTS_HASH_REFERENCE_H_
