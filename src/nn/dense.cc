#include "src/nn/dense.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

namespace litereconfig {

namespace {

// Vectors per block: each pass over the inputs advances this many independent
// vector chains, enough to cover the add latency.
constexpr size_t kBlockVectors = 8;

bool IsNegativeZero(double v) { return v == 0.0 && std::signbit(v); }

// Every lane of v set to x, by an initializer. Adding x to a zero vector
// would not do: +0.0 + -0.0 is +0.0, which flips the sign of a -0.0 input's
// products on a dense (-0.0-start) chain.
template <typename V, size_t... kLane>
[[gnu::always_inline]] inline void Splat(double x, V& v, std::index_sequence<kLane...>) {
  v = V{((void)kLane, x)...};
}

template <typename V>
[[gnu::always_inline]] inline void Load(const double* p, V& v) {
  std::memcpy(&v, p, sizeof(V));
}

// Outputs [o, o + kVecs * lanes) of V, one vector per index in kVec, each
// lane the chain of one output, over inputs live[0..n) or, when kDense, over
// every input 0..n. V is double for a single leftover output. The per-vector
// steps are folds over kVec, not loops, so the accumulators stay in
// registers at any optimisation level.
template <typename V, bool kDense, size_t... kVec>
[[gnu::always_inline]] inline void Block(const DenseArgs& args, size_t o, size_t n,
                                         std::index_sequence<kVec...>) {
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  const size_t out = args.weights->cols();
  const double* w = args.weights->data().data() + o;
  V acc[sizeof...(kVec)];
  if (args.bias != nullptr) {
    (Load(args.bias + o + kVec * kLanes, acc[kVec]), ...);
  } else {
    (Splat(0.0, acc[kVec], std::make_index_sequence<kLanes>()), ...);
  }
  for (size_t t = 0; t < n; ++t) {
    size_t i = kDense ? t : args.live[t];
    V a;
    Splat(args.input[i], a, std::make_index_sequence<kLanes>());
    const double* wi = w + i * out;
    V wv[sizeof...(kVec)];
    (Load(wi + kVec * kLanes, wv[kVec]), ...);
    ((acc[kVec] += wv[kVec] * a), ...);
  }
  double sums[sizeof...(kVec) * kLanes];
  std::memcpy(sums, acc, sizeof(acc));
  for (size_t k = 0; k < std::size(sums); ++k) {
    double sum = args.relu ? std::max(0.0, sums[k]) : sums[k];
    // A select, not a branch: a mask's flags follow no pattern.
    args.output[o + k] =
        args.needed == nullptr || args.needed[o + k] != 0 ? sum : args.output[o + k];
  }
}

// One block over the live inputs, or over every input when one of its starts
// is -0.0.
template <typename V, size_t kVecs>
[[gnu::always_inline]] inline void RunBlock(const DenseArgs& args, size_t o,
                                            size_t num_live, bool any_negative_zero) {
  constexpr size_t kOutputs = kVecs * sizeof(V) / sizeof(double);
  if (any_negative_zero &&
      std::any_of(args.bias + o, args.bias + o + kOutputs, IsNegativeZero)) {
    Block<V, true>(args, o, args.weights->rows(), std::make_index_sequence<kVecs>());
  } else {
    Block<V, false>(args, o, num_live, std::make_index_sequence<kVecs>());
  }
}

// One block of `vecs` <= kVecs whole vectors.
template <typename V, size_t kVecs>
[[gnu::always_inline]] inline void RunTail(const DenseArgs& args, size_t o, size_t vecs,
                                           size_t num_live, bool any_negative_zero) {
  if constexpr (kVecs > 0) {
    if (vecs == kVecs) {
      RunBlock<V, kVecs>(args, o, num_live, any_negative_zero);
    } else {
      RunTail<V, kVecs - 1>(args, o, vecs, num_live, any_negative_zero);
    }
  }
}

// Whether any of the kLanes outputs from `needed` on is needed.
template <size_t kLanes>
[[gnu::always_inline]] inline bool AnyNeeded(const uint8_t* needed) {
  uint8_t any = 0;
  for (size_t k = 0; k < kLanes; ++k) {
    any |= needed[k];
  }
  return any != 0;
}

template <typename V>
[[gnu::always_inline]] inline void Forward(const DenseArgs& args) {
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  const size_t in = args.weights->rows();
  const size_t out = args.weights->cols();
  // The inputs whose terms remain: with finite weights a zero input's term is
  // +-0.0, which leaves every sum but -0.0 unchanged.
  size_t num_live = 0;
  for (size_t i = 0; i < in; ++i) {
    args.live[num_live] = static_cast<uint32_t>(i);
    num_live += args.input[i] != 0.0 ? 1 : 0;
  }
  bool any_negative_zero =
      args.bias != nullptr && std::any_of(args.bias, args.bias + out, IsNegativeZero);
  const size_t vectors = out / kLanes;
  for (size_t v = 0; v < vectors; v += kBlockVectors) {
    size_t first = v;
    size_t end = std::min(v + kBlockVectors, vectors);
    if (args.needed != nullptr) {
      // Only the block's vectors from its first needed output to its last:
      // one contiguous run, so it takes the same path as a whole block.
      while (first < end && !AnyNeeded<kLanes>(args.needed + first * kLanes)) {
        ++first;
      }
      while (end > first && !AnyNeeded<kLanes>(args.needed + (end - 1) * kLanes)) {
        --end;
      }
    }
    if (first < end) {
      RunTail<V, kBlockVectors>(args, first * kLanes, end - first, num_live,
                                any_negative_zero);
    }
  }
  for (size_t o = vectors * kLanes; o < out; ++o) {
    if (args.needed == nullptr || args.needed[o] != 0) {
      RunBlock<double, 1>(args, o, num_live, any_negative_zero);
    }
  }
}

using DenseFn = void (*)(const DenseArgs&);

}  // namespace

void DenseForwardSse2(const DenseArgs& args) { Forward<Double2>(args); }

#if defined(__x86_64__) || defined(__i386__)

// The same template, compiled for AVX2. The target string names avx2 alone:
// no fma, so -ffp-contract=off still leaves every multiply and add rounded on
// its own.
__attribute__((target("avx2"))) void DenseForwardAvx2(const DenseArgs& args) {
  Forward<Double4>(args);
}

#else

// Off x86 there is no AVX2: CpuHasAvx2() is false, so nothing calls this.
void DenseForwardAvx2(const DenseArgs& args) { Forward<Double2>(args); }

#endif

void DenseForward(const DenseArgs& args) {
  static const DenseFn kernel = CpuHasAvx2() ? DenseForwardAvx2 : DenseForwardSse2;
  kernel(args);
}

}  // namespace litereconfig
