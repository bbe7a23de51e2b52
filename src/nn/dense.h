// The output-lane dense kernel: every dense matrix-vector product on the
// decide path (each accuracy-MLP layer, the ResNet50 and MobileNetV2
// projections) runs through it.
//
// Weights are input-major: a Matrix with one row per input and one column per
// output, so w(i, o) is the weight from input i to output o, and one input's
// weights to consecutive outputs are contiguous. Output o is one chain: its
// start (bias[o], or +0.0 without a bias), then += w(i, o) * a[i] for every
// input i with a[i] != 0.0, in increasing i, then ReLU if asked. A block of
// outputs whose starts include a -0.0 keeps every input instead: a skipped
// zero term can change a -0.0 sum, and nothing else (DESIGN.md, "Dead-unit
// skipping"). Consecutive outputs sit in the lanes of a vector, and each lane
// of a vector multiply or add is the scalar IEEE operation on that lane, so
// every output is bit-identical to its scalar chain at any vector width
// (DESIGN.md, "Blocked MLP forward").
//
// A call with a `needed` mask computes, in each block, only the vectors from
// its first needed output to its last, on the same chains, and writes only
// the needed outputs: every other output keeps the value it had (DESIGN.md,
// "A decision reads only the branches that fit").
#ifndef SRC_NN_DENSE_H_
#define SRC_NN_DENSE_H_

#include <cstdint>

#include "src/nn/matrix.h"
#include "src/util/simd.h"

namespace litereconfig {

struct DenseArgs {
  const Matrix* weights = nullptr;  // in x out, input-major
  const double* bias = nullptr;     // out starts, or nullptr: every start is +0.0
  const double* input = nullptr;    // in values
  bool relu = false;                // max(0.0, sum) instead of the sum
  uint32_t* live = nullptr;         // scratch for in input indices
  double* output = nullptr;         // out values
  const uint8_t* needed = nullptr;  // out flags (non-zero: compute), or nullptr: all
};

// Runs the kernel at the widest vector the CPU offers: four lanes (AVX2) when
// CpuHasAvx2() (src/util/simd.h), otherwise two (SSE2, the x86-64 baseline),
// chosen once per process.
void DenseForward(const DenseArgs& args);

// The two instantiations, for tests. DenseForwardAvx2 may only be called when
// CpuHasAvx2().
void DenseForwardSse2(const DenseArgs& args);
void DenseForwardAvx2(const DenseArgs& args);

}  // namespace litereconfig

#endif  // SRC_NN_DENSE_H_
