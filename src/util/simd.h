// The vector types and the CPU check shared by every lane kernel: the dense
// kernel (src/nn/dense.h) and detmath's lane forms (src/util/detmath.h).
//
// GCC/Clang vector extensions: each lane of an operation is the scalar IEEE
// operation on that lane, so a kernel written once over the value type gives
// the same bits at one, two or four lanes. The kernels never pass a vector by
// value across a function boundary: a 32-byte vector argument changes the
// calling convention between a default-target function and an AVX2 one.
#ifndef SRC_UTIL_SIMD_H_
#define SRC_UTIL_SIMD_H_

#include <cstdint>

namespace litereconfig {

// Two doubles (one SSE2 register) and four (one AVX2 register), with the
// unsigned 64-bit lanes of the same widths for bit operations.
typedef double Double2 __attribute__((vector_size(16)));
typedef double Double4 __attribute__((vector_size(32)));
typedef uint64_t Bits2 __attribute__((vector_size(16)));
typedef uint64_t Bits4 __attribute__((vector_size(32)));

// Whether this CPU runs AVX2 code. Each lane kernel checks it once per
// process and runs its four-lane AVX2 form when true, its two-lane SSE2 form
// (the x86-64 baseline) otherwise. False off x86.
bool CpuHasAvx2();

}  // namespace litereconfig

#endif  // SRC_UTIL_SIMD_H_
