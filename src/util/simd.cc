#include "src/util/simd.h"

namespace litereconfig {

#if defined(__x86_64__) || defined(__i386__)

bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

#else

bool CpuHasAvx2() { return false; }

#endif

}  // namespace litereconfig
