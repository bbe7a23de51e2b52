// Host-side measurement for the benchmark: the wall clock (through the
// repository's one sanctioned timer, WallTimer in bench/bench_util.h), process
// CPU time and peak resident memory, plus the order statistics the report
// uses. Nothing here feeds a simulated result.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <vector>

#include "bench/bench_util.h"

namespace litereconfig::perfbench {

// Monotonic microseconds since the first call; usable as a PhaseClockFn.
double NowMicros();

// User plus system CPU seconds consumed by every thread of this process.
double ProcessCpuSeconds();

// Peak resident set size of this process, in MiB, since the last
// ResetPeakRss() that succeeded (else since the process started).
double PeakRssMb();

// Restarts the peak-RSS count from the current resident set (Linux
// /proc/self/clear_refs); a no-op where the kernel refuses.
void ResetPeakRss();

// Host-speed calibration. The host is shared, and how fast it runs the same
// code drifts by 20-40% over minutes as neighbours load its caches and memory.
// CalibrationMs() times a fixed reference loop that calls no product code:
// dependent loads and stores over 1, 4 and 32 MiB and a streaming
// read-modify-write over 32 MiB, in one mapping that is returned to the kernel
// before it returns. Its time moves with the host's cache and memory speed,
// which is what drifts, so host times divided by it are steadier. Returns 0
// when the buffer cannot be mapped.
double CalibrationMs();

// Median of `values` (the mean of the two middle values for an even count);
// 0 for an empty input.
double Median(std::vector<double> values);

}  // namespace litereconfig::perfbench

#endif  // PERFBENCH_HOST_H_
