#include "perfbench/host.h"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace litereconfig::perfbench {

double NowMicros() {
  // detlint: allow(mutable-global) benchmark wall-clock epoch, subtract-only
  static WallTimer timer;
  return timer.ElapsedMicros();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  // VmHWM honours ResetPeakRss(); ru_maxrss never resets.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::strtol(line + 6, nullptr, 10);
        break;
      }
    }
    std::fclose(status);
    if (kib >= 0) {
      return static_cast<double>(kib) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ResetPeakRss() {
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
}

namespace {

// One SplitMix64 step, kept here so that no product change moves it.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Dependent random loads and stores over the first `words` words.
uint64_t Chase(uint64_t* data, size_t words, int steps) {
  uint64_t at = 0;
  for (int i = 0; i < steps; ++i) {
    uint64_t next = Mix(data[at] ^ static_cast<uint64_t>(i));
    data[at] = next;
    at = next & (words - 1);
  }
  return at;
}

}  // namespace

double CalibrationMs() {
  constexpr size_t kBytes = size_t{32} << 20;
  constexpr size_t kWords = kBytes / sizeof(uint64_t);
  // mmap, not the heap: the buffer must neither move malloc's thresholds nor
  // stay resident once the calibration is over.
  void* mapping = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
  if (mapping == MAP_FAILED) {
    return 0.0;
  }
  auto* words = static_cast<uint64_t*>(mapping);
  for (size_t i = 0; i < kWords; ++i) {
    words[i] = Mix(i);
  }

  WallTimer timer;
  uint64_t sink = Chase(words, size_t{1} << 17, 1 << 19);
  sink += Chase(words, size_t{1} << 19, 1 << 19);
  sink += Chase(words, kWords, 1 << 18);
  for (int pass = 0; pass < 4; ++pass) {
    uint64_t acc = sink;
    for (size_t i = 0; i < kWords; ++i) {
      acc += words[i];
      words[i] = acc;
    }
    sink += acc;
  }
  double ms = timer.ElapsedMs();
  // Keeps the loops observable.
  std::memcpy(words, &sink, sizeof(sink));
  munmap(mapping, kBytes);
  return ms;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace litereconfig::perfbench
