// Streaming and batch statistics used throughout the simulator and the
// evaluation harness (latency percentiles, accuracy aggregation, profiling).
#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace litereconfig {

// Welford's online mean/variance accumulator. Numerically stable; O(1) space.
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  // Sample variance (n-1 denominator); 0 if fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Linear-interpolation percentile, q in [0, 1]. Sorts a copy of the input.
// Returns 0 for an empty vector.
double Percentile(std::vector<double> values, double q);

// Fixed five-number-plus summary of a sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Summary Summarize(const std::vector<double>& values);

double Mean(const std::vector<double>& values);

}  // namespace litereconfig

#endif  // SRC_UTIL_STATS_H_
