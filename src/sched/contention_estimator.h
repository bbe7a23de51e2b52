// Online contention estimation: tracks the ratio of observed to predicted GoF
// latency and forecasts the near-term contention the scheduler should plan at.
//
// The runtime already closes a slow loop through the gpu/cpu calibration EWMAs
// (observed / profiled kernel time). That loop is reactive: it learns a burst
// only after eating it, and keeps over-predicting after the burst ends. The
// estimator adds the fast loop: it detects burst onset from a step in the
// observed/predicted ratio, remembers how long past bursts lasted, and
// forecasts the next GoF's residual inflation — including forecasting the *end*
// of a burst, so the scheduler can re-plan at nominal cost one GoF early
// instead of waiting to observe a clean GoF.
//
// Everything is a pure function of the Observe() stream, which in turn derives
// only from per-video deterministic state, so the parallel-determinism contract
// (bit-identical results at any thread count) is preserved.
#ifndef SRC_SCHED_CONTENTION_ESTIMATOR_H_
#define SRC_SCHED_CONTENTION_ESTIMATOR_H_

namespace litereconfig {

// Enter the burst state when observed/predicted exceeds this ratio.
inline constexpr double kBurstOnsetRatio = 1.20;
// Leave the burst state when the ratio falls below this.
inline constexpr double kBurstClearRatio = 1.08;
// Smoothing of the in-burst inflation estimate.
inline constexpr double kBurstLevelEwma = 0.5;
// Smoothing of the learned typical burst length (in GoFs).
inline constexpr double kBurstLengthEwma = 0.35;
// Prior burst length before any burst has completed.
inline constexpr double kPriorBurstGofs = 3.0;
// Clamp on the per-GoF observed/predicted ratio (outlier protection).
inline constexpr double kMaxContentionRatio = 4.0;

class ContentionEstimator {
 public:
  // Feed one completed GoF: the scheduler's predicted per-frame latency and
  // the observed per-frame latency. Non-positive inputs are ignored.
  void Observe(double predicted_ms, double observed_ms);

  // Multiplicative inflation the next GoF should be planned at (>= 1.0).
  // Returns the tracked burst level while a burst is live and 1.0 outside —
  // deliberately staying conservative through a forecast burst end, so an
  // early re-plan is priced with the burst as the safety margin.
  double ForecastScale() const;

  // True when the current burst has lasted about as long as bursts
  // historically do: the next GoF can be planned at nominal cost.
  bool BurstEndingSoon() const;

  bool in_burst() const { return in_burst_; }
  double expected_burst_gofs() const { return expected_burst_gofs_; }

 private:
  bool in_burst_ = false;
  int gofs_in_burst_ = 0;
  double burst_level_ = 1.0;
  double expected_burst_gofs_ = kPriorBurstGofs;
};

}  // namespace litereconfig

#endif  // SRC_SCHED_CONTENTION_ESTIMATOR_H_
