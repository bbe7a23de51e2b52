// The online evaluation harness: runs a protocol over a validation dataset under
// a (device, contention, SLO) configuration and aggregates the paper's metrics —
// dataset mAP, mean and P95 per-frame latency (over GoF-amortized samples), SLO
// violation rate, component latency breakdown, branch coverage, and switches.
#ifndef SRC_PIPELINE_RUNNER_H_
#define SRC_PIPELINE_RUNNER_H_

#include <set>
#include <string>
#include <vector>

#include "src/pipeline/protocol.h"
#include "src/video/dataset.h"

namespace litereconfig {

struct EvalConfig {
  DeviceType device = DeviceType::kTx2;
  double gpu_contention = 0.0;
  double slo_ms = 33.3;
  uint64_t run_salt = 1;
  // Worker threads for the per-video fan-out; <= 0 resolves to the process
  // default (see src/util/thread_pool.h). Results are identical for every
  // value: videos are evaluated independently and merged in video order.
  int threads = 0;
  // Deterministic fault injection (src/platform/faults.h): the default spec is
  // empty (no faults). Identical (faults, fault_seed) pairs produce identical
  // fault streams at any thread count. `degrade` arms the graceful-degradation
  // path in the protocols that support it.
  FaultSpec faults;
  uint64_t fault_seed = 1;
  bool degrade = true;
  // Predictive robustness (contention forecasting, staged degradation, drift
  // recalibration); only meaningful with faults injected and degrade on.
  bool predictive = false;
  // Optional per-phase profiling clock (bench-injected; see PhaseClockFn).
  // Null disables all phase timing.
  PhaseClockFn now_us = nullptr;
};

struct EvalResult {
  double map = 0.0;
  double mean_ms = 0.0;
  double p95_ms = 0.0;
  // Fraction of GoF samples whose per-frame latency exceeded the SLO.
  double violation_rate = 0.0;
  // Latency attribution as fractions of total charged time.
  double detector_frac = 0.0;
  double tracker_frac = 0.0;
  double scheduler_frac = 0.0;
  double switch_frac = 0.0;
  // Distinct branches used across the whole run (paper Figure 4).
  int branch_coverage = 0;
  int switch_count = 0;
  size_t frames = 0;
  // Any video had a fatal (unrecovered) failure; the structured reports are in
  // `failures`.
  bool oom = false;
  // The raw per-GoF amortized samples (Figure 5 needs their distribution).
  std::vector<double> gof_frame_ms;

  // Robustness accounting aggregated over all videos.
  int deadline_misses = 0;
  int faults_injected = 0;
  int faults_absorbed = 0;
  int degraded_frames = 0;
  // GoFs scheduled inside GPU-denied intervals, and the subset served by the
  // CPU-only detector family instead of tracker-only coasting. Deliberately
  // absent from EvalResultJson: the JSON surface stays byte-identical to
  // builds without the denial fault kind.
  int denied_gofs = 0;
  int cpu_fallback_gofs = 0;
  // Mean GoFs from a fault (or deadline miss) back to a clean GoF; 0.0 when no
  // recovery episode completed.
  double mean_recovery_gofs = 0.0;
  // Predictive-robustness accounting: drift-triggered latency recalibrations,
  // accuracy re-anchors, pre-emptive re-plans ahead of forecast burst ends,
  // and faults absorbed by GoFs planned at forecast contention.
  int recalibrations = 0;
  int reanchors = 0;
  int preemptive_replans = 0;
  int forecast_absorbed = 0;
  // Structured per-video failure reports, tagged with the video seed.
  std::vector<FailureReport> failures;
  // Aggregated per-phase execution profile (timings only when a profiling
  // clock was injected through EvalConfig::now_us). Deliberately absent from
  // EvalResultJson: the JSON surface stays byte-identical to profiled and
  // unprofiled runs alike.
  PhaseProfile phases;

  // The paper's pass/fail notion: "F" when the protocol misses the SLO (P95
  // above the objective beyond measurement slack) or cannot run at all.
  bool MeetsSlo(double slo_ms, double slack = 1.10) const;
};

// One-line JSON rendering of an EvalResult, failures included — the
// machine-readable surface of a run (litereconfig_run --json).
std::string EvalResultJson(const EvalResult& result);

class OnlineRunner {
 public:
  // Evaluates the protocol on every validation video. Videos are independent
  // streams (the protocol's RunVideo must be safe to call concurrently; see
  // Protocol); they are fanned out across config.threads workers and the
  // per-video stats/AP accumulations are merged in video order, so the result
  // is field-for-field identical whatever the thread count.
  static EvalResult Run(Protocol& protocol, const Dataset& validation,
                        const EvalConfig& config);
};

}  // namespace litereconfig

#endif  // SRC_PIPELINE_RUNNER_H_
