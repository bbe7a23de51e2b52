// Branch switching-cost model (paper Section 3.5, Figure 5).
//
// Switching the MBEK to a new branch costs the difference between the first
// inference on the new branch and its steady state: re-binding disjoint parts of
// the model graph, re-allocating buffers for a new input shape, and re-priming
// the proposal pipeline. Empirically (paper Figure 5) the cost is mostly below
// 10 ms, grows with the *destination's* heaviness and with the *source's*
// lightness, and the online runs occasionally show 1-5 s outliers from cold graph
// misses that fade as the system warms up. All three effects are modeled; the
// offline matrix is deterministic (it is what the scheduler consults), while
// online costs add run-dependent noise and outliers.
#ifndef SRC_PLATFORM_SWITCHING_H_
#define SRC_PLATFORM_SWITCHING_H_

#include <vector>

#include "src/mbek/branch.h"
#include "src/platform/device.h"
#include "src/util/rng.h"

namespace litereconfig {

class SwitchingCostModel {
 public:
  explicit SwitchingCostModel(DeviceType device);

  // Deterministic offline estimate of switching from -> to, in ms. Zero when the
  // detector configuration and tracker are unchanged.
  double OfflineCostMs(const Branch& from, const Branch& to) const;

  // The offline costs of switching from `from` to every branch of `to`:
  // row[b] == OfflineCostMs(from, to[b]), bit for bit. Each destination
  // detector's heaviness is computed once per run of branches that share it,
  // not once per branch; the scheduler's cost tables build their switch rows
  // through this.
  void OfflineCostRow(const Branch& from, const std::vector<Branch>& to,
                      std::vector<double>& row) const;

  // One observed online switching cost: the offline mean with multiplicative
  // noise, plus a rare cold-miss outlier whose probability decays with the
  // number of switches already performed in this run.
  double OnlineCostMs(const Branch& from, const Branch& to, int switches_so_far,
                      Pcg32& rng) const;

  // Heaviness of a detector configuration in [0, 1] (exposed for tests).
  static double DetectorHeaviness(const DetectorConfig& config);

 private:
  DeviceType device_;
};

}  // namespace litereconfig

#endif  // SRC_PLATFORM_SWITCHING_H_
