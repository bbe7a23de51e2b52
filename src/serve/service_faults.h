// Device-wide fault injection for the multi-tenant service.
//
// On a shared mobile GPU a contention spike, a thermal ramp or a GPU denial is
// not a per-stream event: every co-located stream sees it together. The device
// plan is that correlation — one FaultPlan, keyed by a single service fault
// seed, whose contention bursts, thermal ramps and denials apply exogenously on
// top of the endogenous GpuShareLedger level for *all* streams in the same
// round snapshot. The stateless point faults of the same spec (latency
// outliers, transient detector failures, frame drops) stay per-stream: each
// StreamSession resolves them through its own FaultRuntime, exactly like the
// single-tenant protocols.
//
// The plan is queried by planning round, not frame: the service freezes
// (endogenous level + burst level, thermal scale, denial) once per round
// alongside the contention snapshot, so every session prices and runs the
// round under the same device state at any thread count. Preset rates are
// expressed per 100 frames; one round advances every stream by roughly one GoF
// (kNominalGofFrames frames), so rates and interval lengths are rescaled to
// round units — a "severe" schedule stresses a 30-round serving run the way it
// stresses a 240-frame single-tenant one.
#ifndef SRC_SERVE_SERVICE_FAULTS_H_
#define SRC_SERVE_SERVICE_FAULTS_H_

#include <cstdint>

#include "src/platform/faults.h"

namespace litereconfig {

// Frames one planning round advances a stream by, for rate conversion.
inline constexpr int kNominalGofFrames = 8;

struct ServiceFaultConfig {
  FaultSpec spec;  // Any() == false disables the whole fault path
  uint64_t fault_seed = 1;
  // Graceful degradation: per-stream retry/backoff/coast plus the service's
  // pressure ladder (coast, renegotiate, evict). Off = naive blocking retries
  // and no load shedding.
  bool degrade = true;
};

// The device-wide plan: the spec's intervals (no point faults) in round
// units, materialized over `round_horizon` rounds (the service's round cap).
// A spec without intervals gives an inactive plan, which answers every query
// neutrally.
FaultPlan DeviceFaultPlan(const FaultSpec& spec, uint64_t fault_seed,
                          int round_horizon);

}  // namespace litereconfig

#endif  // SRC_SERVE_SERVICE_FAULTS_H_
