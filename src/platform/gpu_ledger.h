// Shared-device contention accounting for the multi-tenant serving layer.
//
// On a single mobile GPU the co-located streams are each other's contention:
// every stream posts the GPU share its current branch occupies (detector time
// per frame interval), and the contention level any one stream experiences is
// the sum of the *other* streams' shares — the endogenous replacement for the
// simulated ContentionGenerator level (StreamSession::StepGof posts it to the
// stream's LatencyModel each round).
//
// Concurrency contract: the serving round loop writes shares sequentially
// between rounds and only reads them (via snapshots) while per-stream work is
// fanned out, so the ledger needs no locks. Keeping it plain data is what
// makes the service's results bit-identical at any thread count.
#ifndef SRC_PLATFORM_GPU_LEDGER_H_
#define SRC_PLATFORM_GPU_LEDGER_H_

#include <cstddef>
#include <vector>

namespace litereconfig {

// Cap on the endogenous contention level any stream can experience. Matches
// the upper end of the paper's contention generator range: beyond this the
// device is oversubscribed and admission control should have said no.
inline constexpr double kMaxEndogenousLevel = 0.90;

class GpuShareLedger {
 public:
  size_t size() const { return shares_.size(); }

  // Appends a stream slot with the given initial share; returns its index.
  size_t AddStream(double share);

  // Removes the stream at `index`; later streams shift down by one (the
  // serving layer compacts its session list the same way, so indices stay
  // aligned).
  void RemoveStream(size_t index);

  // Posts the GPU share stream `index` currently occupies (clamped to [0, 1]).
  void SetShare(size_t index, double share);
  double share(size_t index) const { return shares_[index]; }

  // Sum of all posted shares (the device's total occupancy).
  double TotalShare() const;

  // Endogenous contention level stream `index` experiences: the sum of every
  // *other* stream's share, clamped to kMaxEndogenousLevel.
  double LevelFor(size_t index) const;

 private:
  std::vector<double> shares_;
};

}  // namespace litereconfig

#endif  // SRC_PLATFORM_GPU_LEDGER_H_
