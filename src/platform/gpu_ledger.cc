#include "src/platform/gpu_ledger.h"

#include <algorithm>
#include <cassert>

namespace litereconfig {

size_t GpuShareLedger::AddStream(double share) {
  shares_.push_back(std::clamp(share, 0.0, 1.0));
  return shares_.size() - 1;
}

void GpuShareLedger::RemoveStream(size_t index) {
  assert(index < shares_.size());
  shares_.erase(shares_.begin() + static_cast<std::ptrdiff_t>(index));
}

void GpuShareLedger::SetShare(size_t index, double share) {
  assert(index < shares_.size());
  shares_[index] = std::clamp(share, 0.0, 1.0);
}

double GpuShareLedger::TotalShare() const {
  double total = 0.0;
  for (double share : shares_) {
    total += share;
  }
  return total;
}

double GpuShareLedger::LevelFor(size_t index) const {
  assert(index < shares_.size());
  return std::min(kMaxEndogenousLevel, TotalShare() - shares_[index]);
}

}  // namespace litereconfig
