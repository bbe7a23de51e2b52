#include "src/sched/ben_table.h"

#include <algorithm>
#include <cmath>

namespace litereconfig {

namespace {

// Redundant features add little on top of the best one. Must stay below the
// scheduler's kMinFeatureGain, or a second (redundant) feature would always
// pass the greedy gate whenever the budget allows it.
constexpr double kComplementarityBonus = 0.0005;

}  // namespace

const std::vector<double>& BenefitTable::Buckets() {
  static const std::vector<double>* buckets =
      new std::vector<double>{20.0, 33.3, 50.0, 100.0};
  return *buckets;
}

int BenefitTable::NearestBucketIndex(double slo_ms) {
  const std::vector<double>& buckets = Buckets();
  int best = 0;
  double best_dist = std::abs(buckets[0] - slo_ms);
  for (int i = 1; i < static_cast<int>(buckets.size()); ++i) {
    double dist = std::abs(buckets[static_cast<size_t>(i)] - slo_ms);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

void BenefitTable::Set(FeatureKind kind, double bucket_ms, double benefit) {
  entries_[{static_cast<int>(kind), NearestBucketIndex(bucket_ms)}] = benefit;
}

double BenefitTable::Ben(FeatureKind kind, double slo_ms) const {
  auto it = entries_.find({static_cast<int>(kind), NearestBucketIndex(slo_ms)});
  return it == entries_.end() ? 0.0 : it->second;
}

double BenefitTable::BenSubset(const std::vector<FeatureKind>& kinds,
                               double slo_ms) const {
  if (kinds.empty()) {
    return 0.0;
  }
  double best = 0.0;
  for (FeatureKind kind : kinds) {
    best = std::max(best, Ben(kind, slo_ms));
  }
  return best + kComplementarityBonus * static_cast<double>(kinds.size() - 1);
}

void BenefitTable::Restore(std::map<std::pair<int, int>, double> entries) {
  entries_ = std::move(entries);
}

}  // namespace litereconfig
