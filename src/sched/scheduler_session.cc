#include "src/sched/scheduler_session.h"

#include <algorithm>

namespace litereconfig {

void SchedulerSession::PrepareKey(const TrainedModels& models,
                                  const SchedulerConfig& config,
                                  const DecisionContext& ctx,
                                  const std::vector<double>& light) {
  const BranchSpace& space = *models.space;
  if (space_ != &space) {
    // First use (or a different space): reset every cache and size the rows.
    space_ = &space;
    max_gof_ = 0;
    for (size_t b = 0; b < space.size(); ++b) {
      max_gof_ = std::max(max_gof_, space.at(b).gof);
    }
    switch_row_valid_ = false;
    gof_clamp_cached_ = -1;
    table_valid_ = false;
    decision_valid_ = false;
    switch_row_.assign(space.size(), 0.0);
    gof_int_.assign(space.size(), 0);
    gof_ms_.assign(space.size(), 0.0);
  }
  Key& key = pending_key_;
  key.light = light;
  key.gpu_cal = ctx.gpu_cal;
  key.cpu_cal = ctx.cpu_cal;
  key.slo_ms = ctx.slo_ms;
  key.budget_ms = ctx.budget_ms;
  key.slo_limit_ms = SloLimitMs(config, ctx);
  key.heavy_blend = ctx.heavy_blend;
  // Every frames_remaining at or beyond the longest GoF leaves all effective
  // lengths uncapped, so those contexts share one clamp value (more reuse,
  // same min() results).
  key.gof_clamp = (ctx.frames_remaining > 0 && ctx.frames_remaining < max_gof_)
                      ? ctx.frames_remaining
                      : 0;
  key.gpu_available = ctx.gpu_available;
  key.has_current = ctx.current_branch.has_value();
  key.current_branch = key.has_current ? *ctx.current_branch : 0;
  key.prefer_headroom = ctx.prefer_headroom;
}

bool SchedulerSession::LookupDecision(const TrainedModels& models,
                                      const SchedulerConfig& config,
                                      const DecisionContext& ctx,
                                      const std::vector<double>& light,
                                      SchedulerDecision* out) {
  ++counters_.decisions;
  PrepareKey(models, config, ctx, light);
  if (decision_valid_ && pending_key_ == decision_key_) {
    ++counters_.decision_reuses;
    *out = decision_;
    return true;
  }
  return false;
}

void SchedulerSession::StoreDecision(const SchedulerDecision& decision) {
  if (!decision.heavy_features.empty()) {
    // Heavy features read frame content the key cannot fingerprint; such a
    // decision is valid only for its own frame and must never be replayed.
    return;
  }
  decision_key_ = pending_key_;
  decision_ = decision;
  decision_valid_ = true;
}

const DecisionCostTable& SchedulerSession::TableFor(const TrainedModels& models,
                                                    const SchedulerConfig& config) {
  const Key& key = pending_key_;
  if (table_valid_ && key == table_key_) {
    ++counters_.table_reuses;
    return table_;
  }
  ++counters_.table_builds;
  const BranchSpace& space = *models.space;
  const size_t n = space.size();

  // Effective-GoF columns: the same min(branch.gof, frames_remaining) ints the
  // fresh Build computes, recomputed only when the clamp moved.
  if (gof_clamp_cached_ != key.gof_clamp) {
    for (size_t b = 0; b < n; ++b) {
      int effective_gof = space.at(b).gof;
      if (key.gof_clamp > 0) {
        effective_gof = std::min(effective_gof, key.gof_clamp);
      }
      gof_int_[b] = effective_gof;
      gof_ms_[b] = static_cast<double>(effective_gof);
    }
    gof_clamp_cached_ = key.gof_clamp;
  }

  // Switch-cost row: OfflineCostMs(current, b) is a pure function of the
  // branch pair and the device, so the row depends only on (charged, current).
  const bool charge_switch =
      config.use_switching_cost && key.has_current && models.switching.has_value();
  if (switch_row_valid_ && switch_row_charged_ == charge_switch &&
      (!charge_switch || switch_row_current_ == key.current_branch)) {
    ++counters_.switch_row_reuses;
  } else {
    if (charge_switch) {
      models.switching->OfflineCostRow(space.at(key.current_branch),
                                       space.branches(), switch_row_);
    } else {
      std::fill(switch_row_.begin(), switch_row_.end(), 0.0);
    }
    switch_row_valid_ = true;
    switch_row_charged_ = charge_switch;
    switch_row_current_ = key.current_branch;
  }

  // Assemble the table in place (vectors keep their capacity across rebuilds)
  // through the pricing routine DecisionCostTable::Build uses, on the same
  // doubles — the bit-exactness contract of the fast path.
  table_.slo_limit_ms_ = key.slo_limit_ms;
  table_.switch_ms_ = switch_row_;
  table_.gof_ = gof_ms_;
  table_.PriceBranches(models, key.light, key.gpu_cal, key.cpu_cal,
                       key.gpu_available, gof_int_);
  table_key_ = key;
  table_valid_ = true;
  return table_;
}

}  // namespace litereconfig
