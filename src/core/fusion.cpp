#include "core/fusion.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace bussense {

SpeedFusion::SpeedFusion(FusionConfig config) : config_(config) {}

void SpeedFusion::add_locked(Stripe& stripe, const SpeedEstimate& estimate) {
  State& state = stripe.states[estimate.segment];
  const auto period =
      static_cast<std::int64_t>(std::floor(estimate.time / config_.update_period_s));
  state.pending[period].push_back(estimate.att_speed_kmh);
}

void SpeedFusion::add(const SpeedEstimate& estimate) {
  Stripe& stripe = stripes_[stripe_of(estimate.segment)];
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  add_locked(stripe, estimate);
}

void SpeedFusion::add(const std::vector<SpeedEstimate>& estimates) {
  if (estimates.empty()) return;
  // Hash each estimate once, then one pass per touched stripe: batches are
  // small (tens of estimates), so the rescans are cheaper than the lock
  // traffic they avoid.
  std::vector<std::uint8_t> owner(estimates.size());
  std::uint32_t touched = 0;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    owner[i] = static_cast<std::uint8_t>(stripe_of(estimates[i].segment));
    touched |= std::uint32_t{1} << owner[i];
  }
  for (std::size_t s = 0; s < kStripes; ++s) {
    if ((touched >> s & 1u) == 0) continue;
    Stripe& stripe = stripes_[s];
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (std::size_t i = 0; i < estimates.size(); ++i) {
      if (owner[i] == s) add_locked(stripe, estimates[i]);
    }
  }
}

void SpeedFusion::apply(State& state, double mean_obs, SimTime at,
                        int count) const {
  if (!state.fused) {
    state.fused = FusedSpeed{mean_obs, config_.observation_variance, at, count};
    return;
  }
  FusedSpeed& f = *state.fused;
  // Ageing: precision decays while no data arrives (process noise).
  f.variance += config_.process_noise_per_s * std::max(0.0, at - f.updated_at);
  const double obs_var = config_.observation_variance;
  const double denom = f.variance + obs_var;
  f.mean_kmh = (f.mean_kmh * obs_var + mean_obs * f.variance) / denom;
  f.variance = std::max(f.variance * obs_var / denom, config_.variance_floor);
  f.updated_at = at;
  f.observation_count += count;
}

void SpeedFusion::flush_until(SimTime now) {
  const auto now_period =
      static_cast<std::int64_t>(std::floor(now / config_.update_period_s));
  for (Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (auto& [key, state] : stripe.states) {
      (void)key;
      while (!state.pending.empty()) {
        const auto it = state.pending.begin();
        // A batch closes when its period has fully elapsed.
        if (it->first >= now_period) break;
        std::vector<double>& values = it->second;
        // Sum in sorted order: the period mean then depends only on the
        // multiset of estimates, never on their arrival order.
        std::sort(values.begin(), values.end());
        double sum = 0.0;
        for (const double v : values) sum += v;
        const int count = static_cast<int>(values.size());
        const SimTime close_time =
            (static_cast<double>(it->first) + 1.0) * config_.update_period_s;
        apply(state, sum / count, close_time, count);
        state.pending.erase(it);
      }
    }
  }
}

std::optional<FusedSpeed> SpeedFusion::query(const SegmentKey& segment) const {
  const Stripe& stripe = stripes_[stripe_of(segment)];
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.states.find(segment);
  if (it == stripe.states.end()) return std::nullopt;
  return it->second.fused;
}

std::vector<std::pair<SegmentKey, FusedSpeed>> SpeedFusion::all() const {
  std::vector<std::pair<SegmentKey, FusedSpeed>> out;
  visit_all([&](const SegmentKey& key, const FusedSpeed& fused) {
    out.emplace_back(key, fused);
  });
  return out;
}

void SpeedFusion::visit_all(
    const std::function<void(const SegmentKey&, const FusedSpeed&)>& fn) const {
  // The one traversal all() also takes: visitation order and the copying
  // overload's vector order are identical, so consumers that fold in order
  // (e.g. the float sums in TrafficMap aggregates) are bit-identical either
  // way.
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [key, state] : stripe.states) {
      if (state.fused) fn(key, *state.fused);
    }
  }
}

std::vector<FusionExportEntry> SpeedFusion::export_state() const {
  std::vector<FusionExportEntry> out;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const auto& [key, state] : stripe.states) {
      FusionExportEntry entry;
      entry.key = key;
      entry.fused = state.fused;
      entry.pending.reserve(state.pending.size());
      for (const auto& [period, values] : state.pending) {
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        entry.pending.emplace_back(period, std::move(sorted));
      }
      out.push_back(std::move(entry));
    }
  }
  // Stripes partition the key space, so one global sort yields the
  // canonical order whatever the stripe layout.
  std::sort(out.begin(), out.end(),
            [](const FusionExportEntry& a, const FusionExportEntry& b) {
              return a.key.from != b.key.from ? a.key.from < b.key.from
                                              : a.key.to < b.key.to;
            });
  return out;
}

void SpeedFusion::restore_state(const std::vector<FusionExportEntry>& entries) {
  for (Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    stripe.states.clear();
  }
  for (const FusionExportEntry& entry : entries) {
    Stripe& stripe = stripes_[stripe_of(entry.key)];
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    State& state = stripe.states[entry.key];
    state.fused = entry.fused;
    for (const auto& [period, values] : entry.pending) {
      state.pending[period] = values;
    }
  }
}

}  // namespace bussense
