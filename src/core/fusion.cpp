#include "core/fusion.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace bussense {

SpeedFusion::SpeedFusion(FusionConfig config) : config_(config) {}

std::uint32_t SpeedFusion::slot_of(Stripe& stripe, const SegmentKey& key) {
  const auto [it, inserted] = stripe.index.try_emplace(
      key, static_cast<std::uint32_t>(stripe.states.size()));
  if (inserted) stripe.states.emplace_back().key = key;
  return it->second;
}

std::vector<double>& SpeedFusion::batch_of(Stripe& stripe, std::uint32_t slot,
                                           std::int64_t period) {
  State& state = stripe.states[slot];
  std::vector<Batch>& batches = state.batches;
  const auto open_end = batches.begin() + state.open;
  const auto it = std::lower_bound(
      batches.begin(), open_end, period,
      [](const Batch& b, std::int64_t p) { return b.period < p; });
  if (it != open_end && it->period == period) return it->values;
  const auto pos = it - batches.begin();
  if (state.open == 0) stripe.pending.push_back(slot);
  if (state.open == batches.size()) batches.emplace_back();
  // The first kept batch (values already cleared) becomes the new one and
  // rotates into its period's place.
  const auto kept = batches.begin() + state.open;
  kept->period = period;
  std::rotate(batches.begin() + pos, kept, kept + 1);
  ++state.open;
  return batches[pos].values;
}

void SpeedFusion::add_locked(Stripe& stripe, const SpeedEstimate& estimate) {
  const auto period =
      static_cast<std::int64_t>(std::floor(estimate.time / config_.update_period_s));
  batch_of(stripe, slot_of(stripe, estimate.segment), period)
      .push_back(estimate.att_speed_kmh);
}

void SpeedFusion::add(const SpeedEstimate& estimate) {
  Stripe& stripe = stripes_[stripe_of(estimate.segment)];
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  add_locked(stripe, estimate);
}

void SpeedFusion::add(const std::vector<SpeedEstimate>& estimates) {
  // One pass per touched stripe: batches are small (tens of estimates) and
  // stripe_of() is a shift and a mask, so rescanning costs less than the
  // lock traffic it avoids and needs no buffer.
  std::uint32_t touched = 0;
  for (const SpeedEstimate& e : estimates) {
    touched |= std::uint32_t{1} << stripe_of(e.segment);
  }
  for (std::size_t s = 0; s < kStripes; ++s) {
    if ((touched >> s & 1u) == 0) continue;
    Stripe& stripe = stripes_[s];
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const SpeedEstimate& e : estimates) {
      if (stripe_of(e.segment) == s) add_locked(stripe, e);
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

bool SpeedFusion::close_until(State& state, std::int64_t now_period) const {
  std::size_t closed = 0;
  // A batch closes when its period has fully elapsed.
  for (; closed < state.open && state.batches[closed].period < now_period;
       ++closed) {
    Batch& batch = state.batches[closed];
    // Sum in sorted order: the period mean then depends only on the
    // multiset of estimates, never on their arrival order.
    std::sort(batch.values.begin(), batch.values.end());
    double sum = 0.0;
    for (const double v : batch.values) sum += v;
    const int count = static_cast<int>(batch.values.size());
    const SimTime close_time =
        (static_cast<double>(batch.period) + 1.0) * config_.update_period_s;
    apply(state, sum / count, close_time, count);
    batch.values.clear();
  }
  // Closed batches move behind the open ones, keeping their buffers.
  const auto first = state.batches.begin();
  std::rotate(first, first + closed, first + state.open);
  state.open -= closed;
  return state.open != 0;
}

void SpeedFusion::flush_until(SimTime now) {
  const auto now_period =
      static_cast<std::int64_t>(std::floor(now / config_.update_period_s));
  for (Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    std::size_t still_open = 0;
    for (const std::uint32_t slot : stripe.pending) {
      if (close_until(stripe.states[slot], now_period)) {
        stripe.pending[still_open++] = slot;
      }
    }
    stripe.pending.resize(still_open);
  }
}

std::optional<FusedSpeed> SpeedFusion::query(const SegmentKey& segment) const {
  const Stripe& stripe = stripes_[stripe_of(segment)];
  const std::lock_guard<std::mutex> lock(stripe.mutex);
  const auto it = stripe.index.find(segment);
  if (it == stripe.index.end()) return std::nullopt;
  return stripe.states[it->second].fused;
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
    for (const State& state : stripe.states) {
      if (state.fused) fn(state.key, *state.fused);
    }
  }
}

std::vector<FusionExportEntry> SpeedFusion::export_state() const {
  std::vector<FusionExportEntry> out;
  for (const Stripe& stripe : stripes_) {
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    for (const State& state : stripe.states) {
      FusionExportEntry entry;
      entry.key = state.key;
      entry.fused = state.fused;
      entry.pending.reserve(state.open);
      for (std::size_t b = 0; b < state.open; ++b) {
        std::vector<double> sorted = state.batches[b].values;
        std::sort(sorted.begin(), sorted.end());
        entry.pending.emplace_back(state.batches[b].period, std::move(sorted));
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
    stripe.index.clear();
    stripe.states.clear();
    stripe.pending.clear();
  }
  for (const FusionExportEntry& entry : entries) {
    Stripe& stripe = stripes_[stripe_of(entry.key)];
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    const std::uint32_t slot = slot_of(stripe, entry.key);
    stripe.states[slot].fused = entry.fused;
    for (const auto& [period, values] : entry.pending) {
      batch_of(stripe, slot, period) = values;
    }
  }
}

}  // namespace bussense
