#include "cellular/radio_environment.h"

#include <algorithm>
#include <cmath>

namespace bussense {

namespace {

// Standard normal deviate derived from a hash via Box–Muller on two hashed
// uniforms. Deterministic, no generator state.
double hashed_normal(std::uint64_t h) {
  const std::uint64_t h1 = mix64(h);
  const std::uint64_t h2 = mix64(h1 ^ 0xda942042e4dd58b5ULL);
  const double u1 =
      (static_cast<double>(h1 >> 11) + 0.5) / 9007199254740992.0;  // (0,1)
  const double u2 = static_cast<double>(h2 >> 11) / 9007199254740992.0;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

// Memo for shadow-node deviates: consecutive scan positions interpolate the
// same grid nodes, and the Box–Muller evaluation dominates the node cost.
// Direct-mapped, thread-local (the environment is shared across trip
// threads), keyed by the full 64-bit node hash and storing the *unscaled*
// deviate, so the cache is transparent to sigma/clamp configuration.
struct NodeCacheEntry {
  std::uint64_t key = 0;
  double deviate = 0.0;
};
constexpr std::size_t kNodeCacheSize = 8192;  // power of two, ~128 KiB/thread

// Slot i starts with key i + 1, which maps to the next slot, so no hash can
// hit a cold slot: every lookup is a true hit or a recompute, and the memo
// never changes a result, whatever the thread computed before.
std::vector<NodeCacheEntry> cold_node_cache() {
  std::vector<NodeCacheEntry> cache(kNodeCacheSize);
  for (std::size_t i = 0; i < kNodeCacheSize; ++i) cache[i].key = i + 1;
  return cache;
}

double cached_hashed_normal(std::uint64_t h) {
  thread_local std::vector<NodeCacheEntry> cache = cold_node_cache();
  NodeCacheEntry& e = cache[h & (kNodeCacheSize - 1)];
  if (e.key != h) {
    e.key = h;
    e.deviate = hashed_normal(h);
  }
  return e.deviate;
}

// Grid cell size of the tower index. Coarser than the deployment spacing so
// a reach-radius query touches few cells, fine enough that border cells do
// not drag in whole districts.
constexpr double kIndexCellM = 750.0;

}  // namespace

RadioEnvironment::RadioEnvironment(std::vector<CellTower> towers,
                                   PropagationConfig config,
                                   std::uint64_t terrain_seed)
    : towers_(std::move(towers)),
      config_(config),
      terrain_seed_(terrain_seed) {
  for (const CellTower& t : towers_) {
    max_tx_power_dbm_ = std::max(max_tx_power_dbm_, t.tx_power_dbm);
  }
  index_ = std::make_unique<TowerIndex>(towers_, kIndexCellM);
}

double RadioEnvironment::shadow_at_node(CellId tower, std::int64_t gx,
                                        std::int64_t gy) const {
  std::uint64_t h = terrain_seed_;
  h = mix64(h ^ static_cast<std::uint64_t>(tower));
  h = mix64(h ^ static_cast<std::uint64_t>(gx) * 0x9e3779b97f4a7c15ULL);
  h = mix64(h ^ static_cast<std::uint64_t>(gy) * 0xc2b2ae3d27d4eb4fULL);
  const double c = config_.noise_clamp_sigmas;
  return std::clamp(cached_hashed_normal(h), -c, c) * config_.shadow_sigma_db;
}

double RadioEnvironment::static_shadow_db(CellId tower, Point p) const {
  const double g = config_.shadow_grid_m;
  const double fx = p.x / g;
  const double fy = p.y / g;
  const auto x0 = static_cast<std::int64_t>(std::floor(fx));
  const auto y0 = static_cast<std::int64_t>(std::floor(fy));
  const double tx = fx - static_cast<double>(x0);
  const double ty = fy - static_cast<double>(y0);
  const double s00 = shadow_at_node(tower, x0, y0);
  const double s10 = shadow_at_node(tower, x0 + 1, y0);
  const double s01 = shadow_at_node(tower, x0, y0 + 1);
  const double s11 = shadow_at_node(tower, x0 + 1, y0 + 1);
  const double s0 = s00 * (1.0 - tx) + s10 * tx;
  const double s1 = s01 * (1.0 - tx) + s11 * tx;
  return s0 * (1.0 - ty) + s1 * ty;
}

double RadioEnvironment::mean_rss_dbm(const CellTower& tower, Point p) const {
  const double d = std::max(distance(tower.position, p), config_.ref_distance_m);
  const double path_loss =
      config_.ref_loss_db +
      10.0 * config_.path_loss_exponent * std::log10(d / config_.ref_distance_m);
  return tower.tx_power_dbm - path_loss + static_shadow_db(tower.id, p);
}

double RadioEnvironment::sample_rss_dbm(const CellTower& tower, Point p,
                                        Rng& rng, double extra_noise_db) const {
  const double sigma = std::hypot(config_.temporal_sigma_db, extra_noise_db);
  return mean_rss_dbm(tower, p) + rng.normal(0.0, sigma);
}

double RadioEnvironment::temporal_noise_db(CellId tower, std::uint64_t scan_key,
                                           double extra_noise_db) const {
  const std::uint64_t h =
      mix64(scan_key ^ static_cast<std::uint64_t>(tower) *
                           0x9e3779b97f4a7c15ULL);
  const double sigma = std::hypot(config_.temporal_sigma_db, extra_noise_db);
  const double c = config_.noise_clamp_sigmas;
  return std::clamp(hashed_normal(h), -c, c) * sigma;
}

double RadioEnvironment::reach_radius_m(double tx_power_dbm,
                                        double min_rss_dbm,
                                        double extra_noise_db) const {
  const double sigma_t = std::hypot(config_.temporal_sigma_db, extra_noise_db);
  const double margin = config_.noise_clamp_sigmas *
                        (std::abs(config_.shadow_sigma_db) + sigma_t);
  // tx − ref_loss − 10·n·log10(d/d0) + margin ≥ min_rss, solved for d.
  const double budget = tx_power_dbm - config_.ref_loss_db - min_rss_dbm + margin;
  if (budget <= 0.0) return 0.0;
  return config_.ref_distance_m *
         std::pow(10.0, budget / (10.0 * config_.path_loss_exponent));
}

double RadioEnvironment::max_reach_radius_m(double min_rss_dbm,
                                            double extra_noise_db) const {
  return reach_radius_m(max_tx_power_dbm_, min_rss_dbm, extra_noise_db);
}

}  // namespace bussense
