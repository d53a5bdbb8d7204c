#include "cellular/scanner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bussense {

namespace {

// The reach bound divides by the path-loss exponent and multiplies the
// clamp; non-positive values make it unsound, so keep the exhaustive scan.
bool index_usable(const RadioEnvironment& env) {
  return env.config().path_loss_exponent > 0.0 &&
         env.config().noise_clamp_sigmas > 0.0;
}

}  // namespace

void ScannerConfig::validate() const {
  if (max_towers == 0) {
    throw std::invalid_argument("ScannerConfig: max_towers must be >= 1");
  }
  if (!(in_bus_noise_db >= 0.0)) {
    throw std::invalid_argument("ScannerConfig: in_bus_noise_db must be >= 0");
  }
  if (!std::isfinite(sensitivity_dbm)) {
    throw std::invalid_argument("ScannerConfig: sensitivity_dbm must be finite");
  }
}

void CellScanner::bind_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    scans_ = considered_ = reach_ = pruned_ = accepted_ = nullptr;
    return;
  }
  scans_ = &registry->counter("scanner.scans");
  considered_ = &registry->counter("scanner.towers_considered");
  reach_ = &registry->counter("scanner.reach_candidates");
  pruned_ = &registry->counter("scanner.towers_pruned");
  accepted_ = &registry->counter("scanner.towers_accepted");
}

void CellScanner::fill_site(const RadioEnvironment& env, Point p, bool in_bus,
                            ScanSite& out) const {
  out.in_bus = in_bus;
  out.candidates.clear();
  if (config_.accel.use_index && index_usable(env)) {
    const double extra = in_bus ? config_.in_bus_noise_db : 0.0;
    thread_local std::vector<std::uint32_t> reach;
    env.tower_index().query(
        p, env.max_reach_radius_m(config_.sensitivity_dbm, extra), reach);
    out.reach_candidates = reach.size();
    const double noise_bound =
        env.config().noise_clamp_sigmas *
        std::hypot(env.config().temporal_sigma_db, extra);
    for (const std::uint32_t i : reach) {
      const CellTower& tower = env.towers()[i];
      // The mean already contains the (clamped) shadowing, so mean + the
      // clamped temporal bound is a sound per-tower RSS upper bound; a
      // candidate below it is dropped without hashing its deviate. Skipping
      // is free of side effects because the deviate is counter-based.
      const double mean = env.mean_rss_dbm(tower, p);
      if (mean + noise_bound < config_.sensitivity_dbm) continue;
      out.candidates.push_back({tower.id, mean});
    }
  } else {
    out.reach_candidates = env.towers().size();
    for (const CellTower& tower : env.towers()) {
      out.candidates.push_back({tower.id, env.mean_rss_dbm(tower, p)});
    }
  }
}

ScanSite CellScanner::site(const RadioEnvironment& env, Point p,
                           bool in_bus) const {
  ScanSite out;
  fill_site(env, p, in_bus, out);
  return out;
}

std::vector<CellObservation> CellScanner::scan(const RadioEnvironment& env,
                                               const ScanSite& site, Rng& rng,
                                               ScanStats* stats) const {
  const double extra = site.in_bus ? config_.in_bus_noise_db : 0.0;
  // One engine draw keys every tower's temporal deviate for this scan, so
  // the caller's rng stream advances identically on both paths.
  const std::uint64_t scan_key = rng.engine()();

  std::vector<CellObservation> seen;
  for (const ScanSite::Candidate& c : site.candidates) {
    const double rss =
        c.mean_rss_dbm + env.temporal_noise_db(c.id, scan_key, extra);
    if (rss >= config_.sensitivity_dbm) {
      seen.push_back(CellObservation{c.id, rss});
    }
  }
  if (stats != nullptr || scans_ != nullptr) {
    ScanStats local;
    local.towers_considered = env.towers().size();
    local.reach_candidates = site.reach_candidates;
    local.towers_accepted = site.candidates.size();
    local.towers_pruned = local.towers_considered - local.towers_accepted;
    if (stats) *stats = local;
    if (scans_) {
      scans_->inc();
      considered_->add(local.towers_considered);
      reach_->add(local.reach_candidates);
      pruned_->add(local.towers_pruned);
      accepted_->add(local.towers_accepted);
    }
  }
  std::sort(seen.begin(), seen.end(),
            [](const CellObservation& a, const CellObservation& b) {
              return a.rss_dbm != b.rss_dbm ? a.rss_dbm > b.rss_dbm
                                            : a.id < b.id;
            });
  if (seen.size() > config_.max_towers) seen.resize(config_.max_towers);
  return seen;
}

std::vector<CellObservation> CellScanner::scan(const RadioEnvironment& env,
                                               Point p, Rng& rng, bool in_bus,
                                               ScanStats* stats) const {
  thread_local ScanSite site_buffer;
  fill_site(env, p, in_bus, site_buffer);
  return scan(env, site_buffer, rng, stats);
}

Fingerprint CellScanner::scan_fingerprint(const RadioEnvironment& env, Point p,
                                          Rng& rng, bool in_bus,
                                          ScanStats* stats) const {
  return make_fingerprint(scan(env, p, rng, in_bus, stats));
}

Fingerprint CellScanner::scan_fingerprint(const RadioEnvironment& env,
                                          const ScanSite& site, Rng& rng,
                                          ScanStats* stats) const {
  return make_fingerprint(scan(env, site, rng, stats));
}

}  // namespace bussense
