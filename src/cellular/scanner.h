// Phone-side cell scan: which towers a phone reports at a position.
//
// Real modems report the serving cell plus a handful of monitored
// neighbours; the paper observes 4–7 visible towers per bus stop. The
// scanner samples RSS per tower, keeps those above the modem sensitivity,
// and truncates to the strongest max_towers.
//
// The fast path asks the environment's spatial tower index only for towers
// inside the conservative reach disk, prunes each candidate by its RSS
// upper bound before drawing the (counter-based, clamped) temporal deviate,
// and is bit-identical to the brute-force loop over every deployed tower —
// any skipped tower provably cannot clear the sensitivity threshold.
// `accel.use_index = false` keeps the brute-force scan for the ablations.
//
// A scan is two halves. The position-only half (a ScanSite: reach
// candidates, their long-term mean RSS, the prune) depends only on where
// the phone is; the per-scan half draws the scan key and adds the temporal
// deviates. A caller that scans one fixed point many times — a route stop
// — builds its site once and pays only for the temporal half per scan.
#pragma once

#include <vector>

#include "cellular/fingerprint.h"
#include "cellular/radio_environment.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace bussense {

struct ScannerConfig {
  double sensitivity_dbm = -100.0;  ///< weakest reportable RSS
  std::size_t max_towers = 7;       ///< modem neighbour-list capacity
  /// Additional per-scan RSS spread when the phone is inside a bus (body
  /// and vehicle attenuation varies with seating position).
  double in_bus_noise_db = 1.8;

  /// Fast-path switches (DESIGN.md §7). Grouped so ablations flip one
  /// documented knob instead of a loose boolean.
  struct Acceleration {
    /// Scan via the spatial tower index. Falls back to the full loop
    /// automatically when the reach bound is unsound (non-positive
    /// path-loss exponent or noise clamp).
    bool use_index = true;
  };
  Acceleration accel;

  /// Throws std::invalid_argument on nonsense (zero neighbour capacity,
  /// negative in-bus noise, non-finite sensitivity). Called by CellScanner.
  void validate() const;
};

/// Per-call work counters. Follows the repo-wide stats convention:
/// `*_considered` (total work the brute-force path would do), `*_pruned`
/// (work the fast path provably skipped), `*_accepted` (work actually
/// done), with reset()/merge() for aggregation — see MatchStats.
struct ScanStats {
  std::size_t towers_considered = 0;  ///< deployed towers
  std::size_t reach_candidates = 0;   ///< towers inside the reach disk
  std::size_t towers_pruned = 0;      ///< skipped before the temporal draw
  std::size_t towers_accepted = 0;    ///< temporal deviate actually drawn

  void reset() { *this = ScanStats{}; }
  void merge(const ScanStats& other) {
    towers_considered += other.towers_considered;
    reach_candidates += other.reach_candidates;
    towers_pruned += other.towers_pruned;
    towers_accepted += other.towers_accepted;
  }
};

/// The position-only half of a scan at one point: the towers that survive
/// the reach disk and the RSS upper-bound prune, each with its long-term
/// mean RSS (path loss + static shadowing). On the brute-force path every
/// deployed tower is a candidate. A site is only valid with the scanner
/// configuration and environment that built it.
struct ScanSite {
  struct Candidate {
    CellId id = 0;
    double mean_rss_dbm = 0.0;
  };
  std::vector<Candidate> candidates;  ///< in tower-index order
  std::size_t reach_candidates = 0;   ///< towers inside the reach disk
  bool in_bus = false;
};

class CellScanner {
 public:
  explicit CellScanner(ScannerConfig config = {}) : config_(config) {
    config_.validate();
  }

  /// The position-only half of a scan at `p` (`in_bus` widens the reach
  /// disk and the prune bound by the in-bus noise term). Draws nothing.
  ScanSite site(const RadioEnvironment& env, Point p, bool in_bus = false) const;

  /// Scans a prebuilt site: draws the per-scan noise key, adds each
  /// candidate's temporal deviate, keeps those above the sensitivity and
  /// truncates to max_towers. Result is sorted by descending RSS (ties by
  /// ascending cell id). Consumes exactly one draw from `rng`.
  std::vector<CellObservation> scan(const RadioEnvironment& env,
                                    const ScanSite& site, Rng& rng,
                                    ScanStats* stats = nullptr) const;

  /// scan(env, site(env, p, in_bus), rng, stats), through a thread-local
  /// site buffer. Identical on the indexed and the brute-force path.
  std::vector<CellObservation> scan(const RadioEnvironment& env, Point p,
                                    Rng& rng, bool in_bus = false,
                                    ScanStats* stats = nullptr) const;

  /// Convenience: scan and convert to an ordered fingerprint.
  Fingerprint scan_fingerprint(const RadioEnvironment& env, Point p, Rng& rng,
                               bool in_bus = false,
                               ScanStats* stats = nullptr) const;
  Fingerprint scan_fingerprint(const RadioEnvironment& env,
                               const ScanSite& site, Rng& rng,
                               ScanStats* stats = nullptr) const;

  /// Accumulates every scan's ScanStats into `registry` (counters
  /// `scanner.scans`, `scanner.towers_considered/pruned/accepted`,
  /// `scanner.reach_candidates`). Counter updates are lock-free, so bound
  /// scanners stay safe to use from many threads; recording never affects
  /// scan results. Pass nullptr to unbind.
  void bind_metrics(MetricsRegistry* registry);

  const ScannerConfig& config() const { return config_; }

 private:
  void fill_site(const RadioEnvironment& env, Point p, bool in_bus,
                 ScanSite& out) const;

  ScannerConfig config_;
  // Cached instrument handles (null when unbound). The registry outlives
  // the scanner by contract.
  Counter* scans_ = nullptr;
  Counter* considered_ = nullptr;
  Counter* reach_ = nullptr;
  Counter* pruned_ = nullptr;
  Counter* accepted_ = nullptr;
};

}  // namespace bussense
