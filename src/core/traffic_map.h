// Assembled city traffic map (paper Section III-A, Figure 9).
//
// A snapshot of the fused per-segment speeds at an instant, quantised into
// the paper's five display levels, with coverage statistics over the road
// network and an ASCII rendering for the examples.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "citynet/city.h"
#include "core/fusion.h"
#include "core/segment_catalog.h"

namespace bussense {

/// The five display levels of Figure 9 (km/h boundaries 20/30/40/50).
enum class SpeedLevel { kVerySlow, kSlow, kMedium, kFast, kVeryFast };

SpeedLevel classify_speed(double kmh);
std::string to_string(SpeedLevel level);

struct MapSegment {
  SegmentKey key;
  double speed_kmh = 0.0;
  SpeedLevel level = SpeedLevel::kMedium;
  SimTime updated_at = 0.0;
  int observation_count = 0;
};

class TrafficMap {
 public:
  /// Builds a snapshot from fused estimates no older than `max_age_s`.
  ///
  /// Staleness boundary (pinned by tests): the cutoff is strict `>` on the
  /// age — an estimate exactly `max_age_s` old is still included; one
  /// epsilon older is not.
  static TrafficMap snapshot(const SpeedFusion& fusion,
                             const SegmentCatalog& catalog, SimTime now,
                             double max_age_s = 3600.0);

  /// Visitation-based build: identical to snapshot() — same per-item path,
  /// same traversal order, bit-identical result — but the fused map is
  /// consumed in place instead of being copied into an intermediate
  /// vector. This is the epoch-publish entry point (DESIGN.md §13).
  static TrafficMap snapshot_visiting(const SpeedFusion& fusion,
                                      const SegmentCatalog& catalog,
                                      SimTime now, double max_age_s = 3600.0);

  const std::vector<MapSegment>& segments() const { return segments_; }
  SimTime time() const { return time_; }

  /// Count of segments per display level.
  std::map<SpeedLevel, int> level_histogram() const;

  /// Fraction of total road length carrying a live estimate.
  double coverage_ratio(const SegmentCatalog& catalog) const;

  /// Length-weighted mean estimated speed.
  double mean_speed_kmh() const;

  /// Character-grid rendering: digits 1 (very slow) … 5 (very fast) on
  /// estimated segments, '.' on covered-but-stale roads, ' ' elsewhere.
  std::string render_ascii(const SegmentCatalog& catalog, int cols,
                           int rows) const;

 private:
  static TrafficMap from_fused(
      const std::vector<std::pair<SegmentKey, FusedSpeed>>& fused,
      const SegmentCatalog& catalog, SimTime now, double max_age_s);

  /// The one per-item path every build goes through (copying and visiting
  /// overloads alike): strict-`>` staleness cutoff, then append.
  void add_fused(const SegmentKey& key, const FusedSpeed& fused,
                 const SegmentCatalog& catalog, SimTime now, double max_age_s);

  SimTime time_ = 0.0;
  std::vector<MapSegment> segments_;
  std::vector<double> segment_lengths_;
};

}  // namespace bussense
