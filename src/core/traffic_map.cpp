#include "core/traffic_map.h"

#include <algorithm>
#include <cmath>

namespace bussense {

SpeedLevel classify_speed(double kmh) {
  if (kmh < 20.0) return SpeedLevel::kVerySlow;
  if (kmh < 30.0) return SpeedLevel::kSlow;
  if (kmh < 40.0) return SpeedLevel::kMedium;
  if (kmh < 50.0) return SpeedLevel::kFast;
  return SpeedLevel::kVeryFast;
}

std::string to_string(SpeedLevel level) {
  switch (level) {
    case SpeedLevel::kVerySlow: return "<20 km/h";
    case SpeedLevel::kSlow: return "20-30 km/h";
    case SpeedLevel::kMedium: return "30-40 km/h";
    case SpeedLevel::kFast: return "40-50 km/h";
    case SpeedLevel::kVeryFast: return ">50 km/h";
  }
  return "?";
}

void TrafficMap::add_fused(const SegmentKey& key, const FusedSpeed& fused,
                           const SegmentCatalog& catalog, SimTime now,
                           double max_age_s) {
  // Strict `>`: an estimate exactly max_age_s old is still included.
  if (now - fused.updated_at > max_age_s) return;
  MapSegment seg;
  seg.key = key;
  seg.speed_kmh = fused.mean_kmh;
  seg.level = classify_speed(fused.mean_kmh);
  seg.updated_at = fused.updated_at;
  seg.observation_count = fused.observation_count;
  segments_.push_back(seg);
  const SpanInfo* info = catalog.adjacent(key);
  segment_lengths_.push_back(info ? info->length_m : 0.0);
}

TrafficMap TrafficMap::from_fused(
    const std::vector<std::pair<SegmentKey, FusedSpeed>>& fused_estimates,
    const SegmentCatalog& catalog, SimTime now, double max_age_s) {
  TrafficMap map;
  map.time_ = now;
  for (const auto& [key, fused] : fused_estimates) {
    map.add_fused(key, fused, catalog, now, max_age_s);
  }
  return map;
}

TrafficMap TrafficMap::snapshot(const SpeedFusion& fusion,
                                const SegmentCatalog& catalog, SimTime now,
                                double max_age_s) {
  return from_fused(fusion.all(), catalog, now, max_age_s);
}

TrafficMap TrafficMap::snapshot_visiting(const SpeedFusion& fusion,
                                         const SegmentCatalog& catalog,
                                         SimTime now, double max_age_s) {
  TrafficMap map;
  map.time_ = now;
  fusion.visit_all([&](const SegmentKey& key, const FusedSpeed& fused) {
    map.add_fused(key, fused, catalog, now, max_age_s);
  });
  return map;
}

std::map<SpeedLevel, int> TrafficMap::level_histogram() const {
  std::map<SpeedLevel, int> hist;
  for (const MapSegment& seg : segments_) ++hist[seg.level];
  return hist;
}

double TrafficMap::coverage_ratio(const SegmentCatalog& catalog) const {
  // Forward and reverse segments of one corridor lie on the same physical
  // links; count each link's covered metres once, capped at its length.
  const std::vector<double>& link_m = catalog.link_lengths();
  std::vector<double> covered_m(link_m.size(), 0.0);
  for (const MapSegment& seg : segments_) {
    const SpanInfo* info = catalog.adjacent(seg.key);
    if (!info) continue;
    for (const auto& [link, len] : info->links) {
      const auto l = static_cast<std::size_t>(link);
      covered_m[l] = std::min(covered_m[l] + len, link_m[l]);
    }
  }
  // Ascending link order; an untouched link adds +0.0, which leaves the
  // sum bit-identical to summing the touched links alone.
  double covered = 0.0;
  for (const double m : covered_m) covered += m;
  const double total = catalog.city().network().total_length();
  return total > 0.0 ? std::min(1.0, covered / total) : 0.0;
}

double TrafficMap::mean_speed_kmh() const {
  double len_sum = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    len_sum += segment_lengths_[i];
    weighted += segments_[i].speed_kmh * segment_lengths_[i];
  }
  return len_sum > 0.0 ? weighted / len_sum : 0.0;
}

std::string TrafficMap::render_ascii(const SegmentCatalog& catalog, int cols,
                                     int rows) const {
  const City& city = catalog.city();
  const BoundingBox& region = city.region();
  std::vector<std::string> grid(static_cast<std::size_t>(rows),
                                std::string(static_cast<std::size_t>(cols), ' '));
  auto plot = [&](Point p, char c, bool overwrite) {
    const int x = static_cast<int>((p.x - region.min.x) / region.width() *
                                   (cols - 1));
    const int y = static_cast<int>((p.y - region.min.y) / region.height() *
                                   (rows - 1));
    if (x < 0 || x >= cols || y < 0 || y >= rows) return;
    char& cell = grid[static_cast<std::size_t>(rows - 1 - y)]
                     [static_cast<std::size_t>(x)];
    if (overwrite || cell == ' ') cell = c;
  };
  auto plot_span = [&](const SpanInfo& info, char c, bool overwrite) {
    const BusRoute& route = city.route(info.route);
    for (double arc = info.arc_from; arc <= info.arc_to; arc += 60.0) {
      plot(route.path().point_at(arc), c, overwrite);
    }
  };
  // Background: all catalogued (bus-covered) segments.
  for (const SegmentKey& key : catalog.adjacent_keys()) {
    if (const SpanInfo* info = catalog.adjacent(key)) {
      plot_span(*info, '.', /*overwrite=*/false);
    }
  }
  // Foreground: live estimates, digit = level (1 slowest).
  for (const MapSegment& seg : segments_) {
    if (const SpanInfo* info = catalog.adjacent(seg.key)) {
      const char c = static_cast<char>('1' + static_cast<int>(seg.level));
      plot_span(*info, c, /*overwrite=*/true);
    }
  }
  std::string out;
  for (const std::string& row : grid) {
    out += row;
    out += '\n';
  }
  return out;
}

}  // namespace bussense
