#include "core/segment_catalog.h"

#include <algorithm>
#include <stdexcept>

namespace bussense {

SegmentCatalog::SegmentCatalog(const City& city) : city_(&city) {
  sequences_.reserve(city.routes().size());
  for (const BusRoute& route : city.routes()) {
    std::vector<StopId> seq;
    seq.reserve(route.stop_count());
    for (const RouteStop& rs : route.stops()) {
      seq.push_back(city.effective_stop(rs.stop));
    }
    sequences_.push_back(std::move(seq));
  }
  for (const BusRoute& route : city.routes()) {
    const auto& seq = sequences_[static_cast<std::size_t>(route.id())];
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      const SegmentKey key{seq[i], seq[i + 1]};
      if (adjacent_.contains(key)) continue;  // shared corridor: first wins
      adjacent_.emplace(key, make_span(route, route.stop_arc(static_cast<int>(i)),
                                       route.stop_arc(static_cast<int>(i) + 1)));
      adjacent_keys_.push_back(key);
    }
  }
  link_lengths_.reserve(city.network().links().size());
  for (const RoadLink& link : city.network().links()) {
    link_lengths_.push_back(link.length());
  }
}

SpanInfo SegmentCatalog::make_span(const BusRoute& route, double arc_from,
                                   double arc_to) const {
  SpanInfo info;
  info.route = route.id();
  info.arc_from = arc_from;
  info.arc_to = arc_to;
  info.links = route.link_lengths_between(arc_from, arc_to);
  info.length_m = arc_to - arc_from;
  double time_h = 0.0;
  for (const auto& [link, len_m] : info.links) {
    time_h += (len_m / 1000.0) / city_->network().link(link).free_speed_kmh;
  }
  info.free_speed_kmh =
      time_h > 0.0 ? (info.length_m / 1000.0) / time_h : 50.0;
  return info;
}

const SpanInfo* SegmentCatalog::adjacent(const SegmentKey& key) const {
  const auto it = adjacent_.find(key);
  return it == adjacent_.end() ? nullptr : &it->second;
}

std::optional<std::pair<RouteId, std::pair<int, int>>> SegmentCatalog::locate(
    const SegmentKey& key) const {
  for (std::size_t r = 0; r < sequences_.size(); ++r) {
    const auto& seq = sequences_[r];
    const auto from_it = std::find(seq.begin(), seq.end(), key.from);
    if (from_it == seq.end()) continue;
    const auto to_it = std::find(from_it + 1, seq.end(), key.to);
    if (to_it == seq.end()) continue;
    return std::make_pair(static_cast<RouteId>(r),
                          std::make_pair(static_cast<int>(from_it - seq.begin()),
                                         static_cast<int>(to_it - seq.begin())));
  }
  return std::nullopt;
}

std::optional<SpanInfo> SegmentCatalog::span(const SegmentKey& key) const {
  if (const SpanInfo* adj = adjacent(key)) return *adj;
  const auto loc = locate(key);
  if (!loc) return std::nullopt;
  const BusRoute& route = city_->route(loc->first);
  return make_span(route, route.stop_arc(loc->second.first),
                   route.stop_arc(loc->second.second));
}

std::span<const StopId> SegmentCatalog::stop_run(const SegmentKey& key) const {
  const auto loc = locate(key);
  if (!loc) return {};
  const auto& seq = sequences_[static_cast<std::size_t>(loc->first)];
  return std::span<const StopId>(seq).subspan(
      static_cast<std::size_t>(loc->second.first),
      static_cast<std::size_t>(loc->second.second - loc->second.first) + 1);
}

}  // namespace bussense
