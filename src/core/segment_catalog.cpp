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
  // Counting sort of every (route, position) by stop: routes and positions
  // are visited in order, so each stop's visits stay in that order.
  StopId max_stop = -1;
  for (const auto& seq : sequences_) {
    for (const StopId stop : seq) max_stop = std::max(max_stop, stop);
  }
  visit_begin_.assign(static_cast<std::size_t>(max_stop) + 2, 0);
  for (const auto& seq : sequences_) {
    for (const StopId stop : seq) ++visit_begin_[static_cast<std::size_t>(stop) + 1];
  }
  for (std::size_t i = 1; i < visit_begin_.size(); ++i) {
    visit_begin_[i] += visit_begin_[i - 1];
  }
  visits_.resize(visit_begin_.back());
  std::vector<std::size_t> fill(visit_begin_.begin(), visit_begin_.end() - 1);
  for (std::size_t r = 0; r < sequences_.size(); ++r) {
    const auto& seq = sequences_[r];
    for (std::size_t i = 0; i < seq.size(); ++i) {
      visits_[fill[static_cast<std::size_t>(seq[i])]++] =
          StopVisit{static_cast<RouteId>(r), static_cast<int>(i)};
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
  info.free_speed_kmh = free_speed_kmh(route, arc_from, arc_to);
  return info;
}

double SegmentCatalog::free_speed_kmh(const BusRoute& route, double arc_from,
                                      double arc_to) const {
  double time_h = 0.0;
  route.for_each_link_between(arc_from, arc_to,
                              [&](SegmentId link, double len_m) {
    time_h += (len_m / 1000.0) / city_->network().link(link).free_speed_kmh;
  });
  return time_h > 0.0 ? ((arc_to - arc_from) / 1000.0) / time_h : 50.0;
}

const SpanInfo* SegmentCatalog::adjacent(const SegmentKey& key) const {
  const auto it = adjacent_.find(key);
  return it == adjacent_.end() ? nullptr : &it->second;
}

std::span<const SegmentCatalog::StopVisit> SegmentCatalog::visits(
    StopId stop) const {
  if (stop < 0 || static_cast<std::size_t>(stop) + 1 >= visit_begin_.size()) {
    return {};
  }
  const std::size_t s = static_cast<std::size_t>(stop);
  return std::span<const StopVisit>(visits_).subspan(
      visit_begin_[s], visit_begin_[s + 1] - visit_begin_[s]);
}

std::optional<std::pair<RouteId, std::pair<int, int>>> SegmentCatalog::locate(
    const SegmentKey& key) const {
  const std::span<const StopVisit> from = visits(key.from);
  const std::span<const StopVisit> to = visits(key.to);
  // Both lists run in (route, position) order, so one merge finds, per
  // route, the first visit of `to` after the first visit of `from` (a
  // later visit of `from` has no `to` after it if the first has none).
  std::size_t t = 0;
  for (const StopVisit& v : from) {
    while (t < to.size() &&
           (to[t].route < v.route ||
            (to[t].route == v.route && to[t].position <= v.position))) {
      ++t;
    }
    if (t < to.size() && to[t].route == v.route) {
      return std::make_pair(v.route, std::make_pair(v.position, to[t].position));
    }
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

std::optional<SpanSummary> SegmentCatalog::summary(const SegmentKey& key) const {
  if (const SpanInfo* adj = adjacent(key)) {
    return SpanSummary{adj->route, adj->length_m, adj->free_speed_kmh};
  }
  const auto loc = locate(key);
  if (!loc) return std::nullopt;
  const BusRoute& route = city_->route(loc->first);
  const double arc_from = route.stop_arc(loc->second.first);
  const double arc_to = route.stop_arc(loc->second.second);
  return SpanSummary{route.id(), arc_to - arc_from,
                     free_speed_kmh(route, arc_from, arc_to)};
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
