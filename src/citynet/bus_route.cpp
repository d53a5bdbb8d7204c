#include "citynet/bus_route.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bussense {

BusRoute::BusRoute(RouteId id, std::string name, int direction, Polyline path,
                   std::vector<RouteStop> stops, std::vector<LinkSpan> link_spans)
    : id_(id),
      name_(std::move(name)),
      direction_(direction),
      path_(std::move(path)),
      stops_(std::move(stops)),
      link_spans_(std::move(link_spans)) {
  if (stops_.size() < 2) {
    throw std::invalid_argument("BusRoute needs at least two stops");
  }
  for (std::size_t i = 0; i < stops_.size(); ++i) {
    if (stops_[i].arc_pos < -kArcEps ||
        stops_[i].arc_pos > path_.length() + kArcEps) {
      throw std::invalid_argument("BusRoute: stop arc outside path");
    }
    if (i > 0 && stops_[i].arc_pos <= stops_[i - 1].arc_pos) {
      throw std::invalid_argument("BusRoute: stop arcs must strictly increase");
    }
  }
  if (link_spans_.empty()) {
    throw std::invalid_argument("BusRoute: no link spans");
  }
  double expected = 0.0;
  for (const LinkSpan& span : link_spans_) {
    if (std::abs(span.arc_begin - expected) > 1e-3 ||
        span.arc_end <= span.arc_begin) {
      throw std::invalid_argument("BusRoute: link spans must tile the path");
    }
    expected = span.arc_end;
  }
  if (std::abs(expected - path_.length()) > 1e-3) {
    throw std::invalid_argument("BusRoute: link spans do not cover the path");
  }
}

std::optional<int> BusRoute::stop_index(StopId stop) const {
  for (std::size_t i = 0; i < stops_.size(); ++i) {
    if (stops_[i].stop == stop) return static_cast<int>(i);
  }
  return std::nullopt;
}

double BusRoute::stop_arc(int index) const {
  return stops_.at(static_cast<std::size_t>(index)).arc_pos;
}

double BusRoute::distance_between_stops(int i, int j) const {
  if (j <= i) throw std::invalid_argument("distance_between_stops: j must be > i");
  return stop_arc(j) - stop_arc(i);
}

SegmentId BusRoute::link_at(double arc) const {
  const double a = std::clamp(arc, 0.0, length());
  // Spans are sorted by arc_begin; find the first with arc_end >= a.
  auto it = std::lower_bound(
      link_spans_.begin(), link_spans_.end(), a,
      [](const LinkSpan& span, double value) { return span.arc_end < value; });
  if (it == link_spans_.end()) --it;
  return it->link;
}

std::vector<std::pair<SegmentId, double>> BusRoute::link_lengths_between(
    double arc_a, double arc_b) const {
  std::vector<std::pair<SegmentId, double>> parts;
  for_each_link_between(arc_a, arc_b, [&](SegmentId link, double metres) {
    parts.emplace_back(link, metres);
  });
  return parts;
}

}  // namespace bussense
