// Directed bus route: a path through the road network with ordered stops.
//
// Each public route name (e.g. "79") has two directed variants, one per
// travel direction; the reverse variant serves the opposite-side twin stops.
// The route also records which road links it traverses and where, so that
// ground-truth traffic and coverage statistics can be projected between the
// "inter-stop segment" unit used by the estimator and the link unit used by
// the traffic field.
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "citynet/types.h"
#include "common/geo.h"

namespace bussense {

/// A stop visit position along the route path.
struct RouteStop {
  StopId stop = kInvalidStop;
  double arc_pos = 0.0;  ///< arc length along the route path, metres
};

/// The portion of the route path lying on one road link.
struct LinkSpan {
  SegmentId link = kInvalidSegment;
  double arc_begin = 0.0;
  double arc_end = 0.0;
};

class BusRoute {
 public:
  /// Invariants checked: stops strictly increasing in arc_pos within
  /// [0, path.length()]; link spans contiguous from 0 to path.length().
  BusRoute(RouteId id, std::string name, int direction, Polyline path,
           std::vector<RouteStop> stops, std::vector<LinkSpan> link_spans);

  RouteId id() const { return id_; }
  const std::string& name() const { return name_; }
  /// 0 = forward, 1 = reverse service of the same public route.
  int direction() const { return direction_; }
  const Polyline& path() const { return path_; }
  const std::vector<RouteStop>& stops() const { return stops_; }
  const std::vector<LinkSpan>& link_spans() const { return link_spans_; }
  double length() const { return path_.length(); }
  std::size_t stop_count() const { return stops_.size(); }

  /// Index of `stop` in this route's stop sequence, if served.
  std::optional<int> stop_index(StopId stop) const;

  /// Arc position of the i-th stop. Precondition: valid index.
  double stop_arc(int index) const;

  /// Road distance between the i-th and j-th stops (j > i).
  double distance_between_stops(int i, int j) const;

  /// Link id under arc position `arc` (clamped to the path).
  SegmentId link_at(double arc) const;

  /// (link, metres-on-link) decomposition of the span [arc_a, arc_b].
  /// Precondition: arc_a <= arc_b.
  std::vector<std::pair<SegmentId, double>> link_lengths_between(
      double arc_a, double arc_b) const;

  /// Calls visit(link, metres-on-link) for each entry of
  /// link_lengths_between(arc_a, arc_b), in path order, without building
  /// the vector.
  template <typename Visit>
  void for_each_link_between(double arc_a, double arc_b, Visit&& visit) const {
    if (arc_a > arc_b) {
      throw std::invalid_argument("link_lengths_between: arc_a > arc_b");
    }
    const double a = std::clamp(arc_a, 0.0, length());
    const double b = std::clamp(arc_b, 0.0, length());
    for (const LinkSpan& span : link_spans_) {
      const double lo = std::max(a, span.arc_begin);
      const double hi = std::min(b, span.arc_end);
      if (hi > lo + kArcEps) visit(span.link, hi - lo);
    }
  }

 private:
  /// Arc tolerance of the stop checks and link decompositions, metres.
  static constexpr double kArcEps = 1e-6;

  RouteId id_;
  std::string name_;
  int direction_;
  Polyline path_;
  std::vector<RouteStop> stops_;
  std::vector<LinkSpan> link_spans_;
};

}  // namespace bussense
