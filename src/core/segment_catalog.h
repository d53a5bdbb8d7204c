// Catalog of road segments between bus stops.
//
// The estimation unit of the paper is the road stretch between two stops of
// a route. The catalog precomputes, for every directed route, the effective
// stop sequence with arc positions, and resolves any ordered stop pair
// (from, to) — adjacent or spanning skipped stops — to its road length,
// free travel speed (static public information: road classes and speed
// limits) and underlying links. Keys use effective stop ids.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "citynet/city.h"
#include "citynet/types.h"

namespace bussense {

struct SegmentKey {
  StopId from = kInvalidStop;  ///< effective stop id
  StopId to = kInvalidStop;

  friend bool operator==(const SegmentKey&, const SegmentKey&) = default;
};

struct SegmentKeyHash {
  std::size_t operator()(const SegmentKey& k) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.from)) << 32) |
        static_cast<std::uint32_t>(k.to));
  }
};

struct SpanInfo {
  RouteId route = kInvalidRoute;  ///< a route containing the span
  double arc_from = 0.0;
  double arc_to = 0.0;
  double length_m = 0.0;
  double free_speed_kmh = 0.0;  ///< harmonic mean of link free speeds
  std::vector<std::pair<SegmentId, double>> links;  ///< (link, metres on it)
};

/// What the estimator reads of a span: SpanInfo without its links.
struct SpanSummary {
  RouteId route = kInvalidRoute;
  double length_m = 0.0;
  double free_speed_kmh = 0.0;
};

class SegmentCatalog {
 public:
  explicit SegmentCatalog(const City& city);

  /// Info for an *adjacent* stop pair, or nullptr.
  const SpanInfo* adjacent(const SegmentKey& key) const;

  /// Info for any ordered pair lying on one route (to after from), possibly
  /// spanning skipped stops; nullopt if no route serves the pair in order.
  std::optional<SpanInfo> span(const SegmentKey& key) const;

  /// span(key) without the links, so it allocates nothing: the adjacent
  /// entry's fields, or one walk over the span's links in link order.
  std::optional<SpanSummary> summary(const SegmentKey& key) const;

  /// Decomposes a span: the stops of the first route serving the ordered
  /// pair, `from` through `to`, so consecutive entries are its chain of
  /// adjacent segments. Empty if no route serves the pair in order.
  std::span<const StopId> stop_run(const SegmentKey& key) const;

  /// (route, index pair) of the first route, in route order, whose stop
  /// sequence has `to` after the first visit of `from`; nullopt if none.
  std::optional<std::pair<RouteId, std::pair<int, int>>> locate(
      const SegmentKey& key) const;

  /// All adjacent segments, each listed once.
  const std::vector<SegmentKey>& adjacent_keys() const { return adjacent_keys_; }

  /// Length in metres of every road link, indexed by SegmentId: the flat
  /// table coverage sums read instead of each link's polyline.
  const std::vector<double>& link_lengths() const { return link_lengths_; }

  const City& city() const { return *city_; }

 private:
  SpanInfo make_span(const BusRoute& route, double arc_from, double arc_to) const;
  /// Harmonic mean of the free speeds of the links under [arc_from,
  /// arc_to], summed in link order.
  double free_speed_kmh(const BusRoute& route, double arc_from,
                        double arc_to) const;

  /// One stop of one route's sequence.
  struct StopVisit {
    RouteId route = kInvalidRoute;
    int position = 0;
  };
  std::span<const StopVisit> visits(StopId stop) const;

  const City* city_;
  std::vector<std::vector<StopId>> sequences_;  ///< effective ids per route
  /// Every visit of every stop, grouped by stop id (offsets in
  /// visit_begin_) and in (route, position) order within a stop.
  std::vector<StopVisit> visits_;
  std::vector<std::size_t> visit_begin_;
  std::unordered_map<SegmentKey, SpanInfo, SegmentKeyHash> adjacent_;
  std::vector<SegmentKey> adjacent_keys_;
  std::vector<double> link_lengths_;
};

}  // namespace bussense
