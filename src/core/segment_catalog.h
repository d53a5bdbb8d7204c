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

class SegmentCatalog {
 public:
  explicit SegmentCatalog(const City& city);

  /// Info for an *adjacent* stop pair, or nullptr.
  const SpanInfo* adjacent(const SegmentKey& key) const;

  /// Info for any ordered pair lying on one route (to after from), possibly
  /// spanning skipped stops; nullopt if no route serves the pair in order.
  std::optional<SpanInfo> span(const SegmentKey& key) const;

  /// Decomposes a span: the stops of the first route serving the ordered
  /// pair, `from` through `to`, so consecutive entries are its chain of
  /// adjacent segments. Empty if no route serves the pair in order.
  std::span<const StopId> stop_run(const SegmentKey& key) const;

  /// All adjacent segments, each listed once.
  const std::vector<SegmentKey>& adjacent_keys() const { return adjacent_keys_; }

  /// Length in metres of every road link, indexed by SegmentId: the flat
  /// table coverage sums read instead of each link's polyline.
  const std::vector<double>& link_lengths() const { return link_lengths_; }

  const City& city() const { return *city_; }

 private:
  SpanInfo make_span(const BusRoute& route, double arc_from, double arc_to) const;
  /// (route, index pair) containing the ordered stop pair, if any.
  std::optional<std::pair<RouteId, std::pair<int, int>>> locate(
      const SegmentKey& key) const;

  const City* city_;
  std::vector<std::vector<StopId>> sequences_;  ///< effective ids per route
  std::unordered_map<SegmentKey, SpanInfo, SegmentKeyHash> adjacent_;
  std::vector<SegmentKey> adjacent_keys_;
  std::vector<double> link_lengths_;
};

}  // namespace bussense
