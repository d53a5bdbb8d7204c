// Lock-free serving tier: the read side of the epoch publisher
// (DESIGN.md §13).
//
// Millions of queries per second cannot touch the ingest locks. Every
// query pins the current epoch (hazard-pointer handshake, no locks on the
// registered-reader path; the pin finds this thread's state through a
// one-entry thread-local cache and the unpin looks nothing up), answers
// from the immutable snapshot, and unpins. Four query families:
//
//   segment_speed  one segment's fused speed + level: one probe of the
//                  geometry's flat key → ordinal table and one read of
//                  the epoch's ordinal → row overlay, no hashing into a
//                  node-based map;
//   route_eta      downstream arrival predictions for a route, reusing
//                  ArrivalPredictor against the epoch's speeds — bit-
//                  identical to predicting against the live fusion at the
//                  publish instant (the predictor reads only mean_kmh and
//                  updated_at, both preserved by the epoch);
//   region_aggregate  bounding-box mean speed / coverage / level histogram
//                  via the publisher's spatial grid;
//   k_nearest_live_segments  the k live segments nearest a point, by an
//                  expanding ring walk over the same grid.
//
// Results are stamped with the answering epoch's id and time, so callers
// can detect staleness and correlate across queries. The service is
// stateless apart from cached instrument pointers: one QueryService can be
// shared by any number of threads, or each thread can own one — each
// thread records into its own cells of the shared instruments, and
// registries merge deterministically either way.
//
// Instruments cost a query a few nanoseconds: every query bumps its
// family's counter (exact), and each latency histogram times one query in
// BucketHistogram::kSampleEvery per thread (the thread's first included),
// so the other queries read no clock. A histogram's `total` counts the
// timed queries; the `queries.*` counters count them all.
#pragma once

#include <memory>
#include <vector>

#include "core/arrival_predictor.h"
#include "core/epoch_publisher.h"
#include "obs/metrics.h"

namespace bussense {

struct QueryServiceConfig {
  ArrivalPredictorConfig predictor;
  ObservabilityConfig obs;  // core/config_common.h
};

/// Answer to a segment-speed query. `live` is false when the epoch carries
/// no fresh estimate for the segment (or nothing has been published yet —
/// then epoch_id is 0).
struct SegmentSpeedResult {
  std::uint64_t epoch_id = 0;
  SimTime epoch_time = 0.0;
  bool live = false;
  double speed_kmh = 0.0;
  SpeedLevel level = SpeedLevel::kMedium;
  SimTime updated_at = 0.0;
  int observation_count = 0;
};

/// Answer to a route-ETA query. Before the first publish, predictions fall
/// back to free-flow times (epoch_id 0, `departure` as the reference now).
struct RouteEtaResult {
  std::uint64_t epoch_id = 0;
  SimTime epoch_time = 0.0;
  std::vector<ArrivalPrediction> arrivals;
};

/// Answer to a k-nearest-live-segments query. Empty (epoch_id 0) before
/// the first publish; fewer than k rows when the epoch has fewer live
/// segments.
struct KNearestResult {
  std::uint64_t epoch_id = 0;
  SimTime epoch_time = 0.0;
  std::vector<NearestSegment> nearest;  ///< ordered by (distance, key)
};

class QueryService {
 public:
  explicit QueryService(const EpochPublisher& publisher,
                        QueryServiceConfig config = {});

  /// One segment's fused speed and display level from the current epoch.
  SegmentSpeedResult segment_speed(const SegmentKey& key) const;

  /// Arrival predictions for every stop after `from_index`, departing that
  /// stop at `departure`, against the current epoch's speeds (epoch time is
  /// the staleness reference, exactly as a snapshot-based prediction).
  RouteEtaResult route_eta(const BusRoute& route, int from_index,
                           SimTime departure) const;

  /// Aggregate speed/coverage over a bounding box from the current epoch.
  RegionAggregate region_aggregate(const BoundingBox& box) const;

  /// The k live segments nearest `p` (planar-frame metres, midpoint
  /// distance) from the current epoch, via the publisher grid's expanding
  /// ring walk — bit-identical to a brute-force scan of the epoch's map.
  KNearestResult k_nearest_live_segments(Point p, std::size_t k) const;
  KNearestResult k_nearest_live_segments(double x, double y,
                                         std::size_t k) const {
    return k_nearest_live_segments(Point{x, y}, k);
  }

  /// Escape hatch: hold one epoch across several lookups (e.g. a display
  /// frame). The pin must be released on this thread.
  EpochPublisher::Pin pin() const { return publisher_->pin(); }

  const EpochPublisher& publisher() const { return *publisher_; }
  const ArrivalPredictor& predictor() const { return predictor_; }
  const QueryServiceConfig& config() const { return config_; }

  /// Query-side instruments: queries.{segment,eta,region,knearest}
  /// counters, queries.no_epoch, query.latency.{segment,eta,region,
  /// knearest} histograms (sampled, one query in 64 per thread). Empty
  /// when observability is disabled.
  const MetricsRegistry& metrics() const { return *metrics_; }
  MetricsRegistry& metrics_registry() { return *metrics_; }

 private:
  const EpochPublisher* publisher_;
  QueryServiceConfig config_;
  ArrivalPredictor predictor_;
  std::unique_ptr<MetricsRegistry> metrics_;
  struct Instruments {
    Counter* segment = nullptr;
    Counter* eta = nullptr;
    Counter* region = nullptr;
    Counter* knearest = nullptr;
    Counter* no_epoch = nullptr;
    BucketHistogram* lat_segment = nullptr;
    BucketHistogram* lat_eta = nullptr;
    BucketHistogram* lat_region = nullptr;
    BucketHistogram* lat_knearest = nullptr;
  };
  Instruments inst_;
};

}  // namespace bussense
