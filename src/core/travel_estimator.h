// Travel time extraction and the bus→automobile traffic model
// (paper Section III-D, Eq. 3).
//
// From a mapped trip the estimator extracts, for each pair of consecutive
// identified stops i, j, the bus travel time BTT = t_a(j) − t_d(i) (arrival
// at j minus departure from i — dwell at the endpoints excluded). Skipped
// stops simply do not appear in the trip, so the pair automatically covers
// the combined segment, exactly as the paper prescribes.
//
// The BTT→ATT model: ATT = a + b·BTT_excess with a = length / free-speed
// (free automobile travel time) and BTT_excess = max(0, BTT − BTT_free),
// BTT_free being the free-flow bus running time (timetable calibration:
// length over the bus free-speed factor plus a fixed per-stop overhead).
// Interpreting b as multiplying the congestion component of the bus
// running time — "the effect of traffic congestion (as measured by the
// running time of buses) on ATT" — keeps ATT → a at free flow while
// preserving the paper's linear form; EXPERIMENTS.md discusses the
// reconstruction, and the Eq. 3 regression bench recovers b in the paper's
// [0.3, 0.8] band.
#pragma once

#include <vector>

#include "common/sim_time.h"
#include "core/segment_catalog.h"
#include "core/trip_mapper.h"

namespace bussense {

struct AttModelConfig {
  double b = 0.5;                  ///< paper's chosen congestion coefficient
  double bus_free_factor = 0.88;   ///< bus/car speed ratio at free flow
  double stop_overhead_s = 10.0;   ///< accel/brake overhead per served stop
};

/// One automobile-speed observation for an adjacent inter-stop segment.
struct SpeedEstimate {
  SegmentKey segment;      ///< adjacent effective stop pair
  RouteId route = kInvalidRoute;
  SimTime time = 0.0;      ///< midpoint of the observation interval
  double att_speed_kmh = 0.0;
  double btt_s = 0.0;      ///< bus travel time of the originating span
  double span_length_m = 0.0;
};

class TravelEstimator {
 public:
  TravelEstimator(const SegmentCatalog& catalog, AttModelConfig config = {});

  /// Free-flow bus running time over a span (Eq. 3 calibration term).
  double free_bus_time_s(double length_m, double free_speed_kmh) const;

  /// Eq. 3: estimated automobile travel time for the span.
  double att_seconds(double btt_s, double length_m, double free_speed_kmh) const;

  /// Extracts one estimate per adjacent segment covered by the trip,
  /// appending them to `out`. A span over skipped stops contributes its
  /// speed to each covered segment.
  void estimate(const MappedTrip& trip, std::vector<SpeedEstimate>& out) const;
  /// The same into a fresh vector.
  std::vector<SpeedEstimate> estimate(const MappedTrip& trip) const;

  const AttModelConfig& config() const { return config_; }

 private:
  const SegmentCatalog* catalog_;
  AttModelConfig config_;
};

}  // namespace bussense
