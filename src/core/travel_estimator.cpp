#include "core/travel_estimator.h"

#include <algorithm>
#include <optional>
#include <span>

namespace bussense {

TravelEstimator::TravelEstimator(const SegmentCatalog& catalog,
                                 AttModelConfig config)
    : catalog_(&catalog), config_(config) {}

double TravelEstimator::free_bus_time_s(double length_m,
                                        double free_speed_kmh) const {
  const double free_bus_kmh = config_.bus_free_factor * free_speed_kmh;
  return (length_m / 1000.0) / free_bus_kmh * 3600.0 + config_.stop_overhead_s;
}

double TravelEstimator::att_seconds(double btt_s, double length_m,
                                    double free_speed_kmh) const {
  const double a = (length_m / 1000.0) / free_speed_kmh * 3600.0;
  const double excess =
      std::max(0.0, btt_s - free_bus_time_s(length_m, free_speed_kmh));
  return a + config_.b * excess;
}

void TravelEstimator::estimate(const MappedTrip& trip,
                               std::vector<SpeedEstimate>& out) const {
  for (std::size_t k = 0; k + 1 < trip.stops.size(); ++k) {
    const MappedCluster& from = trip.stops[k];
    const MappedCluster& to = trip.stops[k + 1];
    if (from.stop == to.stop) continue;  // split cluster at one stop
    const double btt = to.arrival - from.departure;
    if (btt <= 0.0) continue;
    const SegmentKey key{from.stop, to.stop};
    // Adjacent pairs (nearly all) read the catalog in place; a span over
    // skipped stops is summed on demand.
    const std::optional<SpanSummary> span = catalog_->summary(key);
    if (!span) continue;  // residual mapping error: no route serves the pair
    const double att = att_seconds(btt, span->length_m, span->free_speed_kmh);
    if (att <= 0.0) continue;
    SpeedEstimate e;
    e.route = span->route;
    e.time = 0.5 * (from.departure + to.arrival);
    e.att_speed_kmh = (span->length_m / 1000.0) / (att / 3600.0);
    e.btt_s = btt;
    e.span_length_m = span->length_m;
    const std::span<const StopId> run = catalog_->stop_run(key);
    for (std::size_t i = 0; i + 1 < run.size(); ++i) {
      e.segment = SegmentKey{run[i], run[i + 1]};
      out.push_back(e);
    }
  }
}

std::vector<SpeedEstimate> TravelEstimator::estimate(const MappedTrip& trip) const {
  std::vector<SpeedEstimate> out;
  estimate(trip, out);
  return out;
}

}  // namespace bussense
