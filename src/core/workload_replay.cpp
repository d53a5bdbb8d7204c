#include "core/workload_replay.h"

#include <cmath>
#include <stdexcept>

#include "core/epoch_publisher.h"

namespace bussense {

ReplayStats replay_workload(ShardedIngestService& service,
                            const std::vector<TimedUpload>& workload,
                            const ReplayOptions& options) {
  if (options.publish_every > 0 && options.publisher == nullptr) {
    throw std::invalid_argument("replay_workload: publish_every without publisher");
  }
  ReplayStats stats;
  if (workload.empty()) return stats;

  stats.first_arrival = workload.front().arrival;
  // Next cadence boundary strictly after the first arrival: everything in
  // the period containing the first upload fuses together.
  double boundary = 0.0;
  if (options.advance_every_s > 0.0) {
    boundary = (std::floor(workload.front().arrival / options.advance_every_s) +
                1.0) *
               options.advance_every_s;
  }

  SimTime prev = workload.front().arrival;
  for (const TimedUpload& item : workload) {
    if (item.arrival < prev) {
      throw std::invalid_argument("replay_workload: workload not sorted by arrival");
    }
    prev = item.arrival;
    while (options.advance_every_s > 0.0 && item.arrival >= boundary) {
      service.advance_time(boundary);
      ++stats.advances;
      if (options.publish_every > 0 &&
          stats.advances % options.publish_every == 0) {
        service.publish_epoch(*options.publisher, boundary);
        ++stats.epochs_published;
      }
      boundary += options.advance_every_s;
    }
    const TripReport report = service.process_trip(item.upload);
    ++stats.submitted;
    if (report.accepted()) {
      ++stats.accepted;
    } else {
      ++stats.rejected;
    }
  }
  stats.last_arrival = prev;
  if (options.final_advance) {
    service.advance_time(prev + options.final_lag_s);
    ++stats.advances;
    if (options.publish_every > 0 && options.publisher != nullptr) {
      service.publish_epoch(*options.publisher, prev + options.final_lag_s);
      ++stats.epochs_published;
    }
  }
  return stats;
}

}  // namespace bussense
