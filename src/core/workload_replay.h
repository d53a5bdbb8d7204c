// Deterministic workload replay through ShardedIngestService.
//
// A generated workload (e.g. a LOD city-week from trafficsim) is a list of
// uploads with arrival times. replay_workload() drives them through a
// service in arrival order, advancing fusion time on a fixed cadence and
// optionally publishing serving epochs — the one replay loop the benches,
// the metropolis golden test and the examples all share, so every caller
// exercises the identical advance/process/publish interleaving.
//
// The driver is single-threaded and deterministic: the same TimedUpload
// sequence against the same service configuration produces the same
// accepted multiset, the same fused map and the same counters; the fused
// map equals the serial TrafficServer::process_trip's (the ingest
// identity suite).
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "core/ingest_service.h"
#include "sensing/trip.h"

namespace bussense {

/// One workload element: an upload and when it reaches the ingest tier.
struct TimedUpload {
  TripUpload upload;
  SimTime arrival = 0.0;
};

struct ReplayOptions {
  /// Fusion-time cadence: advance_time() fires whenever an arrival crosses
  /// a multiple of this period (0 disables mid-replay advancing).
  double advance_every_s = 300.0;
  /// advance_time(last arrival + final_lag_s) after the last upload, so
  /// the final fusion period closes.
  bool final_advance = true;
  double final_lag_s = 30.0;
  /// Publish a serving epoch after every Nth advance (0 = never); requires
  /// `publisher`.
  std::size_t publish_every = 0;
  EpochPublisher* publisher = nullptr;
};

struct ReplayStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;   ///< kQueued
  std::uint64_t rejected = 0;
  std::uint64_t advances = 0;
  std::uint64_t epochs_published = 0;
  SimTime first_arrival = 0.0;
  SimTime last_arrival = 0.0;
};

/// Replays `workload` (must be sorted by arrival; throws otherwise)
/// through `service`.
ReplayStats replay_workload(ShardedIngestService& service,
                            const std::vector<TimedUpload>& workload,
                            const ReplayOptions& options = {});

}  // namespace bussense
