// What the ingest tier reports back: the outcome of one upload handed to
// TrafficServer::process_trip or ShardedIngestService::process_trip, and
// what ShardedIngestService::open() recovered from durable state.
#pragma once

#include <cstdint>
#include <vector>

#include "core/clustering.h"
#include "core/travel_estimator.h"
#include "core/trip_mapper.h"

namespace bussense {

/// What happened to an upload handed to process_trip().
enum class IngestOutcome : std::uint8_t {
  kProcessed,  ///< ran the full pipeline synchronously (TrafficServer)
  kQueued,     ///< accepted into a shard inbox; processed asynchronously
  kRejected,   ///< not accepted — see TripReport::reject_reason
};

/// Why an upload was rejected. kQueueFull/kShutdown are backpressure
/// (DESIGN.md §8); the rest are admission-control verdicts on the upload
/// itself (DESIGN.md §9) — counted under ingest.rejected.*.
enum class RejectReason : std::uint8_t {
  kNone,         ///< not rejected
  kQueueFull,    ///< the shard's inbox is full under the kReject policy
  kShutdown,     ///< service is shutting down / already shut down
  kDuplicate,    ///< replay of a recently admitted upload (signature LRU)
  kMalformed,    ///< sample-count/fingerprint-size/duration bounds violated
  kNonMonotone,  ///< sample timestamps disordered beyond tolerance
};

inline const char* to_string(IngestOutcome o) {
  switch (o) {
    case IngestOutcome::kProcessed: return "processed";
    case IngestOutcome::kQueued: return "queued";
    case IngestOutcome::kRejected: return "rejected";
  }
  return "?";
}

inline const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kShutdown: return "shutdown";
    case RejectReason::kDuplicate: return "duplicate";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kNonMonotone: return "non_monotone";
  }
  return "?";
}

/// Everything the pipeline derived from one trip (kept for evaluation).
/// The stage outputs index into each other and into the upload: a matched
/// sample names its upload sample, a cluster a run of `matched`, a mapped
/// stop its cluster. ShardedIngestService returns only the outcome fields.
struct TripReport {
  IngestOutcome outcome = IngestOutcome::kProcessed;
  RejectReason reject_reason = RejectReason::kNone;
  std::vector<MatchedSample> matched;    ///< samples that passed γ, by time
  std::size_t rejected_samples = 0;      ///< samples discarded before γ or by it
  std::vector<SampleCluster> clusters;   ///< per-stop runs of `matched`
  MappedTrip mapped;                     ///< stop per cluster
  std::vector<SpeedEstimate> estimates;  ///< per adjacent segment

  bool accepted() const { return outcome != IngestOutcome::kRejected; }
};

/// What ShardedIngestService::open() recovered (DESIGN.md §14).
struct RecoveryReport {
  bool durable = false;            ///< durability enabled on the service
  bool checkpoint_loaded = false;  ///< a valid checkpoint seeded the state
  std::uint64_t checkpoint_id = 0;
  std::uint64_t replayed_trips = 0;       ///< WAL kTrip records re-applied
  std::uint64_t replayed_time_marks = 0;  ///< watermark barriers re-applied
  std::uint64_t duplicate_records = 0;    ///< skipped non-advancing seqs
  std::uint64_t truncated_tail_bytes = 0; ///< torn/corrupt tail repaired
  /// Per WAL segment, total durable kTrip records (checkpoint-covered +
  /// replayed) — how many admitted uploads survived the crash.
  std::vector<std::uint64_t> recovered_trips_per_segment;
};

}  // namespace bussense
