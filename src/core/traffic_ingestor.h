// TrafficIngestor: the one server API every backend front end implements.
//
// Two front ends share the pipeline of Figure 4 — the serial, synchronous
// TrafficServer and the asynchronous ShardedIngestService
// (participant-hash shards, one locked inbox and consumer thread each,
// folding into a TrafficServer backend). Examples, benches and
// deployments program against this interface and swap the front end with
// one line; both produce bit-identical fused maps for the same accepted
// upload multiset (property-tested).
//
// Call contract, shared by every implementation:
//
//   * process_trip(upload) — hand one trip to the backend. Synchronous
//     front ends return a fully populated TripReport with outcome
//     kProcessed; the asynchronous service returns immediately with
//     kQueued (report data empty — read the metrics registry instead) or
//     kRejected plus a RejectReason when backpressure applies.
//   * advance_time(now) — closes fusion periods up to `now`. Must only be
//     called once every estimate older than `now`'s period has been handed
//     in (the asynchronous service drains its queue first, preserving the
//     same contract).
//   * snapshot(now, max_age) — the fused traffic map.
//   * metrics() — the pipeline-wide MetricsRegistry (throughput, rejection
//     counts, per-stage latency). Always present; empty when observability
//     is disabled in ServerConfig.
//
// Durable front ends (ServerConfig::durability.enabled) add a lifecycle:
//
//   * open() — recover from the write-ahead trip log + latest checkpoint
//     (DESIGN.md §14), then start accepting trips. With durability off this
//     is a no-op returning an empty report.
//   * checkpoint() — persist a recovery point covering everything processed
//     so far. The caller must be quiescent (asynchronous front ends drain
//     first, same contract as advance_time()).
//   * close() — final WAL sync + shut the log; subsequent process_trip()
//     calls are rejected with kShutdown. Destruction without close() models
//     a crash: recovery falls back to checkpoint + WAL replay.
#pragma once

#include <cstdint>

#include "common/sim_time.h"
#include "core/clustering.h"
#include "core/segment_catalog.h"
#include "core/traffic_map.h"
#include "core/travel_estimator.h"
#include "core/trip_mapper.h"
#include "obs/metrics.h"
#include "sensing/trip.h"

namespace bussense {

class EpochPublisher;  // core/epoch_publisher.h (serving tier, DESIGN.md §13)

/// What happened to an upload handed to process_trip().
enum class IngestOutcome : std::uint8_t {
  kProcessed,  ///< ran the full pipeline synchronously
  kQueued,     ///< accepted into the ingest queue; processed asynchronously
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
/// Asynchronous front ends return only the outcome fields.
struct TripReport {
  IngestOutcome outcome = IngestOutcome::kProcessed;
  RejectReason reject_reason = RejectReason::kNone;
  std::vector<MatchedSample> matched;    ///< samples that passed γ
  std::size_t rejected_samples = 0;      ///< below-γ samples discarded
  MappedTrip mapped;                     ///< stop per cluster
  std::vector<SpeedEstimate> estimates;  ///< per adjacent segment

  bool accepted() const { return outcome != IngestOutcome::kRejected; }
};

/// What open() recovered from durable state (DESIGN.md §14).
struct RecoveryReport {
  bool durable = false;            ///< durability enabled on this front end
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

class TrafficIngestor {
 public:
  virtual ~TrafficIngestor() = default;

  /// Lifecycle (see header comment). Defaults are durability-off no-ops.
  virtual RecoveryReport open() { return {}; }
  virtual std::uint64_t checkpoint() { return 0; }
  virtual void close() {}

  virtual TripReport process_trip(const TripUpload& trip) = 0;
  virtual void advance_time(SimTime now) = 0;
  virtual TrafficMap snapshot(SimTime now, double max_age_s = 3600.0) const = 0;

  /// Publishes the current fused state as a serving epoch (DESIGN.md §13):
  /// the same fused state and strict-`>` staleness boundary as
  /// snapshot(now, max_age_s) — the published epoch's map is bit-identical
  /// to that snapshot — built by visitation (no intermediate fused-map
  /// copy) and swapped in behind the publisher's atomic epoch pointer.
  /// Mirrors snapshot(): asynchronous front ends do NOT drain first; call
  /// advance_time()/drain() beforehand for the full-ingest contract.
  /// Returns the new epoch id.
  virtual std::uint64_t publish_epoch(EpochPublisher& publisher, SimTime now,
                                      double max_age_s = 3600.0) const = 0;

  virtual const MetricsRegistry& metrics() const = 0;
  virtual const SegmentCatalog& catalog() const = 0;
  virtual std::uint64_t trips_processed() const = 0;
};

}  // namespace bussense
