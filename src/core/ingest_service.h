// ShardedIngestService: the asynchronous ingest front end, and the only
// one that owns durability (write-ahead log, checkpoints, recovery).
//
// A deployment receives trip uploads from thousands of phones on whatever
// schedule the cellular network delivers them; the analysis pipeline runs
// at its own pace. This service decouples the two:
//
//   * uploads are partitioned by participant id with a stable hash
//     (mix64), so one participant's stream always lands on the same
//     shard;
//   * each shard is drained by its own consumer thread — there is no
//     coordinator and no shared queue. A shard's inbox is one bounded
//     vector of recycled upload slots under the shard's mutex: a producer
//     copy-assigns the upload into the next free slot, reusing the
//     buffers an earlier upload left there; the consumer swaps the whole
//     inbox out in one lock, processes its live prefix unlocked and keeps
//     the slots, which come back as the next inbox. Once warm, no upload
//     is allocated or freed, and nothing allocated on one thread is freed
//     on another (bar an outsized slot, see Backpressure);
//   * admission control (dedup LRU, clock-skew re-anchoring) runs inside
//     the shard on partition-local state: a participant's replays and
//     skew history live where its uploads are processed, so the checks
//     are race-free without a shared controller;
//   * each shard runs the pipeline through one shared TrafficServer
//     backend (TrafficServer::process_admitted) over its own TripScratch,
//     reused from trip to trip, appends the estimates to its own batch
//     and folds that batch into the backend's internally
//     locked fusion store — when it fills, and always before the shard
//     reports idle, so once drain() returns every accepted estimate is in
//     the fusion;
//   * each shard records into its own MetricsRegistry
//     (ingest.shard.* instruments); shard_metrics() merges the
//     registries in shard order, which is deterministic — the counters
//     depend only on the partitioning, never on scheduling.
//
// Determinism: analysis is pure, and the fusion store batches per
// 5-minute period and sums each period's estimates in *sorted* order when
// advance_time() closes it (core/fusion.h). The fused map therefore
// depends only on the multiset of accepted uploads — shard count, arrival
// order, queue capacity and fold timing are all invisible, and the
// snapshot is bit-identical to feeding the same uploads through the
// serial TrafficServer::process_trip (property-tested across shard and
// producer counts, admission and metrics on and off).
//
// Backpressure: a full inbox either blocks the producer until the
// consumer swaps it out (kBlock) or rejects with RejectReason::kQueueFull
// (kReject). A shard holds at most 2 × queue_capacity upload slots — its
// inbox plus the batch its consumer is processing — and keeps them for the
// service's life; a slot retaining more than kSlotRetainBytes after its
// upload is processed is released by the consumer, so a hostile upload
// never stays resident.
//
// Shutdown is graceful: shutdown() (also run by the destructor) closes
// the service to new uploads, lets every shard finish its inbox and fold
// its batch, and joins the consumers. Producers test the closed and
// lifecycle marks under the shard lock, and a consumer exits only once it
// sees "closed and inbox empty" under that same lock, so an upload
// answered kQueued is always processed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/ingest_report.h"
#include "core/server.h"

namespace bussense {

struct ShardedIngestConfig {
  /// What process_trip() does when the target shard's inbox is full.
  enum class Backpressure : std::uint8_t { kBlock, kReject };

  std::size_t shards = 4;              ///< independent partitions; > 0
  std::size_t queue_capacity = 1024;   ///< per shard inbox; > 0
  Backpressure backpressure = Backpressure::kBlock;

  /// Throws std::invalid_argument on nonsense (zero shards or queue
  /// capacity).
  void validate() const;
};

class ShardedIngestService {
 public:
  /// Estimates a shard buffers before it folds them into the fusion store
  /// (it also folds whatever it holds before it goes idle).
  static constexpr std::size_t kFoldBatch = 32;
  /// Bytes (samples plus fingerprint cells) an inbox slot may keep after
  /// its upload is processed; a larger slot is released. A 100-sample ride
  /// keeps about 16 KiB, so only outsized uploads are ever freed.
  static constexpr std::size_t kSlotRetainBytes = std::size_t{64} << 10;

  ShardedIngestService(const City& city, StopDatabase database,
                       ServerConfig config = {},
                       ShardedIngestConfig sharding = {});
  ~ShardedIngestService();

  ShardedIngestService(const ShardedIngestService&) = delete;
  ShardedIngestService& operator=(const ShardedIngestService&) = delete;

  /// Routes the upload to its participant's shard. Returns kQueued, or
  /// kRejected with kQueueFull (kReject policy) / kShutdown. Safe from any
  /// thread, including after shutdown().
  TripReport process_trip(const TripUpload& trip);

  /// Blocks until every queued upload has been analysed and its estimates
  /// folded into the fusion store. Exact once producers are quiescent.
  void drain();

  /// drain(), then advances the per-shard admission watermarks and closes
  /// fusion periods up to `now`.
  void advance_time(SimTime now);

  /// Closes the service (further uploads rejected with kShutdown), lets
  /// every shard finish its inbox and fold its batch, and joins the
  /// consumers. Idempotent; also run by the destructor.
  void shutdown();

  /// The backend's snapshot() and publish_epoch(). Neither drains first:
  /// call advance_time() or drain() beforehand for the full-ingest
  /// contract.
  TrafficMap snapshot(SimTime now, double max_age_s = 3600.0) const;
  std::uint64_t publish_epoch(EpochPublisher& publisher, SimTime now,
                              double max_age_s = 3600.0) const;
  /// Pipeline-wide registry (analysis-stage and durability.*
  /// instruments); the per-shard ingest.shard.* and admission instruments
  /// live in the shard registries below.
  const MetricsRegistry& metrics() const { return backend_.metrics(); }
  /// Deterministic merge of every shard's registry, in shard order. Shard
  /// instruments are counters only, so for a fixed accepted workload the
  /// merged snapshot (and its JSON) is byte-identical across runs.
  MetricsSnapshot shard_metrics() const;
  const MetricsRegistry& shard_registry(std::size_t shard) const {
    return *shards_[shard]->registry;
  }

  const SegmentCatalog& catalog() const { return backend_.catalog(); }
  std::uint64_t trips_processed() const {
    return backend_.trips_processed();
  }

  /// Durable lifecycle (ServerConfig::durability, DESIGN.md §14). The
  /// service owns a WAL segment *per shard* (trips-<shard>.wal) plus one
  /// checkpoint stream; the backend's admission and durability are both
  /// stripped (shards admit, this class logs). With durability off these
  /// are no-ops (open() returns an empty report) and uploads are accepted
  /// from construction on; with it on, uploads before open() or after
  /// close() are rejected with kShutdown.
  ///
  ///   * open() — recovers the newest valid checkpoint, then replays each
  ///     shard's WAL suffix in seq order — fusion periods are never closed
  ///     during replay, so the segment replay order cannot change the
  ///     fused map. Throws std::runtime_error when the directory was
  ///     written with a different shard count.
  ///   * checkpoint() — drains, then persists a recovery point covering
  ///     everything processed so far. Returns its id (0 outside the
  ///     open()..close() window). Producers must be quiescent.
  ///   * close() — marks the lifecycle closed, drains, then syncs and
  ///     closes the WAL. Idempotent. Destruction without close() models a
  ///     crash: recovery falls back to checkpoint + WAL replay.
  RecoveryReport open();
  std::uint64_t checkpoint();
  void close();

  /// Stable partition of a participant id (mix64 hash mod shard count).
  std::size_t shard_of(std::int32_t participant_id) const;
  std::size_t shard_count() const { return shards_.size(); }
  /// Uploads waiting in the shard inboxes (not yet taken by a consumer);
  /// exact only while producers and consumers are quiescent.
  std::size_t queue_depth() const;
  /// The most bytes any recycled inbox slot retains. Waits for each
  /// shard's consumer to finish the batch it holds.
  std::size_t max_slot_retained_bytes() const;
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  /// The shared pipeline: a TrafficServer with admission and durability
  /// stripped from its config.
  const TrafficServer& backend() const { return backend_; }

 private:
  /// A recycled upload buffer. `spare` keeps the fingerprints of samples
  /// beyond the current upload's length for the next longer one.
  struct Slot {
    TripUpload trip;
    std::vector<Fingerprint> spare;
  };
  struct Shard {
    std::size_t index = 0;  ///< position in shards_ == WAL segment number
    /// Guards inbox, queued and busy; producers test the closed and
    /// lifecycle marks under it too.
    mutable std::mutex mutex;
    /// inbox[0, queued) are uploads accepted but not yet taken by the
    /// consumer (queued <= queue_capacity); the slots past them are kept
    /// for reuse.
    std::vector<Slot> inbox;
    std::size_t queued = 0;
    /// True while the consumer processes a swapped-out inbox and folds
    /// its batch; drain() waits for an empty inbox with busy == false.
    bool busy = false;
    /// The inbox the consumer last swapped out; touched only by the
    /// consumer thread, and handed back as the next inbox by its swap.
    std::vector<Slot> taken;
    std::condition_variable work;  ///< consumer: inbox non-empty or closed
    std::condition_variable room;  ///< kBlock producers: inbox below capacity
    /// Signalled when the consumer goes idle (inbox empty, not busy):
    /// drain() and max_slot_retained_bytes() wait on it.
    std::condition_variable idle;
    /// The analysis buffers and the estimates analysed but not yet
    /// folded; touched only by the consumer thread.
    TripScratch scratch;
    std::vector<SpeedEstimate> batch;
    /// Partition-local admission state (null when admission is disabled).
    std::unique_ptr<AdmissionController> admission;
    /// Shard-local instruments; merged by shard_metrics(). Always present
    /// (empty when observability is off).
    std::unique_ptr<MetricsRegistry> registry;
    struct Instruments {
      Counter* enqueued = nullptr;
      Counter* processed = nullptr;
      Counter* rejected_queue_full = nullptr;
      Counter* rejected_shutdown = nullptr;
      Counter* worker_errors = nullptr;
    };
    Instruments inst;
    std::thread consumer;
  };

  /// False once shutdown() or close() ran, or before open() when durable.
  /// Producers read it under their shard's lock.
  bool accepting() const;
  /// Copies `trip` into `slot`, reusing the buffers the slot holds.
  static void assign(Slot& slot, const TripUpload& trip);
  static std::size_t retained_bytes(const Slot& slot);
  void process_one(Shard& shard, const TripUpload& trip);
  void fold_batch(Shard& shard);
  void shard_loop(Shard& shard);

  TrafficServer backend_;
  ShardedIngestConfig sharding_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Durability (null when disabled): one WAL segment per shard, appended
  // by that shard's consumer thread (single writer per segment).
  std::unique_ptr<DurabilityManager> durability_;
  std::atomic<bool> lifecycle_open_{false};
  std::atomic<bool> lifecycle_closed_{false};

  std::atomic<bool> closed_{false};
};

}  // namespace bussense
