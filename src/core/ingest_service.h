// ShardedIngestService: the asynchronous ingest front end.
//
// A deployment receives trip uploads from thousands of phones on whatever
// schedule the cellular network delivers them; the analysis pipeline runs
// at its own pace. This service decouples the two with no shared point on
// the hot path:
//
//   * uploads are partitioned by participant id with a stable hash
//     (mix64), so one participant's stream always lands on the same
//     shard;
//   * each shard is drained by its own consumer thread — there is no
//     coordinator and no shared queue. Producers reach a shard through a
//     per-(producer thread, shard) lock-free SPSC ring
//     (common/spsc_ring.h); a thread pushing and a consumer popping never
//     touch a lock or another thread's cache line;
//   * admission control (dedup LRU, clock-skew re-anchoring) runs inside
//     the shard on partition-local state: a participant's replays and
//     skew history live where its uploads are processed, so the checks
//     are race-free without a shared controller;
//   * each shard runs the pipeline through one shared TrafficServer
//     backend (TrafficServer::process_admitted), buffers the estimates in
//     its own batch and folds that batch into the backend's internally
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
// order, ring sizes and fold timing are all invisible, and the snapshot is
// bit-identical to feeding the same uploads through the serial
// TrafficServer (property-tested across shard and producer counts,
// admission and metrics on and off).
//
// Backpressure: a full ring either blocks the producer (kBlock — spin,
// then yield, then sleep) or rejects with RejectReason::kQueueFull
// (kReject). The producer cannot shed the oldest entry instead: only the
// consumer may pop an SPSC ring.
//
// Shutdown is graceful: shutdown() (also run by the destructor) closes
// the service to new uploads, lets every shard finish its rings and fold
// its batch, and joins the consumers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spsc_ring.h"
#include "core/server.h"
#include "core/traffic_ingestor.h"

namespace bussense {

struct ShardedIngestConfig {
  /// What process_trip() does when the producer's ring for the target
  /// shard is full.
  enum class Backpressure : std::uint8_t { kBlock, kReject };

  std::size_t shards = 4;             ///< independent partitions; > 0
  std::size_t ring_capacity = 1024;   ///< per (producer, shard) ring; > 0
  Backpressure backpressure = Backpressure::kBlock;

  /// Throws std::invalid_argument on nonsense (zero shards or ring
  /// capacity).
  void validate() const;
};

class ShardedIngestService final : public TrafficIngestor {
 public:
  /// SPSC lanes per shard: the first kProducerLanes producer threads each
  /// get a private ring per shard; later threads fall back to a small
  /// mutex-guarded overflow queue (counted, correctness unchanged).
  static constexpr std::size_t kProducerLanes = 16;
  /// Estimates a shard buffers before it folds them into the fusion store
  /// (it also folds whatever it holds before it goes idle).
  static constexpr std::size_t kFoldBatch = 32;

  ShardedIngestService(const City& city, StopDatabase database,
                       ServerConfig config = {},
                       ShardedIngestConfig sharding = {});
  ~ShardedIngestService() override;

  ShardedIngestService(const ShardedIngestService&) = delete;
  ShardedIngestService& operator=(const ShardedIngestService&) = delete;

  /// Routes the upload to its participant's shard. Returns kQueued, or
  /// kRejected with kQueueFull (kReject policy) / kShutdown. Safe from any
  /// thread, including after shutdown().
  TripReport process_trip(const TripUpload& trip) override;

  /// Blocks until every pushed upload has been analysed and its estimates
  /// folded into the fusion store. Exact once producers are quiescent.
  void drain();

  /// drain(), then advances the per-shard admission watermarks and closes
  /// fusion periods up to `now`.
  void advance_time(SimTime now) override;

  /// Closes the service (further uploads rejected with kShutdown), lets
  /// every shard finish its rings and fold its batch, and joins the
  /// consumers. Idempotent; also run by the destructor.
  void shutdown();

  TrafficMap snapshot(SimTime now, double max_age_s = 3600.0) const override;
  std::uint64_t publish_epoch(EpochPublisher& publisher, SimTime now,
                              double max_age_s = 3600.0) const override;
  /// Pipeline-wide registry (analysis-stage instruments); the per-shard
  /// ingest.shard.* instruments live in the shard registries below.
  const MetricsRegistry& metrics() const override { return backend_.metrics(); }
  /// Deterministic merge of every shard's registry, in shard order. Shard
  /// instruments are counters only, so for a fixed accepted workload the
  /// merged snapshot (and its JSON) is byte-identical across runs.
  MetricsSnapshot shard_metrics() const;
  const MetricsRegistry& shard_registry(std::size_t shard) const {
    return *shards_[shard]->registry;
  }

  const SegmentCatalog& catalog() const override { return backend_.catalog(); }
  std::uint64_t trips_processed() const override {
    return backend_.trips_processed();
  }

  /// Durable lifecycle. This front end owns a WAL segment *per shard*
  /// (trips-<shard>.wal) plus one checkpoint stream; the backend's
  /// admission and durability are both stripped (shards admit, this class
  /// logs). open() replays shard by shard in seq order — fusion periods
  /// are never closed during replay, so the segment replay order cannot
  /// change the fused map. checkpoint()/close() drain first.
  RecoveryReport open() override;
  std::uint64_t checkpoint() override;
  void close() override;

  /// Stable partition of a participant id (mix64 hash mod shard count).
  std::size_t shard_of(std::int32_t participant_id) const;
  std::size_t shard_count() const { return shards_.size(); }
  /// Uploads currently queued across all rings and overflow queues; exact
  /// only while producers and consumers are quiescent.
  std::size_t queue_depth() const;
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  /// The shared pipeline: a TrafficServer with admission and durability
  /// stripped from its config.
  const TrafficServer& backend() const { return backend_; }

 private:
  struct Shard {
    std::size_t index = 0;  ///< position in shards_ == WAL segment number
    /// Fixed lane array, one SPSC ring per producer slot, allocated
    /// eagerly so consumers never race a lane's publication.
    std::vector<std::unique_ptr<SpscRing<TripUpload>>> lanes;
    /// Spill path for producer threads beyond kProducerLanes.
    mutable std::mutex overflow_mutex;
    std::deque<TripUpload> overflow;
    /// True while the consumer is popping, processing or folding; drain()
    /// polls rings-then-busy so a popped-but-unfolded upload is never
    /// missed.
    std::atomic<bool> busy{false};
    /// Estimates analysed but not yet folded; touched only by the thread
    /// that drains this shard.
    std::vector<SpeedEstimate> batch;
    /// Partition-local admission state (null when admission is disabled).
    std::unique_ptr<AdmissionController> admission;
    /// Shard-local instruments; merged by shard_metrics(). Always present
    /// (empty when observability is off).
    std::unique_ptr<MetricsRegistry> registry;
    struct Instruments {
      Counter* enqueued = nullptr;
      Counter* processed = nullptr;
      Counter* rejected_ring_full = nullptr;
      Counter* rejected_shutdown = nullptr;
      Counter* overflowed = nullptr;
      Counter* worker_errors = nullptr;
    };
    Instruments inst;
    std::thread consumer;
  };

  std::size_t producer_lane();  ///< this thread's lane slot for this service
  bool shard_pending(const Shard& shard) const;
  std::size_t drain_shard_once(Shard& shard);
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
  /// Producers currently inside process_trip(). Consumers only exit when
  /// closed_ is set, this is zero and their rings are empty — so an upload
  /// that won the closed_ check is never stranded by shutdown.
  std::atomic<std::size_t> pushing_{0};
  std::atomic<std::size_t> next_producer_slot_{0};
  const std::uint64_t service_id_;  ///< key for thread-local lane lookup
};

}  // namespace bussense
