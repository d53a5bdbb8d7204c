#include "core/ingest_service.h"

#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "core/epoch_publisher.h"

namespace bussense {

namespace {

// Service ids are handed out once and never reused, so a thread's cached
// lane slot for a destroyed service is simply never looked up again.
std::atomic<std::uint64_t> g_next_sharded_service_id{1};

// A producer blocked on a full ring (or an idle consumer) escalates from
// yielding to short sleeps; on a loaded machine the ring turns over long
// before the sleep tier is reached.
struct Backoff {
  std::size_t spins = 0;
  void pause() {
    if (++spins < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  void reset() { spins = 0; }
};

ServerConfig sharded_backend_config(ServerConfig config) {
  // The shards own admission (partition-local dedup/skew state) and the
  // service owns durability (one WAL segment per shard); the backend must
  // not run a second controller or open a second log on the directory.
  config.admission.enabled = false;
  config.durability = DurabilityConfig{};
  return config;
}

}  // namespace

void ShardedIngestConfig::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("ShardedIngestConfig: shards must be > 0");
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument(
        "ShardedIngestConfig: ring_capacity must be > 0");
  }
}

ShardedIngestService::ShardedIngestService(const City& city,
                                           StopDatabase database,
                                           ServerConfig config,
                                           ShardedIngestConfig sharding)
    : backend_(city, std::move(database), sharded_backend_config(config)),
      sharding_(sharding),
      service_id_(
          g_next_sharded_service_id.fetch_add(1, std::memory_order_relaxed)) {
  sharding_.validate();
  if (config.durability.enabled) {
    config.durability.validate();
    durability_ =
        std::make_unique<DurabilityManager>(config.durability, sharding_.shards);
    if (config.obs.enabled) {
      durability_->bind_metrics(&backend_.metrics_registry());
    }
  }
  // The backend constructor validated the full ServerConfig (admission
  // bounds included); the per-shard controllers below re-use it as given.
  shards_.reserve(sharding_.shards);
  for (std::size_t i = 0; i < sharding_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->lanes.reserve(kProducerLanes);
    for (std::size_t lane = 0; lane < kProducerLanes; ++lane) {
      shard->lanes.push_back(
          std::make_unique<SpscRing<TripUpload>>(sharding_.ring_capacity));
    }
    shard->registry = std::make_unique<MetricsRegistry>();
    if (config.admission.enabled) {
      shard->admission =
          std::make_unique<AdmissionController>(config.admission);
      if (config.obs.enabled) {
        shard->admission->bind_metrics(shard->registry.get());
      }
    }
    if (config.obs.enabled) {
      MetricsRegistry& reg = *shard->registry;
      shard->inst.enqueued = &reg.counter("ingest.shard.enqueued");
      shard->inst.processed = &reg.counter("ingest.shard.processed");
      shard->inst.rejected_ring_full =
          &reg.counter("ingest.shard.rejected_ring_full");
      shard->inst.rejected_shutdown =
          &reg.counter("ingest.shard.rejected_shutdown");
      shard->inst.overflowed = &reg.counter("ingest.shard.overflowed");
      shard->inst.worker_errors = &reg.counter("ingest.shard.worker_errors");
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->consumer = std::thread([this, s] { shard_loop(*s); });
  }
}

ShardedIngestService::~ShardedIngestService() { shutdown(); }

std::size_t ShardedIngestService::shard_of(std::int32_t participant_id) const {
  // Cast through uint32 so negative ids do not sign-extend; mix64 spreads
  // consecutive ids across shards evenly and identically on every run.
  const std::uint64_t key =
      mix64(static_cast<std::uint64_t>(static_cast<std::uint32_t>(participant_id)));
  return static_cast<std::size_t>(key % shards_.size());
}

std::size_t ShardedIngestService::producer_lane() {
  // Per-thread cache: service id → this thread's lane slot. Slots are
  // handed out in registration order; threads past kProducerLanes get
  // the sentinel and use the overflow queue.
  thread_local std::unordered_map<std::uint64_t, std::size_t> t_lanes;
  auto [it, inserted] = t_lanes.try_emplace(service_id_, 0);
  if (inserted) {
    it->second = next_producer_slot_.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

TripReport ShardedIngestService::process_trip(const TripUpload& trip) {
  TripReport report;
  pushing_.fetch_add(1, std::memory_order_acq_rel);
  Shard& shard = *shards_[shard_of(trip.participant_id)];
  const auto reject = [&](RejectReason why, Counter* counter) {
    pushing_.fetch_sub(1, std::memory_order_acq_rel);
    report.outcome = IngestOutcome::kRejected;
    report.reject_reason = why;
    if (counter) counter->inc();
    return report;
  };
  if (closed_.load(std::memory_order_acquire)) {
    return reject(RejectReason::kShutdown, shard.inst.rejected_shutdown);
  }
  if (durability_ && (!lifecycle_open_.load(std::memory_order_acquire) ||
                      lifecycle_closed_.load(std::memory_order_acquire))) {
    return reject(RejectReason::kShutdown, shard.inst.rejected_shutdown);
  }

  const std::size_t lane = producer_lane();
  if (lane < shard.lanes.size()) {
    SpscRing<TripUpload>& ring = *shard.lanes[lane];
    TripUpload copy = trip;
    if (!ring.try_push(std::move(copy))) {
      if (sharding_.backpressure == ShardedIngestConfig::Backpressure::kReject) {
        return reject(RejectReason::kQueueFull, shard.inst.rejected_ring_full);
      }
      Backoff backoff;
      for (;;) {
        if (closed_.load(std::memory_order_acquire)) {
          return reject(RejectReason::kShutdown, shard.inst.rejected_shutdown);
        }
        // try_push leaves `copy` untouched on failure, so retrying the
        // move is safe.
        if (ring.try_push(std::move(copy))) break;
        backoff.pause();
      }
    }
  } else {
    // Overflow lane: bounded, mutex-guarded — correctness identical, just
    // slower. Only threads beyond kProducerLanes land here.
    Backoff backoff;
    for (;;) {
      if (closed_.load(std::memory_order_acquire)) {
        return reject(RejectReason::kShutdown, shard.inst.rejected_shutdown);
      }
      {
        std::lock_guard<std::mutex> lock(shard.overflow_mutex);
        if (shard.overflow.size() < sharding_.ring_capacity) {
          shard.overflow.push_back(trip);
          break;
        }
      }
      if (sharding_.backpressure == ShardedIngestConfig::Backpressure::kReject) {
        return reject(RejectReason::kQueueFull, shard.inst.rejected_ring_full);
      }
      backoff.pause();
    }
    if (shard.inst.overflowed) shard.inst.overflowed->inc();
  }

  if (shard.inst.enqueued) shard.inst.enqueued->inc();
  pushing_.fetch_sub(1, std::memory_order_acq_rel);
  report.outcome = IngestOutcome::kQueued;
  return report;
}

void ShardedIngestService::process_one(Shard& shard, const TripUpload& trip) {
  try {
    const TripUpload* use = &trip;
    TripUpload corrected;
    AdmitInfo info;
    if (shard.admission) {
      const RejectReason why =
          shard.admission->admit(trip, corrected, use, &info);
      if (why != RejectReason::kNone) return;  // verdict counted by the
                                               // controller in the shard
                                               // registry
    }
    // Write-ahead into the shard's own segment; only this consumer thread
    // appends to it, so segment order == the shard's processing order.
    if (durability_) durability_->append_trip(shard.index, *use, info);
    const TripReport report = backend_.process_admitted(*use);
    shard.batch.insert(shard.batch.end(), report.estimates.begin(),
                       report.estimates.end());
    if (shard.batch.size() >= kFoldBatch) fold_batch(shard);
    if (shard.inst.processed) shard.inst.processed->inc();
  } catch (...) {
    // A hostile upload must not take the shard's consumer down.
    if (shard.inst.worker_errors) shard.inst.worker_errors->inc();
  }
}

void ShardedIngestService::fold_batch(Shard& shard) {
  backend_.ingest(shard.batch);
  shard.batch.clear();
}

std::size_t ShardedIngestService::drain_shard_once(Shard& shard) {
  std::size_t done = 0;
  TripUpload trip;
  for (auto& lane : shard.lanes) {
    // Bounded burst per lane so one chatty producer cannot starve the rest.
    for (int burst = 0; burst < 64; ++burst) {
      if (!lane->try_pop(trip)) break;
      process_one(shard, trip);
      ++done;
    }
  }
  for (;;) {
    bool got = false;
    {
      std::lock_guard<std::mutex> lock(shard.overflow_mutex);
      if (!shard.overflow.empty()) {
        trip = std::move(shard.overflow.front());
        shard.overflow.pop_front();
        got = true;
      }
    }
    if (!got) break;
    process_one(shard, trip);
    ++done;
  }
  return done;
}

bool ShardedIngestService::shard_pending(const Shard& shard) const {
  for (const auto& lane : shard.lanes) {
    if (!lane->empty()) return true;
  }
  std::lock_guard<std::mutex> lock(shard.overflow_mutex);
  return !shard.overflow.empty();
}

void ShardedIngestService::shard_loop(Shard& shard) {
  Backoff backoff;
  for (;;) {
    shard.busy.store(true, std::memory_order_release);
    const std::size_t done = drain_shard_once(shard);
    // Fold before going idle: drain() reads busy == false with empty rings
    // as "every popped upload's estimates are in the fusion".
    if (!shard.batch.empty()) fold_batch(shard);
    shard.busy.store(false, std::memory_order_release);
    if (done > 0) {
      backoff.reset();
      continue;
    }
    if (shard_pending(shard)) continue;
    if (closed_.load(std::memory_order_acquire) &&
        pushing_.load(std::memory_order_acquire) == 0 &&
        !shard_pending(shard)) {
      return;
    }
    backoff.pause();
  }
}

void ShardedIngestService::drain() {
  Backoff backoff;
  for (;;) {
    bool pending = pushing_.load(std::memory_order_acquire) != 0;
    for (const auto& shard : shards_) {
      // Rings before busy: seeing a ring go empty happens-after the
      // consumer raised its busy flag, so a popped-but-unprocessed upload
      // always shows up in one of the two checks.
      if (shard_pending(*shard) ||
          shard->busy.load(std::memory_order_acquire)) {
        pending = true;
        break;
      }
    }
    if (!pending) return;
    backoff.pause();
  }
}

void ShardedIngestService::advance_time(SimTime now) {
  drain();
  if (durability_ && lifecycle_open_.load(std::memory_order_acquire) &&
      !lifecycle_closed_.load(std::memory_order_acquire)) {
    durability_->append_time_mark(now);
  }
  for (auto& shard : shards_) {
    if (shard->admission) shard->admission->observe_time(now);
  }
  backend_.advance_time(now);
}

RecoveryReport ShardedIngestService::open() {
  RecoveryReport report;
  if (!durability_) {
    lifecycle_open_.store(true, std::memory_order_release);
    return report;
  }
  report.durable = true;
  DurabilityManager::Recovery recovery = durability_->open();
  if (recovery.checkpoint) {
    report.checkpoint_loaded = true;
    report.checkpoint_id = recovery.checkpoint->id;
    backend_.restore(recovery.checkpoint->state.fusion,
                     recovery.checkpoint->state.trips_processed);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i]->admission &&
          i < recovery.checkpoint->state.admission.size()) {
        shards_[i]->admission->restore_state(
            recovery.checkpoint->state.admission[i]);
      }
    }
  }
  // Shard-by-shard, seq order within each shard. Fusion periods are never
  // closed during replay, so this sequential order yields the same fused
  // map as the original interleaving (period sums are order-insensitive).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    for (const WalRecord& record : recovery.replay[i]) {
      if (record.type == WalRecordType::kTimeMark) {
        if (shards_[i]->admission) {
          shards_[i]->admission->observe_time(record.mark_time);
        }
        ++report.replayed_time_marks;
        continue;
      }
      if (shards_[i]->admission) {
        shards_[i]->admission->note_replayed(
            record.signature, record.trip.participant_id,
            record.skew_offset_s);
      }
      backend_.process_trip(record.trip);
      ++report.replayed_trips;
    }
  }
  report.duplicate_records = recovery.duplicate_records;
  report.truncated_tail_bytes = recovery.truncated_tail_bytes;
  report.recovered_trips_per_segment = std::move(recovery.recovered_trips);
  lifecycle_open_.store(true, std::memory_order_release);
  return report;
}

std::uint64_t ShardedIngestService::checkpoint() {
  if (!durability_ || !lifecycle_open_.load(std::memory_order_acquire) ||
      lifecycle_closed_.load(std::memory_order_acquire)) {
    return 0;
  }
  drain();
  CheckpointState state;
  state.trips_processed = backend_.trips_processed();
  state.fusion = backend_.export_fusion();
  for (const auto& shard : shards_) {
    if (shard->admission) {
      state.admission.push_back(shard->admission->export_state());
    }
  }
  return durability_->save_checkpoint(std::move(state));
}

void ShardedIngestService::close() {
  if (durability_ && lifecycle_open_.load(std::memory_order_acquire) &&
      !lifecycle_closed_.load(std::memory_order_acquire)) {
    drain();
    durability_->close();
  }
  lifecycle_closed_.store(true, std::memory_order_release);
}

void ShardedIngestService::shutdown() {
  closed_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->consumer.joinable()) shard->consumer.join();
  }
  // The exit protocol guarantees empty rings, but sweep once more on the
  // caller's thread in case a consumer died early.
  for (auto& shard : shards_) {
    while (drain_shard_once(*shard) > 0) {
    }
    if (!shard->batch.empty()) fold_batch(*shard);
  }
}

TrafficMap ShardedIngestService::snapshot(SimTime now, double max_age_s) const {
  return backend_.snapshot(now, max_age_s);
}

std::uint64_t ShardedIngestService::publish_epoch(EpochPublisher& publisher,
                                                  SimTime now,
                                                  double max_age_s) const {
  return backend_.publish_epoch(publisher, now, max_age_s);
}

MetricsSnapshot ShardedIngestService::shard_metrics() const {
  MetricsRegistry merged;
  for (const auto& shard : shards_) merged.merge(*shard->registry);
  return merged.snapshot();
}

std::size_t ShardedIngestService::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& shard : shards_) {
    for (const auto& lane : shard->lanes) depth += lane->size();
    std::lock_guard<std::mutex> lock(shard->overflow_mutex);
    depth += shard->overflow.size();
  }
  return depth;
}

}  // namespace bussense
