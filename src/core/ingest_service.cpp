#include "core/ingest_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "core/epoch_publisher.h"

namespace bussense {

namespace {

ServerConfig sharded_backend_config(ServerConfig config) {
  // The shards own admission (partition-local dedup/skew state) and the
  // service owns durability (one WAL segment per shard); the backend must
  // not run a second controller, and TrafficServer refuses durability.
  config.admission.enabled = false;
  config.durability = DurabilityConfig{};
  return config;
}

}  // namespace

void ShardedIngestConfig::validate() const {
  if (shards == 0) {
    throw std::invalid_argument("ShardedIngestConfig: shards must be > 0");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument(
        "ShardedIngestConfig: queue_capacity must be > 0");
  }
}

ShardedIngestService::ShardedIngestService(const City& city,
                                           StopDatabase database,
                                           ServerConfig config,
                                           ShardedIngestConfig sharding)
    : backend_(city, std::move(database), sharded_backend_config(config)),
      sharding_(sharding) {
  sharding_.validate();
  if (config.durability.enabled) {
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
      shard->inst.rejected_queue_full =
          &reg.counter("ingest.shard.rejected_queue_full");
      shard->inst.rejected_shutdown =
          &reg.counter("ingest.shard.rejected_shutdown");
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

bool ShardedIngestService::accepting() const {
  if (closed_.load(std::memory_order_acquire)) return false;
  return !durability_ || (lifecycle_open_.load(std::memory_order_acquire) &&
                          !lifecycle_closed_.load(std::memory_order_acquire));
}

void ShardedIngestService::assign(Slot& slot, const TripUpload& trip) {
  std::vector<CellularSample>& samples = slot.trip.samples;
  // Park the fingerprints of surplus samples instead of freeing them, and
  // grow from the parked ones; the element-wise copy below then reuses
  // every fingerprint buffer that is large enough already.
  while (samples.size() > trip.samples.size()) {
    slot.spare.push_back(std::move(samples.back().fingerprint));
    samples.pop_back();
  }
  while (samples.size() < trip.samples.size()) {
    CellularSample& sample = samples.emplace_back();
    if (!slot.spare.empty()) {
      sample.fingerprint = std::move(slot.spare.back());
      slot.spare.pop_back();
    }
  }
  slot.trip.participant_id = trip.participant_id;
  std::copy(trip.samples.begin(), trip.samples.end(), samples.begin());
}

std::size_t ShardedIngestService::retained_bytes(const Slot& slot) {
  std::size_t bytes = slot.trip.samples.capacity() * sizeof(CellularSample) +
                      slot.spare.capacity() * sizeof(Fingerprint);
  for (const CellularSample& sample : slot.trip.samples) {
    bytes += sample.fingerprint.cells.capacity() * sizeof(CellId);
  }
  for (const Fingerprint& fp : slot.spare) {
    bytes += fp.cells.capacity() * sizeof(CellId);
  }
  return bytes;
}

TripReport ShardedIngestService::process_trip(const TripUpload& trip) {
  Shard& shard = *shards_[shard_of(trip.participant_id)];
  RejectReason why = RejectReason::kNone;
  bool was_empty = false;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    const auto full = [&] { return shard.queued >= sharding_.queue_capacity; };
    if (sharding_.backpressure == ShardedIngestConfig::Backpressure::kBlock) {
      shard.room.wait(lock, [&] { return !accepting() || !full(); });
    }
    if (!accepting()) {
      why = RejectReason::kShutdown;
    } else if (full()) {
      why = RejectReason::kQueueFull;
    } else {
      was_empty = shard.queued == 0;
      // The one copy of the upload, into a recycled slot: it allocates
      // only while the slots warm up. Counted once complete, so a copy
      // that throws queues nothing.
      if (shard.queued == shard.inbox.size()) shard.inbox.emplace_back();
      assign(shard.inbox[shard.queued], trip);
      ++shard.queued;
    }
  }

  TripReport report;
  if (why != RejectReason::kNone) {
    report.outcome = IngestOutcome::kRejected;
    report.reject_reason = why;
    Counter* counter = why == RejectReason::kQueueFull
                           ? shard.inst.rejected_queue_full
                           : shard.inst.rejected_shutdown;
    if (counter) counter->inc();
    return report;
  }
  // The consumer only waits on an empty inbox, so only the first upload
  // into one needs to wake it.
  if (was_empty) shard.work.notify_one();
  if (shard.inst.enqueued) shard.inst.enqueued->inc();
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
    backend_.process_admitted(*use, shard.scratch, shard.batch);
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

void ShardedIngestService::shard_loop(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    shard.work.wait(lock, [&] { return shard.queued != 0 || closed(); });
    // Producers test closed_ under this lock before they queue, so closed
    // with an empty inbox means nothing more can arrive.
    if (shard.queued == 0) return;
    // The slots processed last time become the new inbox.
    shard.taken.swap(shard.inbox);
    const std::size_t count = std::exchange(shard.queued, 0);
    shard.busy = true;
    lock.unlock();
    shard.room.notify_all();
    for (std::size_t i = 0; i < count; ++i) {
      Slot& slot = shard.taken[i];
      process_one(shard, slot.trip);
      if (retained_bytes(slot) > kSlotRetainBytes) slot = Slot{};
    }
    // Fold before going idle: drain() reads an empty inbox with busy ==
    // false as "every accepted upload's estimates are in the fusion".
    if (!shard.batch.empty()) fold_batch(shard);
    lock.lock();
    shard.busy = false;
    if (shard.queued == 0) shard.idle.notify_all();
  }
}

void ShardedIngestService::drain() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->idle.wait(lock,
                     [&] { return shard->queued == 0 && !shard->busy; });
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
  // closed during replay (a time mark only restores the shard's admission
  // watermark), so this sequential order yields the same fused map as the
  // original interleaving (period sums are order-insensitive).
  TripScratch scratch;
  std::vector<SpeedEstimate> estimates;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    AdmissionController* admission = shards_[i]->admission.get();
    for (const WalRecord& record : recovery.replay[i]) {
      if (record.type == WalRecordType::kTimeMark) {
        if (admission) admission->observe_time(record.mark_time);
        ++report.replayed_time_marks;
        continue;
      }
      if (admission) {
        admission->note_replayed(record.signature, record.trip.participant_id,
                                 record.skew_offset_s);
      }
      estimates.clear();
      backend_.process_admitted(record.trip, scratch, estimates);
      backend_.ingest(estimates);
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
  // Mark first: producers test the mark under their shard's lock, so once
  // drain() has passed a shard nothing more is queued there, and every
  // upload already answered kQueued reaches the WAL before it closes.
  const bool was_closed = lifecycle_closed_.exchange(true);
  if (durability_ && !was_closed &&
      lifecycle_open_.load(std::memory_order_acquire)) {
    drain();
    durability_->close();
  }
}

void ShardedIngestService::shutdown() {
  closed_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      // Taking the lock orders the store against every test of it made
      // under this lock: a consumer or blocked producer that read it false
      // is already waiting when the notify below arrives.
      std::lock_guard<std::mutex> lock(shard->mutex);
    }
    shard->work.notify_all();
    shard->room.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->consumer.joinable()) shard->consumer.join();
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
    std::lock_guard<std::mutex> lock(shard->mutex);
    depth += shard->queued;
  }
  return depth;
}

std::size_t ShardedIngestService::max_slot_retained_bytes() const {
  std::size_t most = 0;
  for (const auto& shard : shards_) {
    // The consumer touches `taken` only while busy.
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->idle.wait(lock, [&] { return !shard->busy; });
    for (const auto* slots : {&shard->inbox, &shard->taken}) {
      for (const Slot& slot : *slots) {
        most = std::max(most, retained_bytes(slot));
      }
    }
  }
  return most;
}

}  // namespace bussense
