// Shared nested-config building blocks for every server/service config.
//
// ServerConfig embeds each block below; the serving-tier configs reuse
// ObservabilityConfig. Each is defined once, here. ShardedIngestConfig
// carries only its own three knobs (shards, ring capacity, backpressure)
// and takes everything else from the ServerConfig it is given.
//
// DurabilityConfig is the knob set for the write-ahead trip log +
// checkpoint/restore subsystem (core/trip_log.h, core/checkpoint.h,
// DESIGN.md §14). It is off by default: the historical in-memory-only
// lifecycle is untouched, and open()/checkpoint()/close() become no-ops.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace bussense {

/// Ablation switches (DESIGN.md A1/A5), grouped: when a stage is disabled,
/// the pipeline falls back to per-sample best matches / singleton clusters.
struct StagesConfig {
  bool trip_mapping = true;  ///< per-trip ML mapping (A1)
  bool clustering = true;    ///< per-bus-stop co-clustering (A5)
};

/// Pipeline observability. Recording never changes results; turning it off
/// removes even the per-stage clock reads for overhead ablations.
struct ObservabilityConfig {
  bool enabled = true;
};

/// When appended write-ahead log bytes reach the disk platter. Under every
/// policy a syncer thread per segment does the write() and fdatasync, and
/// checkpoint() and close() are full barriers: they return once every
/// appended record is written and fdatasync'ed.
enum class FsyncPolicy : std::uint8_t {
  /// OS page cache only (frames buffer up to 256 KiB before the syncer
  /// write()s them); fdatasync at checkpoint/close barriers.
  kNever,
  /// fdatasync every `fsync_interval_records` appends, off the appending
  /// thread: the syncer writes and syncs each interval while the next one
  /// builds, so at most 2 × `fsync_interval_records` appended records per
  /// segment are not yet durable.
  kInterval,
  /// Every append waits for the syncer's write() + fdatasync of its record
  /// (strongest, slowest).
  kEveryRecord,
};

inline const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kEveryRecord: return "every_record";
  }
  return "?";
}

/// Durable-ingest knobs: where the write-ahead trip log and checkpoint
/// files live and how eagerly appends are synced. Embedded in ServerConfig;
/// ShardedIngestService honours it through its open()/checkpoint()/close()
/// lifecycle (core/ingest_service.h); TrafficServer refuses it.
struct DurabilityConfig {
  /// Off by default: no files are touched and the lifecycle calls are
  /// no-ops — existing deployments are untouched.
  bool enabled = false;

  /// Directory for WAL segments (`trips-<segment>.wal`) and checkpoints
  /// (`checkpoint-<id>.ckpt`). Created on open() if missing.
  std::string directory;

  FsyncPolicy fsync = FsyncPolicy::kNever;

  /// Appends between fsyncs under FsyncPolicy::kInterval (the tail-loss
  /// bound is twice this, per segment).
  std::uint64_t fsync_interval_records = 256;

  /// Checkpoint files retained after a successful save (older ones are
  /// pruned; at least 1).
  std::size_t checkpoints_kept = 2;

  /// Throws std::invalid_argument on nonsense (enabled without a
  /// directory, a zero fsync interval, zero checkpoints kept).
  void validate() const {
    if (!enabled) return;
    if (directory.empty()) {
      throw std::invalid_argument(
          "DurabilityConfig: enabled requires a non-empty directory");
    }
    if (fsync == FsyncPolicy::kInterval && fsync_interval_records == 0) {
      throw std::invalid_argument(
          "DurabilityConfig: fsync_interval_records must be > 0 under "
          "kInterval");
    }
    if (checkpoints_kept == 0) {
      throw std::invalid_argument(
          "DurabilityConfig: checkpoints_kept must be > 0");
    }
  }
};

}  // namespace bussense
