// Checkpoint/restore + the DurabilityManager façade over the WAL
// (DESIGN.md §14).
//
// A checkpoint is one atomic file capturing everything the ingest tier
// cannot recompute from the WAL suffix alone: the fusion state (fused
// posteriors + open period batches), the admission controller state(s)
// (dedup LRU, skew table, watermark) and the processed-trip counter, plus
// the per-segment WAL sequence number each of those states covers.
// Recovery = load the newest *valid* checkpoint (CRC-checked; corrupt or
// half-written files are skipped, falling back to older ones or to a full
// WAL replay) → replay every WAL record with seq > covers_seq.
//
//   file := magic "BSCKPT1\n" body u32 crc32(body)
//   body := u64 id | u32 n_segments | u64 covers_seq*
//           | u64 trips_processed
//           | u32 n_fusion  | fusion_entry*
//           | u32 n_admission | admission_state*
//
// Writes are atomic: body to `checkpoint-<id>.ckpt.tmp`, fsync, rename to
// `checkpoint-<id>.ckpt`, fsync the directory — a crash mid-checkpoint
// leaves either the previous checkpoint set or the complete new file,
// never a half state, and a save that fails removes its temp file.
// Fusion entries are sorted by key with sorted pending values and the
// admission exports are canonical (core/fusion.h, core/admission.h), so
// checkpointing the same logical state yields byte-identical files.
//
// DurabilityManager bundles N WAL segment writers (one per
// ShardedIngestService shard) with the checkpoint directory and the
// durability.* instruments; the service's open()/checkpoint()/close()
// lifecycle phases are thin wrappers over it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/config_common.h"
#include "core/fusion.h"
#include "core/trip_log.h"
#include "obs/metrics.h"

namespace bussense {

struct CheckpointState {
  /// Highest WAL seq per segment whose effects the state below includes;
  /// recovery replays only records with seq > covers_seq[segment]. Stamped
  /// by DurabilityManager::save_checkpoint.
  std::vector<std::uint64_t> covers_seq;
  std::uint64_t trips_processed = 0;
  std::vector<FusionExportEntry> fusion;  ///< sorted by key
  /// One entry per admission controller: empty when admission is off,
  /// else one per shard.
  std::vector<AdmissionCheckpoint> admission;
};

std::vector<std::uint8_t> encode_checkpoint(std::uint64_t id,
                                            const CheckpointState& state);
bool decode_checkpoint(const std::uint8_t* data, std::size_t size,
                       std::uint64_t* id, CheckpointState* state);

struct LoadedCheckpoint {
  std::uint64_t id = 0;
  CheckpointState state;
};

/// Newest checkpoint in `directory` that passes CRC + decode; corrupt files
/// are skipped (older valid checkpoints win). nullopt when none is usable.
std::optional<LoadedCheckpoint> load_latest_checkpoint(
    const std::string& directory);

/// Atomic write of `checkpoint-<id>.ckpt` (tmp + fsync + rename + dir
/// fsync). Throws std::runtime_error on I/O failure, after removing the
/// temp file.
void save_checkpoint_file(const std::string& directory, std::uint64_t id,
                          const CheckpointState& state);

/// Deletes all but the newest `keep` valid-looking checkpoint files.
void prune_checkpoints(const std::string& directory, std::size_t keep);

class DurabilityManager {
 public:
  /// `segments` WAL files (`trips-<i>.wal`) under config.directory.
  DurabilityManager(DurabilityConfig config, std::size_t segments);

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  struct Recovery {
    std::optional<LoadedCheckpoint> checkpoint;
    /// Per segment, the records to replay (seq > checkpoint covers_seq, or
    /// the whole log without a checkpoint), in seq order.
    std::vector<std::vector<WalRecord>> replay;
    /// Per segment, total durable kTrip records (checkpoint-covered +
    /// replayed): how many of the segment's admitted uploads survived.
    std::vector<std::uint64_t> recovered_trips;
    std::uint64_t truncated_tail_bytes = 0;
    std::uint64_t duplicate_records = 0;
  };

  /// Creates the directory, scans + repairs every segment, loads the
  /// newest valid checkpoint and opens the writers for appending. Must be
  /// called exactly once, before any append. Throws std::runtime_error,
  /// before touching any file, when the directory was written with another
  /// segment count: a `trips-<i>.wal` with i >= segments exists, or the
  /// newest valid checkpoint covers a different number of segments.
  Recovery open();

  /// Appends one admitted upload to a segment's WAL (write-ahead: call
  /// before applying its estimates). Thread-safe per the underlying
  /// writer. Returns the record's seq.
  std::uint64_t append_trip(std::size_t segment, const TripUpload& trip,
                            const AdmitInfo& info);

  /// Appends an advance_time barrier to every segment's WAL, so recovery
  /// restores the admission watermark(s).
  void append_time_mark(SimTime now);

  /// Syncs every WAL, stamps covers_seq, writes the checkpoint atomically
  /// and prunes old ones. The caller must be quiescent (no concurrent
  /// append) so covers_seq is exact. Returns the checkpoint id.
  std::uint64_t save_checkpoint(CheckpointState state);

  /// Final sync + close of every writer; further appends throw. Idempotent.
  void close();

  /// Registers durability.{appends,fsyncs,bytes_appended,checkpoints,
  /// recovered_records,truncated_tail_bytes} counters; null unbinds.
  void bind_metrics(MetricsRegistry* registry);

  std::size_t segments() const { return segment_count_; }
  bool opened() const { return !writers_.empty(); }
  const DurabilityConfig& config() const { return config_; }
  std::uint64_t last_checkpoint_id() const { return last_checkpoint_id_; }

 private:
  std::string segment_path(std::size_t segment) const;

  DurabilityConfig config_;
  std::size_t segment_count_;
  std::vector<std::unique_ptr<TripLogWriter>> writers_;
  std::uint64_t next_checkpoint_id_ = 1;
  std::uint64_t last_checkpoint_id_ = 0;

  struct Instruments {
    Counter* appends = nullptr;
    Counter* fsyncs = nullptr;
    Counter* bytes_appended = nullptr;
    Counter* checkpoints = nullptr;
    Counter* recovered_records = nullptr;
    Counter* truncated_tail_bytes = nullptr;
  };
  Instruments inst_;
};

}  // namespace bussense
