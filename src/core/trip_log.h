// Write-ahead trip log: the append half of the durable-ingest subsystem
// (DESIGN.md §14).
//
// Every upload a front end admits is appended here *before* analysis, so a
// crash between append and fusion-apply loses nothing: recovery replays the
// suffix and the admission dedup LRU (PR 5) makes any overlap idempotent.
// The on-disk format is deterministic and self-checking:
//
//   file   := magic "BSWAL01\n" record*
//   record := u32 payload_len | u32 crc32(payload) | payload
//   payload(kTrip)     := u8 type | u64 seq | u64 signature
//                         | u64 skew_offset_bits | i32 participant
//                         | u32 n_samples
//                         | { u64 time_bits | u16 n_cells | varint cell* }*
//   payload(kTimeMark) := u8 type | u64 seq | u64 time_bits
//
// Fixed-width little-endian fields (cell ids as LEB128 varints — they are
// small integers, and log bytes are what the fsync dirty-data flush
// costs), doubles as IEEE-754 bit patterns — the
// same accepted upload stream always produces byte-identical log bytes
// (property-tested). kTrip stores the *post-correction* upload (exactly
// what the pipeline analysed) plus the pre-correction signature and the
// applied clock-skew offset, so replay bypasses admission re-evaluation and
// still rebuilds the dedup/skew state bit-exactly. kTimeMark records each
// advance_time() so recovery restores the admission watermark.
//
// The scanner walks the longest valid prefix: a record whose length field
// overruns the file, whose CRC mismatches, or whose payload fails to decode
// ends the scan — everything after it is a torn/corrupt tail, reported (and
// truncated when `repair`), never propagated. Records whose seq does not
// advance (a duplicated block from a buggy copy) are skipped and counted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "core/config_common.h"
#include "sensing/trip.h"

namespace bussense {

/// CRC-32 (IEEE 802.3, reflected) of `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

enum class WalRecordType : std::uint8_t {
  kTrip = 1,      ///< one admitted upload, post-correction
  kTimeMark = 2,  ///< an advance_time(now) barrier
};

struct WalRecord {
  WalRecordType type = WalRecordType::kTrip;
  std::uint64_t seq = 0;  ///< assigned by the writer; strictly increasing
  // kTrip fields. `signature` is the pre-correction trip_signature (0 when
  // admission/dedup is off); `skew_offset_s` is the offset admission
  // subtracted (0 when uncorrected).
  std::uint64_t signature = 0;
  double skew_offset_s = 0.0;
  TripUpload trip;
  // kTimeMark field.
  SimTime mark_time = 0.0;
};

/// Record payload bytes (no length/CRC framing).
std::vector<std::uint8_t> encode_wal_payload(const WalRecord& record);

/// Strict bounds-checked decode; false on any malformed byte (the scanner
/// treats that as a torn tail).
bool decode_wal_payload(const std::uint8_t* data, std::size_t size,
                        WalRecord* out);

struct WalScanResult {
  std::vector<WalRecord> records;  ///< valid prefix, duplicate seqs skipped
  std::uint64_t next_seq = 1;      ///< 1 + highest seq seen
  std::uint64_t trip_records = 0;  ///< kTrip entries in `records`
  std::uint64_t duplicate_records = 0;  ///< skipped non-advancing seqs
  std::uint64_t truncated_tail_bytes = 0;  ///< bytes past the valid prefix
  bool torn = false;  ///< the tail was invalid (CRC / length / decode)
};

/// Reads the longest valid prefix of a trip log. A missing file is an empty
/// log (not an error). With `repair` the file is truncated to the valid
/// prefix so a writer can append safely after the scan.
WalScanResult scan_trip_log(const std::string& path, bool repair);

/// Appender for one WAL segment. Thread-safe (internal mutex), though each
/// segment has one writer in practice (the serial server, or the shard that
/// owns it). The caller scans
/// (and repairs) the segment first and seeds `next_seq` from the scan.
class TripLogWriter {
 public:
  TripLogWriter(std::string path, FsyncPolicy policy,
                std::uint64_t fsync_interval, std::uint64_t next_seq);
  ~TripLogWriter();

  TripLogWriter(const TripLogWriter&) = delete;
  TripLogWriter& operator=(const TripLogWriter&) = delete;

  struct AppendResult {
    std::uint64_t seq = 0;
    std::size_t bytes = 0;  ///< frame bytes written
    bool synced = false;    ///< the fsync policy fired on this append
  };

  /// Assigns the next seq, frames and appends the record, applies the
  /// fsync policy. Throws std::runtime_error on I/O failure (an ingest
  /// tier must not silently drop durability).
  AppendResult append(WalRecord record);

  /// Hot-path variants: same frame bytes as append() with a WalRecord of
  /// the matching type, without materialising one (no TripUpload copy).
  AppendResult append_trip(std::uint64_t signature, double skew_offset_s,
                           const TripUpload& trip);
  AppendResult append_time_mark(SimTime mark_time);

  /// Explicit fsync barrier (checkpoint prologue / close).
  void sync();

  /// sync() + close the descriptor; further appends throw. Idempotent.
  void close();

  const std::string& path() const { return path_; }
  std::uint64_t last_seq() const;
  std::uint64_t appends() const;
  std::uint64_t fsyncs() const;
  std::uint64_t bytes_appended() const;

 private:
  /// Group-commit write() granularity: frames buffer in user space up to
  /// this many bytes; sync()/close() (and the fsync policies) flush first,
  /// so every durability bound is unchanged.
  static constexpr std::size_t kFlushThreshold = 256 * 1024;

  AppendResult append_scratch_locked();
  void flush_locked();
  void sync_locked();

  std::string path_;
  FsyncPolicy policy_;
  std::uint64_t fsync_interval_;

  mutable std::mutex mutex_;
  std::vector<std::uint8_t> scratch_;  ///< reusable frame buffer
  std::vector<std::uint8_t> buffer_;   ///< pending frames (group commit)
  int fd_ = -1;
  std::uint64_t next_seq_;
  std::uint64_t appends_ = 0;
  std::uint64_t appends_since_sync_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t bytes_appended_ = 0;
};

}  // namespace bussense
