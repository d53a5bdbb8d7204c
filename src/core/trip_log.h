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

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_time.h"
#include "core/config_common.h"
#include "sensing/trip.h"

namespace bussense {

class Counter;

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

/// Crash-test seam, not a setting: while held, every synced hand-off that
/// a TripLogWriter of this process makes is written and then parked before
/// its fdatasync, so a test that kills the process kills it with that sync
/// in flight. A hand-off takes the hold as it stands when the appender makes
/// it. Releasing the hold lets the parked syncers go on.
namespace wal_test_seam {
void hold(bool held);
/// Blocks until a syncer is parked at the hold.
void wait_parked();
}  // namespace wal_test_seam

/// Appender for one WAL segment. Thread-safe (internal mutex), though each
/// segment has one writer in practice (the shard that owns it). The caller
/// scans (and repairs) the segment first and seeds `next_seq` from the scan.
///
/// Frames are encoded in place into an active buffer; a syncer thread
/// owned by the writer does all the disk work. A hand-off swaps the active
/// buffer with the syncer's idle one, which the syncer write()s and, when
/// asked, fdatasyncs. The policy only picks when hand-offs happen and
/// whether the append waits: kEveryRecord hands off with a sync on every
/// append and waits for it; kInterval hands off with a sync every
/// `fsync_interval` appends and blocks only when the previous interval is
/// still in flight, so at most 2 × `fsync_interval` appended records are
/// not yet durable; kNever hands off without a sync every kFlushThreshold
/// bytes. The syncer is the only thread that writes to the file, so frames
/// reach it in seq order; a failed write or sync is latched, never counted
/// as synced, and thrown by the next append, sync() or close().
class TripLogWriter {
 public:
  TripLogWriter(std::string path, FsyncPolicy policy,
                std::uint64_t fsync_interval, std::uint64_t next_seq);
  /// close()s the writer (joining the syncer); errors are swallowed here
  /// and surface only through an explicit close().
  ~TripLogWriter();

  TripLogWriter(const TripLogWriter&) = delete;
  TripLogWriter& operator=(const TripLogWriter&) = delete;

  struct AppendResult {
    std::uint64_t seq = 0;
    std::size_t bytes = 0;  ///< frame bytes appended
  };

  /// Assigns the next seq (the record's own is ignored), frames and
  /// appends the record, applies the fsync policy. Throws
  /// std::runtime_error on an I/O failure latched by the syncer (an
  /// ingest tier must not silently drop durability).
  AppendResult append(const WalRecord& record);

  /// Hot-path variants: same frame bytes as append() with a WalRecord of
  /// the matching type, without materialising one (no TripUpload copy).
  AppendResult append_trip(std::uint64_t signature, double skew_offset_s,
                           const TripUpload& trip);
  AppendResult append_time_mark(SimTime mark_time);

  /// Full barrier (checkpoint prologue / close): returns once every record
  /// appended so far is written and fdatasync'ed. Throws on I/O failure.
  void sync();

  /// sync() + stop the syncer + close the descriptor; further appends
  /// throw. Idempotent; the descriptor is closed even when the final sync
  /// throws.
  void close();

  /// Counts every completed fsync into `counter` from now on (null stops).
  void bind_fsync_counter(Counter* counter);

  const std::string& path() const { return path_; }
  std::uint64_t last_seq() const;
  /// Highest seq this writer has written and synced (0 before its first
  /// sync).
  std::uint64_t synced_seq() const;
  std::uint64_t appends() const;
  std::uint64_t fsyncs() const;
  std::uint64_t bytes_appended() const;

 private:
  /// Group-commit write() granularity: frames buffer in user space up to
  /// this many bytes before an unsynced hand-off; every synced hand-off
  /// carries what is buffered, so every durability bound holds.
  static constexpr std::size_t kFlushThreshold = 256 * 1024;

  void check_open_locked();
  std::uint8_t* frame_locked(std::size_t payload_size);
  AppendResult commit_frame_locked(std::size_t payload_size);
  void sync_locked();
  void hand_off_locked(bool sync);
  void wait_idle_locked();
  void record_sync(std::uint64_t seq);
  void syncer_loop();

  std::string path_;
  FsyncPolicy policy_;
  std::uint64_t fsync_interval_;

  mutable std::mutex mutex_;           ///< the appending side
  std::vector<std::uint8_t> active_;   ///< frames not yet handed off
  int fd_ = -1;
  std::uint64_t next_seq_;
  std::uint64_t appends_ = 0;
  std::uint64_t appends_since_sync_ = 0;
  std::uint64_t bytes_appended_ = 0;

  std::mutex sync_mutex_;  ///< the hand-off to the syncer; after mutex_
  std::condition_variable work_;  ///< in_flight_ or stop_ set
  std::condition_variable idle_;  ///< in_flight_ cleared
  std::vector<std::uint8_t> in_flight_buffer_;  ///< the syncer's while in flight
  bool in_flight_ = false;
  bool in_flight_sync_ = false;  ///< fdatasync after the write
  bool in_flight_held_ = false;  ///< park at wal_test_seam's hold before it
  std::uint64_t in_flight_seq_ = 0;  ///< last seq in the buffer
  bool stop_ = false;
  std::string error_;  ///< latched syncer failure
  std::atomic<bool> failed_{false};  ///< error_ is set

  std::atomic<std::uint64_t> fsyncs_{0};
  std::atomic<std::uint64_t> synced_seq_{0};
  std::atomic<Counter*> fsync_counter_{nullptr};
  std::thread syncer_;  ///< last, after everything it uses
};

}  // namespace bussense
