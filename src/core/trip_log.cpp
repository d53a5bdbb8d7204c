#include "core/trip_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>

#include "core/wire.h"
#include "obs/metrics.h"

namespace bussense {

namespace {

constexpr std::uint8_t kMagic[8] = {'B', 'S', 'W', 'A', 'L', '0', '1', '\n'};
constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 crc

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table, and
// table[k][b] = crc of byte b followed by k zero bytes — 8 bytes per loop
// iteration instead of 1 on the append hot path.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[k][i] =
          tables[0][tables[k - 1][i] & 0xffu] ^ (tables[k - 1][i] >> 8);
    }
  }
  return tables;
}

// wal_test_seam's state. An appender reads g_sync_held once per synced
// hand-off; the mutex, condition and count serve only a test that holds.
std::atomic<bool> g_sync_held{false};
std::mutex g_hold_mutex;
std::condition_variable g_hold_changed;  ///< hold released or a syncer parked
std::size_t g_parked_syncs = 0;

// A syncer whose hand-off was made under the hold waits here, between its
// write() and its fdatasync, until the hold is released.
void park_at_hold() {
  std::unique_lock<std::mutex> lock(g_hold_mutex);
  ++g_parked_syncs;
  g_hold_changed.notify_all();
  g_hold_changed.wait(
      lock, [] { return !g_sync_held.load(std::memory_order_relaxed); });
  --g_parked_syncs;
}

}  // namespace

namespace wal_test_seam {

void hold(bool held) {
  {
    const std::lock_guard<std::mutex> lock(g_hold_mutex);
    g_sync_held.store(held, std::memory_order_relaxed);
  }
  g_hold_changed.notify_all();
}

void wait_parked() {
  std::unique_lock<std::mutex> lock(g_hold_mutex);
  g_hold_changed.wait(lock, [] { return g_parked_syncs > 0; });
}

}  // namespace wal_test_seam

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::array<std::uint32_t, 256>, 8> t =
      make_crc_tables();
  std::uint32_t c = 0xffffffffu;
  std::size_t i = 0;
  for (; size - i >= 8; i += 8) {
    std::uint32_t lo = 0;
    std::memcpy(&lo, data + i, 4);  // little-endian hosts only (asserted
    lo ^= c;                        // by the fixed-width wire format)
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
        t[4][lo >> 24] ^ t[3][data[i + 4]] ^ t[2][data[i + 5]] ^
        t[1][data[i + 6]] ^ t[0][data[i + 7]];
  }
  for (; i < size; ++i) {
    c = t[0][(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

namespace {

std::size_t trip_payload_size(const TripUpload& trip) {
  std::size_t n = 1 + 8 + 8 + 8 + 4 + 4;  // type|seq|sig|skew|participant|count
  for (const CellularSample& sample : trip.samples) {
    n += 8 + 2;
    for (const CellId cell : sample.fingerprint.cells) {
      n += wire::varint_size(static_cast<std::uint32_t>(cell));
    }
  }
  return n;
}

constexpr std::size_t kTimeMarkPayloadSize = 1 + 8 + 8;  // type|seq|time

// Both encoders write exactly their payload size at `p`.
void encode_trip_payload(std::uint8_t* p, std::uint64_t seq,
                         std::uint64_t signature, double skew_offset_s,
                         const TripUpload& trip) {
  *p++ = static_cast<std::uint8_t>(WalRecordType::kTrip);
  p = wire::put_u64(p, seq);
  p = wire::put_u64(p, signature);
  p = wire::put_f64(p, skew_offset_s);
  p = wire::put_u32(p, static_cast<std::uint32_t>(trip.participant_id));
  p = wire::put_u32(p, static_cast<std::uint32_t>(trip.samples.size()));
  for (const CellularSample& sample : trip.samples) {
    p = wire::put_f64(p, sample.time);
    p = wire::put_u16(p, static_cast<std::uint16_t>(sample.fingerprint.size()));
    for (const CellId cell : sample.fingerprint.cells) {
      p = wire::put_varint(p, static_cast<std::uint32_t>(cell));
    }
  }
}

void encode_time_mark_payload(std::uint8_t* p, std::uint64_t seq,
                              SimTime mark_time) {
  *p++ = static_cast<std::uint8_t>(WalRecordType::kTimeMark);
  p = wire::put_u64(p, seq);
  wire::put_f64(p, mark_time);
}

std::string io_error(const char* what, const std::string& path, int err) {
  return std::string("trip log ") + what + " failed: " + path + ": " +
         std::strerror(err);
}

int data_sync(int fd) {
#ifdef __linux__
  // fdatasync still flushes the size change needed to read the appended
  // bytes back; it skips only timestamps — cheaper on ext4.
  return ::fdatasync(fd) == 0 ? 0 : errno;
#else
  return ::fsync(fd) == 0 ? 0 : errno;
#endif
}

}  // namespace

std::vector<std::uint8_t> encode_wal_payload(const WalRecord& record) {
  std::vector<std::uint8_t> out;
  if (record.type == WalRecordType::kTimeMark) {
    encode_time_mark_payload(wire::grow(out, kTimeMarkPayloadSize), record.seq,
                             record.mark_time);
  } else {
    encode_trip_payload(wire::grow(out, trip_payload_size(record.trip)),
                        record.seq, record.signature, record.skew_offset_s,
                        record.trip);
  }
  return out;
}

bool decode_wal_payload(const std::uint8_t* data, std::size_t size,
                        WalRecord* out) {
  wire::Reader r{data, size};
  std::uint8_t type = 0;
  if (!r.u8(&type) || !r.u64(&out->seq)) return false;
  if (type == static_cast<std::uint8_t>(WalRecordType::kTimeMark)) {
    out->type = WalRecordType::kTimeMark;
    return r.f64(&out->mark_time) && r.pos == size;
  }
  if (type != static_cast<std::uint8_t>(WalRecordType::kTrip)) return false;
  out->type = WalRecordType::kTrip;
  std::uint32_t participant = 0;
  std::uint32_t n_samples = 0;
  // A sample costs at least 10 bytes (time + cell count).
  if (!r.u64(&out->signature) || !r.f64(&out->skew_offset_s) ||
      !r.u32(&participant) || !r.count(&n_samples, 10)) {
    return false;
  }
  out->trip.participant_id = static_cast<std::int32_t>(participant);
  out->trip.samples.clear();
  out->trip.samples.reserve(n_samples);
  for (std::uint32_t i = 0; i < n_samples; ++i) {
    CellularSample sample;
    std::uint16_t n_cells = 0;
    if (!r.f64(&sample.time) || !r.u16(&n_cells)) return false;
    if (n_cells > size - r.pos) return false;  // a cell varint is >= 1 byte
    sample.fingerprint.cells.reserve(n_cells);
    for (std::uint16_t c = 0; c < n_cells; ++c) {
      std::uint32_t cell = 0;
      if (!r.varint(&cell)) return false;
      sample.fingerprint.cells.push_back(static_cast<CellId>(cell));
    }
    out->trip.samples.push_back(std::move(sample));
  }
  return r.pos == size;
}

WalScanResult scan_trip_log(const std::string& path, bool repair) {
  WalScanResult result;
  std::vector<std::uint8_t> bytes;
  if (!wire::read_file(path, &bytes)) return result;  // missing == empty log

  std::size_t pos = 0;
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    // No valid header: the whole file is a torn tail (unless empty).
    result.torn = !bytes.empty();
    result.truncated_tail_bytes = bytes.size();
  } else {
    pos = sizeof kMagic;
    std::uint64_t last_seq = 0;
    while (pos < bytes.size()) {
      const std::size_t remaining = bytes.size() - pos;
      if (remaining < kFrameHeader) break;  // torn frame header
      wire::Reader header{bytes.data() + pos, kFrameHeader};
      std::uint32_t length = 0, crc = 0;
      header.u32(&length);
      header.u32(&crc);
      if (length > remaining - kFrameHeader) break;  // overruns the file
      const std::uint8_t* payload = bytes.data() + pos + kFrameHeader;
      if (crc32(payload, length) != crc) break;  // bit flip / torn payload
      WalRecord record;
      if (!decode_wal_payload(payload, length, &record)) break;
      // A duplicated block replays already-seen seqs: skip, never re-apply.
      if (record.seq > last_seq) {
        last_seq = record.seq;
        if (record.type == WalRecordType::kTrip) ++result.trip_records;
        result.records.push_back(std::move(record));
      } else {
        ++result.duplicate_records;
      }
      pos += kFrameHeader + length;
    }
    result.next_seq = last_seq + 1;
    if (pos < bytes.size()) {
      result.torn = true;
      result.truncated_tail_bytes = bytes.size() - pos;
    }
  }

  if (repair && result.torn) {
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      throw std::runtime_error("trip log repair failed: " + path + ": " +
                               std::strerror(errno));
    }
  }
  return result;
}

// ------------------------------------------------------------ TripLogWriter

TripLogWriter::TripLogWriter(std::string path, FsyncPolicy policy,
                             std::uint64_t fsync_interval,
                             std::uint64_t next_seq)
    : path_(std::move(path)),
      policy_(policy),
      fsync_interval_(fsync_interval),
      next_seq_(next_seq) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("cannot open trip log " + path_ + ": " +
                             std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) == 0 && st.st_size == 0) {
    if (const int err = wire::write_all(fd_, kMagic, sizeof kMagic)) {
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error(io_error("header write", path_, err));
    }
  }
  syncer_ = std::thread([this] { syncer_loop(); });
}

TripLogWriter::~TripLogWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; close() failures surface on explicit use.
  }
}

void TripLogWriter::check_open_locked() {
  if (fd_ < 0) throw std::runtime_error("append on closed trip log " + path_);
  if (failed_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(sync_mutex_);
    throw std::runtime_error(error_);
  }
}

TripLogWriter::AppendResult TripLogWriter::append(const WalRecord& record) {
  if (record.type == WalRecordType::kTimeMark) {
    return append_time_mark(record.mark_time);
  }
  return append_trip(record.signature, record.skew_offset_s, record.trip);
}

TripLogWriter::AppendResult TripLogWriter::append_trip(std::uint64_t signature,
                                                       double skew_offset_s,
                                                       const TripUpload& trip) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_open_locked();
  const std::size_t size = trip_payload_size(trip);
  encode_trip_payload(frame_locked(size), next_seq_, signature, skew_offset_s,
                      trip);
  return commit_frame_locked(size);
}

TripLogWriter::AppendResult TripLogWriter::append_time_mark(SimTime mark_time) {
  const std::lock_guard<std::mutex> lock(mutex_);
  check_open_locked();
  encode_time_mark_payload(frame_locked(kTimeMarkPayloadSize), next_seq_,
                           mark_time);
  return commit_frame_locked(kTimeMarkPayloadSize);
}

// Grows active_ by one frame and returns where its payload goes; the
// 8-byte header is filled in by commit_frame_locked().
std::uint8_t* TripLogWriter::frame_locked(std::size_t payload_size) {
  return wire::grow(active_, kFrameHeader + payload_size) + kFrameHeader;
}

// The last frame of active_ holds its payload (seq encoded as next_seq_):
// CRCs it in place, patches the header and applies the fsync policy.
TripLogWriter::AppendResult TripLogWriter::commit_frame_locked(
    std::size_t payload_size) {
  const std::size_t frame_size = kFrameHeader + payload_size;
  std::uint8_t* frame = active_.data() + active_.size() - frame_size;
  const std::uint32_t length = static_cast<std::uint32_t>(payload_size);
  wire::put_u32(wire::put_u32(frame, length),
                crc32(frame + kFrameHeader, length));
  const AppendResult result{next_seq_++, frame_size};
  ++appends_;
  ++appends_since_sync_;
  bytes_appended_ += frame_size;
  // Group commit: frames reach the syncer in one hand-off per interval or
  // per kFlushThreshold bytes; kEveryRecord syncs each record before the
  // append returns.
  if (policy_ == FsyncPolicy::kEveryRecord) {
    sync_locked();
  } else if (policy_ == FsyncPolicy::kInterval &&
             appends_since_sync_ >= fsync_interval_) {
    hand_off_locked(/*sync=*/true);
  } else if (active_.size() >= kFlushThreshold) {
    hand_off_locked(/*sync=*/false);
  }
  return result;
}

// Hands off what is unsynced with an fdatasync and waits for the syncer.
void TripLogWriter::sync_locked() {
  if (fd_ < 0) return;
  if (appends_since_sync_ > 0) hand_off_locked(/*sync=*/true);
  wait_idle_locked();
}

// Swaps active_ with the syncer's idle buffer once the previous hand-off
// has finished (the only place an appender waits for the disk).
void TripLogWriter::hand_off_locked(bool sync) {
  {
    std::unique_lock<std::mutex> lock(sync_mutex_);
    idle_.wait(lock, [&] { return !in_flight_; });
    if (!error_.empty()) throw std::runtime_error(error_);
    in_flight_buffer_.swap(active_);
    in_flight_ = true;
    in_flight_sync_ = sync;
    in_flight_held_ = sync && g_sync_held.load(std::memory_order_relaxed);
    in_flight_seq_ = next_seq_ - 1;
  }
  work_.notify_one();
  if (sync) appends_since_sync_ = 0;
}

void TripLogWriter::wait_idle_locked() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  idle_.wait(lock, [&] { return !in_flight_; });
  if (!error_.empty()) throw std::runtime_error(error_);
}

void TripLogWriter::record_sync(std::uint64_t seq) {
  synced_seq_.store(seq, std::memory_order_release);
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  if (Counter* counter = fsync_counter_.load(std::memory_order_acquire)) {
    counter->inc();
  }
}

// While in_flight_ is set the syncer owns in_flight_buffer_ and the
// descriptor; appenders touch neither until it clears the flag.
void TripLogWriter::syncer_loop() {
  std::unique_lock<std::mutex> lock(sync_mutex_);
  for (;;) {
    work_.wait(lock, [&] { return in_flight_ || stop_; });
    if (!in_flight_) return;
    const bool sync = in_flight_sync_;
    const bool held = in_flight_held_;
    const std::uint64_t seq = in_flight_seq_;
    lock.unlock();
    std::string error;
    if (const int err = wire::write_all(fd_, in_flight_buffer_.data(),
                                        in_flight_buffer_.size())) {
      error = io_error("append", path_, err);
    } else if (sync) {
      if (held) park_at_hold();
      if (const int serr = data_sync(fd_)) {
        error = io_error("fsync", path_, serr);
      } else {
        record_sync(seq);
      }
    }
    in_flight_buffer_.clear();
    lock.lock();
    if (!error.empty()) {
      error_ = std::move(error);
      failed_.store(true, std::memory_order_release);
    }
    in_flight_ = false;
    idle_.notify_all();
  }
}

void TripLogWriter::sync() {
  const std::lock_guard<std::mutex> lock(mutex_);
  sync_locked();
}

void TripLogWriter::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return;
  std::exception_ptr failure;
  try {
    sync_locked();
  } catch (...) {
    failure = std::current_exception();
  }
  {
    const std::lock_guard<std::mutex> sync_lock(sync_mutex_);
    stop_ = true;
  }
  work_.notify_one();
  syncer_.join();
  ::close(fd_);
  fd_ = -1;
  if (failure) std::rethrow_exception(failure);
}

void TripLogWriter::bind_fsync_counter(Counter* counter) {
  fsync_counter_.store(counter, std::memory_order_release);
}

std::uint64_t TripLogWriter::last_seq() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - 1;
}

std::uint64_t TripLogWriter::synced_seq() const {
  return synced_seq_.load(std::memory_order_acquire);
}

std::uint64_t TripLogWriter::appends() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appends_;
}

std::uint64_t TripLogWriter::fsyncs() const {
  return fsyncs_.load(std::memory_order_relaxed);
}

std::uint64_t TripLogWriter::bytes_appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_appended_;
}

}  // namespace bussense
