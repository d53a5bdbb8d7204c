#include "core/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/wire.h"

namespace bussense {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'C', 'K', 'P', 'T', '1', '\n'};

std::string checkpoint_name(std::uint64_t id) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "checkpoint-%020llu.ckpt",
                static_cast<unsigned long long>(id));
  return buf;
}

/// Parses "checkpoint-<id>.ckpt"; false for anything else (tmps included).
bool parse_checkpoint_name(const std::string& name, std::uint64_t* id) {
  constexpr char prefix[] = "checkpoint-";
  constexpr char suffix[] = ".ckpt";
  if (name.size() <= sizeof(prefix) - 1 + sizeof(suffix) - 1) return false;
  if (name.compare(0, sizeof(prefix) - 1, prefix) != 0) return false;
  if (name.compare(name.size() - (sizeof(suffix) - 1), sizeof(suffix) - 1,
                   suffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(
      sizeof(prefix) - 1, name.size() - (sizeof(prefix) - 1) - (sizeof(suffix) - 1));
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

std::vector<std::pair<std::uint64_t, std::filesystem::path>>
list_checkpoints_newest_first(const std::string& directory) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(directory, ec)) {
    std::uint64_t id = 0;
    if (parse_checkpoint_name(entry.path().filename().string(), &id)) {
      out.emplace_back(id, entry.path());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

void fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;  // best effort (e.g. directories on odd filesystems)
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(std::uint64_t id,
                                            const CheckpointState& state) {
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof kMagic);
  const auto u8 = [&](bool v) { *wire::grow(out, 1) = v ? 1 : 0; };
  const auto u32 = [&](auto v) {
    wire::put_u32(wire::grow(out, 4), static_cast<std::uint32_t>(v));
  };
  const auto u64 = [&](auto v) {
    wire::put_u64(wire::grow(out, 8), static_cast<std::uint64_t>(v));
  };
  const auto f64 = [&](double v) { wire::put_f64(wire::grow(out, 8), v); };
  u64(id);
  u32(state.covers_seq.size());
  for (const std::uint64_t seq : state.covers_seq) u64(seq);
  u64(state.trips_processed);
  u32(state.fusion.size());
  for (const FusionExportEntry& entry : state.fusion) {
    u32(entry.key.from);
    u32(entry.key.to);
    u8(entry.fused.has_value());
    if (entry.fused) {
      f64(entry.fused->mean_kmh);
      f64(entry.fused->variance);
      f64(entry.fused->updated_at);
      u32(entry.fused->observation_count);
    }
    u32(entry.pending.size());
    for (const auto& [period, values] : entry.pending) {
      u64(period);
      u32(values.size());
      for (const double v : values) f64(v);
    }
  }
  u32(state.admission.size());
  for (const AdmissionCheckpoint& adm : state.admission) {
    u32(adm.lru_oldest_first.size());
    for (const std::uint64_t sig : adm.lru_oldest_first) u64(sig);
    u32(adm.skew_offsets.size());
    for (const auto& [participant, offset] : adm.skew_offsets) {
      u32(participant);
      f64(offset);
    }
    u8(adm.have_watermark);
    f64(adm.watermark);
  }
  u32(crc32(out.data() + sizeof kMagic, out.size() - sizeof kMagic));
  return out;
}

bool decode_checkpoint(const std::uint8_t* data, std::size_t size,
                       std::uint64_t* id, CheckpointState* state) {
  if (size < sizeof kMagic + 4 ||
      std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    return false;
  }
  const std::size_t body = size - sizeof kMagic - 4;
  wire::Reader crc_reader{data + sizeof kMagic + body, 4};
  std::uint32_t crc = 0;
  crc_reader.u32(&crc);
  if (crc32(data + sizeof kMagic, body) != crc) return false;

  wire::Reader r{data + sizeof kMagic, body};
  std::uint32_t n_segments = 0;
  if (!r.u64(id) || !r.count(&n_segments, 8)) return false;
  state->covers_seq.assign(n_segments, 0);
  for (std::uint32_t i = 0; i < n_segments; ++i) {
    if (!r.u64(&state->covers_seq[i])) return false;
  }
  if (!r.u64(&state->trips_processed)) return false;

  std::uint32_t n_fusion = 0;
  if (!r.count(&n_fusion, 13)) return false;
  state->fusion.clear();
  state->fusion.reserve(n_fusion);
  for (std::uint32_t i = 0; i < n_fusion; ++i) {
    FusionExportEntry entry;
    std::uint32_t from = 0, to = 0;
    std::uint8_t has_fused = 0;
    if (!r.u32(&from) || !r.u32(&to) || !r.u8(&has_fused)) return false;
    entry.key.from = static_cast<StopId>(static_cast<std::int32_t>(from));
    entry.key.to = static_cast<StopId>(static_cast<std::int32_t>(to));
    if (has_fused) {
      FusedSpeed fused;
      std::uint32_t observations = 0;
      if (!r.f64(&fused.mean_kmh) || !r.f64(&fused.variance) ||
          !r.f64(&fused.updated_at) || !r.u32(&observations)) {
        return false;
      }
      fused.observation_count = static_cast<int>(observations);
      entry.fused = fused;
    }
    std::uint32_t n_pending = 0;
    if (!r.count(&n_pending, 12)) return false;
    entry.pending.reserve(n_pending);
    for (std::uint32_t p = 0; p < n_pending; ++p) {
      std::uint64_t period = 0;
      std::uint32_t n_values = 0;
      if (!r.u64(&period) || !r.count(&n_values, 8)) return false;
      std::vector<double> values(n_values, 0.0);
      for (std::uint32_t v = 0; v < n_values; ++v) {
        if (!r.f64(&values[v])) return false;
      }
      entry.pending.emplace_back(static_cast<std::int64_t>(period),
                                 std::move(values));
    }
    state->fusion.push_back(std::move(entry));
  }

  std::uint32_t n_admission = 0;
  if (!r.count(&n_admission, 17)) return false;
  state->admission.clear();
  state->admission.reserve(n_admission);
  for (std::uint32_t i = 0; i < n_admission; ++i) {
    AdmissionCheckpoint adm;
    std::uint32_t n_lru = 0;
    if (!r.count(&n_lru, 8)) return false;
    adm.lru_oldest_first.assign(n_lru, 0);
    for (std::uint32_t s = 0; s < n_lru; ++s) {
      if (!r.u64(&adm.lru_oldest_first[s])) return false;
    }
    std::uint32_t n_skew = 0;
    if (!r.count(&n_skew, 12)) return false;
    adm.skew_offsets.reserve(n_skew);
    for (std::uint32_t s = 0; s < n_skew; ++s) {
      std::uint32_t participant = 0;
      double offset = 0.0;
      if (!r.u32(&participant) || !r.f64(&offset)) return false;
      adm.skew_offsets.emplace_back(static_cast<std::int32_t>(participant),
                                    offset);
    }
    std::uint8_t have_watermark = 0;
    if (!r.u8(&have_watermark) || !r.f64(&adm.watermark)) return false;
    adm.have_watermark = have_watermark != 0;
    state->admission.push_back(std::move(adm));
  }
  return r.pos == body;
}

std::optional<LoadedCheckpoint> load_latest_checkpoint(
    const std::string& directory) {
  std::vector<std::uint8_t> bytes;
  for (const auto& [id, path] : list_checkpoints_newest_first(directory)) {
    if (!wire::read_file(path.string(), &bytes)) continue;
    LoadedCheckpoint loaded;
    if (decode_checkpoint(bytes.data(), bytes.size(), &loaded.id,
                          &loaded.state)) {
      return loaded;
    }
    // Corrupt/half-written: skip, an older valid checkpoint (or a full WAL
    // replay) still recovers.
  }
  return std::nullopt;
}

void save_checkpoint_file(const std::string& directory, std::uint64_t id,
                          const CheckpointState& state) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(id, state);
  const std::filesystem::path dir(directory);
  const std::filesystem::path tmp = dir / (checkpoint_name(id) + ".tmp");
  const std::filesystem::path final_path = dir / checkpoint_name(id);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("cannot create checkpoint " + tmp.string() +
                             ": " + std::strerror(errno));
  }
  // Nothing lists `.tmp` names, so a failed save must remove its own.
  const auto fail = [&](const char* what, const std::string& why) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return std::runtime_error(std::string("checkpoint ") + what +
                              " failed: " + tmp.string() + ": " + why);
  };
  const char* what = "write";
  int err = wire::write_all(fd, bytes.data(), bytes.size());
  if (err == 0 && ::fsync(fd) != 0) {
    err = errno;
    what = "fsync";
  }
  ::close(fd);
  if (err != 0) throw fail(what, std::strerror(err));
  std::error_code ec;
  std::filesystem::rename(tmp, final_path, ec);
  if (ec) throw fail("rename", ec.message());
  fsync_path(directory);
}

void prune_checkpoints(const std::string& directory, std::size_t keep) {
  const auto checkpoints = list_checkpoints_newest_first(directory);
  for (std::size_t i = keep; i < checkpoints.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(checkpoints[i].second, ec);
  }
}

// -------------------------------------------------------- DurabilityManager

DurabilityManager::DurabilityManager(DurabilityConfig config,
                                     std::size_t segments)
    : config_(std::move(config)), segment_count_(std::max<std::size_t>(1, segments)) {
  config_.validate();
}

std::string DurabilityManager::segment_path(std::size_t segment) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "trips-%04zu.wal", segment);
  return (std::filesystem::path(config_.directory) / buf).string();
}

DurabilityManager::Recovery DurabilityManager::open() {
  if (opened()) throw std::logic_error("DurabilityManager::open called twice");
  std::filesystem::create_directories(config_.directory);

  // A directory written with another segment count would silently recover
  // a subset of its trips, or apply covers_seq to the wrong segments.
  const auto refuse = [&](std::size_t written) {
    return std::runtime_error(
        "DurabilityManager: " + config_.directory + " was written with " +
        std::to_string(written) + " WAL segments, opened with " +
        std::to_string(segment_count_));
  };
  std::size_t written = 0;
  std::vector<std::filesystem::path> stale_temps;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.directory)) {
    const std::string name = entry.path().filename().string();
    unsigned index = 0;
    char trailing = 0;
    if (std::sscanf(name.c_str(), "trips-%u.wal%c", &index, &trailing) == 1) {
      written = std::max<std::size_t>(written, index + std::size_t{1});
    }
    if (name.starts_with("checkpoint-") && name.ends_with(".tmp")) {
      stale_temps.push_back(entry.path());
    }
  }
  if (written > segment_count_) throw refuse(written);
  // A save that crashed before its rename leaves its temp file behind, and
  // nothing else lists `.tmp` names: remove them here.
  for (const auto& path : stale_temps) {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }

  Recovery recovery;
  recovery.checkpoint = load_latest_checkpoint(config_.directory);
  if (recovery.checkpoint) {
    const std::size_t covered = recovery.checkpoint->state.covers_seq.size();
    if (covered != segment_count_) throw refuse(covered);
    next_checkpoint_id_ = recovery.checkpoint->id + 1;
    last_checkpoint_id_ = recovery.checkpoint->id;
  }
  recovery.replay.resize(segment_count_);
  recovery.recovered_trips.assign(segment_count_, 0);
  writers_.reserve(segment_count_);
  std::uint64_t replayed = 0;
  for (std::size_t i = 0; i < segment_count_; ++i) {
    WalScanResult scan = scan_trip_log(segment_path(i), /*repair=*/true);
    recovery.truncated_tail_bytes += scan.truncated_tail_bytes;
    recovery.duplicate_records += scan.duplicate_records;
    recovery.recovered_trips[i] = scan.trip_records;
    const std::uint64_t covers =
        recovery.checkpoint ? recovery.checkpoint->state.covers_seq[i] : 0;
    for (WalRecord& record : scan.records) {
      if (record.seq > covers) {
        recovery.replay[i].push_back(std::move(record));
      }
    }
    replayed += recovery.replay[i].size();
    writers_.push_back(std::make_unique<TripLogWriter>(
        segment_path(i), config_.fsync, config_.fsync_interval_records,
        scan.next_seq));
    writers_.back()->bind_fsync_counter(inst_.fsyncs);
  }
  if (inst_.recovered_records) inst_.recovered_records->add(replayed);
  if (inst_.truncated_tail_bytes) {
    inst_.truncated_tail_bytes->add(recovery.truncated_tail_bytes);
  }
  return recovery;
}

std::uint64_t DurabilityManager::append_trip(std::size_t segment,
                                             const TripUpload& trip,
                                             const AdmitInfo& info) {
  const TripLogWriter::AppendResult result = writers_[segment]->append_trip(
      info.signature, info.skew_offset_s, trip);
  if (inst_.appends) inst_.appends->inc();
  if (inst_.bytes_appended) inst_.bytes_appended->add(result.bytes);
  return result.seq;
}

void DurabilityManager::append_time_mark(SimTime now) {
  for (auto& writer : writers_) {
    const TripLogWriter::AppendResult result = writer->append_time_mark(now);
    if (inst_.appends) inst_.appends->inc();
    if (inst_.bytes_appended) inst_.bytes_appended->add(result.bytes);
  }
}

std::uint64_t DurabilityManager::save_checkpoint(CheckpointState state) {
  // WAL-before-checkpoint barrier: every record covers_seq claims must be
  // durable before the checkpoint that skips replaying it.
  state.covers_seq.resize(writers_.size());
  for (std::size_t i = 0; i < writers_.size(); ++i) {
    writers_[i]->sync();
    state.covers_seq[i] = writers_[i]->last_seq();
  }
  const std::uint64_t id = next_checkpoint_id_++;
  save_checkpoint_file(config_.directory, id, state);
  prune_checkpoints(config_.directory, config_.checkpoints_kept);
  last_checkpoint_id_ = id;
  if (inst_.checkpoints) inst_.checkpoints->inc();
  return id;
}

void DurabilityManager::close() {
  for (auto& writer : writers_) writer->close();
}

void DurabilityManager::bind_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    inst_ = Instruments{};
  } else {
    inst_.appends = &registry->counter("durability.appends");
    inst_.fsyncs = &registry->counter("durability.fsyncs");
    inst_.bytes_appended = &registry->counter("durability.bytes_appended");
    inst_.checkpoints = &registry->counter("durability.checkpoints");
    inst_.recovered_records =
        &registry->counter("durability.recovered_records");
    inst_.truncated_tail_bytes =
        &registry->counter("durability.truncated_tail_bytes");
  }
  // Fsyncs complete on each writer's syncer thread, so the writers count
  // them themselves.
  for (auto& writer : writers_) writer->bind_fsync_counter(inst_.fsyncs);
}

}  // namespace bussense
