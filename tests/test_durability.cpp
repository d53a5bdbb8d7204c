// Durable ingest: write-ahead trip log + checkpoint/restore (DESIGN.md §14).
//
// The tentpole property: kill a durable ShardedIngestService mid-period at
// a randomized point, recover from the latest checkpoint + WAL suffix,
// resume the feed — the final fused TrafficMap must be byte-identical to
// an uninterrupted serial TrafficServer run, at 1 and 3 shards with
// admission on and off. A 1-shard service is the durable serial path. The fault half of
// the suite attacks the log bytes directly: torn tails are truncated, CRC
// failures end the scan, duplicated blocks are skipped, and a corrupt or
// half-written checkpoint falls back to an older valid one — corruption is
// never propagated into the fused state.
//
// Configure with -DBUSSENSE_SANITIZE=address,undefined to run this suite
// under ASan+UBSan (scripts/tier1.sh BUSSENSE_DURABILITY=ON does).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/admission.h"
#include "core/checkpoint.h"
#include "core/ingest_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "core/trip_log.h"
#include "obs/metrics.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

struct Testbed {
  World world;
  StopDatabase database;
  std::vector<AnnotatedTrip> trips;

  Testbed() {
    Rng survey_rng(2024);
    database = build_stop_database(
        world.city(),
        [&](StopId stop, int run) {
          return world.scan_stop(stop, survey_rng, run % 2 == 1);
        },
        5);
    Rng rng(77);
    trips = world.simulate_day(0, 1.2, rng).trips;
  }
};

const Testbed& testbed() {
  static const Testbed bed;
  return bed;
}

// Uploads the clean pipeline accepts, ordered by first-sample time so
// interleaved advance_time() calls respect the ingestor contract.
const std::vector<TripUpload>& sorted_uploads() {
  static const std::vector<TripUpload> uploads = [] {
    std::vector<TripUpload> out;
    for (const AnnotatedTrip& trip : testbed().trips) {
      if (!trip.upload.samples.empty()) out.push_back(trip.upload);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TripUpload& a, const TripUpload& b) {
                       return a.samples.front().time < b.samples.front().time;
                     });
    return out;
  }();
  return uploads;
}

// Canonical byte rendering of a snapshot: segments in key order, every
// float as %.17g — equal strings mean bit-identical fused maps (same idiom
// as the ingest identity suite).
std::string map_bytes(const TrafficMap& map) {
  std::vector<MapSegment> segments = map.segments();
  std::sort(segments.begin(), segments.end(),
            [](const MapSegment& a, const MapSegment& b) {
              return a.key.from != b.key.from ? a.key.from < b.key.from
                                              : a.key.to < b.key.to;
            });
  std::string out;
  char buf[160];
  for (const MapSegment& s : segments) {
    std::snprintf(buf, sizeof buf, "%d>%d %.17g %.17g %d %d;",
                  static_cast<int>(s.key.from), static_cast<int>(s.key.to),
                  s.speed_kmh, s.updated_at, s.observation_count,
                  static_cast<int>(s.level));
    out += buf;
  }
  return out;
}

// Fresh scratch directory per use; removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("bussense_test_durability_" +
            std::to_string(counter.fetch_add(1)) + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

std::vector<std::uint8_t> read_bytes(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

void write_bytes(const std::filesystem::path& p,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// Pipe I/O that survives short reads and writes.
bool write_full(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t read_full(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, p + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  return got;
}

// Admission arms disable skew re-anchoring: a corrected trip's samples are
// shifted back to the watermark, handing the fusion estimates for periods
// an earlier advance_time already closed — processing-order dependent by
// design (admission.h), exactly as in the cross-shard identity suite. The
// skew half of WAL replay has its own unit test below.
ServerConfig base_config(bool admission_on) {
  ServerConfig cfg;
  cfg.admission.enabled = admission_on;
  cfg.admission.max_clock_skew_s = 0.0;
  return cfg;
}

ServerConfig durable_config(const std::string& dir, bool admission_on,
                            FsyncPolicy policy = FsyncPolicy::kNever) {
  ServerConfig cfg = base_config(admission_on);
  cfg.durability.enabled = true;
  cfg.durability.directory = dir;
  cfg.durability.fsync = policy;
  return cfg;
}

ShardedIngestConfig sharding(std::size_t shards) {
  ShardedIngestConfig svc;
  svc.shards = shards;
  svc.queue_capacity = 64;
  return svc;
}

WalRecord trip_record(const TripUpload& upload) {
  WalRecord r;
  r.type = WalRecordType::kTrip;
  r.trip = upload;
  return r;
}

// ------------------------------------------------------------- validation

TEST(DurabilityConfigValidation, ThrowsOnNonsense) {
  const Testbed& bed = testbed();
  ServerConfig no_dir;
  no_dir.durability.enabled = true;
  EXPECT_THROW(ShardedIngestService(bed.world.city(), bed.database, no_dir),
               std::invalid_argument);

  TempDir dir;
  ServerConfig zero_interval = durable_config(dir.str(), false);
  zero_interval.durability.fsync = FsyncPolicy::kInterval;
  zero_interval.durability.fsync_interval_records = 0;
  EXPECT_THROW(
      ShardedIngestService(bed.world.city(), bed.database, zero_interval),
      std::invalid_argument);

  ServerConfig no_keep = durable_config(dir.str(), false);
  no_keep.durability.checkpoints_kept = 0;
  EXPECT_THROW(ShardedIngestService(bed.world.city(), bed.database, no_keep),
               std::invalid_argument);

  // Durability belongs to the service: the serial server refuses even a
  // valid durable config.
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database,
                             durable_config(dir.str(), false)),
               std::invalid_argument);

  // Disabled durability ignores the other knobs entirely.
  ServerConfig off;
  off.durability.fsync_interval_records = 0;
  ShardedIngestService ok(bed.world.city(), bed.database, off);
  EXPECT_FALSE(ok.open().durable);
}

// ------------------------------------------------------------- WAL format

TEST(WalPayload, RoundTripsAndEncodesDeterministically) {
  const auto& uploads = sorted_uploads();
  ASSERT_FALSE(uploads.empty());

  WalRecord trip = trip_record(uploads[0]);
  trip.seq = 7;
  trip.signature = 0xdeadbeefcafef00dULL;
  trip.skew_offset_s = -1.25;
  const std::vector<std::uint8_t> bytes = encode_wal_payload(trip);
  EXPECT_EQ(encode_wal_payload(trip), bytes);  // deterministic

  WalRecord back;
  ASSERT_TRUE(decode_wal_payload(bytes.data(), bytes.size(), &back));
  EXPECT_EQ(back.type, WalRecordType::kTrip);
  EXPECT_EQ(back.seq, 7u);
  EXPECT_EQ(back.signature, trip.signature);
  EXPECT_EQ(back.skew_offset_s, trip.skew_offset_s);
  EXPECT_EQ(back.trip, trip.trip);

  WalRecord mark;
  mark.type = WalRecordType::kTimeMark;
  mark.seq = 8;
  mark.mark_time = 12345.675;
  const std::vector<std::uint8_t> mbytes = encode_wal_payload(mark);
  WalRecord mback;
  ASSERT_TRUE(decode_wal_payload(mbytes.data(), mbytes.size(), &mback));
  EXPECT_EQ(mback.type, WalRecordType::kTimeMark);
  EXPECT_EQ(mback.seq, 8u);
  EXPECT_EQ(mback.mark_time, mark.mark_time);

  // Every strict prefix of a valid payload is rejected, never misdecoded.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    WalRecord ignored;
    EXPECT_FALSE(decode_wal_payload(bytes.data(), n, &ignored)) << n;
  }
}

TEST(TripLogWriter, SameInputYieldsByteIdenticalLogs) {
  const auto& uploads = sorted_uploads();
  const std::size_t n = std::min<std::size_t>(uploads.size(), 12);
  TempDir dir;
  const auto write_log = [&](const std::string& name) {
    TripLogWriter writer((dir.path / name).string(), FsyncPolicy::kNever, 256,
                         /*next_seq=*/1);
    for (std::size_t i = 0; i < n; ++i) {
      const auto res = writer.append(trip_record(uploads[i]));
      EXPECT_EQ(res.seq, i + 1);
      EXPECT_GT(res.bytes, 0u);
    }
    WalRecord mark;
    mark.type = WalRecordType::kTimeMark;
    mark.mark_time = 4242.0;
    writer.append(mark);
    writer.close();
  };
  write_log("a.wal");
  write_log("b.wal");
  const auto a = read_bytes(dir.path / "a.wal");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, read_bytes(dir.path / "b.wal"));

  const WalScanResult scan = scan_trip_log((dir.path / "a.wal").string(),
                                           /*repair=*/false);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), n + 1);
  EXPECT_EQ(scan.trip_records, n);
  EXPECT_EQ(scan.next_seq, n + 2);
  EXPECT_EQ(scan.duplicate_records, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(scan.records[i].seq, i + 1);
    EXPECT_EQ(scan.records[i].trip, uploads[i]);
  }
  EXPECT_EQ(scan.records.back().type, WalRecordType::kTimeMark);

  // A missing file is an empty log, not an error.
  const WalScanResult missing =
      scan_trip_log((dir.path / "nope.wal").string(), /*repair=*/false);
  EXPECT_TRUE(missing.records.empty());
  EXPECT_EQ(missing.next_seq, 1u);
  EXPECT_FALSE(missing.torn);
}

// Under kInterval the syncer writes the bytes kNever writes, and an
// appender is never more than two intervals ahead of the disk. The
// long-interval writer hands its buffer over at the 256 KiB flush mark
// instead, without a sync.
TEST(TripLogWriter, IntervalSyncerKeepsBytesAndLossBound) {
  const auto& uploads = sorted_uploads();
  const std::size_t n = 3 * uploads.size();
  constexpr std::uint64_t kEvery = 3;
  TempDir dir;
  MetricsRegistry registry;
  Counter& fsyncs = registry.counter("durability.fsyncs");
  std::uint64_t records = 0;
  {
    TripLogWriter inline_writer((dir.path / "never.wal").string(),
                                FsyncPolicy::kNever, 256, 1);
    TripLogWriter writer((dir.path / "interval.wal").string(),
                         FsyncPolicy::kInterval, kEvery, 1);
    TripLogWriter flushing((dir.path / "flushing.wal").string(),
                           FsyncPolicy::kInterval, 1u << 30, 1);
    writer.bind_fsync_counter(&fsyncs);
    for (std::size_t i = 0; i < n; ++i) {
      const WalRecord record = trip_record(uploads[i % uploads.size()]);
      inline_writer.append(record);
      flushing.append(record);
      EXPECT_EQ(writer.append(record).seq, ++records);
      if (i % 10 == 9) {
        const SimTime mark = 100.0 * static_cast<double>(i);
        inline_writer.append_time_mark(mark);
        flushing.append_time_mark(mark);
        writer.append_time_mark(mark);
        ++records;
      }
      EXPECT_LE(writer.last_seq() - writer.synced_seq(), 2 * kEvery) << i;
    }
    ASSERT_GT(flushing.bytes_appended(), 2u * 256 * 1024);
    writer.sync();  // a full barrier: everything is on disk
    EXPECT_EQ(writer.synced_seq(), records);
    inline_writer.close();
    EXPECT_EQ(read_bytes(dir.path / "interval.wal"),
              read_bytes(dir.path / "never.wal"));
    writer.close();  // nothing left to sync
    EXPECT_THROW(writer.append_time_mark(0.0), std::runtime_error);
    const std::uint64_t expected_syncs =
        records / kEvery + (records % kEvery != 0 ? 1 : 0);
    EXPECT_EQ(writer.fsyncs(), expected_syncs);
    EXPECT_EQ(fsyncs.value(), expected_syncs);
    flushing.close();
    EXPECT_EQ(flushing.fsyncs(), 1u);  // only the close() barrier
    EXPECT_EQ(flushing.synced_seq(), records);
  }
  const auto expected = read_bytes(dir.path / "never.wal");
  EXPECT_EQ(read_bytes(dir.path / "interval.wal"), expected);
  EXPECT_EQ(read_bytes(dir.path / "flushing.wal"), expected);
}

using Check = std::function<void(bool ok, const char* name)>;

constexpr ::rlim_t kFileSizeCap = 16 * 1024;

// Runs `body` in a forked child whose files cannot grow past kFileSizeCap
// (RLIMIT_FSIZE: a write past it fails with EFBIG and needs no
// privileges), so the limit stays out of the test runner. `body` reports
// each property through `check`; returns the names of those that did not
// hold, space-separated ("" when all did).
std::string failed_checks_under_file_size_cap(
    const std::function<void(const Check&)>& body) {
  int fds[2];
  if (::pipe(fds) != 0) return "pipe";
  const ::pid_t pid = ::fork();
  if (pid < 0) return "fork";
  if (pid == 0) {
    ::close(fds[0]);
    std::string failed;
    const Check check = [&](bool ok, const char* name) {
      if (!ok) failed += std::string(name) + " ";
    };
    const ::rlimit cap{kFileSizeCap, kFileSizeCap};
    check(::setrlimit(RLIMIT_FSIZE, &cap) == 0, "setrlimit");
    std::signal(SIGXFSZ, SIG_IGN);
    body(check);
    ::_exit(write_full(fds[1], failed.data(), failed.size()) ? 0 : 1);
  }
  ::close(fds[1]);
  std::string failed(4096, '\0');
  failed.resize(read_full(fds[0], failed.data(), failed.size()));
  ::close(fds[0]);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return "child-status-" + std::to_string(status);
  }
  return failed;
}

// A write the syncer cannot make (EFBIG past the file size cap) is
// latched: the next append, sync() and close() throw, the failed interval
// is never reported as synced, and on a shard the failed appends count as
// worker errors.
TEST(TripLogWriter, SyncerWriteFailureIsLatchedAndNeverSynced) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  TempDir dir;
  const std::string log = (dir.path / "capped.wal").string();
  EXPECT_EQ(failed_checks_under_file_size_cap([&](const Check& check) {
    {
      TripLogWriter writer(log, FsyncPolicy::kInterval, 4, 1);
      bool threw = false;
      for (std::size_t i = 0; i < 4 * uploads.size() && !threw; ++i) {
        try {
          writer.append(trip_record(uploads[i % uploads.size()]));
        } catch (const std::runtime_error&) {
          threw = true;
        }
      }
      check(threw, "append-throws");
      check(writer.synced_seq() > 0, "some-interval-synced");
      check(writer.synced_seq() < writer.last_seq(), "failed-interval-unsynced");
      bool sync_threw = false;
      try {
        writer.sync();
      } catch (const std::runtime_error&) {
        sync_threw = true;
      }
      check(sync_threw, "sync-throws");
      bool close_threw = false;
      try {
        writer.close();
      } catch (const std::runtime_error&) {
        close_threw = true;
      }
      check(close_threw, "close-throws");
      // Every seq reported synced is really in the file.
      const WalScanResult scan = scan_trip_log(log, /*repair=*/false);
      check(scan.next_seq - 1 >= writer.synced_seq(), "synced-on-disk");
    }
    {
      ServerConfig cfg = durable_config((dir.path / "service").string(),
                                        false, FsyncPolicy::kInterval);
      cfg.durability.fsync_interval_records = 4;
      ShardedIngestService service(bed.world.city(), bed.database, cfg,
                                   sharding(1));
      service.open();
      for (const TripUpload& upload : uploads) {
        check(service.process_trip(upload).accepted(), "queued");
      }
      service.drain();
      const MetricsSnapshot shard = service.shard_metrics();
      const auto errors = shard.counters.find("ingest.shard.worker_errors");
      check(errors != shard.counters.end() && errors->second > 0,
            "worker-errors");
      bool close_threw = false;
      try {
        service.close();
      } catch (const std::runtime_error&) {
        close_threw = true;
      }
      check(close_threw, "service-close-throws");
    }
  }), "");
}

// The same latch serves the other policies. Under kEveryRecord the append
// whose record cannot be written throws itself, with every earlier record
// synced; under kNever the appends only buffer, so the sync() barrier and
// close() throw. No policy ever reports a seq synced that is not on disk.
TEST(TripLogWriter, WriteFailureIsLatchedUnderEveryPolicy) {
  const auto& uploads = sorted_uploads();
  TempDir dir;
  const std::string every_log = (dir.path / "every.wal").string();
  const std::string never_log = (dir.path / "never.wal").string();
  const auto throws = [](auto&& op) {
    try {
      op();
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  EXPECT_EQ(failed_checks_under_file_size_cap([&](const Check& check) {
    {
      TripLogWriter writer(every_log, FsyncPolicy::kEveryRecord, 1, 1);
      std::uint64_t failed_seq = 0;
      for (std::size_t i = 0; i < 4 * uploads.size() && failed_seq == 0; ++i) {
        if (throws([&] {
              writer.append(trip_record(uploads[i % uploads.size()]));
            })) {
          failed_seq = writer.last_seq();
        }
      }
      check(failed_seq > 1, "every-append-throws");
      check(writer.synced_seq() + 1 == failed_seq, "every-earlier-synced");
      check(throws([&] { writer.append_time_mark(0.0); }),
            "every-next-append-throws");
      check(throws([&] { writer.sync(); }), "every-sync-throws");
      check(throws([&] { writer.close(); }), "every-close-throws");
      const WalScanResult scan = scan_trip_log(every_log, /*repair=*/false);
      check(scan.next_seq - 1 == writer.synced_seq(), "every-synced-on-disk");
      check(scan.torn, "every-failed-record-torn");
    }
    {
      TripLogWriter writer(never_log, FsyncPolicy::kNever, 256, 1);
      bool append_threw = false;
      for (std::size_t i = 0;
           writer.bytes_appended() < 4 * kFileSizeCap && !append_threw; ++i) {
        append_threw = throws([&] {
          writer.append(trip_record(uploads[i % uploads.size()]));
        });
      }
      check(!append_threw, "never-appends-only-buffer");
      check(throws([&] { writer.sync(); }), "never-sync-throws");
      check(throws([&] { writer.close(); }), "never-close-throws");
      check(writer.synced_seq() == 0, "never-nothing-synced");
      const WalScanResult scan = scan_trip_log(never_log, /*repair=*/false);
      check(scan.next_seq - 1 < writer.last_seq(), "never-log-is-short");
    }
  }), "");
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 0x100000001b3ULL;
  return h;
}

// The on-disk bytes are a compatibility contract: a WAL segment and a
// checkpoint written by a 1-shard durable service over a fixed slice of
// the testbed day must not move under any fsync policy. Re-pinning these
// needs a format change stated in CHANGES.md.
TEST(DurableBytes, WalAndCheckpointDigestsPinned) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  ASSERT_GE(uploads.size(), 60u);
  for (const FsyncPolicy policy : {FsyncPolicy::kNever, FsyncPolicy::kInterval,
                                   FsyncPolicy::kEveryRecord}) {
    TempDir dir;
    ServerConfig cfg = durable_config(dir.str(), true, policy);
    cfg.durability.fsync_interval_records = 4;
    ShardedIngestService service(bed.world.city(), bed.database, cfg,
                                 sharding(1));
    service.open();
    for (std::size_t i = 0; i < 60; ++i) {
      if (i == 40) service.advance_time(uploads[40].samples.front().time);
      ASSERT_TRUE(service.process_trip(uploads[i]).accepted());
    }
    EXPECT_EQ(service.checkpoint(), 1u);
    service.close();
    const auto wal = read_bytes(dir.path / "trips-0000.wal");
    const auto ckpt =
        read_bytes(dir.path / "checkpoint-00000000000000000001.ckpt");
    EXPECT_EQ(wal.size(), 94853u) << to_string(policy);
    EXPECT_EQ(fnv1a(wal), 0x0efb17858cef7979ULL) << to_string(policy);
    EXPECT_EQ(ckpt.size(), 10530u) << to_string(policy);
    EXPECT_EQ(fnv1a(ckpt), 0x709ab60e2daa0b4fULL) << to_string(policy);
  }
}

// Every truncation point of the log yields the longest valid prefix;
// repair shrinks the file so a subsequent scan is clean.
TEST(WalScan, TornTailTruncationSweep) {
  const auto& uploads = sorted_uploads();
  const std::size_t n = std::min<std::size_t>(uploads.size(), 6);
  TempDir dir;
  const std::filesystem::path full = dir.path / "full.wal";
  {
    TripLogWriter writer(full.string(), FsyncPolicy::kNever, 256, 1);
    for (std::size_t i = 0; i < n; ++i) writer.append(trip_record(uploads[i]));
    writer.close();
  }
  const std::vector<std::uint8_t> bytes = read_bytes(full);
  const WalScanResult clean = scan_trip_log(full.string(), /*repair=*/false);
  ASSERT_EQ(clean.records.size(), n);

  // Frame boundaries from the clean scan's payload sizes.
  std::vector<std::size_t> boundary = {8};  // after the magic
  for (const WalRecord& r : clean.records) {
    boundary.push_back(boundary.back() + 8 + encode_wal_payload(r).size());
  }
  ASSERT_EQ(boundary.back(), bytes.size());

  const std::filesystem::path cut_path = dir.path / "cut.wal";
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_bytes(cut_path,
                std::vector<std::uint8_t>(bytes.begin(),
                                          bytes.begin() +
                                              static_cast<std::ptrdiff_t>(cut)));
    const WalScanResult scan = scan_trip_log(cut_path.string(),
                                             /*repair=*/true);
    // Longest valid prefix: every whole frame at or before the cut.
    std::size_t want = 0, want_end = 8;
    while (want + 1 < boundary.size() && boundary[want + 1] <= cut) {
      want_end = boundary[++want];
    }
    ASSERT_EQ(scan.records.size(), want) << "cut " << cut;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(scan.records[i].seq, clean.records[i].seq) << "cut " << cut;
      EXPECT_EQ(scan.records[i].trip, clean.records[i].trip) << "cut " << cut;
    }
    if (cut < 8) {
      // Not even a magic: scanned as empty (and flagged torn when there
      // are stray bytes).
      EXPECT_EQ(scan.records.size(), 0u);
    } else {
      EXPECT_EQ(scan.torn, cut != want_end) << "cut " << cut;
      EXPECT_EQ(scan.truncated_tail_bytes, cut - want_end) << "cut " << cut;
      // Repair truncated the file to the valid prefix; a rescan is clean.
      EXPECT_EQ(std::filesystem::file_size(cut_path), want_end)
          << "cut " << cut;
      const WalScanResult again =
          scan_trip_log(cut_path.string(), /*repair=*/false);
      EXPECT_FALSE(again.torn) << "cut " << cut;
      EXPECT_EQ(again.records.size(), want) << "cut " << cut;
      EXPECT_EQ(again.next_seq, scan.next_seq) << "cut " << cut;
    }
  }
}

// A flipped bit anywhere in the log never produces a record that differs
// from the uncorrupted prefix — the CRC (or the decoder) ends the scan
// first.
TEST(WalScan, BitFlipsNeverPropagate) {
  const auto& uploads = sorted_uploads();
  const std::size_t n = std::min<std::size_t>(uploads.size(), 5);
  TempDir dir;
  const std::filesystem::path full = dir.path / "full.wal";
  {
    TripLogWriter writer(full.string(), FsyncPolicy::kNever, 256, 1);
    for (std::size_t i = 0; i < n; ++i) writer.append(trip_record(uploads[i]));
    writer.close();
  }
  const std::vector<std::uint8_t> bytes = read_bytes(full);
  const WalScanResult clean = scan_trip_log(full.string(), /*repair=*/false);
  ASSERT_EQ(clean.records.size(), n);
  std::vector<std::vector<std::uint8_t>> clean_payloads;
  for (const WalRecord& r : clean.records) {
    clean_payloads.push_back(encode_wal_payload(r));
  }

  const std::filesystem::path flip_path = dir.path / "flip.wal";
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> corrupt = bytes;
      corrupt[pos] ^= mask;
      write_bytes(flip_path, corrupt);
      const WalScanResult scan =
          scan_trip_log(flip_path.string(), /*repair=*/false);
      ASSERT_LE(scan.records.size(), clean.records.size())
          << "pos " << pos << " mask " << int(mask);
      for (std::size_t i = 0; i < scan.records.size(); ++i) {
        EXPECT_EQ(encode_wal_payload(scan.records[i]), clean_payloads[i])
            << "pos " << pos << " mask " << int(mask) << " record " << i;
      }
    }
  }
}

TEST(WalScan, DuplicatedBlockIsSkippedNotReplayedTwice) {
  const auto& uploads = sorted_uploads();
  TempDir dir;
  const std::filesystem::path log = dir.path / "dup.wal";
  {
    TripLogWriter writer(log.string(), FsyncPolicy::kNever, 256, 1);
    writer.append(trip_record(uploads[0]));
    writer.append(trip_record(uploads[1]));
    writer.close();
  }
  std::vector<std::uint8_t> bytes = read_bytes(log);
  // Frame 1 spans [8, 8 + 8 + payload_len) — the payload is fixed-width,
  // so its encoded size is independent of the seq the writer stamped.
  // Duplicate the frame in place: the classic doubled block from a buggy
  // copy/restore.
  const std::size_t frame1_end =
      8 + 8 + encode_wal_payload(trip_record(uploads[0])).size();
  std::vector<std::uint8_t> doubled(bytes.begin(),
                                    bytes.begin() +
                                        static_cast<std::ptrdiff_t>(frame1_end));
  doubled.insert(doubled.end(),
                 bytes.begin() + 8,
                 bytes.begin() + static_cast<std::ptrdiff_t>(frame1_end));
  doubled.insert(doubled.end(),
                 bytes.begin() + static_cast<std::ptrdiff_t>(frame1_end),
                 bytes.end());
  write_bytes(log, doubled);

  const WalScanResult scan = scan_trip_log(log.string(), /*repair=*/false);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.records[1].seq, 2u);
  EXPECT_EQ(scan.duplicate_records, 1u);
  EXPECT_EQ(scan.next_seq, 3u);
}

// ------------------------------------------------------------- checkpoints

TEST(Checkpoint, RoundTripsAndPicksNewestValid) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  TempDir dir;

  // Real state: a durable 1-shard service part-way through the day.
  ShardedIngestService service(bed.world.city(), bed.database,
                               durable_config(dir.str(), true), sharding(1));
  service.open();
  for (std::size_t i = 0; i < std::min<std::size_t>(uploads.size(), 40); ++i) {
    service.process_trip(uploads[i]);
  }
  const std::uint64_t id1 = service.checkpoint();
  EXPECT_EQ(id1, 1u);
  for (std::size_t i = 40; i < std::min<std::size_t>(uploads.size(), 60); ++i) {
    service.process_trip(uploads[i]);
  }
  const std::uint64_t id2 = service.checkpoint();
  EXPECT_EQ(id2, 2u);
  service.close();

  const auto loaded = load_latest_checkpoint(dir.str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->id, 2u);
  EXPECT_FALSE(loaded->state.fusion.empty());
  ASSERT_EQ(loaded->state.covers_seq.size(), 1u);

  // encode → decode → encode is byte-stable.
  const auto bytes = encode_checkpoint(loaded->id, loaded->state);
  std::uint64_t rid = 0;
  CheckpointState rstate;
  ASSERT_TRUE(decode_checkpoint(bytes.data(), bytes.size(), &rid, &rstate));
  EXPECT_EQ(rid, loaded->id);
  EXPECT_EQ(encode_checkpoint(rid, rstate), bytes);

  // Every strict prefix fails to decode (no partial restores).
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}, std::size_t{9},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::uint64_t ignored_id = 0;
    CheckpointState ignored;
    EXPECT_FALSE(decode_checkpoint(bytes.data(), cut, &ignored_id, &ignored))
        << cut;
  }

  // Corrupt the newest file: loading falls back to the older checkpoint.
  const std::filesystem::path newest =
      dir.path / "checkpoint-00000000000000000002.ckpt";
  ASSERT_TRUE(std::filesystem::exists(newest));
  std::vector<std::uint8_t> corrupt = read_bytes(newest);
  corrupt[corrupt.size() / 2] ^= 0x40;
  write_bytes(newest, corrupt);
  const auto fallback = load_latest_checkpoint(dir.str());
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->id, 1u);

  // A stray .tmp from a crash mid-checkpoint is never loaded.
  write_bytes(dir.path / "checkpoint-00000000000000000009.tmp",
              {1, 2, 3, 4});
  EXPECT_EQ(load_latest_checkpoint(dir.str())->id, 1u);

  // All checkpoints corrupt: recovery falls back to a full WAL replay.
  const std::filesystem::path oldest =
      dir.path / "checkpoint-00000000000000000001.ckpt";
  write_bytes(oldest, {9, 9, 9});
  EXPECT_FALSE(load_latest_checkpoint(dir.str()).has_value());
}

TEST(Checkpoint, PruneKeepsOnlyTheNewest) {
  TempDir dir;
  CheckpointState state;
  state.covers_seq = {0};
  for (std::uint64_t id = 1; id <= 5; ++id) {
    save_checkpoint_file(dir.str(), id, state);
  }
  prune_checkpoints(dir.str(), 2);
  std::size_t remaining = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    if (e.path().extension() == ".ckpt") ++remaining;
  }
  EXPECT_EQ(remaining, 2u);
  EXPECT_EQ(load_latest_checkpoint(dir.str())->id, 5u);
}

// Every strict prefix and a single-bit flip of every byte of a real
// checkpoint fail to decode: the magic, the CRC or the decoder catches
// each, so no torn or corrupt file is ever partly restored.
TEST(Checkpoint, EveryPrefixAndBitFlipFailsToDecode) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  TempDir dir;
  ShardedIngestService service(bed.world.city(), bed.database,
                               durable_config(dir.str(), true), sharding(1));
  service.open();
  for (std::size_t i = 0; i < std::min<std::size_t>(uploads.size(), 30); ++i) {
    service.process_trip(uploads[i]);
  }
  const std::uint64_t id = service.checkpoint();
  service.close();
  const auto loaded = load_latest_checkpoint(dir.str());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_FALSE(loaded->state.fusion.empty());
  const std::vector<std::uint8_t> bytes = encode_checkpoint(id, loaded->state);

  std::uint64_t ignored_id = 0;
  CheckpointState ignored;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_checkpoint(bytes.data(), cut, &ignored_id, &ignored))
        << "cut " << cut;
  }
  std::vector<std::uint8_t> corrupt = bytes;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    const std::uint8_t mask = static_cast<std::uint8_t>(1u << (pos % 8));
    corrupt[pos] ^= mask;
    EXPECT_FALSE(decode_checkpoint(corrupt.data(), corrupt.size(), &ignored_id,
                                   &ignored))
        << "pos " << pos;
    corrupt[pos] ^= mask;
  }
  EXPECT_TRUE(decode_checkpoint(corrupt.data(), corrupt.size(), &ignored_id,
                                &ignored));
}

// A save that cannot write its file (EFBIG past the file size cap) throws
// and removes its temp file; nothing else would, since only `.ckpt` names
// are ever listed.
TEST(Checkpoint, FailedSaveLeavesNoTempFile) {
  TempDir dir;
  CheckpointState big;
  big.covers_seq.assign(2 * kFileSizeCap / 8, 7);  // twice the cap
  CheckpointState small;
  small.covers_seq = {3};
  EXPECT_EQ(failed_checks_under_file_size_cap([&](const Check& check) {
    bool threw = false;
    try {
      save_checkpoint_file(dir.str(), 1, big);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    check(threw, "save-throws");
    save_checkpoint_file(dir.str(), 2, small);
    for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
      check(e.path().extension() != ".tmp", "tmp-left-behind");
    }
    const auto loaded = load_latest_checkpoint(dir.str());
    check(loaded.has_value() && loaded->id == 2, "small-save-loads");
  }), "");
}

// A crash between writing a checkpoint's temp file and renaming it leaves
// the temp behind; open() removes it and recovers exactly as it would
// have without it.
TEST(Checkpoint, OpenRemovesStaleTempFiles) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  const SimTime end = at_clock(1, 0, 0);
  TempDir dir;
  TempDir clean;
  const ServerConfig cfg = durable_config(dir.str(), true);
  {
    ShardedIngestService service(bed.world.city(), bed.database, cfg, sharding(2));
    service.open();
    for (std::size_t i = 0; i < std::min<std::size_t>(uploads.size(), 40); ++i) {
      service.process_trip(uploads[i]);
    }
    EXPECT_EQ(service.checkpoint(), 1u);
    for (std::size_t i = 40; i < std::min<std::size_t>(uploads.size(), 60); ++i) {
      service.process_trip(uploads[i]);
    }
    service.close();
  }
  std::filesystem::copy(dir.path, clean.path,
                        std::filesystem::copy_options::recursive);
  const std::filesystem::path stale =
      dir.path / "checkpoint-00000000000000000002.ckpt.tmp";
  write_bytes(stale, {1, 2, 3, 4});

  const auto recover = [&](const std::string& path, RecoveryReport& report) {
    ShardedIngestService service(bed.world.city(), bed.database,
                                 durable_config(path, true), sharding(2));
    report = service.open();
    service.advance_time(end);
    const std::string bytes = map_bytes(service.snapshot(end, kDay));
    service.close();
    return bytes;
  };
  RecoveryReport with_temp, without_temp;
  const std::string recovered = recover(dir.str(), with_temp);
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_EQ(recovered, recover(clean.str(), without_temp));
  EXPECT_TRUE(with_temp.checkpoint_loaded);
  EXPECT_EQ(with_temp.checkpoint_id, without_temp.checkpoint_id);
  EXPECT_EQ(with_temp.replayed_trips, without_temp.replayed_trips);
  EXPECT_EQ(with_temp.recovered_trips_per_segment,
            without_temp.recovered_trips_per_segment);
}

// --------------------------------------------------------------- lifecycle

TEST(DurableLifecycle, GuardsProcessTripOutsideOpenClose) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  TempDir dir;
  ShardedIngestService service(bed.world.city(), bed.database,
                               durable_config(dir.str(), false), sharding(1));

  // Before open(): rejected, not silently dropped.
  const TripReport early = service.process_trip(uploads[0]);
  EXPECT_EQ(early.outcome, IngestOutcome::kRejected);
  EXPECT_EQ(early.reject_reason, RejectReason::kShutdown);

  const RecoveryReport report = service.open();
  EXPECT_TRUE(report.durable);
  EXPECT_FALSE(report.checkpoint_loaded);
  EXPECT_EQ(report.replayed_trips, 0u);

  EXPECT_TRUE(service.process_trip(uploads[0]).accepted());
  EXPECT_GT(service.checkpoint(), 0u);

  service.close();
  const TripReport late = service.process_trip(uploads[1]);
  EXPECT_EQ(late.outcome, IngestOutcome::kRejected);
  EXPECT_EQ(late.reject_reason, RejectReason::kShutdown);
  EXPECT_EQ(service.checkpoint(), 0u);  // no checkpoints after close
  service.close();                      // idempotent

  // The durability instruments recorded the run.
  const MetricsSnapshot ms = service.metrics().snapshot();
  EXPECT_EQ(ms.counters.at("durability.appends"), 1u);
  EXPECT_EQ(ms.counters.at("durability.checkpoints"), 1u);
  EXPECT_GT(ms.counters.at("durability.bytes_appended"), 0u);
}

TEST(DurableLifecycle, AsyncServiceRejectsAtEnqueueOutsideOpenClose) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  TempDir dir;
  ShardedIngestService service(bed.world.city(), bed.database,
                               durable_config(dir.str(), false));

  EXPECT_EQ(service.process_trip(uploads[0]).reject_reason,
            RejectReason::kShutdown);
  service.open();
  EXPECT_TRUE(service.process_trip(uploads[0]).accepted());
  service.close();
  EXPECT_EQ(service.process_trip(uploads[1]).reject_reason,
            RejectReason::kShutdown);
  EXPECT_EQ(service.trips_processed(), 1u);
}

// close() racing producers on a durable sharded service: every upload
// answered kQueued must be processed and logged before the WAL closes —
// none may reach a consumer only after close() shut the log, which would
// drop it as a worker error. Each round lets close() land at a different
// point of the feed; reopening the directory must recover exactly the
// queued uploads.
TEST(DurableLifecycle, CloseUnderProducerLoadLogsEveryQueuedUpload) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  constexpr std::size_t kProducers = 4;
  ShardedIngestConfig svc;
  svc.shards = 3;
  for (std::size_t round = 0; round < 6; ++round) {
    TempDir dir;
    const ServerConfig cfg = durable_config(dir.str(), false);
    std::atomic<std::size_t> queued{0};
    {
      ShardedIngestService service(bed.world.city(), bed.database, cfg, svc);
      service.open();
      // Producers pace their uploads so the consumers keep up: drain()
      // then returns while producers are still sending, which is when an
      // upload can slip in between the drain and the WAL's close.
      std::vector<std::thread> producers;
      for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (std::size_t i = p; i < uploads.size(); i += kProducers) {
            const TripReport r = service.process_trip(uploads[i]);
            if (r.outcome == IngestOutcome::kQueued) {
              ++queued;
            } else {
              EXPECT_EQ(r.reject_reason, RejectReason::kShutdown);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
        });
      }
      const std::size_t close_after = round * uploads.size() / 12;
      std::thread closer([&] {
        while (queued.load() < close_after) std::this_thread::yield();
        service.close();
      });
      closer.join();
      for (std::thread& t : producers) t.join();

      const std::string label = "round " + std::to_string(round);
      EXPECT_EQ(
          service.shard_metrics().counters.at("ingest.shard.worker_errors"),
          0u)
          << label;
      EXPECT_EQ(service.trips_processed(), queued.load()) << label;
    }
    ShardedIngestService reopened(bed.world.city(), bed.database, cfg, svc);
    const RecoveryReport report = reopened.open();
    std::uint64_t recovered = 0;
    for (const std::uint64_t r : report.recovered_trips_per_segment) {
      recovered += r;
    }
    EXPECT_EQ(recovered, queued.load()) << "round " << round;
    reopened.close();
  }
}

// A WAL directory recovers only at the shard count that wrote it. At any
// other count open() must refuse it, naming both counts, before touching a
// file: scanning fewer segments would silently drop the trips of the rest,
// and a checkpoint's per-segment seqs would land on the wrong segments.
TEST(DurableLifecycle, ReopenAtAnotherShardCountThrows) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  const auto open_error = [](ShardedIngestService& service) {
    try {
      service.open();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  TempDir dir;
  const ServerConfig cfg = durable_config(dir.str(), true);
  {
    ShardedIngestService service(bed.world.city(), bed.database, cfg,
                                 sharding(3));
    service.open();
    for (std::size_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(service.process_trip(uploads[i]).accepted());
    }
    service.close();
  }
  const auto segment_bytes = [&] {
    std::vector<std::vector<std::uint8_t>> out;
    for (const char* name : {"trips-0000.wal", "trips-0001.wal",
                             "trips-0002.wal"}) {
      out.push_back(read_bytes(dir.path / name));
    }
    return out;
  };
  const auto written = segment_bytes();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ShardedIngestService wrong(bed.world.city(), bed.database, cfg,
                               sharding(shards));
    EXPECT_NE(open_error(wrong).find("written with 3 WAL segments, opened "
                                     "with " + std::to_string(shards)),
              std::string::npos)
        << shards << " shards";
  }
  EXPECT_EQ(segment_bytes(), written);

  ShardedIngestService same(bed.world.city(), bed.database, cfg, sharding(3));
  const RecoveryReport report = same.open();
  std::uint64_t recovered = 0;
  for (const std::uint64_t r : report.recovered_trips_per_segment) {
    recovered += r;
  }
  EXPECT_EQ(recovered, 12u);
  same.close();

  // Fewer WAL files than shards is fine on its own; a checkpoint stamped
  // for one segment still refuses a 3-shard reopen.
  TempDir single;
  const ServerConfig single_cfg = durable_config(single.str(), true);
  {
    ShardedIngestService service(bed.world.city(), bed.database, single_cfg,
                                 sharding(1));
    service.open();
    for (std::size_t i = 0; i < 12; ++i) {
      ASSERT_TRUE(service.process_trip(uploads[i]).accepted());
    }
    EXPECT_GT(service.checkpoint(), 0u);
  }
  ShardedIngestService wider(bed.world.city(), bed.database, single_cfg,
                             sharding(3));
  EXPECT_NE(open_error(wider).find("written with 1 WAL segments, opened "
                                   "with 3"),
            std::string::npos);
}

// Bit-identity of two fusion exports: same keys, fused posteriors and
// still-open period batches.
void expect_export_equal(const std::vector<FusionExportEntry>& got,
                         const std::vector<FusionExportEntry>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].key == want[i].key) << label;
    ASSERT_EQ(got[i].fused.has_value(), want[i].fused.has_value()) << label;
    if (got[i].fused) {
      EXPECT_EQ(got[i].fused->mean_kmh, want[i].fused->mean_kmh) << label;
      EXPECT_EQ(got[i].fused->variance, want[i].fused->variance) << label;
      EXPECT_EQ(got[i].fused->updated_at, want[i].fused->updated_at) << label;
      EXPECT_EQ(got[i].fused->observation_count,
                want[i].fused->observation_count)
          << label;
    }
    EXPECT_EQ(got[i].pending, want[i].pending) << label;
  }
}

// A shard buffers its estimates and folds them kFoldBatch at a time; a
// trip with fewer estimates than that must still reach the fusion store at
// every barrier — advance_time() (which drains), checkpoint() and the
// recovery built on it, and shutdown() — bit-identical to the serial
// server.
TEST(ShardBatch, PartialBatchReachesFusionAtEveryBarrier) {
  const Testbed& bed = testbed();
  const TrafficServer probe(bed.world.city(), bed.database);
  const TripUpload* small = nullptr;
  for (const TripUpload& upload : sorted_uploads()) {
    const std::size_t n = probe.analyze_trip(upload).estimates.size();
    if (n > 0 && n < ShardedIngestService::kFoldBatch) {
      small = &upload;
      break;
    }
  }
  ASSERT_NE(small, nullptr);
  const SimTime end = at_clock(1, 0, 0);

  TrafficServer serial(bed.world.city(), bed.database);
  ASSERT_TRUE(serial.process_trip(*small).accepted());
  const std::vector<FusionExportEntry> open_state = serial.export_fusion();
  serial.advance_time(end);
  const std::string closed_map = map_bytes(serial.snapshot(end, kDay));
  ASSERT_FALSE(closed_map.empty());

  {
    ShardedIngestService service(bed.world.city(), bed.database);
    ASSERT_TRUE(service.process_trip(*small).accepted());
    service.advance_time(end);
    EXPECT_EQ(map_bytes(service.snapshot(end, kDay)), closed_map);
  }
  {
    ShardedIngestService service(bed.world.city(), bed.database);
    ASSERT_TRUE(service.process_trip(*small).accepted());
    service.shutdown();
    expect_export_equal(service.backend().export_fusion(), open_state,
                        "shutdown");
  }
  {
    TempDir dir;
    const ServerConfig cfg = durable_config(dir.str(), false);
    {  // Checkpoint, then crash: the checkpoint alone must carry the trip.
      ShardedIngestService service(bed.world.city(), bed.database, cfg);
      service.open();
      ASSERT_TRUE(service.process_trip(*small).accepted());
      EXPECT_GT(service.checkpoint(), 0u);
    }
    ShardedIngestService recovered(bed.world.city(), bed.database, cfg);
    const RecoveryReport report = recovered.open();
    EXPECT_TRUE(report.checkpoint_loaded);
    EXPECT_EQ(report.replayed_trips, 0u);
    expect_export_equal(recovered.backend().export_fusion(), open_state,
                        "checkpoint recovery");
    recovered.advance_time(end);
    EXPECT_EQ(map_bytes(recovered.snapshot(end, kDay)), closed_map);
    recovered.close();
  }
}

// ------------------------------------------------- admission replay (skew)

// The crash-identity suite above runs with skew re-anchoring off because
// corrected estimates depend on where the flush boundaries fall. The WAL
// still has to carry skew state through recovery, so exercise that half
// directly: admit a skewed trip, feed the recorded AdmitInfo into a fresh
// controller via note_replayed, and the exported states must match.
TEST(AdmissionReplay, NoteReplayedRebuildsSkewAndDedupState) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  MetricsRegistry metrics;

  AdmissionController reference(cfg);
  reference.bind_metrics(&metrics);
  reference.observe_time(at_clock(10, 0, 0));

  // A trip whose last sample lands a full day past the watermark: well
  // beyond max_clock_skew_s, so re-anchoring must fire.
  TripUpload skewed;
  skewed.participant_id = 7;
  for (int i = 0; i < 5; ++i) {
    CellularSample s;
    s.time = at_clock(34, 0, 0) + 30.0 * i;
    s.fingerprint.cells = {101, 202, 303};
    skewed.samples.push_back(s);
  }

  TripUpload corrected;
  const TripUpload* use = nullptr;
  AdmitInfo info;
  ASSERT_EQ(reference.admit(skewed, corrected, use, &info),
            RejectReason::kNone);
  EXPECT_NE(info.signature, 0u);
  EXPECT_NE(info.skew_offset_s, 0.0);
  ASSERT_EQ(use, &corrected);
  EXPECT_EQ(corrected.samples.back().time,
            skewed.samples.back().time - info.skew_offset_s);

  // Replay path: a fresh controller fed the WAL facts, not the upload.
  AdmissionController replayed(cfg);
  replayed.observe_time(at_clock(10, 0, 0));
  replayed.note_replayed(info.signature, skewed.participant_id,
                         info.skew_offset_s);

  const AdmissionCheckpoint ref_state = reference.export_state();
  const AdmissionCheckpoint rep_state = replayed.export_state();
  EXPECT_EQ(ref_state.lru_oldest_first, rep_state.lru_oldest_first);
  EXPECT_EQ(ref_state.skew_offsets, rep_state.skew_offsets);
  EXPECT_EQ(ref_state.have_watermark, rep_state.have_watermark);
  EXPECT_EQ(ref_state.watermark, rep_state.watermark);
  ASSERT_EQ(rep_state.skew_offsets.size(), 1u);
  EXPECT_EQ(rep_state.skew_offsets[0].first, 7);
  EXPECT_EQ(rep_state.skew_offsets[0].second, info.skew_offset_s);

  // With identical state, the replayed controller dedup-rejects the same
  // upload and re-applies the same offset to the participant's next trip.
  AdmitInfo dup_info;
  EXPECT_EQ(replayed.admit(skewed, corrected, use, &dup_info),
            RejectReason::kDuplicate);

  // export → restore → export round-trips exactly.
  AdmissionController restored(cfg);
  restored.restore_state(ref_state);
  const AdmissionCheckpoint round = restored.export_state();
  EXPECT_EQ(round.lru_oldest_first, ref_state.lru_oldest_first);
  EXPECT_EQ(round.skew_offsets, ref_state.skew_offsets);
  EXPECT_EQ(round.have_watermark, ref_state.have_watermark);
  EXPECT_EQ(round.watermark, ref_state.watermark);
}

// ---------------------------------------------------- crash-recovery suite

// The uninterrupted reference: the serial TrafficServer, one advance_time
// at the mid-feed barrier and one at the end.
std::string reference_map_bytes(bool admission_on, std::size_t adv_index,
                                SimTime end) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  TrafficServer server(bed.world.city(), bed.database,
                       base_config(admission_on));
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    if (i == adv_index) {
      server.advance_time(uploads[adv_index].samples.front().time);
    }
    EXPECT_TRUE(server.process_trip(uploads[i]).accepted());
  }
  server.advance_time(end);
  return map_bytes(server.snapshot(end, kDay));
}

// One crash-recovery run: feed to a randomized kill point (advancing time
// at a barrier on the way, optionally checkpointing, optionally tearing
// the log tail after the kill), destroy without close() — a crash — then
// recover into a fresh service and resume the feed. The final map must be
// byte-identical to the uninterrupted serial reference (the service fuses
// bit-identically to it at any shard count — the ingest identity suite).
void run_crash_recovery_case(std::size_t shards, bool admission_on,
                             int variant, std::uint64_t seed,
                             const std::string& expected) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  ASSERT_GT(uploads.size(), 40u);
  const SimTime end = at_clock(1, 0, 0);
  Rng rng(seed);

  const std::size_t adv_index = uploads.size() / 3;
  const std::size_t cut = adv_index + 4 +
                          static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<int>(uploads.size() / 2)));
  const bool with_checkpoint = variant == 0;
  const bool tear_tail = variant == 1;
  const bool fake_mid_checkpoint_crash = variant == 2;
  const std::size_t checkpoint_at =
      adv_index + 1 +
      static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(cut - adv_index) - 3));

  const std::string label = std::to_string(shards) + " shard(s), admission " +
                            (admission_on ? "on" : "off") + ", variant " +
                            std::to_string(variant) + ", cut " +
                            std::to_string(cut);
  ASSERT_FALSE(expected.empty()) << label;

  TempDir dir;
  const ServerConfig cfg = durable_config(dir.str(), admission_on);

  {  // The doomed run: destroyed without close() — a crash.
    ShardedIngestService crashed(bed.world.city(), bed.database, cfg,
                                 sharding(shards));
    const RecoveryReport fresh = crashed.open();
    EXPECT_TRUE(fresh.durable) << label;
    EXPECT_FALSE(fresh.checkpoint_loaded) << label;
    for (std::size_t i = 0; i < cut; ++i) {
      if (i == adv_index) {
        crashed.advance_time(uploads[adv_index].samples.front().time);
      }
      if (with_checkpoint && i == checkpoint_at) {
        EXPECT_GT(crashed.checkpoint(), 0u) << label;
      }
      ASSERT_TRUE(crashed.process_trip(uploads[i]).accepted()) << label;
    }
  }

  if (tear_tail) {
    // Lose the last few bytes of one WAL segment — the torn records must
    // be re-fed, not resurrected from garbage.
    std::filesystem::path victim;
    std::uintmax_t largest = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
      if (e.path().extension() == ".wal" && e.file_size() > largest) {
        largest = e.file_size();
        victim = e.path();
      }
    }
    ASSERT_FALSE(victim.empty()) << label;
    const std::uintmax_t chop =
        static_cast<std::uintmax_t>(rng.uniform_int(1, 40));
    std::filesystem::resize_file(victim, largest - chop);
  }
  if (fake_mid_checkpoint_crash) {
    // Artifacts of a crash inside checkpoint(): a garbage .ckpt and a
    // half-written .tmp. Recovery must skip both.
    write_bytes(dir.path / "checkpoint-00000000000000009999.ckpt",
                {0xde, 0xad, 0xbe, 0xef});
    write_bytes(dir.path / "checkpoint-00000000000000000003.tmp", {1, 2});
  }

  ShardedIngestService recovered(bed.world.city(), bed.database, cfg,
                                 sharding(shards));
  const RecoveryReport report = recovered.open();
  EXPECT_TRUE(report.durable) << label;
  EXPECT_EQ(report.checkpoint_loaded, with_checkpoint) << label;
  if (!with_checkpoint) {
    // The checkpoint covers the mid-feed barrier's marks; without one they
    // are replayed to restore the admission watermark.
    EXPECT_GT(report.replayed_time_marks, 0u) << label;
  }
  ASSERT_EQ(report.recovered_trips_per_segment.size(), shards) << label;
  std::uint64_t recovered_total = 0;
  for (const std::uint64_t r : report.recovered_trips_per_segment) {
    recovered_total += r;
  }
  // Everything accepted before the crash survived — except, with a torn
  // tail, the trailing record(s) chopped off, which are re-fed below.
  EXPECT_LE(recovered_total, cut) << label;
  if (!tear_tail) {
    EXPECT_EQ(recovered_total, cut) << label;
  }

  // Resume: skip the first recovered_trips_per_segment[s] uploads of each
  // segment's feed subsequence (they are already durable), re-feed the
  // rest — including any torn-tail losses.
  std::vector<std::uint64_t> seen(shards, 0);
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const std::size_t seg = recovered.shard_of(uploads[i].participant_id);
    if (seen[seg]++ < report.recovered_trips_per_segment[seg]) continue;
    ASSERT_TRUE(recovered.process_trip(uploads[i]).accepted()) << label;
  }
  recovered.advance_time(end);
  EXPECT_EQ(map_bytes(recovered.snapshot(end, kDay)), expected) << label;
  recovered.close();
}

TEST(CrashRecovery, ByteIdenticalAcrossFrontEndsAdmissionAndKillPoints) {
  const SimTime end = at_clock(1, 0, 0);
  const std::size_t adv_index = sorted_uploads().size() / 3;
  const std::string expected_off = reference_map_bytes(false, adv_index, end);
  const std::string expected_on = reference_map_bytes(true, adv_index, end);

  // 1 and 3 shards run every kill variant (checkpoint + WAL suffix, torn
  // tail, fake mid-checkpoint crash) with admission off and on.
  std::uint64_t seed = 5150;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    for (const bool admission_on : {false, true}) {
      for (int variant = 0; variant < 3; ++variant) {
        run_crash_recovery_case(shards, admission_on, variant, seed,
                                admission_on ? expected_on : expected_off);
        ++seed;
      }
    }
  }
}

// Crash at the extremes: before any upload and after the whole feed.
TEST(CrashRecovery, EmptyAndCompleteLogsRecover) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  const SimTime end = at_clock(1, 0, 0);
  const std::string expected =
      reference_map_bytes(true, uploads.size() / 3, end);

  TempDir dir;
  const ServerConfig cfg = durable_config(dir.str(), true);
  {  // Crash before processing anything.
    ShardedIngestService crashed(bed.world.city(), bed.database, cfg,
                                 sharding(1));
    crashed.open();
  }
  {  // Recover the empty log, run the full feed, crash at the very end.
    ShardedIngestService full(bed.world.city(), bed.database, cfg,
                              sharding(1));
    const RecoveryReport empty = full.open();
    EXPECT_EQ(empty.replayed_trips, 0u);
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      if (i == uploads.size() / 3) {
        full.advance_time(uploads[uploads.size() / 3].samples.front().time);
      }
      ASSERT_TRUE(full.process_trip(uploads[i]).accepted());
    }
  }
  ShardedIngestService recovered(bed.world.city(), bed.database, cfg,
                                 sharding(1));
  const RecoveryReport report = recovered.open();
  EXPECT_EQ(report.replayed_trips, uploads.size());
  recovered.advance_time(end);
  EXPECT_EQ(map_bytes(recovered.snapshot(end, kDay)), expected);
  recovered.close();
}

// The write-ahead property itself: a record that reached the log but whose
// effects never reached fusion (crash between append and apply) is
// recovered. Emulated by appending one extra record directly.
TEST(CrashRecovery, AppendedButUnappliedTripIsRecovered) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  const SimTime end = at_clock(1, 0, 0);
  const std::size_t cut = uploads.size() / 2;
  const std::string expected =
      reference_map_bytes(false, uploads.size() / 3, end);

  TempDir dir;
  const ServerConfig cfg = durable_config(dir.str(), false);
  {
    ShardedIngestService crashed(bed.world.city(), bed.database, cfg,
                                 sharding(1));
    crashed.open();
    for (std::size_t i = 0; i < cut; ++i) {
      if (i == uploads.size() / 3) {
        crashed.advance_time(uploads[uploads.size() / 3].samples.front().time);
      }
      ASSERT_TRUE(crashed.process_trip(uploads[i]).accepted());
    }
  }
  {  // The upload at `cut` made the log but never touched fusion.
    const std::string segment = (dir.path / "trips-0000.wal").string();
    const WalScanResult scan = scan_trip_log(segment, /*repair=*/true);
    TripLogWriter writer(segment, FsyncPolicy::kNever, 256, scan.next_seq);
    writer.append(trip_record(uploads[cut]));
    writer.close();
  }
  ShardedIngestService recovered(bed.world.city(), bed.database, cfg,
                                 sharding(1));
  const RecoveryReport report = recovered.open();
  EXPECT_EQ(report.recovered_trips_per_segment.at(0), cut + 1);
  for (std::size_t i = cut + 1; i < uploads.size(); ++i) {
    ASSERT_TRUE(recovered.process_trip(uploads[i]).accepted());
  }
  recovered.advance_time(end);
  EXPECT_EQ(map_bytes(recovered.snapshot(end, kDay)), expected);
  recovered.close();
}

// Recovery of the fsync'd policies goes through the same code path; one
// smoke arm each to pin the policies' append metadata.
TEST(CrashRecovery, FsyncPoliciesRecoverIdentically) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  const SimTime end = at_clock(1, 0, 0);
  const std::size_t cut = uploads.size() / 4;
  const std::string expected =
      reference_map_bytes(false, uploads.size() / 3, end);

  for (const FsyncPolicy policy :
       {FsyncPolicy::kInterval, FsyncPolicy::kEveryRecord}) {
    TempDir dir;
    ServerConfig cfg = durable_config(dir.str(), false, policy);
    cfg.durability.fsync_interval_records = 8;
    {
      ShardedIngestService crashed(bed.world.city(), bed.database, cfg,
                                   sharding(1));
      crashed.open();
      for (std::size_t i = 0; i < cut; ++i) {
        ASSERT_TRUE(crashed.process_trip(uploads[i]).accepted());
      }
      if (policy == FsyncPolicy::kEveryRecord) {
        crashed.drain();  // every queued upload appended
        const MetricsSnapshot ms = crashed.metrics().snapshot();
        EXPECT_GE(ms.counters.at("durability.fsyncs"), cut);
      }
    }
    ShardedIngestService recovered(bed.world.city(), bed.database, cfg,
                                   sharding(1));
    const RecoveryReport report = recovered.open();
    EXPECT_EQ(report.replayed_trips, cut) << to_string(policy);
    for (std::size_t i = cut; i < uploads.size(); ++i) {
      if (i == uploads.size() / 3) {
        recovered.advance_time(
            uploads[uploads.size() / 3].samples.front().time);
      }
      ASSERT_TRUE(recovered.process_trip(uploads[i]).accepted());
    }
    recovered.advance_time(end);
    EXPECT_EQ(map_bytes(recovered.snapshot(end, kDay)), expected)
        << to_string(policy);
    recovered.close();
  }
}

// What a doomed child tells the parent before it SIGKILLs itself.
struct KillReport {
  std::uint64_t fed = 0;   ///< uploads processed (all appended: drained)
  std::uint8_t in_flight = 0;  ///< a handed-off interval was not yet synced
};

constexpr std::uint64_t kCrashInterval = 8;

// The doomed child: feeds the service, drains at every upload from
// `kill_at` on and SIGKILLs itself there — at once, or (`want_in_flight`)
// with a sync held in flight. For the latter it drains and sets
// wal_test_seam's hold just before `kill_at`: the next interval a segment
// hands off is written and parked before its fdatasync, and the child dies
// with that syncer parked. Every interval hand-off of a segment makes
// exactly one fsync, so fewer fsyncs than hand-offs means one is in flight.
[[noreturn]] void run_doomed_child(int fd, std::size_t shards,
                                   const ServerConfig& cfg,
                                   std::size_t kill_at, bool want_in_flight) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  const std::size_t adv_index = uploads.size() / 3;
  ShardedIngestService service(bed.world.city(), bed.database, cfg,
                               sharding(shards));
  service.open();
  std::vector<std::uint64_t> records(shards, 0);
  const auto handed_off = [&] {
    std::uint64_t total = 0;
    for (const std::uint64_t r : records) total += r / kCrashInterval;
    return total;
  };
  std::uint64_t handed_off_before_hold = 0;
  KillReport report;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    if (i == adv_index) {
      service.advance_time(uploads[adv_index].samples.front().time);
      for (std::uint64_t& r : records) ++r;  // one time mark per segment
    }
    if (want_in_flight && i + 1 == kill_at) {
      // Drained first, so every earlier hand-off is made without the hold
      // and the next one is the first to take it.
      service.drain();
      handed_off_before_hold = handed_off();
      wal_test_seam::hold(true);
    }
    if (!service.process_trip(uploads[i]).accepted()) ::_exit(3);
    ++records[service.shard_of(uploads[i].participant_id)];
    if (i + 1 < kill_at) continue;
    service.drain();
    report.fed = i + 1;
    if (want_in_flight) {
      if (handed_off() == handed_off_before_hold) continue;
      // A hand-off under the hold: its syncer parks after its write().
      wal_test_seam::wait_parked();
      report.in_flight = 1;
      break;
    }
    const MetricsSnapshot ms = service.metrics().snapshot();
    const auto synced = ms.counters.find("durability.fsyncs");
    report.in_flight =
        (synced == ms.counters.end() ? 0 : synced->second) < handed_off();
    break;
  }
  if (!write_full(fd, &report, sizeof report)) ::_exit(4);
  ::raise(SIGKILL);
  ::_exit(5);
}

// SIGKILL with the WAL's syncer mid-interval: recovery loses at most
// 2 × fsync_interval_records records per segment (the interval in flight
// plus the one building behind it), and the recovered map equals the
// serial reference over exactly the recovered uploads.
TEST(CrashRecovery, SigkillWithSyncInFlightLosesAtMostTwoIntervals) {
  const Testbed& bed = testbed();
  const auto& uploads = sorted_uploads();
  const std::size_t n = uploads.size();
  const std::size_t adv_index = n / 3;
  const SimTime end = at_clock(1, 0, 0);
  struct KillPoint {
    std::size_t at;
    bool want_in_flight;
  };
  const KillPoint kills[] = {
      {n / 5, false}, {n / 2, false}, {n / 4, true}, {4 * n / 5, true}};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    bool saw_in_flight = false;
    for (const KillPoint& kill : kills) {
      const std::string label = std::to_string(shards) + " shard(s), kill at " +
                                std::to_string(kill.at);
      TempDir dir;
      ServerConfig cfg = durable_config(dir.str(), false, FsyncPolicy::kInterval);
      cfg.durability.fsync_interval_records = kCrashInterval;
      int fds[2];
      ASSERT_EQ(::pipe(fds), 0);
      const ::pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        ::close(fds[0]);
        run_doomed_child(fds[1], shards, cfg, kill.at, kill.want_in_flight);
      }
      ::close(fds[1]);
      KillReport report;
      const std::size_t got = read_full(fds[0], &report, sizeof report);
      ::close(fds[0]);
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid) << label;
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << label << ": status " << status;
      ASSERT_EQ(got, sizeof report) << label;
      ASSERT_GE(report.fed, kill.at) << label;
      saw_in_flight = saw_in_flight || report.in_flight != 0;

      ShardedIngestService recovered(bed.world.city(), bed.database, cfg,
                                     sharding(shards));
      const RecoveryReport rr = recovered.open();
      ASSERT_EQ(rr.recovered_trips_per_segment.size(), shards) << label;
      std::vector<std::uint64_t> fed(shards, 0);
      for (std::size_t i = 0; i < report.fed; ++i) {
        ++fed[recovered.shard_of(uploads[i].participant_id)];
      }
      for (std::size_t s = 0; s < shards; ++s) {
        const std::uint64_t kept = rr.recovered_trips_per_segment[s];
        EXPECT_LE(kept, fed[s]) << label << ", segment " << s;
        EXPECT_LE(fed[s] - std::min(kept, fed[s]), 2 * kCrashInterval)
            << label << ", segment " << s;
      }

      TrafficServer reference(bed.world.city(), bed.database,
                              base_config(false));
      std::vector<std::uint64_t> seen(shards, 0);
      for (std::size_t i = 0; i < report.fed; ++i) {
        if (i == adv_index) {
          reference.advance_time(uploads[adv_index].samples.front().time);
        }
        const std::size_t seg = recovered.shard_of(uploads[i].participant_id);
        if (seen[seg]++ >= rr.recovered_trips_per_segment[seg]) continue;
        ASSERT_TRUE(reference.process_trip(uploads[i]).accepted()) << label;
      }
      reference.advance_time(end);
      recovered.advance_time(end);
      EXPECT_EQ(map_bytes(recovered.snapshot(end, kDay)),
                map_bytes(reference.snapshot(end, kDay)))
          << label;
      recovered.close();
    }
    EXPECT_TRUE(saw_in_flight) << shards << " shard(s): no kill found a "
                                             "sync in flight";
  }
}

}  // namespace
}  // namespace bussense
