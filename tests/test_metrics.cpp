// The metrics layer (src/obs): per-thread cells, exact counters and integer
// histogram sums under concurrent recording and snapshots, the sampling
// rule of the latency histograms on the query and trip paths, and the
// pinned catalog of instrument names the serving stack registers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/epoch_publisher.h"
#include "core/ingest_service.h"
#include "core/query_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "obs/metrics.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

constexpr std::uint64_t kEvery = BucketHistogram::kSampleEvery;

std::uint64_t ceil_div(std::uint64_t n, std::uint64_t d) { return (n + d - 1) / d; }

struct Testbed {
  World world;
  StopDatabase database;
  std::vector<TripUpload> uploads;  ///< non-empty, by first-sample time

  Testbed() {
    Rng survey_rng(2024);
    database = build_stop_database(
        world.city(),
        [&](StopId stop, int run) {
          return world.scan_stop(stop, survey_rng, run % 2 == 1);
        },
        5);
    Rng rng(77);
    for (const AnnotatedTrip& trip : world.simulate_day(0, 1.2, rng).trips) {
      if (!trip.upload.samples.empty()) uploads.push_back(trip.upload);
    }
    std::stable_sort(uploads.begin(), uploads.end(),
                     [](const TripUpload& a, const TripUpload& b) {
                       return a.samples.front().time < b.samples.front().time;
                     });
  }
};

const Testbed& testbed() {
  static const Testbed bed;
  return bed;
}

// A publisher holding one epoch over the first `n` catalogued segments.
struct SmallEpoch {
  SegmentCatalog catalog{testbed().world.city()};
  EpochPublisher publisher{catalog};

  explicit SmallEpoch(std::size_t n = 8) {
    SpeedFusion fusion;
    const auto& keys = catalog.adjacent_keys();
    for (std::size_t i = 0; i < std::min(n, keys.size()); ++i) {
      SpeedEstimate e;
      e.segment = keys[i];
      e.att_speed_kmh = 30.0;
      e.time = 1000.0;
      fusion.add(e);
    }
    fusion.flush_until(1000.0 + kHour);
    publisher.publish_from(fusion, 4000.0);
  }
};

// ------------------------------------------------------------- cells

TEST(MetricCells, ExactWithMoreThreadsThanCellsWhileSnapshotting) {
  MetricsRegistry reg;
  Counter& c = reg.counter("work.items");
  BucketHistogram& h = reg.histogram("work.latency_s");
  constexpr int kThreads = static_cast<int>(kMetricCells) + 4;
  constexpr std::uint64_t kPer = 3000;
  constexpr std::uint64_t kValueNs = 12'345;  // 12.345 µs

  std::atomic<int> ready{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      // Every thread holds a cell before any records the rest, so some
      // cells are shared by two threads recording at once.
      c.inc();
      h.record_ns(kValueNs);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 1; i < kPer; ++i) {
        c.inc();
        h.record_ns(kValueNs);
      }
    });
  }
  std::uint64_t snapshots = 0;
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const MetricsSnapshot snap = reg.snapshot();
      const std::uint64_t now = snap.counters.at("work.items");
      EXPECT_GE(now, last);
      EXPECT_LE(now, kThreads * kPer);
      EXPECT_LE(snap.histograms.at("work.latency_s").total, kThreads * kPer);
      last = now;
      ++snapshots;
    }
  });
  for (std::thread& t : pool) t.join();
  done.store(true);
  reader.join();
  EXPECT_GT(snapshots, 0u);

  const MetricsSnapshot snap = reg.snapshot();
  const std::uint64_t n = kThreads * kPer;
  EXPECT_EQ(snap.counters.at("work.items"), n);
  const BucketHistogram::Snapshot& hs = snap.histograms.at("work.latency_s");
  EXPECT_EQ(hs.total, n);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t k : hs.counts) bucketed += k;
  EXPECT_EQ(bucketed, n);
  // Integer nanosecond sums: exact, no float accumulation.
  EXPECT_EQ(hs.sum, static_cast<double>(n * kValueNs) / 1e9);
}

TEST(MetricCells, CellLeasesReturnWhenThreadsExit) {
  // Far more short-lived threads than cells, run one after another: each
  // returns its cell at exit, so the next one picks up the same free cell
  // instead of sharing one, and every count lands exactly.
  Counter c;
  std::vector<unsigned> cells;
  for (unsigned t = 0; t < 3 * kMetricCells; ++t) {
    std::thread([&] {
      c.add(t + 1);
      cells.push_back(metric_cell());
    }).join();
  }
  for (const unsigned cell : cells) EXPECT_EQ(cell, cells.front());
  const std::uint64_t n = 3 * kMetricCells;
  EXPECT_EQ(c.value(), n * (n + 1) / 2);
}

TEST(MetricCells, HistogramMergeAndSumAreExact) {
  BucketHistogram a(BucketHistogram::default_latency_bounds_s());
  BucketHistogram b(BucketHistogram::default_latency_bounds_s());
  a.record(0.1);
  a.record(0.2);
  b.record(0.3);
  a.merge(b);
  const BucketHistogram::Snapshot s = a.snapshot();
  EXPECT_EQ(s.total, 3u);
  EXPECT_EQ(s.sum, 0.6);  // 600'000'000 ns, not 0.1 + 0.2 + 0.3 in floats
  EXPECT_THROW(a.merge(BucketHistogram({1.0})), std::invalid_argument);
}

// ------------------------------------------------------------ sampling

TEST(SamplingRule, FreshHistogramTimesFirstCallThenOneInSampleEvery) {
  for (const std::uint64_t n : {std::uint64_t{1}, kEvery - 1, kEvery, kEvery + 1,
                                3 * kEvery + 5}) {
    BucketHistogram h({1.0});
    std::uint64_t timed = 0;
    for (std::uint64_t i = 0; i < n; ++i) timed += h.sample() ? 1 : 0;
    EXPECT_EQ(timed, ceil_div(n, kEvery)) << "n=" << n;
  }
  // The countdown is per thread: another thread's first call is timed
  // even while this thread is mid-countdown.
  BucketHistogram h({1.0});
  EXPECT_TRUE(h.sample());
  EXPECT_FALSE(h.sample());
  bool other_first = false;
  std::thread([&] { other_first = h.sample(); }).join();
  EXPECT_TRUE(other_first);
}

TEST(SamplingRule, QueryLatencySampledWhileCountersStayExact) {
  const SmallEpoch epoch;
  const QueryService svc(epoch.publisher);
  const SegmentKey key = epoch.catalog.adjacent_keys().front();
  const BusRoute& route = testbed().world.city().routes().front();
  constexpr std::uint64_t kSegment = 200, kEta = 3, kRegion = 65, kNear = 64;
  for (std::uint64_t i = 0; i < kSegment; ++i) (void)svc.segment_speed(key);
  for (std::uint64_t i = 0; i < kEta; ++i) (void)svc.route_eta(route, 0, 4000.0);
  for (std::uint64_t i = 0; i < kRegion; ++i) {
    (void)svc.region_aggregate(epoch.publisher.geometry().region());
  }
  for (std::uint64_t i = 0; i < kNear; ++i) {
    (void)svc.k_nearest_live_segments(0.0, 0.0, 3);
  }

  const MetricsSnapshot snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("queries.segment"), kSegment);
  EXPECT_EQ(snap.counters.at("queries.eta"), kEta);
  EXPECT_EQ(snap.counters.at("queries.region"), kRegion);
  EXPECT_EQ(snap.counters.at("queries.knearest"), kNear);
  EXPECT_EQ(snap.histograms.at("query.latency.segment").total, ceil_div(kSegment, kEvery));
  EXPECT_EQ(snap.histograms.at("query.latency.eta").total, ceil_div(kEta, kEvery));
  EXPECT_EQ(snap.histograms.at("query.latency.region").total, ceil_div(kRegion, kEvery));
  EXPECT_EQ(snap.histograms.at("query.latency.knearest").total, ceil_div(kNear, kEvery));
}

TEST(SamplingRule, SampledTripTimesEveryStage) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  constexpr std::size_t kTrips = 70;
  ASSERT_GE(bed.uploads.size(), kTrips);
  for (std::size_t i = 0; i < kTrips; ++i) (void)server.process_trip(bed.uploads[i]);

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("pipeline.trips"), kTrips);
  EXPECT_EQ(server.trips_processed(), kTrips);
  const std::uint64_t timed = ceil_div(kTrips, kEvery);
  for (const char* name : {"pipeline.trip_s", "pipeline.match_s", "pipeline.cluster_s",
                           "pipeline.map_s", "pipeline.estimate_s"}) {
    EXPECT_EQ(snap.histograms.at(name).total, timed) << name;
  }
  // The per-batch fold is rare: timed on every call.
  EXPECT_EQ(snap.histograms.at("fusion.fold_s").total, kTrips);
}

TEST(QueryServiceSharing, TwoReaderThreadsCountEveryQueryExactly) {
  const SmallEpoch epoch;
  const QueryService svc(epoch.publisher);
  const SegmentKey key = epoch.catalog.adjacent_keys().front();
  const BoundingBox region = epoch.publisher.geometry().region();
  constexpr std::uint64_t kSegment = 20'000, kRegion = 500;
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> live{0};
  std::atomic<int> finished{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t mine = 0;
      for (std::uint64_t i = 0; i < kSegment; ++i) mine += svc.segment_speed(key).live;
      for (std::uint64_t i = 0; i < kRegion; ++i) (void)svc.region_aggregate(region);
      live.fetch_add(mine);
      // Stay alive until both have read: a thread that exited would hand
      // its cell, and its countdown, to the next thread.
      finished.fetch_add(1);
      while (finished.load() < 2) std::this_thread::yield();
    });
  }
  for (std::thread& t : readers) t.join();

  const MetricsSnapshot snap = svc.metrics().snapshot();
  EXPECT_EQ(live.load(), 2 * kSegment);
  EXPECT_EQ(snap.counters.at("queries.segment"), 2 * kSegment);
  EXPECT_EQ(snap.counters.at("queries.region"), 2 * kRegion);
  EXPECT_EQ(snap.counters.at("queries.no_epoch"), 0u);
  // Each reader holds a cell of its own, so each keeps its own countdown.
  EXPECT_EQ(snap.histograms.at("query.latency.segment").total,
            2 * ceil_div(kSegment, kEvery));
  EXPECT_EQ(snap.histograms.at("query.latency.region").total,
            2 * ceil_div(kRegion, kEvery));
}

// ------------------------------------------------------------- catalog

std::vector<std::string> names(const MetricsSnapshot& snap) {
  std::vector<std::string> out;
  for (const auto& [name, v] : snap.counters) out.push_back("counter " + name);
  for (const auto& [name, v] : snap.gauges) out.push_back("gauge " + name);
  for (const auto& [name, v] : snap.histograms) out.push_back("histogram " + name);
  return out;
}

// The names a durable 3-shard service with admission, an EpochPublisher
// and a QueryService register, per registry. Dashboards and the benchmark
// harness read these by name (perfbench reads ingest.shard.processed,
// ingest.admitted, ingest.rejected.*, matcher.records_considered,
// matcher.gamma_candidates, matcher.records_bound_skipped,
// durability.fsyncs and durability.bytes_appended): a rename must change
// this list on purpose.
TEST(MetricCatalog, ServingStackRegistersThePinnedNames) {
  const Testbed& bed = testbed();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bussense_test_metrics_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    ServerConfig config;
    config.admission.enabled = true;
    config.durability.enabled = true;
    config.durability.directory = dir.string();
    ShardedIngestConfig sharding;
    sharding.shards = 3;
    ShardedIngestService service(bed.world.city(), bed.database, config, sharding);
    (void)service.open();
    EpochPublisher publisher(service.catalog());
    const QueryService queries(publisher);
    // Drive every path once, so names registered on first use show up too.
    SimTime latest = 0.0;
    for (std::size_t i = 0; i < 20 && i < bed.uploads.size(); ++i) {
      (void)service.process_trip(bed.uploads[i]);
      latest = std::max(latest, bed.uploads[i].samples.back().time);
    }
    service.advance_time(latest + kMinute);
    service.publish_epoch(publisher, latest + kMinute);
    (void)queries.segment_speed(service.catalog().adjacent_keys().front());
    (void)queries.route_eta(bed.world.city().routes().front(), 0, latest);
    (void)queries.region_aggregate(publisher.geometry().region());
    (void)queries.k_nearest_live_segments(0.0, 0.0, 2);
    (void)service.checkpoint();
    service.close();

    const std::vector<std::string> backend = {
        "counter durability.appends",
        "counter durability.bytes_appended",
        "counter durability.checkpoints",
        "counter durability.fsyncs",
        "counter durability.recovered_records",
        "counter durability.truncated_tail_bytes",
        "counter matcher.calls",
        "counter matcher.gamma_candidates",
        "counter matcher.records_accepted",
        "counter matcher.records_bound_skipped",
        "counter matcher.records_considered",
        "counter matcher.records_pruned",
        "counter pipeline.clusters",
        "counter pipeline.estimates",
        "counter pipeline.samples_considered",
        "counter pipeline.samples_matched",
        "counter pipeline.samples_rejected",
        "counter pipeline.trips",
        "histogram fusion.fold_s",
        "histogram pipeline.cluster_s",
        "histogram pipeline.estimate_s",
        "histogram pipeline.map_s",
        "histogram pipeline.match_s",
        "histogram pipeline.trip_s",
    };
    const std::vector<std::string> shards = {
        "counter ingest.admitted",
        "counter ingest.rejected.duplicate",
        "counter ingest.rejected.malformed",
        "counter ingest.rejected.non_monotone",
        "counter ingest.shard.enqueued",
        "counter ingest.shard.processed",
        "counter ingest.shard.rejected_queue_full",
        "counter ingest.shard.rejected_shutdown",
        "counter ingest.shard.worker_errors",
        "counter ingest.skew_corrected",
    };
    const std::vector<std::string> serving = {
        "counter epochs.overflow_readers",
        "counter epochs.published",
        "counter epochs.retired",
        "gauge epochs.live",
        "gauge epochs.pinned",
        "histogram publish.build_s",
    };
    const std::vector<std::string> query = {
        "counter queries.eta",
        "counter queries.knearest",
        "counter queries.no_epoch",
        "counter queries.region",
        "counter queries.segment",
        "histogram query.latency.eta",
        "histogram query.latency.knearest",
        "histogram query.latency.region",
        "histogram query.latency.segment",
    };
    EXPECT_EQ(names(service.metrics().snapshot()), backend);
    EXPECT_EQ(names(service.shard_metrics()), shards);
    EXPECT_EQ(names(publisher.metrics().snapshot()), serving);
    EXPECT_EQ(names(queries.metrics().snapshot()), query);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bussense
