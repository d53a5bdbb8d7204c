// The asynchronous ingest front end (ShardedIngestService): backpressure
// semantics, graceful shutdown, and the determinism contract — the
// sharded path must produce a fused map bit-identical to the serial
// TrafficServer for the same accepted uploads, with metrics and admission
// on or off, at any shard and producer count, and regardless of when
// advance_time runs relative to live ingest.
//
// Configure with -DBUSSENSE_SANITIZE=thread to run this suite under
// ThreadSanitizer (scripts/tier1.sh BUSSENSE_SANITIZE=ON and
// BUSSENSE_SHARDED=ON do).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/ingest_service.h"
#include "core/server.h"
#include "core/stop_database.h"
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

using Backpressure = ShardedIngestConfig::Backpressure;

// ------------------------------------------------------------- validation

TEST(ServerConfigValidation, ThrowsOnNonsense) {
  const Testbed& bed = testbed();
  ServerConfig bad;
  bad.fusion.update_period_s = 0.0;
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database, bad),
               std::invalid_argument);
  ServerConfig bad2;
  bad2.clustering.max_gap_s = -1.0;
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database, bad2),
               std::invalid_argument);
}

// ------------------------------------------------------------ backpressure

// Several producers race a one-slot inbox under kReject: every
// upload is either queued (and then processed) or refused with kQueueFull,
// and every refusal is counted. The producers cycle the feed until they
// have seen a bounded number of refusals, so the refusal path is known to
// have run; once drained, the freed capacity queues the next upload again.
TEST(IngestBackpressure, RejectPolicyCountsRefusals) {
  const Testbed& bed = testbed();
  ShardedIngestConfig svc;
  svc.shards = 1;
  svc.queue_capacity = 1;  // tiny on purpose: producers outrun the consumer
  svc.backpressure = Backpressure::kReject;
  ShardedIngestService service(bed.world.city(), bed.database, {}, svc);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kWantRefusals = 16;
  const std::size_t max_attempts = 4 * bed.trips.size();  // per producer
  std::atomic<std::size_t> queued{0}, refused{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t a = 0; a < max_attempts && refused < kWantRefusals;
           ++a) {
        const std::size_t i = (p + a * kProducers) % bed.trips.size();
        const TripReport r = service.process_trip(bed.trips[i].upload);
        if (r.outcome == IngestOutcome::kQueued) {
          ++queued;
        } else {
          ++refused;
          EXPECT_EQ(r.outcome, IngestOutcome::kRejected);
          EXPECT_EQ(r.reject_reason, RejectReason::kQueueFull);
          EXPECT_FALSE(r.accepted());
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.drain();
  EXPECT_GT(refused.load(), 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.trips_processed(), queued.load());

  // The refusals are an operator-visible signal, not a silent drop.
  const MetricsSnapshot sm = service.shard_metrics();
  EXPECT_EQ(sm.counters.at("ingest.shard.enqueued"), queued.load());
  EXPECT_EQ(sm.counters.at("ingest.shard.processed"), queued.load());
  EXPECT_EQ(sm.counters.at("ingest.shard.rejected_queue_full"), refused.load());

  // Draining freed the inbox: the next upload is queued, not refused.
  EXPECT_EQ(service.process_trip(bed.trips.front().upload).outcome,
            IngestOutcome::kQueued);
  service.drain();
  EXPECT_EQ(service.trips_processed(), queued.load() + 1);
}

TEST(IngestBackpressure, BlockPolicyIsLossless) {
  const Testbed& bed = testbed();
  ShardedIngestConfig svc;
  svc.shards = 2;
  svc.queue_capacity = 2;  // tiny on purpose: producers must block
  svc.backpressure = Backpressure::kBlock;
  ShardedIngestService service(bed.world.city(), bed.database, {}, svc);

  std::atomic<std::size_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p); i < bed.trips.size();
           i += 4) {
        if (service.process_trip(bed.trips[i].upload).accepted()) ++accepted;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  service.drain();
  EXPECT_EQ(accepted.load(), bed.trips.size());
  EXPECT_EQ(service.trips_processed(), bed.trips.size());
  const MetricsSnapshot sm = service.shard_metrics();
  EXPECT_EQ(sm.counters.at("ingest.shard.processed"), bed.trips.size());
  EXPECT_EQ(sm.counters.at("ingest.shard.rejected_queue_full"), 0u);
}

// ------------------------------------------------------------- determinism

// Producer threads interleave process_trip with advance_time and snapshot
// mid-ingestion; the fused map must still be bit-identical to serial
// ingestion. advance_time(0) closes no period that is still receiving
// estimates — the determinism contract — but drains the shards and flushes
// the fusion store against concurrent folds from the shard consumers.
TEST(ConcurrencyDeterminism, InterleavedOpsBitIdenticalToSerial) {
  const Testbed& bed = testbed();
  ASSERT_GT(bed.trips.size(), 40u);
  const SimTime end = at_clock(1, 0, 0);

  TrafficServer serial(bed.world.city(), bed.database);
  for (const AnnotatedTrip& trip : bed.trips) serial.process_trip(trip.upload);
  serial.advance_time(end);
  const auto expected = serial.fusion().all();
  ASSERT_FALSE(expected.empty());

  for (const int threads : {2, 4, 8}) {
    ShardedIngestConfig svc;
    svc.shards = 3;
    svc.queue_capacity = 8;
    ShardedIngestService service(bed.world.city(), bed.database, {}, svc);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        int done = 0;
        for (std::size_t i = next.fetch_add(1); i < bed.trips.size();
             i = next.fetch_add(1)) {
          ASSERT_TRUE(service.process_trip(bed.trips[i].upload).accepted());
          if (++done % 8 == 0) {
            service.advance_time(0.0);
            (void)service.snapshot(end, 24 * kHour);
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
    service.advance_time(end);

    EXPECT_EQ(service.trips_processed(), bed.trips.size());
    const SpeedFusion& fusion = service.backend().fusion();
    ASSERT_EQ(fusion.all().size(), expected.size()) << threads;
    for (const auto& [key, fused] : expected) {
      const auto got = fusion.query(key);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->mean_kmh, fused.mean_kmh);
      EXPECT_EQ(got->variance, fused.variance);
      EXPECT_EQ(got->updated_at, fused.updated_at);
      EXPECT_EQ(got->observation_count, fused.observation_count);
    }
  }
}

TEST(IngestDeterminism, MetricsOffRegistryStaysEmpty) {
  const Testbed& bed = testbed();
  ServerConfig cfg;
  cfg.obs.enabled = false;
  ShardedIngestService service(bed.world.city(), bed.database, cfg);
  service.process_trip(bed.trips[0].upload);
  service.drain();
  for (const MetricsSnapshot& ms :
       {service.metrics().snapshot(), service.shard_metrics()}) {
    EXPECT_TRUE(ms.counters.empty());
    EXPECT_TRUE(ms.gauges.empty());
    EXPECT_TRUE(ms.histograms.empty());
  }
}

// ------------------------------------------------------- metrics registry

TEST(MetricsRegistry, MergeIsDeterministicAcrossShardings) {
  // The same 1000 observations split across 1, 2, 5 per-thread registries
  // and merged in order must snapshot identically.
  const auto feed = [](MetricsRegistry& reg, int begin, int end) {
    Counter& c = reg.counter("work.items");
    BucketHistogram& h = reg.histogram("work.latency_s");
    Gauge& g = reg.gauge("work.depth");
    for (int i = begin; i < end; ++i) {
      c.inc();
      h.record(1e-6 * static_cast<double>(1 + (i * 7919) % 100000));
      g.set(static_cast<double>(end));
    }
  };

  std::vector<MetricsSnapshot> snaps;
  for (const int shards : {1, 2, 5}) {
    std::vector<MetricsRegistry> parts(static_cast<std::size_t>(shards));
    const int per = 1000 / shards;
    for (int s = 0; s < shards; ++s) {
      feed(parts[static_cast<std::size_t>(s)], s * per, (s + 1) * per);
    }
    // Gauges are last-writer-wins: make every shard agree so the merge
    // order cannot matter for them either.
    for (auto& p : parts) p.gauge("work.depth").set(1000.0);
    MetricsRegistry merged;
    for (const auto& p : parts) merged.merge(p);
    snaps.push_back(merged.snapshot());
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    // Counters, gauges, bucket counts, totals and the histogram's integer
    // nanosecond sum all merge exactly (documented in obs/metrics.h).
    EXPECT_EQ(snaps[i].counters, snaps[0].counters);
    EXPECT_EQ(snaps[i].gauges, snaps[0].gauges);
    ASSERT_EQ(snaps[i].histograms.size(), snaps[0].histograms.size());
    const auto& a = snaps[0].histograms.at("work.latency_s");
    const auto& b = snaps[i].histograms.at("work.latency_s");
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.percentile(0.5), b.percentile(0.5));
    EXPECT_EQ(a.percentile(0.99), b.percentile(0.99));
    EXPECT_EQ(a.sum, b.sum);
  }
}

TEST(MetricsRegistry, ConcurrentRecordingCountsEverything) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  BucketHistogram& h = reg.histogram("lat_s");
  std::vector<std::thread> pool;
  constexpr int kThreads = 8, kPer = 5000;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        c.inc();
        h.record(1e-5);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPer));
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_NEAR(snap.mean(), 1e-5, 1e-12);
}

TEST(BucketHistogramSnapshot, PercentilesInterpolateAndClamp) {
  BucketHistogram h({1.0, 2.0, 5.0});
  for (int i = 0; i < 50; ++i) h.record(0.5);   // first bucket
  for (int i = 0; i < 50; ++i) h.record(1.5);   // second bucket
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 100u);
  EXPECT_LE(snap.percentile(0.25), 1.0);
  EXPECT_GT(snap.percentile(0.75), 1.0);
  EXPECT_LE(snap.percentile(0.75), 2.0);
  h.record(100.0);  // overflow clamps to the last finite bound
  EXPECT_EQ(h.snapshot().percentile(1.0), 5.0);
  EXPECT_THROW(BucketHistogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(BucketHistogram({}), std::invalid_argument);
}

// ---------------------------------------------------------- sharded ingest

const std::vector<TripUpload>& nonempty_uploads() {
  // Admission (rightly) rejects sample-less uploads; the sharded identity
  // sweeps run with admission on, so feed only trips the clean pipeline
  // accepts — identity stays exact.
  static const std::vector<TripUpload> uploads = [] {
    std::vector<TripUpload> out;
    for (const AnnotatedTrip& trip : testbed().trips) {
      if (!trip.upload.samples.empty()) out.push_back(trip.upload);
    }
    return out;
  }();
  return uploads;
}

// Canonical byte rendering of a snapshot: segments in key order, every
// float as %.17g, so two equal strings mean bit-identical fused maps.
// (The fusion store hands segments out in hash-map order, which tracks
// insertion order — canonicalise before comparing bytes.)
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

TEST(ShardedIngestConfigValidation, RejectsNonsense) {
  const Testbed& bed = testbed();
  ShardedIngestConfig zero_shards;
  zero_shards.shards = 0;
  EXPECT_THROW(
      ShardedIngestService(bed.world.city(), bed.database, {}, zero_shards),
      std::invalid_argument);
  ShardedIngestConfig zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(
      ShardedIngestService(bed.world.city(), bed.database, {}, zero_queue),
      std::invalid_argument);
}

// After shutdown(): closed, late uploads refused with the explicit reason
// and counted, and a second shutdown() is a no-op.
void expect_late_upload_refused(ShardedIngestService& service,
                                const TripUpload& late_upload,
                                std::size_t processed) {
  EXPECT_TRUE(service.closed());
  EXPECT_EQ(service.queue_depth(), 0u);
  const TripReport late = service.process_trip(late_upload);
  EXPECT_EQ(late.outcome, IngestOutcome::kRejected);
  EXPECT_EQ(late.reject_reason, RejectReason::kShutdown);
  EXPECT_EQ(
      service.shard_metrics().counters.at("ingest.shard.rejected_shutdown"),
      1u);
  service.shutdown();  // idempotent
  EXPECT_EQ(service.trips_processed(), processed);
}

TEST(ShardedIngest, PartitionIsStableAndShutdownRejectsLateUploads) {
  const Testbed& bed = testbed();
  const auto& uploads = nonempty_uploads();
  ASSERT_FALSE(uploads.empty());
  ShardedIngestService service(bed.world.city(), bed.database, {}, {});

  // The participant hash is a pure function: same id, same shard, always.
  for (const std::int32_t id : {0, 1, 7, -3, 4096, 1 << 20}) {
    const std::size_t shard = service.shard_of(id);
    EXPECT_LT(shard, service.shard_count());
    EXPECT_EQ(shard, service.shard_of(id));
  }

  for (const TripUpload& upload : uploads) {
    EXPECT_TRUE(service.process_trip(upload).accepted());
  }
  service.drain();
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.trips_processed(), uploads.size());
  const MetricsSnapshot sm = service.shard_metrics();
  EXPECT_EQ(sm.counters.at("ingest.shard.enqueued"), uploads.size());
  EXPECT_EQ(sm.counters.at("ingest.shard.processed"), uploads.size());
  EXPECT_EQ(sm.counters.at("ingest.shard.rejected_queue_full"), 0u);
  EXPECT_EQ(sm.counters.at("ingest.shard.worker_errors"), 0u);

  service.shutdown();
  expect_late_upload_refused(service, uploads[0], uploads.size());
}

// shutdown() with no drain() first is still graceful: everything queued
// before it is analysed.
TEST(IngestShutdown, DrainsQueueAndRejectsLateUploads) {
  const Testbed& bed = testbed();
  ShardedIngestService service(bed.world.city(), bed.database);
  const std::size_t n = std::min<std::size_t>(bed.trips.size(), 20);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(service.process_trip(bed.trips[i].upload).accepted());
  }
  service.shutdown();
  EXPECT_EQ(service.trips_processed(), n);
  expect_late_upload_refused(service, bed.trips[0].upload, n);
}

// Shutdown while producers hammer tiny inboxes: each upload is either
// processed or refused — under kBlock only with kShutdown (a blocked
// producer is released, never stranded), under kReject with kShutdown or
// kQueueFull — and every refusal is counted.
void check_shutdown_under_producer_load(Backpressure policy) {
  const Testbed& bed = testbed();
  for (int round = 0; round < 3; ++round) {
    ShardedIngestConfig svc;
    svc.shards = 3;
    svc.queue_capacity = 2;
    svc.backpressure = policy;
    auto service = std::make_unique<ShardedIngestService>(
        bed.world.city(), bed.database, ServerConfig{}, svc);
    std::atomic<std::size_t> accepted{0}, rejected{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = static_cast<std::size_t>(p);
             i < bed.trips.size(); i += 4) {
          const TripReport r = service->process_trip(bed.trips[i].upload);
          if (r.accepted()) {
            ++accepted;
            continue;
          }
          ++rejected;
          if (policy == Backpressure::kBlock) {
            EXPECT_EQ(r.reject_reason, RejectReason::kShutdown);
          } else {
            EXPECT_TRUE(r.reject_reason == RejectReason::kShutdown ||
                        r.reject_reason == RejectReason::kQueueFull);
          }
        }
      });
    }
    // Tear the service down while producers are still feeding it; every
    // upload that was told kQueued must still reach the pipeline.
    service->shutdown();
    for (std::thread& t : producers) t.join();
    EXPECT_EQ(accepted.load() + rejected.load(), bed.trips.size());
    EXPECT_EQ(service->trips_processed(), accepted.load());
    const MetricsSnapshot sm = service->shard_metrics();
    EXPECT_EQ(sm.counters.at("ingest.shard.processed"), accepted.load());
    EXPECT_EQ(sm.counters.at("ingest.shard.rejected_queue_full") +
                  sm.counters.at("ingest.shard.rejected_shutdown"),
              rejected.load());
    if (policy == Backpressure::kBlock) {
      EXPECT_EQ(sm.counters.at("ingest.shard.rejected_queue_full"), 0u);
    }
  }
}

TEST(IngestShutdown, UnderProducerLoadLosesNoAcceptedUpload) {
  check_shutdown_under_producer_load(Backpressure::kBlock);
}

TEST(ShardedIngest, ShutdownUnderProducerLoadLosesNoAcceptedUpload) {
  check_shutdown_under_producer_load(Backpressure::kReject);
}

// The tentpole property: the sharded path must fuse bit-identically to the
// serial TrafficServer at every shard count, with admission and metrics
// each on and off, fed by `producer_count` concurrent producers.
void check_bit_identical_to_serial(std::size_t producer_count) {
  const Testbed& bed = testbed();
  const auto& uploads = nonempty_uploads();
  ASSERT_GT(uploads.size(), 30u);
  const SimTime end = at_clock(1, 0, 0);

  TrafficServer serial(bed.world.city(), bed.database);
  for (const TripUpload& upload : uploads) serial.process_trip(upload);
  serial.advance_time(end);
  const auto expected = serial.fusion().all();
  ASSERT_FALSE(expected.empty());

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const bool metrics_on : {true, false}) {
      for (const bool admission_enabled : {false, true}) {
        ServerConfig cfg;
        cfg.obs.enabled = metrics_on;
        cfg.admission.enabled = admission_enabled;
        ShardedIngestConfig svc;
        svc.shards = shards;
        svc.queue_capacity = 8;  // tiny: exercises blocking backpressure
        ShardedIngestService service(bed.world.city(), bed.database, cfg,
                                     svc);

        std::vector<std::thread> producers;
        for (std::size_t p = 0; p < producer_count; ++p) {
          producers.emplace_back([&, p] {
            for (std::size_t i = p; i < uploads.size(); i += producer_count) {
              ASSERT_TRUE(service.process_trip(uploads[i]).accepted());
            }
          });
        }
        for (std::thread& t : producers) t.join();
        service.advance_time(end);

        const std::string label =
            std::to_string(shards) + " shards, " +
            std::to_string(producer_count) + " producers, metrics " +
            (metrics_on ? "on" : "off") + ", admission " +
            (admission_enabled ? "on" : "off");
        EXPECT_EQ(service.trips_processed(), uploads.size()) << label;
        const auto got = service.backend().fusion().all();
        ASSERT_EQ(got.size(), expected.size()) << label;
        for (const auto& [key, fused] : expected) {
          const auto q = service.backend().fusion().query(key);
          ASSERT_TRUE(q.has_value()) << label;
          EXPECT_EQ(q->mean_kmh, fused.mean_kmh) << label;
          EXPECT_EQ(q->variance, fused.variance) << label;
          EXPECT_EQ(q->updated_at, fused.updated_at) << label;
          EXPECT_EQ(q->observation_count, fused.observation_count) << label;
        }

        if (metrics_on) {
          const MetricsSnapshot sm = service.shard_metrics();
          EXPECT_EQ(sm.counters.at("ingest.shard.enqueued"), uploads.size())
              << label;
          EXPECT_EQ(sm.counters.at("ingest.shard.processed"),
                    uploads.size())
              << label;
          if (admission_enabled) {
            EXPECT_EQ(sm.counters.at("ingest.admitted"), uploads.size())
                << label;
          }
        } else {
          EXPECT_TRUE(service.shard_metrics().counters.empty()) << label;
        }
      }
    }
  }
}

TEST(ShardedIngestDeterminism, BitIdenticalToSerialAcrossShardsAdmissionMetrics) {
  check_bit_identical_to_serial(3);
}

// More producers than the service has shards or inbox slots, so producers
// queue behind each other on the shard locks and block for room.
TEST(IngestDeterminism, QueuedPathBitIdenticalToSerial) {
  check_bit_identical_to_serial(20);
}

// Cross-shard merge determinism: interleave advance_time with trip bursts,
// reshuffle the within-burst feeding order with a seeded Rng, and vary the
// shard and producer counts per run — the final TrafficMap must be
// byte-identical, and so must the merged per-shard metrics JSON, across 20
// reshuffled runs. Skew re-anchoring is disabled (its per-participant
// offset state is processing-order dependent by design — admission.h);
// dedup and the shape bounds stay on.
TEST(ShardedIngestDeterminism, CrossShardMergeByteIdenticalAcrossReshuffledRuns) {
  const Testbed& bed = testbed();
  std::vector<TripUpload> uploads = nonempty_uploads();
  ASSERT_GT(uploads.size(), 16u);
  // Bursts are ordered by first-sample time so each interleaved
  // advance_time() respects the ingestor contract: every estimate of a
  // later burst is newer than the period being closed.
  std::stable_sort(uploads.begin(), uploads.end(),
                   [](const TripUpload& a, const TripUpload& b) {
                     return a.samples.front().time < b.samples.front().time;
                   });
  const std::size_t n = uploads.size();
  const std::array<std::size_t, 5> cut = {0, n / 4, n / 2, 3 * n / 4, n};
  const SimTime end = at_clock(1, 0, 0);

  ServerConfig cfg;
  cfg.admission.enabled = true;
  cfg.admission.max_clock_skew_s = 0.0;  // disable order-dependent skew state

  std::string reference_map, reference_metrics;
  for (int run = 0; run < 20; ++run) {
    ShardedIngestConfig svc;
    svc.shards = std::size_t{1} << (run % 4);  // 1, 2, 4, 8
    svc.queue_capacity = 16;
    ShardedIngestService service(bed.world.city(), bed.database, cfg, svc);

    Rng rng(static_cast<std::uint64_t>(900 + run));
    for (int burst = 0; burst < 4; ++burst) {
      std::vector<std::size_t> order;
      for (std::size_t i = cut[burst]; i < cut[burst + 1]; ++i) {
        order.push_back(i);
      }
      for (std::size_t i = order.size(); i > 1; --i) {  // seeded Fisher–Yates
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<int>(i) - 1))]);
      }
      const int producers = 1 + run % 3;
      std::vector<std::thread> pool;
      for (int p = 0; p < producers; ++p) {
        pool.emplace_back([&, p] {
          for (std::size_t i = static_cast<std::size_t>(p); i < order.size();
               i += static_cast<std::size_t>(producers)) {
            ASSERT_TRUE(service.process_trip(uploads[order[i]]).accepted());
          }
        });
      }
      for (std::thread& t : pool) t.join();
      // Merge point: close everything strictly older than the next burst.
      const SimTime advance_to =
          burst + 1 < 4 ? uploads[cut[burst + 1]].samples.front().time : end;
      service.advance_time(advance_to);
    }

    const std::string got_map = map_bytes(service.snapshot(end, kDay));
    const std::string got_metrics = service.shard_metrics().to_json();
    if (run == 0) {
      ASSERT_FALSE(got_map.empty());
      reference_map = got_map;
      reference_metrics = got_metrics;
    } else {
      EXPECT_EQ(got_map, reference_map) << "run " << run;
      EXPECT_EQ(got_metrics, reference_metrics) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace bussense
