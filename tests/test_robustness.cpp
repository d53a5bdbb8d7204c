// Robustness and concurrency tests: malformed uploads from the crowd must
// never corrupt or crash the backend, and sharded (multi-threaded)
// ingestion must be deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/ingest_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

struct Testbed {
  World world;
  StopDatabase database;

  Testbed() {
    Rng survey_rng(2024);
    database = build_stop_database(
        world.city(),
        [&](StopId stop, int run) {
          return world.scan_stop(stop, survey_rng, run % 2 == 1);
        },
        5);
  }
};

const Testbed& testbed() {
  static const Testbed bed;
  return bed;
}

AnnotatedTrip good_trip(std::uint64_t seed = 1) {
  const Testbed& bed = testbed();
  Rng rng(seed);
  const BusRoute& route = *bed.world.city().route_by_name("243", 0);
  return bed.world.simulate_single_trip(route, 2, 14, at_clock(0, 9, 0), rng);
}

// -------------------------------------------------------------- bad uploads

TEST(Robustness, OutOfOrderSamplesAreSorted) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  AnnotatedTrip trip = good_trip(2);
  // Shuffle the upload: phones on lossy links may deliver out of order.
  std::mt19937_64 gen(3);
  std::shuffle(trip.upload.samples.begin(), trip.upload.samples.end(), gen);
  const auto report = server.process_trip(trip.upload);
  EXPECT_GT(report.mapped.stops.size(), 5u);
  for (std::size_t i = 1; i < report.matched.size(); ++i) {
    EXPECT_LE(report.matched[i - 1].time, report.matched[i].time);
  }
  EXPECT_GT(report.estimates.size(), 3u);
}

TEST(Robustness, ShuffledUploadGivesSameResultAsOrdered) {
  const Testbed& bed = testbed();
  TrafficServer a(bed.world.city(), bed.database);
  TrafficServer b(bed.world.city(), bed.database);
  AnnotatedTrip trip = good_trip(4);
  const auto ordered = a.process_trip(trip.upload);
  std::mt19937_64 gen(5);
  std::shuffle(trip.upload.samples.begin(), trip.upload.samples.end(), gen);
  const auto shuffled = b.process_trip(trip.upload);
  ASSERT_EQ(ordered.mapped.stops.size(), shuffled.mapped.stops.size());
  for (std::size_t i = 0; i < ordered.mapped.stops.size(); ++i) {
    EXPECT_EQ(ordered.mapped.stops[i].stop, shuffled.mapped.stops[i].stop);
  }
  ASSERT_EQ(ordered.estimates.size(), shuffled.estimates.size());
}

TEST(Robustness, EmptyAndDegenerateUploads) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  const auto empty = server.process_trip(TripUpload{});
  EXPECT_TRUE(empty.matched.empty());
  EXPECT_TRUE(empty.estimates.empty());

  TripUpload blanks;
  blanks.samples.resize(5);  // empty fingerprints, zero times
  const auto report = server.process_trip(blanks);
  EXPECT_TRUE(report.matched.empty());
  EXPECT_EQ(report.rejected_samples, 5u);
}

TEST(Robustness, DuplicateTimestampsAreTolerated) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  AnnotatedTrip trip = good_trip(6);
  // Clone every sample (double-tap artefacts).
  auto samples = trip.upload.samples;
  trip.upload.samples.insert(trip.upload.samples.end(), samples.begin(),
                             samples.end());
  const auto report = server.process_trip(trip.upload);
  EXPECT_GT(report.mapped.stops.size(), 5u);
}

TEST(Robustness, UnknownTowersOnlyTripIsDiscarded) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  TripUpload garbage;
  for (int i = 0; i < 20; ++i) {
    garbage.samples.push_back(CellularSample{
        static_cast<double>(i * 30),
        Fingerprint{{900000 + i, 910000 + i, 920000 + i}}});
  }
  const auto report = server.process_trip(garbage);
  EXPECT_TRUE(report.estimates.empty());
  EXPECT_EQ(report.rejected_samples, 20u);
}

TEST(Robustness, SingleSampleTripYieldsNoEstimates) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  AnnotatedTrip trip = good_trip(7);
  trip.upload.samples.resize(1);
  const auto report = server.process_trip(trip.upload);
  EXPECT_TRUE(report.estimates.empty());
}

TEST(Robustness, NegativeAndHugeTimestamps) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  AnnotatedTrip trip = good_trip(8);
  trip.upload.samples.front().time = -1e9;
  trip.upload.samples.back().time = 1e12;
  // Must not throw; the absurd gaps simply split/discard estimates.
  EXPECT_NO_THROW(server.process_trip(trip.upload));
}

// -------------------------------------------------------------- concurrency

TEST(ShardedRobustness, MatchesSerialResults) {
  const Testbed& bed = testbed();
  Rng rng(9);
  const auto day = bed.world.simulate_day(0, 1.5, rng);
  ASSERT_GT(day.trips.size(), 40u);

  TrafficServer serial(bed.world.city(), bed.database);
  for (const AnnotatedTrip& trip : day.trips) serial.process_trip(trip.upload);
  serial.advance_time(at_clock(0, 23, 0));

  ShardedIngestService sharded(bed.world.city(), bed.database);
  const int threads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < day.trips.size();
           i += threads) {
        sharded.process_trip(day.trips[i].upload);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  sharded.advance_time(at_clock(0, 23, 0));

  EXPECT_EQ(sharded.trips_processed(), day.trips.size());
  // Period-batched fusion sums are order-insensitive, so the fused map is
  // identical whatever the interleaving.
  const SpeedFusion& fusion = sharded.backend().fusion();
  const auto serial_all = serial.fusion().all();
  for (const auto& [key, fused] : serial_all) {
    const auto other = fusion.query(key);
    ASSERT_TRUE(other.has_value());
    // Sorted-order period sums make fusion order-insensitive, so the fused
    // values are bit-identical — not merely close — to serial ingestion.
    EXPECT_EQ(other->mean_kmh, fused.mean_kmh);
    EXPECT_EQ(other->observation_count, fused.observation_count);
  }
  EXPECT_EQ(fusion.all().size(), serial_all.size());
}

TEST(ShardedRobustness, SnapshotWhileIngesting) {
  const Testbed& bed = testbed();
  Rng rng(10);
  const auto day = bed.world.simulate_day(0, 1.0, rng);
  ShardedIngestService server(bed.world.city(), bed.database);
  std::atomic<bool> done{false};
  std::thread ingester([&] {
    for (const AnnotatedTrip& trip : day.trips) server.process_trip(trip.upload);
    done = true;
  });
  // Reads race the shard consumers' folds and the ingester's pushes.
  do {
    const TrafficMap map = server.snapshot(at_clock(0, 20, 0), 24 * kHour);
    (void)map;
  } while (server.trips_processed() < day.trips.size());
  ingester.join();
  EXPECT_TRUE(done);
  server.advance_time(at_clock(0, 23, 0));
  EXPECT_EQ(server.trips_processed(), day.trips.size());
  EXPECT_FALSE(
      server.snapshot(at_clock(0, 20, 0), 24 * kHour).segments().empty());
}

TEST(ShardedRobustness, AnalyzeIsPure) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  const AnnotatedTrip trip = good_trip(11);
  const auto r1 = server.analyze_trip(trip.upload);
  const auto r2 = server.analyze_trip(trip.upload);
  ASSERT_EQ(r1.estimates.size(), r2.estimates.size());
  for (std::size_t i = 0; i < r1.estimates.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.estimates[i].att_speed_kmh,
                     r2.estimates[i].att_speed_kmh);
  }
  // analyze_trip must not have fed the fusion state.
  EXPECT_TRUE(server.fusion().all().empty());
  EXPECT_EQ(server.trips_processed(), 0u);
}

}  // namespace
}  // namespace bussense
