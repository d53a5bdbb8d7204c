// Integration tests: the full simulated world driving the full backend
// pipeline, ablation orderings, determinism.
#include <gtest/gtest.h>

#include <map>

#include "common/stats.h"
#include "core/gps_tracker.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

// A shared world + surveyed database (expensive to build).
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

// Fraction of clusters whose mapped stop equals the majority ground truth of
// its member samples.
double mapping_accuracy(const World& world, const TrafficServer& server,
                        const std::vector<AnnotatedTrip>& trips) {
  int total = 0, correct = 0;
  for (const AnnotatedTrip& trip : trips) {
    std::size_t rejected = 0;
    const auto matched = server.match_samples(trip.upload, &rejected);
    // Align matched samples back to truth indices by timestamp.
    std::map<double, StopId> truth_by_time;
    for (std::size_t i = 0; i < trip.upload.samples.size(); ++i) {
      truth_by_time[trip.upload.samples[i].time] = trip.truth.sample_stops[i];
    }
    const auto clusters = server.cluster_samples(matched);
    const MappedTrip mapped = server.map_trip(clusters);
    for (const MappedCluster& mc : mapped.stops) {
      std::map<StopId, int> votes;
      for (const MatchedSample& m : clusters[mc.cluster].members(matched)) {
        ++votes[truth_by_time.at(m.time)];
      }
      StopId majority = kInvalidStop;
      int best = 0;
      for (const auto& [stop, count] : votes) {
        if (count > best) {
          best = count;
          majority = stop;
        }
      }
      if (majority == kInvalidStop) continue;  // spurious-dominated cluster
      ++total;
      if (mc.stop == world.city().effective_stop(majority)) ++correct;
    }
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

TEST(Integration, SingleTripMapsToTrueStops) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  const BusRoute& route = *bed.world.city().route_by_name("243", 0);
  Rng rng(1);
  const AnnotatedTrip trip =
      bed.world.simulate_single_trip(route, 3, 15, at_clock(0, 8, 0), rng);
  ASSERT_GT(trip.upload.samples.size(), 10u);
  const double acc = mapping_accuracy(bed.world, server, {trip});
  EXPECT_GT(acc, 0.9);
}

TEST(Integration, EstimatesTrackGroundTruthOnCongestedRoute) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  const BusRoute& route = *bed.world.city().route_by_name("243", 0);
  Rng rng(2);
  const AnnotatedTrip trip =
      bed.world.simulate_single_trip(route, 2, 18, at_clock(0, 8, 10), rng);
  const auto report = server.process_trip(trip.upload);
  ASSERT_GT(report.estimates.size(), 5u);
  RunningStats err;
  for (const SpeedEstimate& e : report.estimates) {
    const SpanInfo* info = server.catalog().adjacent(e.segment);
    ASSERT_NE(info, nullptr);
    const double truth = bed.world.traffic().mean_car_speed_kmh(
        bed.world.city().route(info->route), info->arc_from, info->arc_to,
        e.time);
    err.add(std::abs(e.att_speed_kmh - truth));
  }
  // Morning commuter congestion: the low-speed regime where the paper finds
  // the tightest agreement (Δv ~ 3-5 km/h).
  EXPECT_LT(err.mean(), 6.0);
}

TEST(Integration, FullDayFeedsTheTrafficMap) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  Rng rng(3);
  const auto day = bed.world.simulate_day(0, 2.0, rng);
  ASSERT_GT(day.trips.size(), 50u);
  for (const AnnotatedTrip& trip : day.trips) {
    server.process_trip(trip.upload);
  }
  server.advance_time(at_clock(0, 22, 0));
  const TrafficMap evening = server.snapshot(at_clock(0, 19, 0), 2.0 * kHour);
  EXPECT_GT(evening.segments().size(), 20u);
  EXPECT_GT(evening.coverage_ratio(server.catalog()), 0.05);
  EXPECT_GT(evening.mean_speed_kmh(), 15.0);
  EXPECT_LT(evening.mean_speed_kmh(), 60.0);
}

TEST(Integration, DayScaleMappingAccuracyHigh) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  Rng rng(4);
  const auto day = bed.world.simulate_day(0, 1.5, rng);
  const double acc = mapping_accuracy(bed.world, server, day.trips);
  // Paper Table II: per-sample identification error <= 8%; clustering plus
  // route constraints push per-cluster accuracy higher still.
  EXPECT_GT(acc, 0.93);
}

TEST(Integration, TripMappingAblationDoesNotHurt) {
  const Testbed& bed = testbed();
  ServerConfig with, without;
  without.stages.trip_mapping = false;
  TrafficServer s_with(bed.world.city(), bed.database, with);
  TrafficServer s_without(bed.world.city(), bed.database, without);
  Rng rng(5);
  const auto day = bed.world.simulate_day(0, 1.0, rng);
  const double acc_with = mapping_accuracy(bed.world, s_with, day.trips);
  const double acc_without = mapping_accuracy(bed.world, s_without, day.trips);
  EXPECT_GE(acc_with + 0.01, acc_without);
}

TEST(Integration, ServerRejectsSpuriousSamplesViaGamma) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  // A fingerprint of towers that exist nowhere in the database.
  TripUpload trip;
  trip.samples.push_back(CellularSample{0.0, Fingerprint{{999901, 999902}}});
  trip.samples.push_back(CellularSample{5.0, Fingerprint{{999903, 999904}}});
  const auto report = server.process_trip(trip);
  EXPECT_EQ(report.matched.size(), 0u);
  EXPECT_EQ(report.rejected_samples, 2u);
  EXPECT_TRUE(report.estimates.empty());
}

TEST(Integration, DeterministicGivenSeeds) {
  const Testbed& bed = testbed();
  Rng rng1(7), rng2(7);
  const auto day1 = bed.world.simulate_day(0, 1.0, rng1);
  const auto day2 = bed.world.simulate_day(0, 1.0, rng2);
  ASSERT_EQ(day1.trips.size(), day2.trips.size());
  for (std::size_t i = 0; i < day1.trips.size(); ++i) {
    ASSERT_EQ(day1.trips[i].upload.samples.size(),
              day2.trips[i].upload.samples.size());
    for (std::size_t k = 0; k < day1.trips[i].upload.samples.size(); ++k) {
      EXPECT_DOUBLE_EQ(day1.trips[i].upload.samples[k].time,
                       day2.trips[i].upload.samples[k].time);
      EXPECT_EQ(day1.trips[i].upload.samples[k].fingerprint,
                day2.trips[i].upload.samples[k].fingerprint);
    }
  }
}

TEST(Integration, GpsBaselineNoisierThanCellular) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  const SegmentCatalog& catalog = server.catalog();
  const GpsTracker gps(catalog);
  const BusRoute& route = *bed.world.city().route_by_name("79", 0);
  Rng rng(8);
  RunningStats cellular_err, gps_err;
  for (int trial = 0; trial < 6; ++trial) {
    const SimTime depart = at_clock(0, 9 + trial, 15);
    const std::map<int, int> board{{1, 1}};
    const std::map<int, int> alight{{static_cast<int>(route.stop_count()) - 2, 1}};
    const BusRun run = bed.world.buses().simulate_run(
        route, depart, board, alight, 600.0, rng, /*record_trajectory=*/true);
    // Cellular pipeline.
    const AnnotatedTrip trip = bed.world.simulate_single_trip(
        route, 1, static_cast<int>(route.stop_count()) - 2, depart, rng);
    const auto report = server.process_trip(trip.upload);
    for (const SpeedEstimate& e : report.estimates) {
      const SpanInfo* info = catalog.adjacent(e.segment);
      const double truth = bed.world.traffic().mean_car_speed_kmh(
          bed.world.city().route(info->route), info->arc_from, info->arc_to,
          e.time);
      cellular_err.add(std::abs(e.att_speed_kmh - truth));
    }
    // GPS baseline on the same physical run.
    const auto fixes = bed.world.gps_trace(run, 2.0, rng);
    for (const SpeedEstimate& e : gps.estimate(route, fixes)) {
      const SpanInfo* info = catalog.adjacent(e.segment);
      const double truth = bed.world.traffic().mean_car_speed_kmh(
          bed.world.city().route(info->route), info->arc_from, info->arc_to,
          e.time);
      gps_err.add(std::abs(e.att_speed_kmh - truth));
    }
  }
  ASSERT_GT(cellular_err.count(), 20u);
  ASSERT_GT(gps_err.count(), 20u);
  EXPECT_LT(cellular_err.mean(), gps_err.mean());
}

TEST(Integration, SmallCityWorldWorksEndToEnd) {
  // The library is not tied to the default city: build a smaller world.
  WorldConfig cfg;
  cfg.city.width_m = 4000.0;
  cfg.city.height_m = 3000.0;
  cfg.city.route_names = {"79", "243", "31"};
  cfg.participant_count = 8;
  cfg.seed = 99;
  const World world(cfg);
  EXPECT_EQ(world.city().routes().size(), 6u);
  Rng rng(1);
  StopDatabase db = build_stop_database(
      world.city(),
      [&](StopId stop, int) { return world.scan_stop(stop, rng, false); }, 3);
  TrafficServer server(world.city(), std::move(db));
  const auto day = world.simulate_day(0, 2.0, rng);
  EXPECT_GT(day.trips.size(), 10u);
  int est = 0;
  for (const AnnotatedTrip& trip : day.trips) {
    est += static_cast<int>(server.process_trip(trip.upload).estimates.size());
  }
  EXPECT_GT(est, 20);
}

}  // namespace
}  // namespace bussense
