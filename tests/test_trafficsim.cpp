// Unit tests for the traffic simulation substrate: ground-truth field,
// demand, bus kinematics, taxi feed, world orchestration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "citynet/city_generator.h"
#include "common/stats.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

const City& test_city() {
  static const City city = generate_city();
  return city;
}

const TrafficField& test_field() {
  static const TrafficField field(test_city().network(), TrafficFieldConfig{},
                                  77);
  return field;
}

// The full default world is expensive to build; share one across tests.
const World& test_world() {
  static const World world{};
  return world;
}

// ----------------------------------------------------------- traffic field

TEST(TrafficField, CongestionWithinBounds) {
  const auto& field = test_field();
  for (SegmentId link : {0, 10, 50, 100}) {
    for (double h = 0.0; h < 24.0; h += 0.25) {
      const double c = field.congestion(link, h * kHour);
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, TrafficFieldConfig{}.max_congestion);
    }
  }
}

TEST(TrafficField, SpeedNeverExceedsFreeSpeed) {
  const auto& field = test_field();
  for (SegmentId link = 0; link < static_cast<SegmentId>(test_city().network().size());
       link += 7) {
    const double free = test_city().network().link(link).free_speed_kmh;
    for (double h = 6.0; h < 22.0; h += 1.0) {
      EXPECT_LE(field.car_speed_kmh(link, h * kHour), free + 1e-9);
      EXPECT_GT(field.car_speed_kmh(link, h * kHour), 0.0);
    }
  }
}

TEST(TrafficField, MorningPeakSlowerThanMidday) {
  const auto& field = test_field();
  // Average across many links: peak-hour speeds are systematically lower.
  double peak = 0.0, midday = 0.0;
  int n = 0;
  for (SegmentId link = 0; link < 200; link += 3) {
    peak += field.car_speed_kmh(link, at_clock(0, 8, 24));
    midday += field.car_speed_kmh(link, at_clock(0, 12, 30));
    ++n;
  }
  EXPECT_LT(peak / n + 5.0, midday / n);
}

TEST(TrafficField, CommuterCorridorCongestsHardInTheMorning) {
  const auto& field = test_field();
  const auto& net = test_city().network();
  double corridor = 0.0, other = 0.0;
  int nc = 0, no = 0;
  for (const RoadLink& link : net.links()) {
    const double c = field.congestion(link.id, at_clock(0, 8, 24));
    if (link.commuter_corridor) {
      corridor += c;
      ++nc;
    } else {
      other += c;
      ++no;
    }
  }
  ASSERT_GT(nc, 0);
  EXPECT_GT(corridor / nc, other / no + 0.2);
}

TEST(TrafficField, MeanCarSpeedIsHarmonic) {
  const auto& field = test_field();
  const BusRoute& route = test_city().routes()[0];
  const double v = field.mean_car_speed_kmh(route, 0.0, 1000.0, at_clock(0, 12, 0));
  EXPECT_GT(v, 5.0);
  EXPECT_LT(v, 65.0);
}

TEST(TrafficField, DeterministicGivenSeed) {
  const TrafficField f1(test_city().network(), TrafficFieldConfig{}, 42);
  const TrafficField f2(test_city().network(), TrafficFieldConfig{}, 42);
  EXPECT_DOUBLE_EQ(f1.car_speed_kmh(5, 12345.0), f2.car_speed_kmh(5, 12345.0));
}

// ------------------------------------------------------------------ demand

TEST(DemandModel, TimeFactorPeaksAtCommuteHours) {
  const DemandModel demand(DemandConfig{}, 10, 1);
  const double morning = demand.time_factor(at_clock(0, 8, 18));
  const double noon = demand.time_factor(at_clock(0, 13, 0));
  const double night = demand.time_factor(at_clock(0, 2, 0));
  EXPECT_GT(morning, 1.8 * noon);
  EXPECT_LT(night, 0.5 * noon);
}

TEST(DemandModel, BoardingRateScalesWithWindow) {
  const DemandModel demand(DemandConfig{}, 10, 2);
  Rng rng(3);
  RunningStats s5, s10;
  for (int i = 0; i < 3000; ++i) {
    s5.add(demand.draw_boarders(3, at_clock(0, 12, 0), 300.0, rng));
    s10.add(demand.draw_boarders(3, at_clock(0, 12, 0), 600.0, rng));
  }
  EXPECT_NEAR(s10.mean() / std::max(s5.mean(), 1e-9), 2.0, 0.25);
}

TEST(DemandModel, ZeroWindowMeansNoBoarders) {
  const DemandModel demand(DemandConfig{}, 10, 2);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(demand.draw_boarders(0, at_clock(0, 8, 0), 0.0, rng), 0);
  }
}

TEST(DemandModel, PopularityVariesAcrossStopsDeterministically) {
  const DemandModel d1(DemandConfig{}, 50, 9);
  const DemandModel d2(DemandConfig{}, 50, 9);
  bool varies = false;
  for (StopId s = 0; s < 50; ++s) {
    EXPECT_DOUBLE_EQ(d1.boarding_rate_per_s(s, at_clock(0, 12, 0)),
                     d2.boarding_rate_per_s(s, at_clock(0, 12, 0)));
    varies = varies || d1.boarding_rate_per_s(s, at_clock(0, 12, 0)) !=
                           d1.boarding_rate_per_s(0, at_clock(0, 12, 0));
  }
  EXPECT_TRUE(varies);
}

// ----------------------------------------------------------------- bus sim

struct RunFixture {
  const World& world = test_world();
  const BusRoute& route = *world.city().route_by_name("79", 0);
  Rng rng{55};
  BusRun run = world.buses().simulate_run(route, at_clock(0, 9, 0),
                                          {{2, 1}}, {{8, 1}}, 600.0, rng,
                                          /*record_trajectory=*/true);
};

TEST(BusSim, VisitsEveryStopInOrder) {
  RunFixture f;
  ASSERT_EQ(f.run.visits.size(), f.route.stop_count());
  for (std::size_t i = 0; i < f.run.visits.size(); ++i) {
    EXPECT_EQ(f.run.visits[i].stop_index, static_cast<int>(i));
    EXPECT_EQ(f.run.visits[i].stop, f.route.stops()[i].stop);
    if (i > 0) {
      EXPECT_GE(f.run.visits[i].arrival, f.run.visits[i - 1].departure);
    }
    EXPECT_GE(f.run.visits[i].departure, f.run.visits[i].arrival);
  }
  EXPECT_GE(f.run.end_time, f.run.visits.back().departure);
}

TEST(BusSim, ExtraBoardersForceService) {
  RunFixture f;
  EXPECT_TRUE(f.run.visits[2].served);
  EXPECT_GE(f.run.visits[2].boarders, 1);
  EXPECT_TRUE(f.run.visits[8].served);
  EXPECT_GE(f.run.visits[8].alighters, 1);
}

TEST(BusSim, ServedStopsHaveTapsMatchingCounts) {
  RunFixture f;
  for (const StopVisit& v : f.run.visits) {
    if (v.served) {
      EXPECT_EQ(static_cast<int>(v.taps.size()), v.boarders + v.alighters);
      for (const TapEvent& tap : v.taps) {
        EXPECT_GE(tap.time, v.arrival);
        EXPECT_LE(tap.time, v.departure + 0.5);
      }
    } else {
      EXPECT_TRUE(v.taps.empty());
      EXPECT_EQ(v.boarders, 0);
      EXPECT_EQ(v.alighters, 0);
      EXPECT_DOUBLE_EQ(v.arrival, v.departure);
    }
  }
}

TEST(BusSim, DwellGrowsWithPassengerCount) {
  RunFixture f;
  const World& world = f.world;
  Rng rng(66);
  const BusRun busy = world.buses().simulate_run(
      f.route, at_clock(0, 9, 0), {{2, 12}}, {}, 600.0, rng);
  const StopVisit& v = busy.visits[2];
  EXPECT_GT(v.departure - v.arrival,
            world.buses().config().base_dwell_s + 10.0);
}

TEST(BusSim, TrajectoryIsMonotone) {
  RunFixture f;
  ASSERT_GT(f.run.trajectory.size(), 10u);
  for (std::size_t i = 1; i < f.run.trajectory.size(); ++i) {
    EXPECT_GE(f.run.trajectory[i].time, f.run.trajectory[i - 1].time);
    EXPECT_GE(f.run.trajectory[i].arc, f.run.trajectory[i - 1].arc);
  }
  // The run ends at the final stop (not the path end); allow one dt of
  // integration overshoot.
  EXPECT_NEAR(f.run.trajectory.back().arc,
              f.route.stop_arc(static_cast<int>(f.route.stop_count()) - 1),
              9.0);
}

TEST(BusSim, ArcAtInterpolates) {
  RunFixture f;
  const StopVisit& v = f.run.visits[5];
  // While dwelling at a served stop the bus sits at the stop arc.
  if (v.served) {
    EXPECT_NEAR(f.run.arc_at(0.5 * (v.arrival + v.departure)),
                f.route.stop_arc(5), 3.0);
  }
  EXPECT_DOUBLE_EQ(f.run.arc_at(f.run.depart_time - 100.0),
                   f.run.trajectory.front().arc);
  EXPECT_DOUBLE_EQ(f.run.arc_at(f.run.end_time + 100.0),
                   f.run.trajectory.back().arc);
}

TEST(BusSim, ArcAtWithoutTrajectoryThrows) {
  RunFixture f;
  BusRun bare;
  EXPECT_THROW(bare.arc_at(0.0), std::logic_error);
}

TEST(BusSim, PeakRunsAreSlowerThanOffPeak) {
  const World& world = test_world();
  const BusRoute& route = *world.city().route_by_name("243", 0);
  Rng rng(77);
  const BusRun peak =
      world.buses().simulate_run(route, at_clock(0, 8, 0), {}, {}, 600.0, rng);
  const BusRun off =
      world.buses().simulate_run(route, at_clock(0, 13, 0), {}, {}, 600.0, rng);
  EXPECT_GT(peak.end_time - peak.depart_time,
            1.1 * (off.end_time - off.depart_time));
}

// --------------------------------------------------------------- taxi feed

TEST(TaxiFeed, DeterministicWithinWindow) {
  const World& world = test_world();
  const double v1 = world.taxis().official_speed_kmh(10, at_clock(0, 12, 1));
  const double v2 = world.taxis().official_speed_kmh(10, at_clock(0, 12, 4));
  EXPECT_DOUBLE_EQ(v1, v2);  // same 5-minute window
  const double v3 = world.taxis().official_speed_kmh(10, at_clock(0, 12, 6));
  EXPECT_NE(v1, v3);  // adjacent window re-draws noise
}

TEST(TaxiFeed, TracksGroundTruthClosely) {
  const World& world = test_world();
  RunningStats err;
  for (SegmentId link = 0; link < 200; link += 5) {
    for (int h = 7; h < 20; ++h) {
      const SimTime t = at_clock(0, h, 2);
      const double truth = world.traffic().car_speed_kmh(link, t + 148.0);
      const double taxi = world.taxis().official_speed_kmh(link, t);
      err.add(std::abs(taxi - truth));
    }
  }
  EXPECT_LT(err.mean(), 5.0);
}

TEST(TaxiFeed, AggressiveAboveKneeOnly) {
  const World& world = test_world();
  // At congested times taxi ~= car; at free flow taxi exceeds car.
  double low_bias = 0.0, high_bias = 0.0;
  int nl = 0, nh = 0;
  for (SegmentId link = 0; link < 240; ++link) {
    for (int h = 7; h < 21; ++h) {
      const SimTime t = at_clock(0, h, 2);
      const double car = world.traffic().car_speed_kmh(link, t + 148.0);
      const double taxi = world.taxis().official_speed_kmh(link, t);
      if (car < 30.0) {
        low_bias += taxi - car;
        ++nl;
      } else if (car > 52.0) {
        high_bias += taxi - car;
        ++nh;
      }
    }
  }
  ASSERT_GT(nl, 10);
  ASSERT_GT(nh, 10);
  EXPECT_LT(std::abs(low_bias / nl), 1.0);
  EXPECT_GT(high_bias / nh, 2.0);
}

TEST(TaxiFeed, SpeedOverSpanPositive) {
  const World& world = test_world();
  const BusRoute& route = world.city().routes()[0];
  const double v =
      world.taxis().official_speed_over(route, 100.0, 900.0, at_clock(0, 10, 0));
  EXPECT_GT(v, 5.0);
  EXPECT_LT(v, 80.0);
}

// ------------------------------------------------------------------- world

TEST(World, SingleTripProducesAlignedGroundTruth) {
  const World& world = test_world();
  const BusRoute& route = *world.city().route_by_name("99", 0);
  Rng rng(88);
  const AnnotatedTrip trip =
      world.simulate_single_trip(route, 2, 12, at_clock(0, 10, 0), rng);
  ASSERT_FALSE(trip.upload.empty());
  EXPECT_EQ(trip.upload.samples.size(), trip.truth.sample_stops.size());
  EXPECT_EQ(trip.truth.route_id, route.id());
  // Sample times strictly increasing; true stops follow route order.
  for (std::size_t i = 1; i < trip.upload.samples.size(); ++i) {
    EXPECT_GT(trip.upload.samples[i].time, trip.upload.samples[i - 1].time);
  }
  int last_index = -1;
  for (StopId s : trip.truth.sample_stops) {
    if (s == kInvalidStop) continue;  // spurious beep
    const auto idx = route.stop_index(s);
    ASSERT_TRUE(idx.has_value());
    EXPECT_GE(*idx, last_index);
    last_index = *idx;
  }
}

TEST(World, SimulateDayProducesRunsAndTrips) {
  const World& world = test_world();
  Rng rng(99);
  const auto day = world.simulate_day(0, 1.0, rng);
  EXPECT_GT(day.runs.size(), 500u);   // 16 routes, ~14.5 h service, 10 min headway
  EXPECT_GT(day.trips.size(), 30u);   // 22 participants x ~4 trips, some lost
  for (const AnnotatedTrip& trip : day.trips) {
    EXPECT_GE(trip.upload.samples.size(), 2u);
    EXPECT_EQ(trip.upload.samples.size(), trip.truth.sample_stops.size());
  }
}

TEST(World, IntensityScalesTripCount) {
  const World& world = test_world();
  Rng rng1(100), rng2(100);
  const auto normal = world.simulate_day(0, 1.0, rng1);
  const auto intensive = world.simulate_day(0, 3.0, rng2);
  EXPECT_GT(intensive.trips.size(), 2.0 * normal.trips.size());
}

TEST(World, GpsTraceCoversRun) {
  const World& world = test_world();
  const BusRoute& route = *world.city().route_by_name("31", 0);
  Rng rng(101);
  const BusRun run =
      world.buses().simulate_run(route, at_clock(0, 11, 0), {}, {}, 600.0,
                                 rng, /*record_trajectory=*/true);
  const auto fixes = world.gps_trace(run, 2.0, rng);
  EXPECT_GT(fixes.size(), 100u);
  EXPECT_NEAR(fixes.front().first, run.depart_time, 2.0);
  // Urban-canyon errors: fixes scatter around the path by tens of metres.
  RunningStats err;
  for (const auto& [t, fix] : fixes) {
    err.add(distance(fix, route.path().point_at(run.arc_at(t))));
  }
  EXPECT_GT(err.mean(), 30.0);
  EXPECT_LT(err.mean(), 150.0);
}

TEST(World, ScanStopInBusDiffersFromKerbOccasionally) {
  const World& world = test_world();
  Rng rng(102);
  const StopId stop = world.city().routes()[0].stops()[3].stop;
  const Fingerprint kerb = world.scan_stop(stop, rng, false);
  EXPECT_FALSE(kerb.empty());
  EXPECT_LE(kerb.size(), 7u);
}


// ------------------------------------------------------ the recorder stage

// A silence longer than the recorder's trip timeout splits the beeps into
// two uploads. The stage keeps the longer one, and that upload's truth is
// the true stops of its own scans, not those of the upload before it.
TEST(World, RecordTripKeepsLongestUploadWithItsOwnStops) {
  const World& world = test_world();
  const BusRoute& route = *world.city().route_by_name("99", 0);
  const auto stop_beep = [&](SimTime t, int k) {
    const StopId stop = route.stops()[static_cast<std::size_t>(k)].stop;
    return World::Beep{t, world.city().stop(stop).position, stop};
  };
  const SimTime t0 = at_clock(0, 9, 0);
  const double gap = world.config().recorder.trip_timeout_s + 60.0;
  const std::vector<World::Beep> beeps = {
      stop_beep(t0, 1),
      stop_beep(t0 + 60.0, 2),
      stop_beep(t0 + 60.0 + gap, 6),
      stop_beep(t0 + 120.0 + gap, 7),
      World::Beep{t0 + 150.0 + gap, route.path().point_at(route.stop_arc(7)),
                  kInvalidStop},
      stop_beep(t0 + 180.0 + gap, 8),
  };
  TripGroundTruth header;
  header.route_id = route.id();
  header.board_stop_index = 1;
  header.alight_stop_index = 8;
  header.leg_routes = {route.id()};

  Rng rng(7);
  const AnnotatedTrip trip = world.record_trip(beeps, header, 5, rng);
  ASSERT_EQ(trip.upload.samples.size(), 4u);
  EXPECT_EQ(trip.upload.participant_id, 5);
  EXPECT_EQ(trip.upload.samples.front().time, beeps[2].time);
  EXPECT_EQ(trip.truth.route_id, route.id());
  EXPECT_EQ(trip.truth.board_stop_index, 1);
  EXPECT_EQ(trip.truth.alight_stop_index, 8);
  EXPECT_EQ(trip.truth.leg_routes, header.leg_routes);
  const std::vector<std::int32_t> want = {beeps[2].true_stop,
                                          beeps[3].true_stop, kInvalidStop,
                                          beeps[5].true_stop};
  EXPECT_EQ(trip.truth.sample_stops, want);

  // No beeps, no upload: the stage returns an empty trip.
  EXPECT_TRUE(world.record_trip({}, header, 5, rng).upload.empty());
}

// ------------------------------------------------------------ pinned bytes

// FNV-1a over everything a World trip carries, doubles by their bits.
struct TripHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 0x100000001b3ULL;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void trip(const AnnotatedTrip& t) {
    i64(t.upload.participant_id);
    u64(t.upload.samples.size());
    for (const CellularSample& s : t.upload.samples) {
      f64(s.time);
      u64(s.fingerprint.cells.size());
      for (CellId id : s.fingerprint.cells) i64(id);
    }
    i64(t.truth.route_id);
    i64(t.truth.board_stop_index);
    i64(t.truth.alight_stop_index);
    u64(t.truth.leg_routes.size());
    for (std::int32_t r : t.truth.leg_routes) i64(r);
    u64(t.truth.sample_stops.size());
    for (std::int32_t s : t.truth.sample_stops) i64(s);
  }
};

// World's trips go through the recorder stage LodWorld's Focus tier shares;
// these pins hold its RNG draw order and its truth alignment (multi-leg
// included) to the bytes it produced before the stage was shared.
TEST(World, DayDigestPinned) {
  Rng rng(99);
  const World::DayResult day = test_world().simulate_day(0, 1.0, rng);
  TripHash hash;
  for (const BusRun& run : day.runs) {
    hash.i64(run.route);
    hash.f64(run.depart_time);
    hash.f64(run.end_time);
    for (const StopVisit& visit : run.visits) {
      hash.f64(visit.arrival);
      hash.f64(visit.departure);
      hash.u64(visit.taps.size());
    }
  }
  for (const AnnotatedTrip& trip : day.trips) hash.trip(trip);
  EXPECT_EQ(day.runs.size(), 1395u);
  EXPECT_EQ(day.trips.size(), 84u);
  EXPECT_EQ(hash.h, 0x88f5255190a8162bULL);
}

TEST(World, TransferTripDigestPinned) {
  const World& world = test_world();
  const BusRoute& a = *world.city().route_by_name("79", 0);
  const BusRoute& b = *world.city().route_by_name("243", 0);
  const auto [ta, tb] = world.find_transfer_stops(a, b);
  Rng rng(1);
  const AnnotatedTrip trip = world.simulate_transfer_trip(
      a, std::max(0, ta - 4), ta, b, tb,
      std::min<int>(static_cast<int>(b.stop_count()) - 1, tb + 4),
      at_clock(0, 10, 0), rng);
  TripHash hash;
  hash.trip(trip);
  EXPECT_EQ(trip.upload.samples.size(), 58u);
  EXPECT_EQ(hash.h, 0x615f0c5c57a7febdULL);
}

}  // namespace
}  // namespace bussense
