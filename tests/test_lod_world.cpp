// Property suite for the tiered-fidelity metropolis simulation
// (trafficsim/lod_world.h, DESIGN.md §15).
//
// The three load-bearing properties:
//   (a) a simulated day is a pure function of the seed — byte-identical
//       trip streams at 1/2/4/8 threads and across repeated runs;
//   (b) tier populations are isolated — growing or shrinking the Focus
//       cohort changes only the riders who enter or leave Focus, every
//       other rider's output stays byte-stable;
//   (c) the Event tier's calibrated shortcut tracks the Focus tier's full
//       waveform path — same bus, agreeing stop sequences, and
//       server-level accuracy within a pinned golden band.
// Plus: event-channel calibration pins, the weekly load curve shape,
// generation-loss accounting (no planned trip vanishes silently), and the
// shared workload-replay driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/epoch_publisher.h"
#include "core/ingest_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "core/workload_replay.h"
#include "trafficsim/lod_world.h"

namespace bussense {
namespace {

// The full default world is expensive to build; share one across tests.
const World& test_world() {
  static const World world{};
  return world;
}

/// A compact LOD population over the shared world: enough riders to cover
/// several parallel blocks, trip rate high enough that every suite sees
/// real trips.
LodConfig small_lod_config() {
  LodConfig config;
  config.focus_fraction = 0.01;
  config.event_fraction = 0.20;
  config.focus_cap = 8;
  config.event_cap = 1024;
  config.trips_per_rider_per_day = 0.6;
  config.seed = 2026;
  return config;
}

const LodWorld& small_lod() {
  static const LodWorld lod(test_world(), 3000, small_lod_config());
  return lod;
}

// ------------------------------------------------------------ tier census

TEST(LodTiers, AssignmentDeterministicAndCapped) {
  const LodWorld& lod = small_lod();
  const LodCensus& census = lod.census();
  EXPECT_EQ(census.riders, 3000u);
  EXPECT_EQ(census.focus + census.event + census.on_rails, census.riders);
  EXPECT_LE(census.focus, small_lod_config().focus_cap);
  EXPECT_LE(census.event, small_lod_config().event_cap);
  // focus_fraction 0.01 over 3000 riders ⇒ ~30 candidates against a cap of
  // 8: the cap binds and demotion is visible in the census.
  EXPECT_EQ(census.focus, small_lod_config().focus_cap);
  EXPECT_GT(census.focus_demoted, 0u);

  // A second LodWorld over the same (world, riders, config) agrees rider
  // by rider.
  const LodWorld again(test_world(), 3000, small_lod_config());
  for (std::int64_t rider = 0; rider < lod.riders(); ++rider) {
    ASSERT_EQ(lod.tier_of(rider), again.tier_of(rider)) << "rider " << rider;
  }
}

TEST(LodTiers, TierNamesRoundTrip) {
  EXPECT_STREQ(to_string(FidelityTier::kFocus), "focus");
  EXPECT_STREQ(to_string(FidelityTier::kEvent), "event");
  EXPECT_STREQ(to_string(FidelityTier::kOnRails), "onrails");
}

// ---------------------------------------------- (a) thread-count identity

TEST(LodDeterminism, DayStreamByteIdenticalAtAnyThreadCount) {
  const LodWorld& lod = small_lod();
  const std::vector<LodTrip> serial = lod.simulate_day(0, nullptr);
  ASSERT_GT(serial.size(), 100u);
  const std::uint64_t want = LodWorld::stream_digest(serial);

  std::ostringstream serial_text;
  LodWorld::write_stream(serial_text, serial);

  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    const std::vector<LodTrip> parallel = lod.simulate_day(0, &pool);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    EXPECT_EQ(LodWorld::stream_digest(parallel), want) << threads << " threads";
    std::ostringstream text;
    LodWorld::write_stream(text, parallel);
    EXPECT_EQ(text.str(), serial_text.str()) << threads << " threads";
  }
}

// A population smaller than one of the large rider blocks is still cut
// into many blocks, so it spreads over the pool; the cut depends on the
// rider count only, so the bytes do not depend on the thread count.
TEST(LodDeterminism, SmallDayByteIdenticalAt1And4Threads) {
  const LodWorld lod(test_world(), 200, small_lod_config());
  const auto text_at = [&](unsigned threads) {
    ThreadPool pool(threads);
    const std::vector<LodTrip> trips = lod.simulate_day(0, &pool);
    EXPECT_GT(trips.size(), 50u) << threads << " threads";
    std::ostringstream text;
    LodWorld::write_stream(text, trips);
    return text.str();
  };
  EXPECT_EQ(text_at(4), text_at(1));
}

// The day stream is the input every LOD benchmark replays, so optimising
// the generator must not move it: a drifted stream would make before/after
// benchmark numbers measure different workloads. The digest was taken
// before the per-stop scan sites existed. Re-pinning it needs a reason
// stated in CHANGES.md.
TEST(LodDeterminism, DayStreamDigestPinned) {
  const std::vector<LodTrip> trips = small_lod().simulate_day(0, nullptr);
  EXPECT_EQ(trips.size(), 1818u);
  EXPECT_EQ(LodWorld::stream_digest(trips), 0x56d54bcd3130270fULL);
}

// Each rider's trips come from its own substreams, so simulating a slice
// of the riders yields exactly those riders' share of the full day.
TEST(LodDeterminism, RiderRangeMatchesFullDay) {
  const LodWorld& lod = small_lod();
  const std::vector<LodTrip> full = lod.simulate_day(0, nullptr);
  const std::int64_t a = 700, b = 2100;  // straddles rider-block edges
  std::vector<LodTrip> slice;
  for (const LodTrip& t : full) {
    if (t.rider >= a && t.rider < b) slice.push_back(t);
  }
  ASSERT_GT(slice.size(), 100u);
  const std::vector<LodTrip> range = lod.simulate_day_range(0, a, b, nullptr);
  ASSERT_EQ(range.size(), slice.size());
  EXPECT_EQ(LodWorld::stream_digest(range), LodWorld::stream_digest(slice));
}

TEST(LodDeterminism, StreamSortedByArrival) {
  const std::vector<LodTrip> trips = small_lod().simulate_day(0, nullptr);
  for (std::size_t i = 1; i < trips.size(); ++i) {
    EXPECT_LE(trips[i - 1].arrival, trips[i].arrival);
  }
  for (const LodTrip& t : trips) {
    ASSERT_GE(t.trip.upload.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(t.arrival, t.trip.upload.samples.back().time +
                                    small_lod().config().upload_lag_s);
  }
}

// ------------------------------------------- (b) focus-cohort isolation

TEST(LodIsolation, FocusCohortSizeOnlyAffectsFocusRiders) {
  LodConfig small = small_lod_config();
  small.focus_cap = 2;
  LodConfig large = small_lod_config();
  large.focus_cap = 12;
  const LodWorld lod_small(test_world(), 2000, small);
  const LodWorld lod_large(test_world(), 2000, large);

  std::size_t moved = 0, stable = 0;
  for (std::int64_t rider = 0; rider < 2000; ++rider) {
    const bool focus_in_either =
        lod_small.tier_of(rider) == FidelityTier::kFocus ||
        lod_large.tier_of(rider) == FidelityTier::kFocus;
    if (focus_in_either) {
      ++moved;
      continue;
    }
    // Not Focus under either cap: tier identical (Event candidacy never
    // looks at Focus membership) and the whole day byte-stable.
    ASSERT_EQ(lod_small.tier_of(rider), lod_large.tier_of(rider))
        << "rider " << rider;
    ++stable;
    const auto a = lod_small.simulate_rider_day(rider, 0);
    const auto b = lod_large.simulate_rider_day(rider, 0);
    ASSERT_EQ(LodWorld::stream_digest(a), LodWorld::stream_digest(b))
        << "rider " << rider;
  }
  // The cap change actually moved somebody (12 focus slots vs 2).
  EXPECT_GE(moved, 10u);
  EXPECT_GT(stable, 1900u);
  // Growing the cap only adds focus riders — the small cohort is a subset.
  for (std::int64_t rider = 0; rider < 2000; ++rider) {
    if (lod_small.tier_of(rider) == FidelityTier::kFocus) {
      EXPECT_EQ(lod_large.tier_of(rider), FidelityTier::kFocus);
    }
  }
}

// --------------------------------------- (c) event-vs-focus golden band

/// Ordered distinct true stops visited by an upload's samples (spurious
/// samples excluded).
std::vector<StopId> true_stop_sequence(const AnnotatedTrip& trip) {
  std::vector<StopId> seq;
  for (StopId stop : trip.truth.sample_stops) {
    if (stop == kInvalidStop) continue;
    if (seq.empty() || seq.back() != stop) seq.push_back(stop);
  }
  return seq;
}

TEST(LodCrossTier, EventAndFocusRideTheSameBusAndAgreeOnStops) {
  LodConfig config = small_lod_config();
  config.trips_per_rider_per_day = 2.0;
  const LodWorld lod(test_world(), 24, config);

  std::size_t trips_compared = 0;
  double agreement_sum = 0.0;
  for (std::int64_t rider = 0; rider < lod.riders(); ++rider) {
    const auto focus = lod.simulate_rider_day(rider, 0, FidelityTier::kFocus);
    const auto event = lod.simulate_rider_day(rider, 0, FidelityTier::kEvent);
    std::map<int, const LodTrip*> focus_by_index;
    for (const LodTrip& t : focus) focus_by_index[t.trip_index] = &t;
    for (const LodTrip& e : event) {
      const auto it = focus_by_index.find(e.trip_index);
      if (it == focus_by_index.end()) continue;
      const LodTrip& f = *it->second;
      // Same plan substream ⇒ same bus ride in both tiers.
      ASSERT_EQ(f.trip.truth.route_id, e.trip.truth.route_id);
      ASSERT_EQ(f.trip.truth.board_stop_index, e.trip.truth.board_stop_index);
      ASSERT_EQ(f.trip.truth.alight_stop_index, e.trip.truth.alight_stop_index);

      const std::vector<StopId> fs = true_stop_sequence(f.trip);
      const std::vector<StopId> es = true_stop_sequence(e.trip);
      const std::set<StopId> fset(fs.begin(), fs.end());
      const std::set<StopId> eset(es.begin(), es.end());
      std::vector<StopId> common;
      std::set_intersection(fset.begin(), fset.end(), eset.begin(), eset.end(),
                            std::back_inserter(common));
      std::vector<StopId> all;
      std::set_union(fset.begin(), fset.end(), eset.begin(), eset.end(),
                     std::back_inserter(all));
      ASSERT_FALSE(all.empty());
      agreement_sum += static_cast<double>(common.size()) /
                       static_cast<double>(all.size());
      ++trips_compared;
    }
  }
  ASSERT_GE(trips_compared, 20u);
  const double agreement = agreement_sum / static_cast<double>(trips_compared);
  std::cout << "[lod] focus/event stop agreement = " << agreement << " over "
            << trips_compared << " trips\n";
  // Golden band, pinned from the measured fixed-seed value (1.0 over 52
  // trips): the waveform path and the calibrated event channel hear almost
  // the same stops — they differ only through detection/spurious noise.
  EXPECT_GE(agreement, 0.92);
  EXPECT_LE(agreement, 1.0);
}

// ----------------------------------------------- event-channel calibration

TEST(LodCalibration, WaveformPathPinsTheEventChannel) {
  const EventChannelCalibration cal = calibrate_event_channel(
      AudioEnvironmentConfig{}, BeepDetectorConfig{}, /*clips=*/10,
      /*clip_s=*/30.0, /*taps_per_clip=*/6, /*seed=*/7);
  EXPECT_EQ(cal.clips, 10u);
  EXPECT_EQ(cal.taps, 60u);
  std::cout << "[lod] calibration: detected=" << cal.detected << "/" << cal.taps
            << " spurious=" << cal.spurious << "\n";
  // Pinned from the measured fixed-seed run: the default detector hears
  // nearly every default-amplitude beep and essentially never invents one.
  // The world's default event channel (0.98 / 0.06) sits inside this band.
  EXPECT_GE(cal.detection_prob(), 0.90);
  EXPECT_LE(cal.detection_prob(), 1.0);
  EXPECT_LE(cal.spurious, 3u);

  const EventChannelConfig derived = cal.to_config(/*typical_trip_s=*/600.0);
  EXPECT_NO_THROW(derived.validate());
  EXPECT_LE(std::abs(derived.detection_prob - WorldConfig{}.beep_detection_prob),
            0.08);
}

TEST(LodCalibration, ChannelConfigValidation) {
  EventChannelConfig bad;
  bad.detection_prob = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = EventChannelConfig{};
  bad.false_beeps_per_trip = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(EventChannelConfig{}.validate());
}

TEST(LodCalibration, BadFocusAudioFailsAtConstruction) {
  // A broken cabin config must fail when the LodWorld is built, not inside
  // a pool worker rendering a Focus trip mid-day.
  std::vector<LodConfig> bad(3, small_lod_config());
  bad[0].audio.tone_frequencies_hz.clear();
  bad[1].audio.sample_rate_hz = -8000.0;
  bad[2].audio.beep_duration_s = std::nan("");
  for (const LodConfig& config : bad) {
    EXPECT_THROW(config.validate(), std::invalid_argument);
    EXPECT_THROW(LodWorld(test_world(), 100, config), std::invalid_argument);
  }
  EXPECT_NO_THROW(small_lod_config().validate());
}

/// Fraction of clusters whose mapped stop equals the majority ground truth
/// of its member samples (same definition as test_golden_accuracy).
double stop_accuracy(const World& world, const TrafficServer& server,
                     const std::vector<AnnotatedTrip>& trips) {
  int total = 0, correct = 0;
  for (const AnnotatedTrip& trip : trips) {
    const auto matched = server.match_samples(trip.upload);
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
      if (majority == kInvalidStop) continue;
      ++total;
      if (mc.stop == world.city().effective_stop(majority)) ++correct;
    }
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

double matched_fraction(const TrafficServer& server,
                        const std::vector<AnnotatedTrip>& trips) {
  std::size_t samples = 0, matched = 0;
  for (const AnnotatedTrip& trip : trips) {
    samples += trip.upload.samples.size();
    matched += server.match_samples(trip.upload).size();
  }
  return samples > 0 ? static_cast<double>(matched) / samples : 0.0;
}

TEST(LodCalibration, EventTierAccuracyTracksFocusReferenceAtTestbedScale) {
  // The paper-scale testbed (22 riders) pushed through both tiers; the
  // backend must score the event-tier workload the same way it scores the
  // waveform-path workload, within a pinned band.
  const World& world = test_world();
  LodConfig config = small_lod_config();
  config.trips_per_rider_per_day = 2.0;
  const LodWorld lod(world, 22, config);

  std::vector<AnnotatedTrip> focus_rides, event_rides;
  for (std::int64_t rider = 0; rider < lod.riders(); ++rider) {
    for (LodTrip& t : lod.simulate_rider_day(rider, 0, FidelityTier::kFocus)) {
      focus_rides.push_back(std::move(t.trip));
    }
    for (LodTrip& t : lod.simulate_rider_day(rider, 0, FidelityTier::kEvent)) {
      event_rides.push_back(std::move(t.trip));
    }
  }
  ASSERT_GE(focus_rides.size(), 25u);
  ASSERT_GE(event_rides.size(), 25u);

  Rng survey_rng(2024);
  StopDatabase database = build_stop_database(
      world.city(),
      [&](StopId stop, int run) {
        return world.scan_stop(stop, survey_rng, run % 2 == 1);
      },
      5);
  TrafficServer server(world.city(), database);

  const double focus_acc = stop_accuracy(world, server, focus_rides);
  const double event_acc = stop_accuracy(world, server, event_rides);
  const double focus_matched = matched_fraction(server, focus_rides);
  const double event_matched = matched_fraction(server, event_rides);
  std::cout << "[lod] testbed focus: acc=" << focus_acc
            << " matched=" << focus_matched << " trips=" << focus_rides.size()
            << "\n[lod] testbed event: acc=" << event_acc
            << " matched=" << event_matched << " trips=" << event_rides.size()
            << "\n";

  // Pinned golden bands (fixed-seed measurements: focus 0.986/0.998,
  // event 0.983/0.999): both tiers identify stops well, and the calibrated
  // shortcut must not drift from its waveform reference.
  EXPECT_GE(focus_acc, 0.95);
  EXPECT_GE(event_acc, 0.95);
  EXPECT_LE(std::abs(focus_acc - event_acc), 0.04);
  EXPECT_GE(focus_matched, 0.97);
  EXPECT_GE(event_matched, 0.97);
  EXPECT_LE(std::abs(focus_matched - event_matched), 0.05);
}

// ------------------------------------------------- weekly demand shape

TEST(LodLoadCurve, WeekdayRushBeatsMiddayAndWeekendIsFlatter) {
  const LodWorld& lod = small_lod();
  const DemandConfig demand;  // world default: peaks at 8.3 / 18.2
  const double rush =
      lod.load_factor(at_clock(0, 0) + demand.morning_peak_h * kHour);
  const double midday = lod.load_factor(at_clock(0, 12, 30));
  const double night = lod.load_factor(at_clock(0, 2));
  EXPECT_GT(rush, 1.5 * midday);
  EXPECT_GT(midday, night);

  // Weekend (day 5): lower volume and flatter peaks.
  const double weekend_rush =
      lod.load_factor(at_clock(5, 0) + demand.morning_peak_h * kHour);
  const double weekend_midday = lod.load_factor(at_clock(5, 12, 30));
  EXPECT_LT(weekend_rush, rush);
  EXPECT_LT(weekend_rush / std::max(weekend_midday, 1e-9),
            rush / std::max(midday, 1e-9));

  // The supremum used for rejection sampling really is an upper bound.
  for (int day = 0; day < 7; ++day) {
    for (double h = 0.0; h < 24.0; h += 0.21) {
      EXPECT_LE(lod.load_factor(at_clock(day, 0) + h * kHour),
                lod.max_load_factor());
    }
  }
}

TEST(LodLoadCurve, DepotPulsesLiftServiceEdges) {
  LodConfig no_pulse = small_lod_config();
  no_pulse.depot_pulse_boost = 1e-12;  // validate() wants > 0
  const LodWorld pulsed(test_world(), 100, small_lod_config());
  const LodWorld flat(test_world(), 100, no_pulse);
  const double start_h = test_world().config().service_start_h;
  const double end_h = test_world().config().service_end_h;
  EXPECT_GT(pulsed.load_factor(at_clock(0, 0) + start_h * kHour),
            flat.load_factor(at_clock(0, 0) + start_h * kHour) + 0.5);
  EXPECT_GT(pulsed.load_factor(at_clock(0, 0) + end_h * kHour),
            flat.load_factor(at_clock(0, 0) + end_h * kHour) + 0.5);
  // Away from the depots the pulse has died off.
  EXPECT_NEAR(pulsed.load_factor(at_clock(0, 13)),
              flat.load_factor(at_clock(0, 13)), 0.05);
}

TEST(LodLoadCurve, WeekdayVolumeExceedsWeekend) {
  const LodWorld& lod = small_lod();
  std::uint64_t weekday = 0, weekend = 0;
  for (std::int64_t rider = 0; rider < lod.riders(); ++rider) {
    weekday += static_cast<std::uint64_t>(lod.trip_count(rider, 0));
    weekend += static_cast<std::uint64_t>(lod.trip_count(rider, 5));
  }
  EXPECT_GT(weekday, weekend);
  // Volume tracks the configured weekend scale, loosely (Poisson noise).
  const double ratio = static_cast<double>(weekend) /
                       std::max<std::uint64_t>(weekday, 1);
  EXPECT_NEAR(ratio, small_lod_config().weekend_factor, 0.15);
}

// -------------------------------------------------- spec-loss accounting

TEST(LodSpecLoss, DegenerateCitySurfacesTheDrops) {
  // Stops 2.8 km apart in a 7×4 km city: every route ends up with two or
  // three stops, so every planned trip exhausts its route retries — the
  // loss must be fully accounted, never silent.
  WorldConfig config;
  config.city.stop_spacing_m = 2800.0;
  config.city.stop_spacing_jitter_m = 0.0;
  const World degenerate(config);
  bool all_short = true;
  for (const BusRoute& route : degenerate.city().routes()) {
    if (route.stop_count() >= 4) all_short = false;
  }
  ASSERT_TRUE(all_short);

  const LodWorld lod(degenerate, 200, small_lod_config());
  const auto trips = lod.simulate_day(0, nullptr);
  EXPECT_TRUE(trips.empty());
  const LodLoss loss = lod.loss();
  EXPECT_GT(loss.planned, 50u);
  EXPECT_EQ(loss.dropped_no_route, loss.planned);
  EXPECT_EQ(loss.thin, 0u);
  EXPECT_EQ(loss.emitted, 0u);
}

// A recorder that keeps zero-sample trips (min_samples 0) over a channel
// that delivers no tap: the OnRails and Event tiers sense nothing, and an
// empty trip has no last sample to time its upload by. It must be counted
// thin, not emitted.
TEST(LodSpecLoss, EmptyTripsAreThinEvenAtZeroMinSamples) {
  WorldConfig world_config;
  world_config.city.route_names = {"79", "243"};
  world_config.recorder.min_samples = 0;
  const World world(world_config);
  LodConfig config;
  config.event.detection_prob = 0.0;
  const LodWorld lod(world, 3000, config);
  const auto trips = lod.simulate_day(0, nullptr);
  const LodLoss loss = lod.loss();
  EXPECT_EQ(loss.planned, loss.emitted + loss.dropped_no_route + loss.thin);
  EXPECT_GT(loss.thin, 0u);
  EXPECT_EQ(loss.emitted, trips.size());
  for (const LodTrip& t : trips) EXPECT_FALSE(t.trip.upload.empty());
}

TEST(LodSpecLoss, LodRunsReportZeroUnexplainedLoss) {
  LodConfig config = small_lod_config();
  const LodWorld lod(test_world(), 400, config);
  const auto trips = lod.simulate_day(0, nullptr);
  const LodLoss loss = lod.loss();
  EXPECT_EQ(loss.planned, loss.emitted + loss.dropped_no_route + loss.thin);
  EXPECT_EQ(loss.dropped_no_route, 0u);
  EXPECT_EQ(loss.emitted, trips.size());

  MetricsRegistry registry;
  lod.export_loss(registry);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("trafficsim.lod.planned"), loss.planned);
  EXPECT_EQ(snap.counters.at("trafficsim.lod.dropped_no_route"), 0u);
}

// ------------------------------------------------------- workload replay

std::vector<TimedUpload> to_workload(const std::vector<LodTrip>& trips) {
  std::vector<TimedUpload> workload;
  workload.reserve(trips.size());
  for (const LodTrip& t : trips) {
    workload.push_back(TimedUpload{t.trip.upload, t.arrival});
  }
  return workload;
}

StopDatabase test_database() {
  const World& world = test_world();
  Rng survey_rng(2024);
  return build_stop_database(
      world.city(),
      [&](StopId stop, int run) {
        return world.scan_stop(stop, survey_rng, run % 2 == 1);
      },
      5);
}

TEST(WorkloadReplay, DrivesIngestWithAdvanceCadenceAndAccounting) {
  LodConfig config = small_lod_config();
  const LodWorld lod(test_world(), 300, config);
  const std::vector<TimedUpload> workload =
      to_workload(lod.simulate_day(0, nullptr));
  ASSERT_GT(workload.size(), 20u);

  ServerConfig server_config;
  server_config.admission.enabled = true;
  ShardedIngestService service(test_world().city(), test_database(),
                               server_config);
  ReplayOptions options;
  options.advance_every_s = 600.0;
  const ReplayStats stats = replay_workload(service, workload, options);

  EXPECT_EQ(stats.submitted, workload.size());
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected);
  EXPECT_EQ(stats.rejected, 0u);  // a clean generated workload loses nothing
  EXPECT_EQ(stats.first_arrival, workload.front().arrival);
  EXPECT_EQ(stats.last_arrival, workload.back().arrival);
  // Cadence: one advance per crossed 600 s boundary plus the final one.
  const auto boundaries = static_cast<std::uint64_t>(
      std::floor(workload.back().arrival / 600.0) -
      std::floor(workload.front().arrival / 600.0));
  EXPECT_EQ(stats.advances, boundaries + 1);

  // The final advance drained every shard, so the counts are exact.
  const MetricsSnapshot snap = service.shard_metrics();
  EXPECT_EQ(snap.counters.at("ingest.admitted"), stats.accepted);
  EXPECT_EQ(service.trips_processed(), stats.accepted);
}

TEST(WorkloadReplay, PublishesEpochsOnCadence) {
  LodConfig config = small_lod_config();
  const LodWorld lod(test_world(), 200, config);
  const std::vector<TimedUpload> workload =
      to_workload(lod.simulate_day(0, nullptr));
  ASSERT_GT(workload.size(), 10u);

  ShardedIngestService service(test_world().city(), test_database());
  EpochPublisher publisher(service.catalog());
  ReplayOptions options;
  options.advance_every_s = 900.0;
  options.publish_every = 2;
  options.publisher = &publisher;
  const ReplayStats stats = replay_workload(service, workload, options);
  EXPECT_GE(stats.epochs_published, 1u);
  // Mid-replay publishes fire every second advance; the final advance
  // always publishes.
  EXPECT_EQ(stats.epochs_published, (stats.advances - 1) / 2 + 1);
}

TEST(WorkloadReplay, RejectsUnsortedWorkloadsAndBadOptions) {
  LodConfig config = small_lod_config();
  const LodWorld lod(test_world(), 120, config);
  std::vector<TimedUpload> workload = to_workload(lod.simulate_day(0, nullptr));
  ASSERT_GT(workload.size(), 2u);
  ShardedIngestService service(test_world().city(), test_database());

  std::swap(workload.front().arrival, workload.back().arrival);
  EXPECT_THROW(replay_workload(service, workload), std::invalid_argument);

  ReplayOptions bad;
  bad.publish_every = 2;  // no publisher
  EXPECT_THROW(replay_workload(service, {}, bad), std::invalid_argument);
  EXPECT_EQ(replay_workload(service, {}).submitted, 0u);
}

}  // namespace
}  // namespace bussense
