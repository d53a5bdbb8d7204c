// Audio-level end-to-end test: the complete phone stack on raw samples.
//
// DESIGN.md documents that day-scale simulation uses an event-level beep
// channel calibrated against the audio path. This test validates the whole
// chain with no such shortcut: a bus run's cabin audio is synthesised
// sample-by-sample with the true tap times, the Goertzel beep detector
// recovers the beeps, the trip recorder builds the upload with real
// cellular scans at the detected instants, and the server maps the trip.
#include <gtest/gtest.h>

#include <map>

#include "core/server.h"
#include "core/stop_database.h"
#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"
#include "sensing/trip_recorder.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

TEST(AudioEndToEnd, FullRideThroughRawAudio) {
  WorldConfig cfg;
  cfg.city.route_names = {"243", "99"};
  cfg.city.width_m = 6000.0;
  cfg.city.height_m = 4000.0;
  cfg.seed = 5;
  const World world(cfg);
  const City& city = world.city();
  Rng rng(6);

  // Survey database + server.
  StopDatabase db = build_stop_database(
      city, [&](StopId s, int run) { return world.scan_stop(s, rng, run % 2); },
      5);
  TrafficServer server(city, std::move(db));

  // Simulate the physical run: the rider boards at stop 2, alights at 8.
  const BusRoute& route = *city.route_by_name("243", 0);
  const int board = 2, alight = 8;
  const BusRun run = world.buses().simulate_run(
      route, at_clock(0, 9, 0), {{board, 1}}, {{alight, 1}}, 600.0, rng,
      /*record_trajectory=*/true);

  // Collect the true tap times heard during the ride and synthesise the
  // cabin audio for that window (relative to ride start).
  const SimTime ride_start = run.visits[board].arrival - 2.0;
  const SimTime ride_end = run.visits[alight].departure + 2.0;
  std::vector<SimTime> tap_offsets;
  std::map<double, StopId> stop_at_offset;  // truth per beep offset
  for (int k = board; k <= alight; ++k) {
    const StopVisit& v = run.visits[static_cast<std::size_t>(k)];
    for (const TapEvent& tap : v.taps) {
      tap_offsets.push_back(tap.time - ride_start);
      stop_at_offset[tap.time - ride_start] = v.stop;
    }
  }
  ASSERT_GE(tap_offsets.size(), 8u);
  AudioEnvironmentConfig cabin;
  const auto audio =
      synthesize_bus_audio(cabin, ride_end - ride_start, tap_offsets, rng);

  // Phone stack: detector -> recorder with real scans at detected times.
  BeepDetector detector;
  detector.set_origin(ride_start);
  const auto events = detector.process(audio);
  // Nearly every tap detected, no gross over-detection.
  EXPECT_GE(events.size(), tap_offsets.size() * 9 / 10);
  EXPECT_LE(events.size(), tap_offsets.size() + 2);

  std::vector<StopId> truth_sequence;
  TripRecorder recorder(
      TripRecorderConfig{}, 1,
      [&](SimTime t) {
        // The phone scans wherever the bus is at the detected time.
        const Point pos = route.path().point_at(run.arc_at(t));
        // Truth bookkeeping: nearest tap offset identifies the stop.
        double best = 1e18;
        StopId stop = kInvalidStop;
        for (const auto& [offset, s] : stop_at_offset) {
          if (std::abs(offset - (t - ride_start)) < best) {
            best = std::abs(offset - (t - ride_start));
            stop = s;
          }
        }
        truth_sequence.push_back(stop);
        return world.scanner().scan_fingerprint(world.radio(), pos, rng, true);
      },
      [&](SimTime) { return 0.9; });  // riding a bus
  for (const BeepEvent& e : events) recorder.on_beep(e.time);
  const auto upload = recorder.flush();
  ASSERT_TRUE(upload.has_value());
  ASSERT_EQ(upload->samples.size(), truth_sequence.size());

  // Backend: the mapped stops match the audio-derived ground truth.
  const auto report = server.process_trip(*upload);
  ASSERT_GE(report.mapped.stops.size(), 5u);
  std::map<double, StopId> truth_by_time;
  for (std::size_t i = 0; i < upload->samples.size(); ++i) {
    truth_by_time[upload->samples[i].time] = truth_sequence[i];
  }
  int correct = 0, total = 0;
  for (const MappedCluster& mc : report.mapped.stops) {
    std::map<StopId, int> votes;
    for (const MatchedSample& m :
         report.clusters[mc.cluster].members(report.matched)) {
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
    ++total;
    if (mc.stop == city.effective_stop(majority)) ++correct;
  }
  EXPECT_GE(correct, total - 1);  // at most one mis-mapped visit
  EXPECT_GT(report.estimates.size(), 3u);

  // Timing fidelity: detected beep times reproduce tap times closely, so
  // the travel-time estimates carry through.
  for (const SpeedEstimate& e : report.estimates) {
    EXPECT_GT(e.att_speed_kmh, 3.0);
    EXPECT_LT(e.att_speed_kmh, 80.0);
  }
}

TEST(AudioEndToEnd, TrainRideIsFilteredAtTheFirstBeep) {
  // Same audio stack, but the accelerometer says "rapid train": the trip
  // recorder must refuse to record anything.
  AudioEnvironmentConfig cabin;
  Rng rng(7);
  const auto audio = synthesize_bus_audio(cabin, 8.0, {2.0, 3.0, 4.0}, rng);
  BeepDetector detector;
  const auto events = detector.process(audio);
  ASSERT_GE(events.size(), 3u);
  int scans = 0;
  TripRecorder recorder(
      TripRecorderConfig{}, 2,
      [&](SimTime) {
        ++scans;
        return Fingerprint{{1}};
      },
      [](SimTime) { return 0.05; });  // smooth: a train
  for (const BeepEvent& e : events) recorder.on_beep(e.time);
  EXPECT_FALSE(recorder.flush().has_value());
  EXPECT_EQ(scans, 0);
}

}  // namespace
}  // namespace bussense
