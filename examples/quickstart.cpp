// Quickstart: the full BusSense pipeline in one sitting.
//
//   1. Phone side — detect IC-card beeps in raw bus audio with the Goertzel
//      detector and record a trip of cellular samples.
//   2. Server side — match the samples against the stop fingerprint
//      database, cluster, map the trip under route constraints, and derive
//      per-segment automobile speeds.
//
// Run:  ./quickstart [seed]
#include <iostream>
#include <map>

#include "core/server.h"
#include "core/stop_database.h"
#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"
#include "sensing/trip_recorder.h"
#include "trafficsim/world.h"

using namespace bussense;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  Rng rng(seed);

  // --- Part 1: hear a beep in real audio -------------------------------
  std::cout << "== Part 1: beep detection on synthesized bus audio ==\n";
  AudioEnvironmentConfig cabin;  // 1 kHz + 3 kHz EZ-link reader tones
  const std::vector<SimTime> true_beeps{1.2, 2.4, 3.5};
  const auto audio = synthesize_bus_audio(cabin, 6.0, true_beeps, rng);
  BeepDetector detector;
  const auto events = detector.process(audio);
  std::cout << "synthesized " << audio.size() << " samples with "
            << true_beeps.size() << " card taps; detector found "
            << events.size() << ":\n";
  for (const BeepEvent& e : events) {
    std::cout << "  beep at t=" << e.time << " s (jump " << e.strength
              << " sigma)\n";
  }

  // --- Part 2: a participant rides a bus -------------------------------
  std::cout << "\n== Part 2: one participatory trip through the backend ==\n";
  World world;  // synthetic 7 km x 4 km city, 8 routes, cellular plant
  const City& city = world.city();
  std::cout << "city: " << city.network().size() << " road links, "
            << city.stops().size() << " stops, " << city.routes().size()
            << " directed routes, " << world.radio().towers().size()
            << " cell towers\n";

  // Survey the stop fingerprint database (normally a one-off war-walk).
  Rng survey(2024);
  StopDatabase db = build_stop_database(
      city, [&](StopId s, int run) { return world.scan_stop(s, survey, run % 2); },
      5);
  TrafficServer server(city, std::move(db));

  // A rider boards route 243 at stop 3 during the morning peak.
  const BusRoute& route = *city.route_by_name("243", 0);
  const AnnotatedTrip trip =
      world.simulate_single_trip(route, 3, 15, at_clock(0, 8, 0), rng);
  std::cout << "uploaded trip: " << trip.upload.samples.size()
            << " cellular samples (one per detected tap)\n";

  const auto report = server.process_trip(trip.upload);
  std::cout << "matched " << report.matched.size() << " samples ("
            << report.rejected_samples << " below gamma), clustered into "
            << report.mapped.stops.size() << " stop visits:\n";
  for (const MappedCluster& mc : report.mapped.stops) {
    std::cout << "  " << format_clock(mc.arrival) << "  "
              << city.stop(mc.stop).name << "  ("
              << report.clusters[mc.cluster].count << " taps)\n";
  }

  std::cout << "\nper-segment automobile speed estimates (Eq. 3):\n";
  for (const SpeedEstimate& e : report.estimates) {
    const SpanInfo* info = server.catalog().adjacent(e.segment);
    const double truth = world.traffic().mean_car_speed_kmh(
        city.route(info->route), info->arc_from, info->arc_to, e.time);
    std::cout << "  " << city.stop(e.segment.from).name << " -> "
              << city.stop(e.segment.to).name << ": v_A = " << e.att_speed_kmh
              << " km/h  (ground truth " << truth << ")\n";
  }
  std::cout << "\ndone — see city_day for the full traffic map.\n";
  return 0;
}
