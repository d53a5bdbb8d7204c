// Ablation A1/A5 — how much do clustering (III-C.2) and per-trip ML mapping
// (III-C.3) contribute to stop identification accuracy?
//
// The paper motivates both stages as noise defences; this ablation disables
// them independently, at the nominal noise level and at an elevated one
// (stressed radio), and reports per-cluster identification accuracy.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "common/table.h"

namespace bussense::bench {
namespace {

double accuracy(const World& world, const TrafficServer& server,
                const std::vector<AnnotatedTrip>& trips) {
  int total = 0, correct = 0;
  for (const AnnotatedTrip& trip : trips) {
    const auto matched = server.match_samples(trip.upload);
    std::map<double, StopId> truth;
    for (std::size_t i = 0; i < trip.upload.samples.size(); ++i) {
      truth[trip.upload.samples[i].time] = trip.truth.sample_stops[i];
    }
    const auto clusters = server.cluster_samples(matched);
    const MappedTrip mapped = server.map_trip(clusters);
    for (const MappedCluster& mc : mapped.stops) {
      std::map<StopId, int> votes;
      for (const MatchedSample& m : clusters[mc.cluster].members(matched)) {
        ++votes[truth.at(m.time)];
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
  return total > 0 ? 100.0 * correct / total : 0.0;
}

void report() {
  const Testbed& bed = testbed();

  // Nominal world trips and a stressed world (double in-bus noise, lower
  // beep reliability) to surface the pipeline's noise defences.
  Rng rng(21);
  const auto nominal = bed.world.simulate_day(0, 2.0, rng);
  WorldConfig stressed_cfg = bed.world.config();
  stressed_cfg.scanner.in_bus_noise_db = 5.0;
  stressed_cfg.propagation.temporal_sigma_db = 2.5;
  stressed_cfg.beep_detection_prob = 0.92;
  stressed_cfg.false_beeps_per_trip = 0.4;
  const World stressed(stressed_cfg);
  Rng survey_rng(2024);
  const StopDatabase stressed_db = build_stop_database(
      stressed.city(),
      [&](StopId stop, int run) {
        return stressed.scan_stop(stop, survey_rng, run % 2 == 1);
      },
      5);
  Rng rng2(22);
  const auto stressed_day = stressed.simulate_day(0, 2.0, rng2);

  print_banner(std::cout,
               "Ablation A1/A5: clustering and trip mapping contributions");
  Table t({"pipeline variant", "nominal accuracy (%)", "stressed accuracy (%)"});
  struct Variant {
    std::string name;
    bool clustering;
    bool mapping;
  };
  for (const Variant& v :
       {Variant{"full pipeline", true, true},
        Variant{"no trip mapping (A1)", true, false},
        Variant{"no clustering (A5)", false, true},
        Variant{"neither (raw per-sample)", false, false}}) {
    ServerConfig cfg;
    cfg.stages.clustering = v.clustering;
    cfg.stages.trip_mapping = v.mapping;
    TrafficServer nominal_server(bed.world.city(), bed.database, cfg);
    TrafficServer stressed_server(stressed.city(), stressed_db, cfg);
    t.add_row(v.name, {accuracy(bed.world, nominal_server, nominal.trips),
                       accuracy(stressed, stressed_server, stressed_day.trips)});
  }
  t.print(std::cout);
  std::cout << "(expected: the full pipeline dominates, with the margin "
               "growing under stress)\n";
}

void BM_MapTrip(benchmark::State& state) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  Rng rng(23);
  const BusRoute& route = *bed.world.city().route_by_name("252", 0);
  const AnnotatedTrip trip =
      bed.world.simulate_single_trip(route, 1, 15, at_clock(0, 9, 0), rng);
  const auto clusters = server.cluster_samples(server.match_samples(trip.upload));
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.map_trip(clusters));
  }
}
BENCHMARK(BM_MapTrip);

}  // namespace
}  // namespace bussense::bench

int main(int argc, char** argv) {
  bussense::bench::report();
  return bussense::bench::run_benchmarks(argc, argv);
}
