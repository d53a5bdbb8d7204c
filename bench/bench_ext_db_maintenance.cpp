// Extension E3 — online fingerprint-database maintenance under tower churn.
//
// The paper notes the bus-stop database "can be updated in an online/offline
// manner" and that cellular sources are stable but not immutable. This
// bench renumbers 3% of towers per day for a month and tracks database
// *health* (mean alignment of current scans with the stored entries,
// against the server's γ = 2 acceptance bar) for a frozen database versus
// one maintained by the crowd-driven updater (decay-triggered refresh plus
// hole recovery). Identification accuracy itself is remarkably robust to
// churn in both cases — EXPERIMENTS.md discusses that negative finding.
#include <iostream>

#include "bench_common.h"
#include "common/table.h"
#include "core/db_updater.h"
#include "core/route_graph.h"

namespace bussense::bench {
namespace {

void report() {
  WorldConfig cfg;
  cfg.city.width_m = 4000.0;
  cfg.city.height_m = 2500.0;
  cfg.city.route_names = {"79", "243"};
  cfg.tower_churn_per_day = 0.03;
  cfg.seed = 31;
  const World world(cfg);
  const City& city = world.city();
  const RouteGraph graph(city);
  Rng rng(32);
  StopDatabase static_db = build_stop_database(
      city, [&](StopId s, int) { return world.scan_stop(s, rng, false, 0.0); },
      3);
  StopDatabase updated_db = static_db;
  DatabaseUpdater updater;

  auto health = [&](const StopDatabase& db, int day) {
    Rng r(777);
    double total = 0.0;
    int n = 0;
    for (const StopRecord& rec : db.records()) {
      for (int k = 0; k < 3; ++k) {
        total += similarity(
            world.scan_stop(rec.stop, r, false, at_clock(day, 12, 0)),
            rec.fingerprint);
        ++n;
      }
    }
    return total / n;
  };

  print_banner(std::cout,
               "Extension E3: database health under 3%/day tower churn");
  Table t({"day", "static DB health", "maintained DB health", "refreshes"});
  for (int day = 0; day <= 30; ++day) {
    TrafficServer server(city, updated_db);
    Rng day_rng(100 + static_cast<std::uint64_t>(day));
    for (const BusRoute* route :
         {city.route_by_name("79", 0), city.route_by_name("243", 0)}) {
      for (int k = 0; k < 4; ++k) {
        const AnnotatedTrip trip = world.simulate_single_trip(
            *route, 1, static_cast<int>(route->stop_count()) - 2,
            at_clock(day, 8 + 3 * k, 0), day_rng);
        const auto report = server.process_trip(trip.upload);
        updater.observe(trip.upload, report, updated_db);
        updater.recover_holes(trip.upload, report, graph, updated_db);
      }
    }
    if (day % 5 == 0) {
      t.add_row(std::to_string(day),
                {health(static_db, day), health(updated_db, day),
                 static_cast<double>(updater.refreshes())});
    }
  }
  t.print(std::cout);
  std::cout << "(gamma = 2 is the server's acceptance threshold: a static "
               "database sinks toward it; the maintained one stays above)\n";
}

void BM_UpdaterObserve(benchmark::State& state) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  Rng rng(33);
  const BusRoute& route = *bed.world.city().route_by_name("79", 0);
  const AnnotatedTrip trip =
      bed.world.simulate_single_trip(route, 1, 15, at_clock(0, 10, 0), rng);
  const auto report = server.process_trip(trip.upload);
  for (auto _ : state) {
    DatabaseUpdater updater;
    StopDatabase db = bed.database;
    benchmark::DoNotOptimize(updater.observe(trip.upload, report, db));
  }
}
BENCHMARK(BM_UpdaterObserve)->Unit(benchmark::kMicrosecond)->Iterations(20);

}  // namespace
}  // namespace bussense::bench

int main(int argc, char** argv) {
  bussense::bench::report();
  return bussense::bench::run_benchmarks(argc, argv);
}
