#include "bench_common.h"

#include <cstdlib>
#include <iostream>

#ifndef BUSSENSE_GIT_DESCRIBE
#define BUSSENSE_GIT_DESCRIBE "unknown"
#endif
#ifndef BUSSENSE_BUILD_SIMD
#define BUSSENSE_BUILD_SIMD 0
#endif
#ifndef BUSSENSE_BUILD_NATIVE
#define BUSSENSE_BUILD_NATIVE 0
#endif
#ifndef BUSSENSE_BUILD_SANITIZE
#define BUSSENSE_BUILD_SANITIZE ""
#endif

namespace bussense::bench {

std::string build_stanza() {
  std::ostringstream os;
  os << "\"build\": {\"git\": \"" << BUSSENSE_GIT_DESCRIBE << "\", "
     << "\"simd\": " << (BUSSENSE_BUILD_SIMD ? "true" : "false") << ", "
     << "\"native\": " << (BUSSENSE_BUILD_NATIVE ? "true" : "false") << ", "
     << "\"sanitize\": \"" << BUSSENSE_BUILD_SANITIZE << "\"}";
  return os.str();
}

const Testbed& testbed() {
  static const Testbed bed = [] {
    Testbed b;
    Rng survey_rng(2024);
    b.database = build_stop_database(
        b.world.city(),
        [&](StopId stop, int run) {
          return b.world.scan_stop(stop, survey_rng, run % 2 == 1);
        },
        5);
    return b;
  }();
  return bed;
}

LodConfig all_event_lod_config(double trips, std::uint64_t seed) {
  LodConfig config;
  config.focus_fraction = 0.0;
  config.event_fraction = 1.0;
  config.event_cap = static_cast<std::size_t>(kEventDayRiders);
  config.trips_per_rider_per_day = trips / static_cast<double>(kEventDayRiders);
  config.seed = seed;
  return config;
}

std::vector<AnnotatedTrip> event_day_trips(const World& world,
                                           std::size_t count,
                                           std::uint64_t seed,
                                           ThreadPool& pool) {
  const LodWorld lod(world, kEventDayRiders,
                     all_event_lod_config(1.25 * static_cast<double>(count), seed));
  std::vector<LodTrip> day = lod.simulate_day(0, &pool);
  if (day.size() < count) {
    std::cerr << "all-Event LodWorld day emitted " << day.size()
              << " trips, " << count << " needed\n";
    std::exit(1);
  }
  std::vector<AnnotatedTrip> trips;
  trips.reserve(count);
  for (std::size_t i = 0; i < count; ++i) trips.push_back(std::move(day[i].trip));
  return trips;
}

const std::vector<std::string>& figure2_routes() {
  static const std::vector<std::string> kRoutes = {"79", "99", "243", "252",
                                                   "257"};
  return kRoutes;
}

std::vector<std::uint64_t> require_balanced_shards(
    const ShardedIngestService& service, const std::string& label) {
  std::vector<std::uint64_t> processed;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const MetricsSnapshot snap = service.shard_registry(s).snapshot();
    const auto it = snap.counters.find("ingest.shard.processed");
    processed.push_back(it == snap.counters.end() ? 0 : it->second);
    total += processed.back();
  }
  for (std::size_t s = 0; s < processed.size(); ++s) {
    if (2 * processed.size() * processed[s] < total) {
      std::cerr << label << ": shard " << s << " processed " << processed[s]
                << " of " << total
                << " uploads, under half its fair share\n";
      std::exit(1);
    }
  }
  return processed;
}

int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bussense::bench
