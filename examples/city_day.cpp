// city_day: simulate a full service day of participatory sensing and print
// the evolving traffic map (the paper's headline output, Figure 9).
//
// Run:  ./city_day [days] [intensity] [seed]
//   days       number of service days to simulate (default 1)
//   intensity  participation intensity, 1 = the paper's 22 riders at their
//              normal rate, 3 = the incentivised phase (default 3)
#include <algorithm>
#include <iostream>

#include "core/epoch_publisher.h"
#include "core/google_indicator.h"
#include "core/ingest_service.h"
#include "core/query_service.h"
#include "core/svg_map.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "trafficsim/world.h"

using namespace bussense;

int main(int argc, char** argv) {
  const int days = argc > 1 ? std::atoi(argv[1]) : 1;
  const double intensity = argc > 2 ? std::atof(argv[2]) : 3.0;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 9;

  World world;
  const City& city = world.city();
  Rng survey(2024);
  StopDatabase db = build_stop_database(
      city, [&](StopId s, int run) { return world.scan_stop(s, survey, run % 2); },
      5);
  // Uploads flow through the asynchronous ingest front end — participant
  // shards, each drained by its own consumer thread. The maps it prints
  // are bit-identical to the serial TrafficServer (determinism contract).
  ShardedIngestService service(city, std::move(db));

  // The maps below are read through the serving tier: each display hour
  // publishes an immutable epoch and the queries pin it lock-free
  // (DESIGN.md §13) — the same path a dashboard fleet would hit, and
  // bit-identical to calling service.snapshot() directly.
  EpochPublisher publisher(service.catalog());
  QueryService queries(publisher);

  std::cout << "bus-route coverage of the road network: "
            << 100.0 * city.coverage_ratio() << "%\n";

  Rng rng(seed);
  for (int day = 0; day < days; ++day) {
    auto result = world.simulate_day(day, intensity, rng);
    std::sort(result.trips.begin(), result.trips.end(),
              [](const AnnotatedTrip& a, const AnnotatedTrip& b) {
                return a.upload.samples.back().time <
                       b.upload.samples.back().time;
              });
    std::cout << "\n===== day " << day << ": " << result.runs.size()
              << " bus runs, " << result.trips.size()
              << " participant trips =====\n";

    const std::vector<int> snapshot_hours{9, 13, 17, 20};
    std::size_t next_snap = 0;
    for (const AnnotatedTrip& trip : result.trips) {
      const SimTime end = trip.upload.samples.back().time;
      while (next_snap < snapshot_hours.size() &&
             end > at_clock(day, snapshot_hours[next_snap], 0)) {
        const SimTime now = at_clock(day, snapshot_hours[next_snap], 0);
        service.advance_time(now);
        service.publish_epoch(publisher, now, 2.0 * kHour);
        const EpochPublisher::Pin epoch = queries.pin();
        std::cout << "\n--- " << format_clock(now) << " traffic map (epoch "
                  << epoch->id() << ": " << epoch->live_segments()
                  << " live segments, mean " << epoch->mean_speed_kmh()
                  << " km/h, coverage " << 100.0 * epoch->coverage_ratio()
                  << "%)\n";
        std::cout << epoch->map().render_ascii(service.catalog(), 100, 24);
        ++next_snap;
      }
      service.process_trip(trip.upload);
    }
  }

  std::cout << "\nlegend: 1 = <20 km/h ... 5 = >50 km/h, '.' = bus-covered "
               "road without a live estimate\n";
  std::cout << "trips processed: " << service.trips_processed() << "\n";

  // Shareable artifact: the final evening map as SVG, rendered from the
  // last published epoch so the file matches what the serving tier saw.
  const SimTime final_time = at_clock(days - 1, 20, 0);
  service.advance_time(final_time);
  service.publish_epoch(publisher, final_time, 3.0 * kHour);
  const EpochPublisher::Pin evening = queries.pin();
  const std::string svg_path = "traffic_map.svg";
  write_svg_map(evening->map(), service.catalog(), svg_path);
  std::cout << "wrote " << svg_path << "\n";

  // Region query demo: how does the city-centre quadrant compare to the
  // whole network at closing time?
  const BoundingBox& region = city.region();
  BoundingBox centre = region;
  centre.min.x += 0.25 * region.width();
  centre.min.y += 0.25 * region.height();
  centre.max.x -= 0.25 * region.width();
  centre.max.y -= 0.25 * region.height();
  const RegionAggregate agg = queries.region_aggregate(centre);
  std::cout << "city centre at " << format_clock(final_time) << ": "
            << agg.segments_live << "/" << agg.segments_total
            << " segments live, mean " << agg.mean_speed_kmh
            << " km/h, coverage " << 100.0 * agg.coverage_ratio << "%\n";

  // Trip latency is sampled (one trip in 64 per shard consumer); the
  // counters count every trip.
  const MetricsSnapshot ms = service.metrics().snapshot();
  const BucketHistogram::Snapshot& trip_s = ms.histograms.at("pipeline.trip_s");
  std::cout << "pipeline p99 trip latency: " << 1e6 * trip_s.percentile(0.99)
            << " us (" << trip_s.total << " of " << service.trips_processed()
            << " trips timed), samples matched: "
            << ms.counters.at("pipeline.samples_matched") << "\n";
  const MetricsSnapshot qs = publisher.metrics().snapshot();
  std::cout << "serving: " << qs.counters.at("epochs.published")
            << " epochs published, "
            << queries.metrics().snapshot().counters.at("queries.region")
            << " region queries answered\n";
  return 0;
}
