// Serving-tier throughput and ingest interference (DESIGN.md §13).
//
// Three questions a deployment asks of the epoch-based serving tier:
//
//   1. read throughput — segment-speed queries/second against a live
//      publisher at 1/2/4/8 reader threads, with publishes ticking
//      underneath; p50/p99 read latency from the query.latency.segment
//      histogram. The acceptance target is >= 1M queries/s aggregate on a
//      multi-core host (a single-core CI box reports what it can);
//   2. publish stall — how long one epoch build+swap takes while readers
//      hammer the pointer (publish.build_s p50/p99). Readers never block
//      a publish; the build cost is the snapshot construction itself;
//   3. ingest interference — trips/second through the serial server
//      with 8 readers + a publisher running vs quiescent. The readers are
//      rate-limited to a fixed ~100k queries/s aggregate (production
//      queries arrive at a rate; the flat-out saturation numbers are
//      section 1's), so this measures protocol interference — the serving
//      tier touches no ingest lock, and the contract is <= 10%
//      degradation.
//
// Emits BENCH_serving.json with all three plus a mixed-family section.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "core/epoch_publisher.h"
#include "core/ingest_service.h"
#include "core/query_service.h"
#include "core/workload_replay.h"
#include "trafficsim/lod_world.h"

namespace bussense::bench {
namespace {

struct Fmt {
  static std::string fixed(double v, int prec) {
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(prec);
    os << v;
    return os.str();
  }
};

std::vector<AnnotatedTrip>& bench_trips() {
  static std::vector<AnnotatedTrip> trips = [] {
    const Testbed& bed = testbed();
    ThreadPool pool(std::thread::hardware_concurrency());
    return event_day_trips(bed.world, 240, 91, pool);
  }();
  return trips;
}

SimTime latest_sample_time() {
  SimTime latest = 0.0;
  for (const AnnotatedTrip& trip : bench_trips()) {
    for (const auto& s : trip.upload.samples) {
      latest = std::max(latest, s.time);
    }
  }
  return latest;
}

// A server primed with the bench workload, ready to publish (its fusion
// store is internally locked, so publishes may run on any thread).
struct PrimedBackend {
  TrafficServer server;
  SimTime now;

  PrimedBackend() : server(testbed().world.city(), testbed().database) {
    for (const AnnotatedTrip& trip : bench_trips()) {
      server.process_trip(trip.upload);
    }
    now = latest_sample_time() + 10 * kMinute;
    server.advance_time(now);
  }
};

PrimedBackend& primed() {
  static PrimedBackend backend;
  return backend;
}

struct ReadResult {
  double reads_per_s = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  std::uint64_t publishes = 0;
};

// `readers` threads run segment-speed queries flat out for `duration_s`
// while a publisher re-publishes the live fusion every ~2 ms underneath.
ReadResult run_readers(int readers, double duration_s) {
  PrimedBackend& backend = primed();
  EpochPublisher pub(backend.server.catalog());
  backend.server.publish_epoch(pub, backend.now);
  QueryService svc(pub);
  const auto& keys = backend.server.catalog().adjacent_keys();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      backend.server.publish_epoch(pub, backend.now);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> pool;
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      std::uint64_t local = 0;
      std::size_t i = static_cast<std::size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        for (int burst = 0; burst < 256; ++burst) {
          benchmark::DoNotOptimize(svc.segment_speed(keys[i % keys.size()]));
          ++i;
          ++local;
        }
      }
      reads.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : pool) t.join();
  publisher.join();
  const double elapsed = seconds_since(start);

  ReadResult out;
  out.reads_per_s = static_cast<double>(reads.load()) / std::max(elapsed, 1e-9);
  const auto lat =
      svc.metrics().snapshot().histograms.at("query.latency.segment");
  out.p50_s = lat.percentile(0.50);
  out.p99_s = lat.percentile(0.99);
  out.publishes = pub.epochs_published();
  return out;
}

// Ingest throughput with and without the serving tier active: replays the
// bench trips through a fresh serial server, optionally with 8 reader
// threads + a 2 ms publisher attached to it.
double run_ingest(bool readers_on, int readers = 8) {
  const Testbed& bed = testbed();
  const auto& trips = bench_trips();
  TrafficServer server(bed.world.city(), bed.database);
  EpochPublisher pub(server.catalog());
  QueryService svc(pub);
  const auto& keys = server.catalog().adjacent_keys();
  const SimTime now = latest_sample_time() + 10 * kMinute;

  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  if (readers_on) {
    server.publish_epoch(pub, now);
    pool.emplace_back([&] {  // publisher tick
      while (!stop.load(std::memory_order_relaxed)) {
        server.publish_epoch(pub, now);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back([&, r] {
        // ~64 reads per 5 ms per reader: ~100k queries/s aggregate at 8
        // readers — a steady serving load, not a saturation spin.
        std::size_t i = static_cast<std::size_t>(r);
        while (!stop.load(std::memory_order_relaxed)) {
          for (int burst = 0; burst < 64; ++burst) {
            benchmark::DoNotOptimize(svc.segment_speed(keys[i % keys.size()]));
            ++i;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
  }

  const auto start = std::chrono::steady_clock::now();
  for (const AnnotatedTrip& trip : trips) server.process_trip(trip.upload);
  server.advance_time(now);
  const double elapsed = seconds_since(start);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : pool) t.join();
  return static_cast<double>(trips.size()) / std::max(elapsed, 1e-9);
}

// A day-0 slice of the LOD metropolis (DESIGN.md §15) replayed through the
// sharded ingest tier with epoch publishes on the advance cadence, then
// served from the resulting epoch — the serving tier read against a city
// map built from tiered-fidelity trips instead of the 240-trip testbed.
// BUSSENSE_LOD_RIDERS overrides the population (0 skips; the full
// city-week determinism run lives in bench_ingest_service).
void lod_report(JsonReport& json) {
  std::int64_t riders = 100'000;
  if (const char* env = std::getenv("BUSSENSE_LOD_RIDERS")) {
    riders = std::atoll(env);
  }
  if (riders <= 0) {
    std::cout << "lod serving: skipped (BUSSENSE_LOD_RIDERS=0)\n";
    return;
  }
  print_banner(std::cout, "LOD metropolis: serving a day-0 epoch");

  const Testbed& bed = testbed();
  const LodWorld lod(bed.world, riders, {});
  ThreadPool pool(8);
  const std::vector<LodTrip> trips = lod.simulate_day(0, &pool);
  std::vector<TimedUpload> workload;
  workload.reserve(trips.size());
  for (const LodTrip& t : trips) {
    workload.push_back(TimedUpload{t.trip.upload, t.arrival});
  }

  ShardedIngestConfig sharding;
  sharding.shards = 4;
  ServerConfig server_config;
  server_config.admission.enabled = true;
  ShardedIngestService service(bed.world.city(), bed.database, server_config,
                               sharding);
  EpochPublisher pub(service.catalog());
  ReplayOptions options;
  options.advance_every_s = 900.0;
  options.publish_every = 1;
  options.publisher = &pub;
  const auto replay_start = std::chrono::steady_clock::now();
  const ReplayStats stats = replay_workload(service, workload, options);
  const double replay_s = seconds_since(replay_start);

  // Flat-out single-reader pass against the final epoch.
  QueryService svc(pub);
  const auto& keys = service.catalog().adjacent_keys();
  std::size_t reads = 0;
  const auto read_start = std::chrono::steady_clock::now();
  while (seconds_since(read_start) < 0.5) {
    for (int burst = 0; burst < 1024; ++burst) {
      benchmark::DoNotOptimize(svc.segment_speed(keys[reads++ % keys.size()]));
    }
  }
  const double reads_per_s =
      static_cast<double>(reads) / seconds_since(read_start);

  const TrafficMap map =
      service.snapshot(stats.last_arrival + 30.0, kDay);
  Table t({"riders", "trips", "epochs", "live segments", "reads/s"});
  t.add_row({std::to_string(riders), std::to_string(stats.submitted),
             std::to_string(stats.epochs_published),
             std::to_string(map.segments().size()),
             Fmt::fixed(reads_per_s, 0)});
  t.print(std::cout);
  json.field("\"lod_serving\": {\"riders\": " + std::to_string(riders) +
             ", \"trips\": " + std::to_string(stats.submitted) +
             ", \"accepted\": " + std::to_string(stats.accepted) +
             ", \"epochs_published\": " + std::to_string(stats.epochs_published) +
             ", \"live_segments\": " + std::to_string(map.segments().size()) +
             ", \"replay_s\": " + num(replay_s) +
             ", \"reads_per_s\": " + num(reads_per_s) + "}");
}

void report() {
  JsonReport json;
  std::cout << "workload: " << bench_trips().size()
            << " trips on the default city; "
            << primed().server.catalog().adjacent_keys().size()
            << " catalogued segments\n";

  print_banner(std::cout, "Serving tier: segment-speed reader ladder");
  Table t({"readers", "reads/s", "p50", "p99", "epochs published"});
  std::ostringstream rows;
  bool first = true;
  double best_reads = 0.0;
  double publish_p50 = 0.0, publish_p99 = 0.0;
  for (const int readers : {1, 2, 4, 8}) {
    const ReadResult r = run_readers(readers, 0.6);
    best_reads = std::max(best_reads, r.reads_per_s);
    t.add_row({std::to_string(readers), Fmt::fixed(r.reads_per_s, 0),
               Fmt::fixed(1e9 * r.p50_s, 0) + " ns",
               Fmt::fixed(1e9 * r.p99_s, 0) + " ns",
               std::to_string(r.publishes)});
    if (!first) rows << ", ";
    first = false;
    rows << "{\"readers\": " << readers
         << ", \"reads_per_s\": " << num(r.reads_per_s)
         << ", \"p50_s\": " << num(r.p50_s) << ", \"p99_s\": " << num(r.p99_s)
         << ", \"epochs_published\": " << r.publishes << "}";
  }
  t.print(std::cout);
  std::cout << "best aggregate: " << Fmt::fixed(best_reads / 1e6, 2)
            << " M reads/s (target: >= 1M on a multi-core host)\n";
  json.field("\"segment_reads\": [" + rows.str() + "]");

  print_banner(std::cout, "Publish stall under read load");
  {
    // One instrumented run: 4 readers, publisher flat out (no sleep
    // between publishes), so build_s sees contention from both sides.
    PrimedBackend& backend = primed();
    EpochPublisher pub(backend.server.catalog());
    QueryService svc(pub);
    const auto& keys = backend.server.catalog().adjacent_keys();
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (int r = 0; r < 4; ++r) {
      pool.emplace_back([&, r] {
        std::size_t i = static_cast<std::size_t>(r);
        while (!stop.load(std::memory_order_relaxed)) {
          benchmark::DoNotOptimize(svc.segment_speed(keys[i++ % keys.size()]));
        }
      });
    }
    const auto start = std::chrono::steady_clock::now();
    while (seconds_since(start) < 0.4) {
      backend.server.publish_epoch(pub, backend.now);
    }
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& th : pool) th.join();
    const auto build =
        pub.metrics().snapshot().histograms.at("publish.build_s");
    publish_p50 = build.percentile(0.50);
    publish_p99 = build.percentile(0.99);
    Table pt({"epochs", "build+swap p50", "build+swap p99"});
    pt.add_row({std::to_string(build.total),
                Fmt::fixed(1e6 * publish_p50, 1) + " us",
                Fmt::fixed(1e6 * publish_p99, 1) + " us"});
    pt.print(std::cout);
    json.field("\"publish\": {\"epochs\": " + std::to_string(build.total) +
               ", \"build_p50_s\": " + num(publish_p50) +
               ", \"build_p99_s\": " + num(publish_p99) + "}");
  }

  print_banner(std::cout, "Ingest interference: readers off vs on");
  // Interleaved best-of so warmup and scheduling noise hit both alike.
  (void)run_ingest(false);
  double off = 0.0, on = 0.0;
  for (int round = 0; round < 3; ++round) {
    off = std::max(off, run_ingest(false));
    on = std::max(on, run_ingest(true));
  }
  const double delta = off > 0.0 ? (off - on) / off : 0.0;
  Table it({"serving tier", "ingest trips/s"});
  it.add_row({"off", Fmt::fixed(off, 0)});
  it.add_row({"8 readers (~100k q/s) + publisher", Fmt::fixed(on, 0)});
  it.print(std::cout);
  std::cout << "ingest delta: " << Fmt::fixed(100.0 * delta, 2)
            << "% (contract: <= 10%)\n";
  json.field("\"ingest\": {\"trips_per_s_readers_off\": " + num(off) +
             ", \"trips_per_s_readers_on\": " + num(on) +
             ", \"delta_fraction\": " + num(delta) + "}");

  print_banner(std::cout, "Mixed query families");
  {
    PrimedBackend& backend = primed();
    EpochPublisher pub(backend.server.catalog());
    backend.server.publish_epoch(pub, backend.now);
    QueryService svc(pub);
    const auto& keys = backend.server.catalog().adjacent_keys();
    const BusRoute& route =
        *testbed().world.city().route_by_name(figure2_routes()[0], 0);
    const BoundingBox half = [&] {
      BoundingBox b = pub.geometry().region();
      b.max.x = 0.5 * (b.min.x + b.max.x);
      return b;
    }();
    constexpr int kSegment = 200000, kEta = 2000, kRegion = 20000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSegment; ++i) {
      benchmark::DoNotOptimize(
          svc.segment_speed(keys[static_cast<std::size_t>(i) % keys.size()]));
    }
    for (int i = 0; i < kEta; ++i) {
      benchmark::DoNotOptimize(svc.route_eta(route, 0, backend.now));
    }
    for (int i = 0; i < kRegion; ++i) {
      benchmark::DoNotOptimize(svc.region_aggregate(half));
    }
    const double elapsed = seconds_since(start);
    const auto snap = svc.metrics().snapshot();
    Table mt({"family", "queries", "p50", "p99"});
    std::ostringstream mrows;
    bool mfirst = true;
    // Query counts from the exact counters: the latency histograms hold a
    // one-in-64 sample of the queries.
    for (const std::string family : {"segment", "eta", "region"}) {
      const std::uint64_t queries = snap.counters.at("queries." + family);
      const auto& h = snap.histograms.at("query.latency." + family);
      mt.add_row({family, std::to_string(queries),
                  Fmt::fixed(1e6 * h.percentile(0.50), 2) + " us",
                  Fmt::fixed(1e6 * h.percentile(0.99), 2) + " us"});
      if (!mfirst) mrows << ", ";
      mfirst = false;
      mrows << "{\"family\": \"" << family << "\", \"queries\": " << queries
            << ", \"p50_s\": " << num(h.percentile(0.50))
            << ", \"p99_s\": " << num(h.percentile(0.99)) << "}";
    }
    mt.print(std::cout);
    std::cout << "mixed sweep: " << Fmt::fixed(elapsed, 3) << " s total\n";
    json.field("\"mixed\": [" + mrows.str() + "]");
  }

  lod_report(json);

  json.write("BENCH_serving.json");
  std::cout << "wrote BENCH_serving.json\n";
}

void BM_SegmentSpeedQuery(benchmark::State& state) {
  PrimedBackend& backend = primed();
  EpochPublisher pub(backend.server.catalog());
  backend.server.publish_epoch(pub, backend.now);
  QueryService svc(pub);
  const auto& keys = backend.server.catalog().adjacent_keys();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.segment_speed(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_SegmentSpeedQuery);

void BM_EpochPin(benchmark::State& state) {
  PrimedBackend& backend = primed();
  EpochPublisher pub(backend.server.catalog());
  backend.server.publish_epoch(pub, backend.now);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pub.pin());
  }
}
BENCHMARK(BM_EpochPin);

void BM_PublishEpoch(benchmark::State& state) {
  PrimedBackend& backend = primed();
  EpochPublisher pub(backend.server.catalog());
  for (auto _ : state) {
    backend.server.publish_epoch(pub, backend.now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PublishEpoch)->Unit(benchmark::kMicrosecond);

void BM_RegionAggregate(benchmark::State& state) {
  PrimedBackend& backend = primed();
  EpochPublisher pub(backend.server.catalog());
  backend.server.publish_epoch(pub, backend.now);
  QueryService svc(pub);
  const BoundingBox box = pub.geometry().region();
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.region_aggregate(box));
  }
}
BENCHMARK(BM_RegionAggregate)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bussense::bench

int main(int argc, char** argv) {
  bussense::bench::report();
  return bussense::bench::run_benchmarks(argc, argv);
}
