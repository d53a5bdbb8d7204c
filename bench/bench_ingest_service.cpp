// Ingest front end throughput and overheads.
//
// Four questions a deployment asks of the ingest tier:
//
//   1. scale-out — the sharded service's shard ladder (1/2/4/8 shards,
//      one locked inbox each, no coordinator) over uploads from distinct
//      participants; the contract is monotone scaling — adding shards must
//      never cost throughput, and on a many-core host it should scale
//      near-linearly. Each rung checks its own workload: the bench exits
//      non-zero if any shard processed under half its fair share;
//   2. observability cost — serial-server throughput with the metrics
//      layer on vs off (the instruments are relaxed atomics; the contract
//      is <= 5% overhead);
//   3. durability cost — the WAL fsync-policy ladder (off / kNever /
//      kInterval(256) / kEveryRecord) on a 1-shard service, the durable
//      serial path; the contract is <= 10% overhead for kInterval, the
//      recommended deployment setting;
//   4. the LOD city-week — determinism of the metropolis generator and
//      its replay throughput through the sharded service.
//
// Emits BENCH_ingest.json with all four.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/ingest_service.h"
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

// 360 trips, each from its own participant, so the participant hash
// spreads them over every shard of the ladder.
std::vector<AnnotatedTrip>& bench_trips() {
  static std::vector<AnnotatedTrip> trips = [] {
    const Testbed& bed = testbed();
    ThreadPool pool(std::thread::hardware_concurrency());
    std::vector<AnnotatedTrip> out = event_day_trips(bed.world, 360, 91, pool);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i].upload.participant_id = static_cast<std::int32_t>(i);
    }
    return out;
  }();
  return trips;
}

// Replays every trip through the sharded service from two producer
// threads for `rounds` full passes and returns best-of-round trips/s.
// Best-of keeps the ladder comparable on noisy or core-starved hosts:
// the contract under test is "no negative scaling", not absolute speed.
double run_sharded(std::size_t shards, int rounds) {
  const Testbed& bed = testbed();
  const auto& trips = bench_trips();
  double best = 0.0;
  for (int r = 0; r < rounds; ++r) {
    ShardedIngestConfig cfg;
    cfg.shards = shards;
    cfg.backpressure = ShardedIngestConfig::Backpressure::kBlock;
    ShardedIngestService service(bed.world.city(), bed.database, {}, cfg);

    const int producers = 2;
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int p = 0; p < producers; ++p) {
      pool.emplace_back([&, p] {
        for (std::size_t i = static_cast<std::size_t>(p); i < trips.size();
             i += producers) {
          service.process_trip(trips[i].upload);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    service.drain();
    const double elapsed = seconds_since(start);
    require_balanced_shards(service,
                            "shard ladder, " + std::to_string(shards) + " shards");
    best = std::max(best, static_cast<double>(trips.size()) /
                              std::max(elapsed, 1e-9));
  }
  return best;
}

// One timed serial replay; returns trips/s.
double serial_round(bool metrics_on) {
  const Testbed& bed = testbed();
  const auto& trips = bench_trips();
  ServerConfig cfg;
  cfg.obs.enabled = metrics_on;
  TrafficServer server(bed.world.city(), bed.database, cfg);
  const auto start = std::chrono::steady_clock::now();
  for (const AnnotatedTrip& trip : trips) server.process_trip(trip.upload);
  return static_cast<double>(trips.size()) /
         std::max(seconds_since(start), 1e-9);
}

// One timed replay through a 1-shard service — the durable serial path —
// with the write-ahead trip log under the given fsync policy (fresh log
// directory per round), or without it for `policy` == nullopt. The span
// ends at drain(), once every upload is analysed, logged and folded.
// Returns trips/s.
double durable_round(std::optional<FsyncPolicy> policy) {
  const Testbed& bed = testbed();
  const auto& trips = bench_trips();
  static int round_no = 0;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("bussense_bench_wal_" + std::to_string(++round_no));
  std::filesystem::remove_all(dir);
  ServerConfig cfg;
  if (policy) {
    cfg.durability.enabled = true;
    cfg.durability.directory = dir.string();
    cfg.durability.fsync = *policy;
  }
  ShardedIngestConfig one_shard;
  one_shard.shards = 1;
  ShardedIngestService service(bed.world.city(), bed.database, cfg, one_shard);
  service.open();
  const auto start = std::chrono::steady_clock::now();
  for (const AnnotatedTrip& trip : trips) service.process_trip(trip.upload);
  service.drain();
  const double elapsed = seconds_since(start);
  service.close();
  std::filesystem::remove_all(dir);
  return static_cast<double>(trips.size()) / std::max(elapsed, 1e-9);
}

// The WAL fsync-policy ladder: best of `rounds` per policy, interleaved so
// noise hits every rung alike. "off" is the same 1-shard service with
// durability disabled and the baseline the overheads are quoted against.
struct WalLadder {
  double off = 0.0, never = 0.0, interval = 0.0, every = 0.0;
};

WalLadder wal_policy_trips_per_s(int rounds) {
  (void)durable_round(std::nullopt);
  (void)durable_round(FsyncPolicy::kNever);
  WalLadder best;
  for (int r = 0; r < rounds; ++r) {
    best.off = std::max(best.off, durable_round(std::nullopt));
    best.never = std::max(best.never, durable_round(FsyncPolicy::kNever));
    best.interval =
        std::max(best.interval, durable_round(FsyncPolicy::kInterval));
    best.every = std::max(best.every, durable_round(FsyncPolicy::kEveryRecord));
  }
  return best;
}

// Metrics-on vs metrics-off throughput, best of `rounds` with the two
// configurations interleaved (and a discarded warmup) so cache warmup and
// scheduling noise hit both sides alike.
std::pair<double, double> serial_on_off_trips_per_s(int rounds) {
  (void)serial_round(false);
  (void)serial_round(true);
  double best_off = 0.0, best_on = 0.0;
  for (int r = 0; r < rounds; ++r) {
    best_off = std::max(best_off, serial_round(false));
    best_on = std::max(best_on, serial_round(true));
  }
  return {best_on, best_off};
}

// ------------------------------------------------------- LOD city-week

/// The tiered-fidelity metropolis workload (DESIGN.md §15): a city-week of
/// rider trips generated by LodWorld and replayed through the sharded
/// ingest tier. Three things are measured and recorded:
///
///   1. determinism — the day-0 trip stream digested at 1/2/4/8 simulation
///      threads, and the full week digested twice with the same seed at
///      different thread counts, must be bit-identical (the acceptance
///      contract of the generator);
///   2. the rush-hour load ladder — the weekly demand multiplier at the
///      hours a deployment cares about, weekday vs weekend, plus per-day
///      trip volumes;
///   3. replay throughput — trips/s sustained by ShardedIngestService over
///      the whole week, with the admission stage enabled.
///
/// BUSSENSE_LOD_RIDERS overrides the metropolis size (default 1M; CI's
/// fast tier sets it low, scripts/tier1.sh's BUSSENSE_LOD stage runs the
/// full million).
void lod_report(JsonReport& json) {
  std::int64_t riders = 1'000'000;
  if (const char* env = std::getenv("BUSSENSE_LOD_RIDERS")) {
    riders = std::atoll(env);
  }
  if (riders <= 0) {
    std::cout << "lod cityweek: skipped (BUSSENSE_LOD_RIDERS=0)\n";
    return;
  }
  print_banner(std::cout, "LOD metropolis: deterministic city-week");

  const Testbed& bed = testbed();
  LodConfig lod_config;
  const LodWorld lod(bed.world, riders, lod_config);
  const LodCensus& census = lod.census();
  std::cout << "metropolis: riders=" << census.riders
            << " focus=" << census.focus << " event=" << census.event
            << " onrails=" << census.on_rails << "\n";

  // 1a. Day-0 thread ladder: same stream at every thread count.
  std::vector<std::uint64_t> day0_digests;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    day0_digests.push_back(LodWorld::stream_digest(lod.simulate_day(0, &pool)));
  }
  bool day0_identical = true;
  for (const std::uint64_t d : day0_digests) {
    day0_identical = day0_identical && d == day0_digests.front();
  }
  std::cout << "day-0 digest @1/2/4/8 threads: " << std::hex
            << day0_digests.front() << std::dec
            << (day0_identical ? " (bit-identical)" : " MISMATCH") << "\n";

  // 1b + 3. Week run A (8 threads): digest each day, replay it through the
  // sharded service, then free it — the week never lives in memory whole.
  ShardedIngestConfig sharding;
  sharding.shards = 4;
  ServerConfig server_config;
  server_config.admission.enabled = true;
  ShardedIngestService service(bed.world.city(), bed.database, server_config,
                               sharding);
  ThreadPool pool_a(8);
  std::vector<std::uint64_t> week_a;
  std::vector<std::size_t> day_trips;
  std::uint64_t accepted = 0, submitted = 0;
  double replay_s = 0.0, generate_s = 0.0;
  for (int day = 0; day < 7; ++day) {
    const auto gen_start = std::chrono::steady_clock::now();
    const std::vector<LodTrip> trips = lod.simulate_day(day, &pool_a);
    generate_s += seconds_since(gen_start);
    week_a.push_back(LodWorld::stream_digest(trips));
    day_trips.push_back(trips.size());
    std::vector<TimedUpload> workload;
    workload.reserve(trips.size());
    for (const LodTrip& t : trips) {
      workload.push_back(TimedUpload{t.trip.upload, t.arrival});
    }
    ReplayOptions options;
    options.advance_every_s = 900.0;
    const auto start = std::chrono::steady_clock::now();
    const ReplayStats stats = replay_workload(service, workload, options);
    replay_s += seconds_since(start);
    submitted += stats.submitted;
    accepted += stats.accepted;
  }
  const double replay_tps =
      static_cast<double>(submitted) / std::max(replay_s, 1e-9);
  std::cout << "week: " << submitted << " trips generated in "
            << Fmt::fixed(generate_s, 1) << " s, replayed at "
            << Fmt::fixed(replay_tps, 0) << " trips/s (accepted " << accepted
            << "/" << submitted << ")\n";

  // 1c. Week run B, same seed, different thread count: per-day digests
  // must match run A's exactly.
  ThreadPool pool_b(3);
  bool week_identical = true;
  for (int day = 0; day < 7; ++day) {
    week_identical =
        week_identical &&
        LodWorld::stream_digest(lod.simulate_day(day, &pool_b)) == week_a[day];
  }
  std::cout << "week re-run (same seed, 3 threads): "
            << (week_identical ? "bit-identical" : "MISMATCH") << "\n";

  // 2. The rush-hour load ladder, weekday vs weekend.
  const int ladder_hours[] = {6, 7, 8, 9, 12, 17, 18, 19, 22};
  Table lt({"hour", "weekday load", "weekend load"});
  std::ostringstream lrows;
  bool lfirst = true;
  for (const int hour : ladder_hours) {
    const double weekday = lod.load_factor(at_clock(0, hour));
    const double weekend = lod.load_factor(at_clock(5, hour));
    lt.add_row({std::to_string(hour) + ":00", Fmt::fixed(weekday, 3),
                Fmt::fixed(weekend, 3)});
    if (!lfirst) lrows << ", ";
    lfirst = false;
    lrows << "{\"hour\": " << hour << ", \"weekday\": " << num(weekday)
          << ", \"weekend\": " << num(weekend) << "}";
  }
  lt.print(std::cout);

  std::ostringstream drows;
  for (std::size_t day = 0; day < day_trips.size(); ++day) {
    if (day > 0) drows << ", ";
    drows << day_trips[day];
  }
  json.field(
      "\"lod_cityweek\": {\"riders\": " + std::to_string(riders) +
      ", \"focus\": " + std::to_string(census.focus) +
      ", \"event\": " + std::to_string(census.event) +
      ", \"onrails\": " + std::to_string(census.on_rails) +
      ", \"trips\": " + std::to_string(submitted) +
      ", \"accepted\": " + std::to_string(accepted) +
      ", \"trips_per_day\": [" + drows.str() + "]" +
      ", \"day0_digest\": \"" + [&] {
        std::ostringstream os;
        os << std::hex << day0_digests.front();
        return os.str();
      }() + "\", \"thread_ladder_identical\": " +
      (day0_identical ? "true" : "false") +
      ", \"week_rerun_identical\": " + (week_identical ? "true" : "false") +
      ", \"generate_s\": " + num(generate_s) +
      ", \"replay_trips_per_s\": " + num(replay_tps) +
      ", \"load_ladder\": [" + lrows.str() + "]}");

  if (!day0_identical || !week_identical) {
    std::cerr << "LOD determinism violation — digests diverged\n";
    std::exit(1);
  }
}

void report() {
  JsonReport json;
  const std::size_t n_trips = bench_trips().size();
  std::cout << "workload: " << n_trips << " trips on the default city\n";

  print_banner(std::cout, "Sharded ingest: shard ladder (one inbox per shard)");
  Table st({"shards", "trips/s", "vs 1 shard"});
  std::ostringstream srows;
  double one_shard = 0.0;
  bool sfirst = true;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const double tps = run_sharded(shards, 3);
    if (shards == 1) one_shard = tps;
    st.add_row({std::to_string(shards), Fmt::fixed(tps, 0),
                Fmt::fixed(one_shard > 0.0 ? tps / one_shard : 0.0, 2) + "x"});
    if (!sfirst) srows << ", ";
    sfirst = false;
    srows << "{\"shards\": " << shards
          << ", \"trips_per_s\": " << num(tps) << "}";
  }
  st.print(std::cout);
  json.field("\"sharded\": [" + srows.str() + "]");

  print_banner(std::cout, "Metrics layer overhead (serial server)");
  const auto [on, off] = serial_on_off_trips_per_s(4);
  const double overhead = off > 0.0 ? (off - on) / off : 0.0;
  Table ot({"observability", "trips/s"});
  ot.add_row({"off", Fmt::fixed(off, 0)});
  ot.add_row({"on", Fmt::fixed(on, 0)});
  ot.print(std::cout);
  std::cout << "overhead: " << Fmt::fixed(100.0 * overhead, 2)
            << "% (relaxed-atomic instruments + per-stage clock reads)\n";
  json.field("\"metrics_overhead\": {\"trips_per_s_off\": " + num(off) +
             ", \"trips_per_s_on\": " + num(on) +
             ", \"overhead_fraction\": " + num(overhead) + "}");

  print_banner(std::cout, "Durability: WAL fsync-policy ladder (1-shard service)");
  const WalLadder wal = wal_policy_trips_per_s(5);
  const auto wal_over = [&](double tps) {
    return wal.off > 0.0 ? (wal.off - tps) / wal.off : 0.0;
  };
  Table wt({"wal policy", "trips/s", "overhead vs off"});
  std::ostringstream wrows;
  bool wfirst = true;
  const std::pair<const char*, double> rungs[] = {
      {"off", wal.off},
      {"kNever", wal.never},
      {"kInterval(256)", wal.interval},
      {"kEveryRecord", wal.every}};
  for (const auto& [name, tps] : rungs) {
    wt.add_row({name, Fmt::fixed(tps, 0),
                Fmt::fixed(100.0 * wal_over(tps), 2) + "%"});
    if (!wfirst) wrows << ", ";
    wfirst = false;
    wrows << "{\"policy\": \"" << name << "\", \"trips_per_s\": " << num(tps)
          << ", \"overhead_fraction\": " << num(wal_over(tps)) << "}";
  }
  wt.print(std::cout);
  std::cout << "contract: kInterval overhead <= 10% (recommended setting)\n";
  json.field("\"wal_policy\": [" + wrows.str() + "]");

  lod_report(json);

  json.write("BENCH_ingest.json");
  std::cout << "wrote BENCH_ingest.json\n";
}

void BM_MetricsCounterInc(benchmark::State& state) {
  MetricsRegistry reg;
  Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsCounterInc);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  MetricsRegistry reg;
  BucketHistogram& h = reg.histogram("bench.hist");
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 1.0 ? v * 1.7 : 1e-6;  // sweep the bucket ladder
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MetricsHistogramRecord);

}  // namespace
}  // namespace bussense::bench

int main(int argc, char** argv) {
  bussense::bench::report();
  return bussense::bench::run_benchmarks(argc, argv);
}
