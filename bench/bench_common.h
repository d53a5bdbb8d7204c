// Shared fixture for the benchmark/reproduction harness.
//
// Every bench binary prints the rows/series of one paper table or figure
// first (so `./bench_*` regenerates the experiment), then runs its
// google-benchmark timings. The world and the surveyed fingerprint database
// are built once per process.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ingest_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "trafficsim/lod_world.h"
#include "trafficsim/world.h"

namespace bussense::bench {

struct Testbed {
  World world;
  StopDatabase database;
};

inline double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// p-quantile of an ascending-sorted vector (nearest-rank, no interpolation).
inline double percentile(const std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_values.size() - 1));
  return sorted_values[idx];
}

/// The build provenance stanza every report carries: git describe of the
/// built tree plus the flags that change what the numbers mean
/// (BUSSENSE_SIMD, sanitizer instrumentation, -march=native). Captured at
/// configure time as compile definitions on the benchcommon library.
std::string build_stanza();

/// Minimal machine-readable record of a bench run (schema documented by use
/// in EXPERIMENTS.md / future regression tooling). write() appends the
/// `"build"` stanza automatically, so every emitted report records which
/// binary produced it.
struct JsonReport {
  std::ostringstream body;
  bool first = true;

  void field(const std::string& raw) {
    if (!first) body << ",\n";
    first = false;
    body << "  " << raw;
  }
  void write(const std::string& path) {
    field(build_stanza());
    std::ofstream os(path);
    os << "{\n" << body.str() << "\n}\n";
  }
};

inline std::string num(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// The default 7 km x 4 km world with a 5-run mixed-condition survey DB.
const Testbed& testbed();

/// Riders of an all-Event benchmark day: 64 of LodWorld's 128-rider
/// blocks, so the day fans out over every thread of a small pool.
inline constexpr std::int64_t kEventDayRiders = 8192;

/// A LodWorld population of kEventDayRiders, all in the Event tier (every
/// rider's beeps come from the calibrated event channel over a full bus
/// run; no Focus audio, no OnRails shortcut), planning `trips` trips a day
/// on average.
LodConfig all_event_lod_config(double trips, std::uint64_t seed);

/// The first `count` trips, in ingest arrival order, of day 0 of an
/// all-Event population over `world` that plans 1.25 × `count` trips.
/// Bit-identical at any pool size. Exits the bench with status 1 when the
/// day emitted fewer than `count`.
std::vector<AnnotatedTrip> event_day_trips(const World& world,
                                           std::size_t count,
                                           std::uint64_t seed,
                                           ThreadPool& pool);

/// Names of the five routes used in the paper's Figure 2 feasibility study.
const std::vector<std::string>& figure2_routes();

/// Uploads each shard of `service` processed (ingest.shard.processed, in
/// shard order). Exits the bench with status 1 when any shard processed
/// under half its fair share: a shard ladder whose workload lands on one
/// shard measures nothing, so it fails loudly instead of publishing a
/// number.
std::vector<std::uint64_t> require_balanced_shards(
    const ShardedIngestService& service, const std::string& label);

/// Prints the banner, then initialises and runs google-benchmark with the
/// remaining CLI arguments. Returns the process exit code.
int run_benchmarks(int argc, char** argv);

}  // namespace bussense::bench
