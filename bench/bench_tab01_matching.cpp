// Table I — the modified Smith–Waterman matching instance, plus the
// mismatch-penalty sweep of Section III-C.1.
//
// Paper: upload {1,2,3,4,5} vs database {1,7,3,5} scores 2.4 from 3
// matches, 1 gap and 1 mismatch; sweeping the penalty from 0.1 to 0.9,
// 0.3 gives the best matching accuracy.
//
// The kernel section times per-sample match() throughput at city scale
// (full city, 8 routes) across the acceleration corners — brute force,
// inverted index, and the fixed-point batch kernel (DESIGN.md §12) — as
// medians and quartiles of alternating repetitions, and emits
// BENCH_matching.json for regression tracking. Results are
// bit-identical across all corners (tests/test_matching_simd.cpp), so the
// table is pure throughput.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <set>

#include "bench_common.h"
#include "common/table.h"
#include "core/matching.h"
#include "core/matching_simd.h"
#include "core/stop_database.h"
#include "core/stop_matcher.h"

namespace bussense::bench {
namespace {

void report_instance() {
  print_banner(std::cout, "Table I: bus stop matching instance");
  const Fingerprint upload{{1, 2, 3, 4, 5}};
  const Fingerprint database{{1, 7, 3, 5}};
  const Alignment a = align(upload, database);
  Table t({"c_upload", "c_database", "matches", "gaps", "mismatches", "score"});
  t.add_row({to_string(upload), to_string(database), std::to_string(a.matches),
             std::to_string(a.gaps), std::to_string(a.mismatches),
             fmt(a.score, 1)});
  t.print(std::cout);
  std::cout << "(paper: 3 matches, 1 gap, 1 mismatch, score 2.4)\n";
}

void report_penalty_sweep() {
  print_banner(std::cout,
               "Section III-C.1: mismatch-penalty sweep (matching accuracy)");
  const Testbed& bed = testbed();
  const City& city = bed.world.city();
  Rng rng(41);

  // Survey samples for a subset of stops; evaluate identification accuracy
  // against the full database under each penalty setting.
  std::vector<std::pair<StopId, Fingerprint>> probes;
  for (const BusStop& stop : city.stops()) {
    if (city.effective_stop(stop.id) != stop.id) continue;
    if (stop.id % 3 != 0) continue;  // subsample for speed
    for (int r = 0; r < 4; ++r) {
      probes.emplace_back(stop.id, bed.world.scan_stop(stop.id, rng, true));
    }
  }

  Table t({"penalty", "accuracy (%)"});
  double best_penalty = 0.0, best_acc = -1.0;
  for (double penalty = 0.1; penalty <= 0.91; penalty += 0.1) {
    StopMatcherConfig cfg;
    cfg.matching.mismatch_penalty = penalty;
    cfg.matching.gap_penalty = penalty;
    const StopMatcher matcher(bed.database, cfg);
    int correct = 0;
    for (const auto& [stop, fp] : probes) {
      const auto m = matcher.match(fp);
      if (m && m->stop == stop) ++correct;
    }
    const double acc = 100.0 * correct / static_cast<double>(probes.size());
    t.add_row(fmt(penalty, 1), {acc}, 2);
    if (acc > best_acc) {
      best_acc = acc;
      best_penalty = penalty;
    }
  }
  t.print(std::cout);
  std::cout << "best penalty: " << fmt(best_penalty, 1)
            << " (paper chose 0.3)\n";
}

// --- city-scale kernel throughput -----------------------------------------

struct CityScale {
  std::unique_ptr<World> world;
  StopDatabase database;
  std::vector<Fingerprint> probes;
};

const CityScale& city_scale() {
  static CityScale cs = [] {
    CityScale out;
    WorldConfig cfg;
    cfg.city.width_m = 7000;
    cfg.city.height_m = 4000;
    cfg.city.route_names = {"79", "99", "241", "243", "252", "257", "182", "31"};
    cfg.seed = 9;
    out.world = std::make_unique<World>(cfg);
    Rng survey(2024);
    out.database = build_stop_database(
        out.world->city(),
        [&](StopId stop, int run) {
          return out.world->scan_stop(stop, survey, run % 2 == 1);
        },
        3);
    // Several in-bus scans per effective stop, each a fresh draw: about a
    // thousand probes, so even the fastest corner's timed loop replays
    // ~20k matches.
    constexpr int kScansPerStop = 6;
    Rng rng(43);
    for (const BusStop& stop : out.world->city().stops()) {
      if (out.world->city().effective_stop(stop.id) != stop.id) continue;
      for (int k = 0; k < kScansPerStop; ++k) {
        out.probes.push_back(out.world->scan_stop(stop.id, rng, true));
      }
    }
    return out;
  }();
  return cs;
}

double match_samples_per_s(const StopMatcher& matcher,
                           const std::vector<Fingerprint>& probes,
                           int repeats) {
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const Fingerprint& fp : probes) {
      benchmark::DoNotOptimize(matcher.match(fp));
    }
  }
  const double total = static_cast<double>(probes.size()) * repeats;
  return total / std::max(seconds_since(start), 1e-9);
}

// Repetitions per corner. One timed loop lasts about 10 ms (indexed,
// kernel) to 40 ms (brute force, scalar), yet single loops still spread
// widely on a shared host; the corners alternate repetition by
// repetition, so drift hits all four alike, and the table reports medians
// with quartiles.
constexpr int kRepetitions = 15;

void report_kernel_throughput() {
  print_banner(std::cout,
               "Matching kernel: city-scale match() throughput "
               "(full city, 8 routes)");
  const CityScale& cs = city_scale();

  struct Corner {
    const char* label;
    bool use_index;
    bool use_simd;
    int repeats;
  };
  // Brute force scans every record per sample, so it gets fewer repeats.
  const Corner corners[] = {
      {"brute force, scalar", false, false, 2},
      {"brute force, kernel", false, true, 2},
      {"indexed, scalar", true, false, 20},
      {"indexed, kernel", true, true, 20},
  };
  constexpr int kCorners = 4;

  std::vector<StopMatcher> matchers;
  for (const Corner& c : corners) {
    StopMatcherConfig cfg;
    cfg.accel.use_index = c.use_index;
    cfg.accel.use_simd = c.use_simd;
    matchers.emplace_back(cs.database, cfg);
  }
  std::vector<double> rates[kCorners];
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (int i = 0; i < kCorners; ++i) {
      rates[i].push_back(
          match_samples_per_s(matchers[i], cs.probes, corners[i].repeats));
    }
  }
  double median[kCorners];
  for (int i = 0; i < kCorners; ++i) {
    std::sort(rates[i].begin(), rates[i].end());
    median[i] = percentile(rates[i], 0.5);
  }

  Table t({"configuration", "samples/s (median)", "q1", "q3", "speedup"});
  JsonReport json;
  std::ostringstream rows;
  for (int i = 0; i < kCorners; ++i) {
    const double base = corners[i].use_index ? median[2] : median[0];
    const double q1 = percentile(rates[i], 0.25);
    const double q3 = percentile(rates[i], 0.75);
    t.add_row({corners[i].label, fmt(median[i], 0), fmt(q1, 0), fmt(q3, 0),
               fmt(median[i] / std::max(base, 1e-9), 2) + "x"});
    if (i) rows << ", ";
    rows << "{\"label\": \"" << corners[i].label
         << "\", \"samples_per_s\": " << num(median[i])
         << ", \"q1\": " << num(q1) << ", \"q3\": " << num(q3) << "}";
  }
  t.print(std::cout);
  const double brute_speedup = median[1] / std::max(median[0], 1e-9);
  const double indexed_speedup = median[3] / std::max(median[2], 1e-9);
  std::cout << "medians of " << kRepetitions
            << " alternating repetitions per corner\n"
            << "active kernel: " << simd::kernel_name(simd::active_kernel())
            << " (batch width " << simd::batch_width() << ")\n"
            << "kernel speedup: " << fmt(brute_speedup, 2)
            << "x over brute-force scalar, " << fmt(indexed_speedup, 2)
            << "x over indexed scalar\n";

  json.field("\"stops\": " + std::to_string(cs.database.size()));
  json.field("\"probes\": " + std::to_string(cs.probes.size()));
  json.field(std::string("\"kernel\": \"") +
             simd::kernel_name(simd::active_kernel()) + "\"");
  json.field("\"batch_width\": " + std::to_string(simd::batch_width()));
  // Whether the "kernel" corners actually took the batch path: false on
  // hosts without a vector unit, where use_simd is deliberately inert.
  json.field(std::string("\"batch_engaged\": ") +
             (StopMatcher(cs.database).simd_active() ? "true" : "false"));
  json.field("\"repetitions\": " + std::to_string(kRepetitions));
  json.field("\"corners\": [" + rows.str() + "]");
  json.field("\"kernel_speedup_brute\": " + num(brute_speedup));
  json.field("\"kernel_speedup_indexed\": " + num(indexed_speedup));
  json.write("BENCH_matching.json");
  std::cout << "wrote BENCH_matching.json\n";
}

void BM_Align(benchmark::State& state) {
  const Fingerprint upload{{1, 2, 3, 4, 5}};
  const Fingerprint database{{1, 7, 3, 5}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(align(upload, database));
  }
}
BENCHMARK(BM_Align);

void BM_MatchAgainstFullDatabase(benchmark::State& state) {
  const Testbed& bed = testbed();
  const StopMatcher matcher(bed.database);
  Rng rng(42);
  const Fingerprint fp =
      bed.world.scan_stop(bed.world.city().routes()[0].stops()[5].stop, rng, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(fp));
  }
}
BENCHMARK(BM_MatchAgainstFullDatabase);

}  // namespace
}  // namespace bussense::bench

int main(int argc, char** argv) {
  bussense::bench::report_instance();
  bussense::bench::report_penalty_sweep();
  bussense::bench::report_kernel_throughput();
  return bussense::bench::run_benchmarks(argc, argv);
}
