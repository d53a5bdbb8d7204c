// Sensing fast-path equivalence: the indexed scan and the one-pass Goertzel
// bank must be *result-identical* to their brute-force / scalar reference
// paths — the contract that lets the benches claim speedups without
// changing any downstream number. (The parallel trip driver, LodWorld's
// day, is held to its serial run in tests/test_lod_world.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <set>
#include <thread>

#include "cellular/deployment.h"
#include "cellular/scanner.h"
#include "cellular/tower_index.h"
#include "common/thread_pool.h"
#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"
#include "dsp/goertzel.h"
#include "dsp/goertzel_bank.h"
#include "dsp/sliding_window.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

// ------------------------------------------------- indexed scan identity

class ScanEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScanEquivalence, IndexedMatchesBruteForceBitForBit) {
  Rng meta(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    const double w = meta.uniform(1500.0, 9000.0);
    const double h = meta.uniform(1500.0, 6000.0);
    Rng deploy_rng(meta.engine()());
    const auto towers =
        deploy_towers({{0.0, 0.0}, {w, h}}, DeploymentConfig{}, deploy_rng);
    const RadioEnvironment env(towers, PropagationConfig{}, meta.engine()());

    ScannerConfig indexed_cfg, brute_cfg;
    brute_cfg.accel.use_index = false;
    const CellScanner indexed(indexed_cfg);
    const CellScanner brute(brute_cfg);

    const std::uint64_t scan_seed = meta.engine()();
    Rng rng_a(scan_seed), rng_b(scan_seed);
    for (int s = 0; s < 50; ++s) {
      const Point p{meta.uniform(-500.0, w + 500.0),
                    meta.uniform(-500.0, h + 500.0)};
      const bool in_bus = meta.bernoulli(0.5);
      ScanStats stats;
      const auto a = indexed.scan(env, p, rng_a, in_bus, &stats);
      const auto b = brute.scan(env, p, rng_b, in_bus);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].rss_dbm, b[i].rss_dbm);  // bit-identical doubles
      }
      // Both paths must consume the caller's rng stream identically.
      EXPECT_EQ(rng_a.engine()(), rng_b.engine()());
      EXPECT_EQ(stats.towers_considered, towers.size());
      EXPECT_LE(stats.reach_candidates, stats.towers_considered);
      EXPECT_LE(stats.towers_accepted, stats.reach_candidates);
      EXPECT_EQ(stats.towers_pruned,
                stats.towers_considered - stats.towers_accepted);
    }
  }
}

// The scan contract written out with no scanner code: every tower's mean
// plus its temporal deviate under the scan key, filtered by sensitivity,
// sorted by descending RSS (ties by id) and truncated.
std::vector<CellObservation> reference_scan(const RadioEnvironment& env,
                                            const ScannerConfig& cfg, Point p,
                                            bool in_bus, std::uint64_t key) {
  const double extra = in_bus ? cfg.in_bus_noise_db : 0.0;
  std::vector<CellObservation> out;
  for (const CellTower& tower : env.towers()) {
    const double rss =
        env.mean_rss_dbm(tower, p) + env.temporal_noise_db(tower.id, key, extra);
    if (rss >= cfg.sensitivity_dbm) out.push_back(CellObservation{tower.id, rss});
  }
  std::sort(out.begin(), out.end(),
            [](const CellObservation& a, const CellObservation& b) {
              return a.rss_dbm != b.rss_dbm ? a.rss_dbm > b.rss_dbm : a.id < b.id;
            });
  if (out.size() > cfg.max_towers) out.resize(cfg.max_towers);
  return out;
}

// One site, built once, scanned many times (how LodWorld scans its route
// stops) must report exactly what a brute-force scan at the same point
// reports, draw the same rng and count the same ScanStats as a point scan.
TEST_P(ScanEquivalence, SiteScanMatchesBruteForceBitForBit) {
  Rng meta(GetParam() ^ 0x5173u);
  Rng deploy_rng(meta.engine()());
  const auto towers = deploy_towers({{0.0, 0.0}, {6000.0, 4000.0}},
                                    DeploymentConfig{}, deploy_rng);
  const RadioEnvironment env(towers, PropagationConfig{}, meta.engine()());
  ScannerConfig brute_cfg;
  brute_cfg.accel.use_index = false;
  const CellScanner indexed;
  const CellScanner brute(brute_cfg);

  for (int point = 0; point < 12; ++point) {
    const Point p{meta.uniform(-300.0, 6300.0), meta.uniform(-300.0, 4300.0)};
    for (const bool in_bus : {false, true}) {
      const ScanSite site = indexed.site(env, p, in_bus);
      const ScanSite brute_site = brute.site(env, p, in_bus);
      EXPECT_EQ(site.in_bus, in_bus);
      EXPECT_LE(site.candidates.size(), site.reach_candidates);
      EXPECT_EQ(brute_site.candidates.size(), towers.size());

      const std::uint64_t scan_seed = meta.engine()();
      Rng rng_site(scan_seed), rng_point(scan_seed), rng_brute(scan_seed),
          rng_brute_site(scan_seed), rng_key(scan_seed);
      for (int s = 0; s < 25; ++s) {
        ScanStats site_stats, point_stats;
        const auto a = indexed.scan(env, site, rng_site, &site_stats);
        const auto b = indexed.scan(env, p, rng_point, in_bus, &point_stats);
        const auto c = brute.scan(env, p, rng_brute, in_bus);
        const auto d = brute.scan(env, brute_site, rng_brute_site);
        const auto want =
            reference_scan(env, indexed.config(), p, in_bus, rng_key.engine()());
        for (const auto* got : {&a, &b, &c, &d}) {
          ASSERT_EQ(got->size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ((*got)[i].id, want[i].id);
            EXPECT_EQ(std::bit_cast<std::uint64_t>((*got)[i].rss_dbm),
                      std::bit_cast<std::uint64_t>(want[i].rss_dbm));
          }
        }
        EXPECT_EQ(site_stats.towers_considered, point_stats.towers_considered);
        EXPECT_EQ(site_stats.reach_candidates, point_stats.reach_candidates);
        EXPECT_EQ(site_stats.towers_pruned, point_stats.towers_pruned);
        EXPECT_EQ(site_stats.towers_accepted, point_stats.towers_accepted);
        EXPECT_EQ(site_stats.towers_accepted, site.candidates.size());
      }
      // Every path consumes exactly one draw per scan.
      const std::uint64_t next = rng_brute.engine()();
      EXPECT_EQ(rng_site.engine()(), next);
      EXPECT_EQ(rng_point.engine()(), next);
      EXPECT_EQ(rng_brute_site.engine()(), next);
    }
  }
}

TEST_P(ScanEquivalence, WorldScanStopWithChurnIsIndexInvariant) {
  WorldConfig base;
  base.city.route_names = {"79", "243"};
  base.city.width_m = 4000.0;
  base.city.height_m = 2500.0;
  base.seed = GetParam();
  base.tower_churn_per_day = 0.05;
  base.tower_churn_event_day = 2;
  base.tower_churn_event_fraction = 0.3;
  WorldConfig brute = base;
  brute.scanner.accel.use_index = false;
  const World world_indexed(base), world_brute(brute);

  const std::uint64_t scan_seed = 1234 + GetParam();
  Rng rng_a(scan_seed), rng_b(scan_seed);
  Rng pick(GetParam() ^ 0xabcd);
  for (int s = 0; s < 40; ++s) {
    const auto stop = static_cast<StopId>(pick.uniform_int(
        0, static_cast<int>(world_indexed.city().stops().size()) - 1));
    const bool in_bus = pick.bernoulli(0.5);
    const SimTime when = at_clock(pick.uniform_int(0, 4), 12, 0);
    const Fingerprint a = world_indexed.scan_stop(stop, rng_a, in_bus, when);
    const Fingerprint b = world_brute.scan_stop(stop, rng_b, in_bus, when);
    EXPECT_EQ(a.cells, b.cells);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanEquivalence,
                         ::testing::Values(1u, 7u, 42u, 1337u));

// ------------------------------------------------------ shadow-node memo

// Inverse of mix64 (common/rng.h): undo each xorshift and odd multiply.
std::uint64_t unxorshift(std::uint64_t y, int shift) {
  std::uint64_t x = y;
  for (int i = 0; i < 64 / shift + 1; ++i) x = y ^ (x >> shift);
  return x;
}
std::uint64_t inverse_odd(std::uint64_t c) {
  std::uint64_t inv = c;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) inv *= 2 - c * inv;
  return inv;
}
std::uint64_t unmix64(std::uint64_t y) {
  std::uint64_t x = unxorshift(y, 31) * inverse_odd(0x94d049bb133111ebULL);
  x = unxorshift(x, 27) * inverse_odd(0xbf58476d1ce4e5b9ULL);
  return unxorshift(x, 30) - 0x9e3779b97f4a7c15ULL;
}

// Terrain seed whose shadow node (tower, 0, 0) hashes to `node_hash`: the
// node hash is mix64(mix64(mix64(seed ^ tower) ^ 0) ^ 0) at gx = gy = 0.
std::uint64_t seed_for_node_hash(CellId tower, std::uint64_t node_hash) {
  return unmix64(unmix64(unmix64(node_hash))) ^ static_cast<std::uint64_t>(tower);
}

TEST(ShadowMemo, NodeHashZeroReadsTheSameOnColdAndWarmThreads) {
  ASSERT_EQ(mix64(unmix64(0x0123456789abcdefULL)), 0x0123456789abcdefULL);
  const CellTower tower{7, {300.0, 200.0}, 43.0};
  // Node (7, 0, 0) hashes to 0 here; a point inside grid cell (0, 0)
  // interpolates it with weight ~0.6.
  const RadioEnvironment env({tower}, PropagationConfig{},
                             seed_for_node_hash(tower.id, 0));
  // Here the same node hashes to 2^40, which lands in the memo's slot 0
  // too (any power-of-two table up to 2^40 slots).
  const RadioEnvironment other({tower}, PropagationConfig{},
                               seed_for_node_hash(tower.id, 1ULL << 40));
  const Point p{10.0, 10.0};

  double cold = 0.0, warm = 0.0;
  std::thread([&] { cold = env.mean_rss_dbm(tower, p); }).join();
  std::thread([&] {
    (void)other.mean_rss_dbm(tower, p);
    warm = env.mean_rss_dbm(tower, p);
  }).join();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cold), std::bit_cast<std::uint64_t>(warm));
}

TEST(TowerIndex, QueryMatchesLinearScan) {
  Rng rng(5);
  std::vector<CellTower> towers;
  for (int i = 0; i < 300; ++i) {
    towers.push_back(CellTower{static_cast<CellId>(1000 + i),
                               {rng.uniform(-2000.0, 7000.0),
                                rng.uniform(-1000.0, 5000.0)},
                               38.5});
  }
  const TowerIndex index(towers, 750.0);
  std::vector<std::uint32_t> got;
  for (int trial = 0; trial < 200; ++trial) {
    const Point p{rng.uniform(-3000.0, 8000.0), rng.uniform(-2000.0, 6000.0)};
    const double radius = rng.uniform(0.0, 4000.0);
    index.query(p, radius, got);
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < towers.size(); ++i) {
      if (distance(towers[i].position, p) <= radius) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(TowerIndex, OutlierTowerFallsBackToLinearScan) {
  // One tower 10,000 km away makes the bounding-box grid astronomically
  // large; the index must fall back to a linear scan instead of allocating
  // a CSR over the whole box, and queries must still be exact.
  Rng rng(17);
  std::vector<CellTower> towers;
  for (int i = 0; i < 40; ++i) {
    towers.push_back(CellTower{static_cast<CellId>(i),
                               {rng.uniform(0.0, 5000.0),
                                rng.uniform(0.0, 3000.0)},
                               38.5});
  }
  towers.push_back(CellTower{999, {1.0e10, -1.0e10}, 38.5});
  const TowerIndex index(towers, 750.0);
  std::vector<std::uint32_t> got;
  for (int trial = 0; trial < 50; ++trial) {
    const Point p{rng.uniform(-1000.0, 6000.0), rng.uniform(-1000.0, 4000.0)};
    const double radius = rng.uniform(0.0, 4000.0);
    index.query(p, radius, got);
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < towers.size(); ++i) {
      if (distance(towers[i].position, p) <= radius) want.push_back(i);
    }
    EXPECT_EQ(got, want);
  }
}

TEST(ScanStats, IndexPrunesOnTheFullCity) {
  Rng rng(11);
  const auto towers = deploy_towers({{0.0, 0.0}, {7000.0, 4000.0}},
                                    DeploymentConfig{}, rng);
  const RadioEnvironment env(towers, PropagationConfig{}, 99);
  const CellScanner scanner;
  Rng scan_rng(3);
  ScanStats total{};
  for (int s = 0; s < 20; ++s) {
    ScanStats stats;
    const Point p{scan_rng.uniform(0.0, 7000.0), scan_rng.uniform(0.0, 4000.0)};
    (void)scanner.scan(env, p, scan_rng, false, &stats);
    total.merge(stats);
  }
  EXPECT_LT(total.reach_candidates, total.towers_considered);
  // The per-tower RSS upper bound is the big lever: only towers near the
  // phone ever get a temporal deviate drawn.
  EXPECT_LT(total.towers_accepted, total.towers_considered / 4);
}

// --------------------------------------------------- Goertzel bank identity

TEST(GoertzelBank, MatchesScalarGoertzelWithinTolerance) {
  Rng rng(21);
  const double fs = 8000.0;
  const std::vector<double> tones{700.0, 1000.0, 2400.0, 3000.0, 3900.0};
  GoertzelBank bank(fs, tones);
  ASSERT_EQ(bank.size(), tones.size());
  std::vector<double> powers(tones.size());
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(16, 1024));
    std::vector<float> frame(n);
    const double f0 = rng.uniform(100.0, 3900.0);
    for (std::size_t i = 0; i < n; ++i) {
      frame[i] = static_cast<float>(
          rng.normal(0.0, 0.1) +
          0.4 * std::sin(2.0 * std::numbers::pi * f0 * i / fs));
    }
    const double energy = bank.analyze(frame, powers);
    double want_energy = 0.0;
    for (float s : frame) want_energy += static_cast<double>(s) * s;
    want_energy /= static_cast<double>(n);
    EXPECT_NEAR(energy, want_energy, 1e-12 * std::abs(want_energy));
    for (std::size_t k = 0; k < tones.size(); ++k) {
      const double want = goertzel_power(frame, fs, tones[k]);
      EXPECT_NEAR(powers[k], want, 1e-12 * std::max(1.0, std::abs(want)))
          << "tone " << tones[k] << " trial " << trial;
    }
  }
}

TEST(GoertzelBank, ReusableAcrossFrames) {
  const double fs = 8000.0;
  const std::vector<double> tones{1000.0, 3000.0};
  GoertzelBank bank(fs, tones);
  std::vector<double> first(2), again(2);
  std::vector<float> frame(240);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] =
        static_cast<float>(std::sin(2.0 * std::numbers::pi * 1000.0 * i / fs));
  }
  bank.analyze(frame, first);
  std::vector<float> other(100, 0.25f);
  bank.analyze(other, again);  // state must reset between frames
  bank.analyze(frame, again);
  EXPECT_EQ(first[0], again[0]);
  EXPECT_EQ(first[1], again[1]);
}

// ------------------------------------------------------ ring-buffer window

TEST(RingWindow, MatchesBruteForceStatsOverAStream) {
  Rng rng(31);
  RingWindow win(7);
  std::vector<double> history;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    win.push(x);
    history.push_back(x);
    const std::size_t n = std::min<std::size_t>(7, history.size());
    double mean = 0.0;
    for (std::size_t k = history.size() - n; k < history.size(); ++k) {
      mean += history[k];
    }
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t k = history.size() - n; k < history.size(); ++k) {
      var += (history[k] - mean) * (history[k] - mean);
    }
    var /= static_cast<double>(n);
    ASSERT_EQ(win.size(), n);
    EXPECT_NEAR(win.mean(), mean, 1e-9);
    EXPECT_NEAR(win.variance(), var, 1e-9);
  }
  win.clear();
  EXPECT_EQ(win.size(), 0u);
  EXPECT_EQ(win.mean(), 0.0);
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reusable for several jobs, including empty and single-element ones.
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
  std::atomic<int> one{0};
  pool.parallel_for(1, [&](std::size_t) { one.fetch_add(1); });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, BackToBackJobsNeverLoseWork) {
  // Regression: a straggler still draining job N's claim loop must not be
  // able to swallow an index of job N+1 (small n keeps that window wide).
  ThreadPool pool(4);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(3, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 3) << "round " << round;
  }
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i % 7 == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives and keeps working after a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(32, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

// ----------------------------------------- audio chain through the pool

TEST(ParallelAudio, DetectorChainsAreIndependentAcrossThreads) {
  // Several rides' cabin audio analysed concurrently (one detector each)
  // must reproduce the serial event streams exactly.
  constexpr int kRides = 6;
  std::vector<std::vector<float>> audio(kRides);
  for (int r = 0; r < kRides; ++r) {
    Rng rng(100 + r);
    audio[static_cast<std::size_t>(r)] = synthesize_bus_audio(
        AudioEnvironmentConfig{}, 6.0, {1.0, 2.5, 4.0 + 0.2 * r}, rng);
  }
  std::vector<std::vector<BeepEvent>> serial(kRides), parallel(kRides);
  for (int r = 0; r < kRides; ++r) {
    BeepDetector detector;
    serial[static_cast<std::size_t>(r)] =
        detector.process(audio[static_cast<std::size_t>(r)]);
  }
  ThreadPool pool(4);
  pool.parallel_for(kRides, [&](std::size_t r) {
    BeepDetector detector;
    parallel[r] = detector.process(audio[r]);
  });
  for (int r = 0; r < kRides; ++r) {
    const auto& a = serial[static_cast<std::size_t>(r)];
    const auto& b = parallel[static_cast<std::size_t>(r)];
    ASSERT_EQ(a.size(), b.size());
    ASSERT_GE(a.size(), 3u);
    for (std::size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].time, b[e].time);
      EXPECT_EQ(a[e].strength, b[e].strength);
    }
  }
}

}  // namespace
}  // namespace bussense
