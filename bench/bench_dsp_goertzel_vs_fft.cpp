// Section IV-D — Goertzel vs FFT cost for beep detection.
//
// Paper: Goertzel is O(K_g·N·M) for M monitored frequencies vs the FFT's
// O(K_f·N·log N) with K_f >> K_g; with M = 2 < log2(N) the Goertzel front
// end is the clear winner and cuts the data-collection app's power draw.
// This bench measures actual wall-clock per analysis window and prints the
// operation-count model beside it.
//
// It also reproduces the PR 3 sensing fast-path numbers and emits
// BENCH_sensing.json: cell-scan throughput by city size (spatial tower index
// vs brute force), beep-detector frame analysis (one-pass GoertzelBank vs
// per-tone scalar Goertzel + separate energy pass), and parallel trip-driver
// scaling at 1/2/4/8 threads with a bit-identity check against the serial
// run. All three fast paths are property-tested result-identical to their
// reference paths (tests/test_sensing_perf.cpp), so these speedups are free.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <numbers>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cellular/deployment.h"
#include "cellular/scanner.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"
#include "dsp/fft.h"
#include "dsp/goertzel.h"
#include "dsp/goertzel_bank.h"

namespace bussense::bench {
namespace {

std::vector<float> test_window(std::size_t n) {
  std::vector<float> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = static_cast<float>(
        0.3 * std::sin(2.0 * std::numbers::pi * 1000.0 * i / 8000.0) +
        0.1 * std::sin(2.0 * std::numbers::pi * 130.0 * i / 8000.0));
  }
  return w;
}

void report() {
  print_banner(std::cout, "Section IV-D: Goertzel vs FFT operation counts");
  Table t({"window N", "Goertzel MACs (M=2)", "FFT butterflies",
           "log2(N) vs M"});
  for (std::size_t n : {80, 160, 240, 512, 1024}) {
    t.add_row({std::to_string(n), std::to_string(goertzel_op_count(n, 2)),
               std::to_string(fft_op_count(n)),
               fmt(std::log2(static_cast<double>(next_pow2(n))), 1) + " vs 2"});
  }
  t.print(std::cout);
  std::cout << "(Goertzel wins whenever the number of monitored tones M is "
               "below log2(N) — the paper's criterion)\n";
}

// ------------------------------------------------- PR 3 sensing fast path

struct ScanCity {
  std::string label;
  std::vector<CellTower> towers;
  std::unique_ptr<RadioEnvironment> env;
  double width, height;
};

std::vector<ScanCity>& scan_cities() {
  static std::vector<ScanCity> cities = [] {
    std::vector<ScanCity> v;
    const auto add = [&](std::string label, double w, double h,
                         std::uint64_t seed) {
      ScanCity c{std::move(label), {}, nullptr, w, h};
      Rng rng(seed);
      c.towers = deploy_towers({{0.0, 0.0}, {w, h}}, DeploymentConfig{}, rng);
      c.env = std::make_unique<RadioEnvironment>(c.towers, PropagationConfig{},
                                                 seed + 1);
      v.push_back(std::move(c));
    };
    add("quarter testbed", 3500, 2000, 31);
    add("full testbed", 7000, 4000, 32);
    add("district", 14000, 8000, 33);
    add("full city", 28000, 16000, 34);
    return v;
  }();
  return cities;
}

double time_scans(const CellScanner& scanner, const ScanCity& city,
                  int scans) {
  Rng pos_rng(7);
  Rng scan_rng(8);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < scans; ++i) {
    const Point p{pos_rng.uniform(0.0, city.width),
                  pos_rng.uniform(0.0, city.height)};
    benchmark::DoNotOptimize(scanner.scan(*city.env, p, scan_rng, i % 2));
  }
  return scans / std::max(seconds_since(start), 1e-9);
}

void sensing_report() {
  JsonReport json;

  // 1. Cell-scan throughput: spatial tower index vs the brute-force loop.
  print_banner(std::cout, "Sensing fast path: indexed vs brute-force scan");
  {
    Table t({"deployment", "towers", "cand/scan", "brute scans/s",
             "indexed scans/s", "speedup"});
    std::ostringstream rows;
    bool first = true;
    for (const ScanCity& city : scan_cities()) {
      ScannerConfig brute_cfg;
      brute_cfg.accel.use_index = false;
      const CellScanner indexed{ScannerConfig{}};
      const CellScanner brute{brute_cfg};
      // Untimed instrumented pass for the work counters.
      ScanStats total{};
      {
        Rng pos_rng(7), scan_rng(8);
        for (int i = 0; i < 200; ++i) {
          ScanStats s;
          const Point p{pos_rng.uniform(0.0, city.width),
                        pos_rng.uniform(0.0, city.height)};
          (void)indexed.scan(*city.env, p, scan_rng, i % 2, &s);
          total.reach_candidates += s.reach_candidates;
        }
      }
      // Fewer timed scans on the bigger deployments (brute force is slow
      // there — that is the point), enough for stable throughput numbers.
      const int scans = std::clamp(
          static_cast<int>(1000000 / city.towers.size()), 500, 4000);
      const double brute_sps = time_scans(brute, city, scans);
      const double indexed_sps = time_scans(indexed, city, scans);
      const double speedup = indexed_sps / std::max(brute_sps, 1e-9);
      const double cand = static_cast<double>(total.reach_candidates) / 200.0;
      t.add_row({city.label, std::to_string(city.towers.size()), fmt(cand, 1),
                 fmt(brute_sps, 0), fmt(indexed_sps, 0),
                 fmt(speedup, 1) + "x"});
      if (!first) rows << ", ";
      first = false;
      rows << "{\"label\": \"" << city.label
           << "\", \"towers\": " << city.towers.size()
           << ", \"candidates_per_scan\": " << num(cand)
           << ", \"brute_scans_per_s\": " << num(brute_sps)
           << ", \"indexed_scans_per_s\": " << num(indexed_sps)
           << ", \"speedup\": " << num(speedup) << "}";
    }
    t.print(std::cout);
    std::cout << "(both paths are bit-identical; the index only skips towers "
                 "provably below the modem sensitivity. The speedup tracks\n"
                 " city area / reach-disk area: the ~3-4 km conservative "
                 "reach disk covers much of the 7x4 km unit testbed, while\n"
                 " the paper's deployment is city-wide — Singapore is ~50x27 "
                 "km, so the 28x16 km row is still conservative)\n";
    json.field("\"scan\": [" + rows.str() + "]");
  }

  // 2. Beep-detector frame path: one-pass bank + O(1) ring windows vs the
  // pre-PR-3 frame path (one goertzel_power traversal per tone, a separate
  // energy pass, erase(begin()) smoothing windows and two-pass baseline
  // statistics every frame). The legacy path is emulated here verbatim so
  // the comparison survives the old code's removal.
  print_banner(std::cout, "Sensing fast path: beep-detector frame analysis");
  {
    const BeepDetectorConfig det;
    const auto frame = test_window(
        static_cast<std::size_t>(det.frame_seconds * det.sample_rate_hz));
    const std::size_t smooth_frames = static_cast<std::size_t>(
        det.smoothing_seconds / det.frame_seconds + 0.5);
    const int frames = 200000;

    // Legacy: per-band full traversals + O(window) vector bookkeeping.
    struct LegacyBand {
      std::vector<double> recent;
      std::vector<double> smooth_buf;
    };
    std::vector<LegacyBand> legacy(det.tone_frequencies_hz.size());
    double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < frames; ++i) {
      double energy = 0.0;
      for (const float s : frame) energy += static_cast<double>(s) * s;
      const double norm = energy / static_cast<double>(frame.size()) + 1e-12;
      for (std::size_t b = 0; b < legacy.size(); ++b) {
        LegacyBand& band = legacy[b];
        const double raw =
            goertzel_power(frame, det.sample_rate_hz,
                           det.tone_frequencies_hz[b]) /
            norm;
        band.recent.push_back(raw);
        if (band.recent.size() > smooth_frames) {
          band.recent.erase(band.recent.begin());
        }
        double sum = 0.0;
        for (const double v : band.recent) sum += v;
        const double smoothed = sum / static_cast<double>(band.recent.size());
        double mean = 0.0;
        for (const double v : band.smooth_buf) mean += v;
        if (!band.smooth_buf.empty()) {
          mean /= static_cast<double>(band.smooth_buf.size());
        }
        double var = 0.0;
        for (const double v : band.smooth_buf) var += (v - mean) * (v - mean);
        sink += var + mean;
        band.smooth_buf.push_back(smoothed);
        if (band.smooth_buf.size() > det.baseline_frames) {
          band.smooth_buf.erase(band.smooth_buf.begin());
        }
      }
    }
    benchmark::DoNotOptimize(sink);
    const double legacy_fps = frames / std::max(seconds_since(t0), 1e-9);

    // New: fused one-pass bank + running-sum rings.
    GoertzelBank bank(det.sample_rate_hz, det.tone_frequencies_hz);
    std::vector<double> powers(bank.size());
    struct NewBand {
      NewBand(std::size_t s, std::size_t b) : recent(s), baseline(b) {}
      RingWindow recent;
      RingWindow baseline;
    };
    std::vector<NewBand> fresh;
    for (std::size_t b = 0; b < bank.size(); ++b) {
      fresh.emplace_back(smooth_frames, det.baseline_frames);
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (int i = 0; i < frames; ++i) {
      const double norm = bank.analyze(frame, powers) + 1e-12;
      for (std::size_t b = 0; b < fresh.size(); ++b) {
        NewBand& band = fresh[b];
        band.recent.push(powers[b] / norm);
        const double smoothed = band.recent.mean();
        sink += band.baseline.mean() + band.baseline.variance();
        band.baseline.push(smoothed);
      }
    }
    benchmark::DoNotOptimize(sink);
    const double bank_fps = frames / std::max(seconds_since(t1), 1e-9);
    const double speedup = bank_fps / std::max(legacy_fps, 1e-9);

    Table t({"frame path", "frames/s"});
    t.add_row({"legacy (K+1 passes, erase windows)", fmt(legacy_fps, 0)});
    t.add_row({"bank + ring windows (one pass)", fmt(bank_fps, 0)});
    t.print(std::cout);
    std::cout << "detector speedup: " << fmt(speedup, 2) << "x on "
              << frame.size() << "-sample frames, K = " << bank.size()
              << " tones\n";
    json.field("\"detector\": {\"frame_samples\": " +
               std::to_string(frame.size()) +
               ", \"tones\": " + std::to_string(bank.size()) +
               ", \"legacy_frames_per_s\": " + num(legacy_fps) +
               ", \"bank_frames_per_s\": " + num(bank_fps) +
               ", \"speedup\": " + num(speedup) + "}");
  }

  // 3. Parallel trip driver: an all-Event LodWorld day planning ~400 trips
  // (each a full bus run through the event channel and the recorder) at
  // 1/2/4/8 threads, its stream digest checked against the serial run.
  print_banner(std::cout, "Sensing fast path: parallel trip driver");
  {
    WorldConfig cfg;
    cfg.city.route_names = {"79", "99", "241", "243"};
    cfg.seed = 12;
    const World world(cfg);
    const LodWorld lod(world, kEventDayRiders, all_event_lod_config(400, 500));
    const std::vector<LodTrip> serial = lod.simulate_day(0, nullptr);
    const std::uint64_t serial_digest = LodWorld::stream_digest(serial);

    Table t({"threads", "trips/s", "scaling", "identical to serial"});
    std::ostringstream rows;
    double base_tps = 0.0;
    bool identical = true, first = true;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      const int rounds = 3;
      std::vector<LodTrip> trips;
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < rounds; ++r) trips = lod.simulate_day(0, &pool);
      const double tps =
          rounds * trips.size() / std::max(seconds_since(start), 1e-9);
      if (threads == 1) base_tps = tps;
      const bool ok = LodWorld::stream_digest(trips) == serial_digest;
      identical = identical && ok;
      t.add_row({std::to_string(threads), fmt(tps, 0),
                 fmt(tps / std::max(base_tps, 1e-9), 2) + "x",
                 ok ? "yes" : "NO"});
      if (!first) rows << ", ";
      first = false;
      rows << "{\"threads\": " << threads << ", \"trips_per_s\": " << num(tps)
           << ", \"scaling\": " << num(tps / std::max(base_tps, 1e-9)) << "}";
    }
    t.print(std::cout);
    std::cout << "(" << serial.size()
              << " trips; each is seeded from (seed, rider, day, trip), so "
                 "the schedule cannot influence the result. Scaling tracks "
                 "the available cores — this host has "
              << std::thread::hardware_concurrency()
              << " — and stays flat on a single-core host)\n";
    json.field("\"trips\": [" + rows.str() + "]");
    json.field("\"hardware_threads\": " +
               std::to_string(std::thread::hardware_concurrency()));
    json.field(std::string("\"trips_bit_identical\": ") +
               (identical ? "true" : "false"));
  }

  json.write("BENCH_sensing.json");
  std::cout << "wrote BENCH_sensing.json\n";
}

void BM_GoertzelWindow(benchmark::State& state) {
  const auto w = test_window(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> tones{1000.0, 3000.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(goertzel_powers(w, 8000.0, tones));
  }
}
BENCHMARK(BM_GoertzelWindow)->Arg(80)->Arg(240)->Arg(1024);

void BM_FftWindow(benchmark::State& state) {
  const auto w = test_window(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(power_spectrum(w));
  }
}
BENCHMARK(BM_FftWindow)->Arg(80)->Arg(240)->Arg(1024);

void BM_BeepDetectorSecondOfAudio(benchmark::State& state) {
  Rng rng(1);
  const auto audio = synthesize_bus_audio(AudioEnvironmentConfig{}, 1.0,
                                          {0.5}, rng);
  for (auto _ : state) {
    BeepDetector detector;
    benchmark::DoNotOptimize(detector.process(audio));
  }
}
BENCHMARK(BM_BeepDetectorSecondOfAudio)->Unit(benchmark::kMicrosecond);

// Synthesis next to detection: one second (8,000 samples) of default cabin
// audio with one beep, rendered in a single call. Divide by 8,000 for the
// per-sample cost.
void BM_SynthesizeSecondOfAudio(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        synthesize_bus_audio(AudioEnvironmentConfig{}, 1.0, {0.5}, rng));
  }
}
BENCHMARK(BM_SynthesizeSecondOfAudio)->Unit(benchmark::kMicrosecond);

// The per-rider cost of LodWorld's substreams: derive one Rng::stream and
// draw two uniforms from it.
void BM_RngStreamTwoUniforms(benchmark::State& state) {
  std::uint64_t index = 0;
  for (auto _ : state) {
    Rng rng = Rng::stream(2026, index++);
    benchmark::DoNotOptimize(rng.uniform(0.0, 1.0) + rng.uniform(0.0, 1.0));
  }
}
BENCHMARK(BM_RngStreamTwoUniforms);

void BM_GoertzelBankWindow(benchmark::State& state) {
  const auto w = test_window(static_cast<std::size_t>(state.range(0)));
  GoertzelBank bank(8000.0, std::vector<double>{1000.0, 3000.0});
  std::vector<double> powers(bank.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bank.analyze(w, powers));
  }
}
BENCHMARK(BM_GoertzelBankWindow)->Arg(80)->Arg(240)->Arg(1024);

void BM_ScanFullCity(benchmark::State& state) {
  const ScanCity& city = scan_cities()[1];
  ScannerConfig cfg;
  cfg.accel.use_index = state.range(0) != 0;
  const CellScanner scanner(cfg);
  Rng pos_rng(7), scan_rng(8);
  for (auto _ : state) {
    const Point p{pos_rng.uniform(0.0, city.width),
                  pos_rng.uniform(0.0, city.height)};
    benchmark::DoNotOptimize(scanner.scan(*city.env, p, scan_rng));
  }
}
BENCHMARK(BM_ScanFullCity)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bussense::bench

int main(int argc, char** argv) {
  bussense::bench::report();
  bussense::bench::sensing_report();
  return bussense::bench::run_benchmarks(argc, argv);
}
