// perfbench: one run of one workload of the end-to-end + per-layer
// benchmark. run.py builds this binary, passes the git stamp and checks the
// result line against BENCHMARK.json:
//
//   perfbench --workload metropolis_day|serving_read_write
//             --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//             [--git DESCRIBE]
//
// Prints the host/build stamp, one line per metric (name, value, unit,
// sample count), the per-layer table on traced runs, and last the result
// line {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// self-check or correctness check fails, 2 on bad arguments.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "core/matching_simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SIMD
#define PERFBENCH_SIMD 0
#endif

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " [--smoke] [--out DIR] [--git DESCRIBE]\n";
  return 2;
}

bool cpu_has(const char* feature) {
#if defined(__x86_64__) || defined(__i386__)
  const std::string f = feature;
  if (f == "avx2") return __builtin_cpu_supports("avx2");
  if (f == "avx512bw") return __builtin_cpu_supports("avx512bw");
#endif
  (void)feature;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--git" && has_value) {
      options.git = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(options.seconds > 0.0)) return usage();

  perfbench::Report report;
  report.stamp("workload", options.workload);
  report.stamp("seed", static_cast<double>(options.seed));
  report.stamp("seconds", options.seconds);
  report.stamp("trace", options.trace ? 1.0 : 0.0);
  report.stamp("smoke", options.smoke ? 1.0 : 0.0);
  report.stamp("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.stamp("avx2", cpu_has("avx2") ? 1.0 : 0.0);
  report.stamp("avx512bw", cpu_has("avx512bw") ? 1.0 : 0.0);
  report.stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.stamp("simd_option", PERFBENCH_SIMD ? 1.0 : 0.0);
  report.stamp("matcher_kernel",
               bussense::simd::kernel_name(bussense::simd::active_kernel()));
  report.stamp("git", options.git);
  try {
    if (options.workload == "metropolis_day") {
      perfbench::run_metropolis_day(options, report);
    } else if (options.workload == "serving_read_write") {
      perfbench::run_serving_read_write(options, report);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return report.finish(std::cout);
}
