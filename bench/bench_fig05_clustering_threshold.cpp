// Figure 5 — clustering accuracy versus the threshold ε (Eq. 1).
//
// Paper: sweeping ε from 0 to 2 in steps of 0.1 on a route-243 trial; too
// small merges distinct stops, too big splits one stop; accuracy tolerates a
// wide plateau and the system uses ε = 0.6.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "common/table.h"

namespace bussense::bench {
namespace {

// A sample is correctly clustered when its cluster contains exactly the
// samples that share its ground-truth stop (pure and complete).
double clustering_accuracy(const std::vector<std::vector<MatchedSample>>& matched,
                           const std::vector<std::vector<SampleCluster>>& trips,
                           const std::vector<std::map<double, StopId>>& truths) {
  int total = 0, correct = 0;
  for (std::size_t t = 0; t < trips.size(); ++t) {
    const auto& truth = truths[t];
    for (const SampleCluster& cluster : trips[t]) {
      // Count samples of each true stop in this cluster.
      std::map<StopId, int> inside;
      for (const MatchedSample& m : cluster.members(matched[t])) {
        ++inside[truth.at(m.time)];
      }
      for (const MatchedSample& m : cluster.members(matched[t])) {
        const StopId ts = truth.at(m.time);
        // Total samples of that true stop in the whole trip.
        int overall = 0;
        for (const auto& [time, stop] : truth) {
          (void)time;
          if (stop == ts) ++overall;
        }
        ++total;
        const bool pure = inside.size() == 1;
        const bool complete = inside[ts] == overall;
        if (pure && complete) ++correct;
      }
    }
  }
  return total > 0 ? 100.0 * correct / total : 0.0;
}

void report() {
  const Testbed& bed = testbed();
  const City& city = bed.world.city();
  TrafficServer server(city, bed.database);
  const BusRoute& route = *city.route_by_name("243", 0);
  Rng rng(5);

  // Matched samples + ground truth for a batch of morning trips.
  std::vector<std::vector<MatchedSample>> matched_trips;
  std::vector<std::map<double, StopId>> truths;
  for (int k = 0; k < 24; ++k) {
    const SimTime depart = at_clock(0, 7, 20 + k * 25);
    const AnnotatedTrip trip = bed.world.simulate_single_trip(
        route, 1 + k % 3, static_cast<int>(route.stop_count()) - 2 - k % 2,
        depart, rng);
    if (trip.upload.empty()) continue;
    matched_trips.push_back(server.match_samples(trip.upload));
    std::map<double, StopId> truth;
    for (std::size_t i = 0; i < trip.upload.samples.size(); ++i) {
      truth[trip.upload.samples[i].time] =
          trip.truth.sample_stops[i] == kInvalidStop
              ? kInvalidStop
              : city.effective_stop(trip.truth.sample_stops[i]);
    }
    truths.push_back(std::move(truth));
  }

  print_banner(std::cout,
               "Figure 5: clustering accuracy vs threshold epsilon (route 243)");
  Table t({"epsilon", "accuracy (%)"});
  for (double eps = 0.0; eps <= 2.001; eps += 0.1) {
    ClusteringConfig cfg;
    cfg.epsilon = eps;
    std::vector<std::vector<SampleCluster>> clustered;
    clustered.reserve(matched_trips.size());
    for (const auto& samples : matched_trips) {
      clustered.push_back(cluster_samples(samples, cfg));
    }
    t.add_row(fmt(eps, 1), {clustering_accuracy(matched_trips, clustered, truths)}, 2);
  }
  t.print(std::cout);
  std::cout << "(paper: accuracy plateaus over a wide range; system uses "
               "epsilon = 0.6)\n";
}

void BM_ClusterTrip(benchmark::State& state) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database);
  Rng rng(6);
  const BusRoute& route = *bed.world.city().route_by_name("243", 0);
  const AnnotatedTrip trip =
      bed.world.simulate_single_trip(route, 2, 18, at_clock(0, 8, 0), rng);
  const auto matched = server.match_samples(trip.upload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster_samples(matched, ClusteringConfig{}));
  }
}
BENCHMARK(BM_ClusterTrip);

}  // namespace
}  // namespace bussense::bench

int main(int argc, char** argv) {
  bussense::bench::report();
  return bussense::bench::run_benchmarks(argc, argv);
}
