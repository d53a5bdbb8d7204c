// Unit tests for the backend pipeline stages: stop database, matcher,
// clustering, route graph, trip mapper, segment catalog, travel estimator,
// fusion, traffic map, GPS baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "citynet/city_generator.h"
#include "common/rng.h"
#include "core/clustering.h"
#include "core/fusion.h"
#include "core/google_indicator.h"
#include "core/gps_tracker.h"
#include "core/route_graph.h"
#include "core/segment_catalog.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "core/stop_matcher.h"
#include "core/traffic_map.h"
#include "core/travel_estimator.h"
#include "core/trip_mapper.h"

namespace bussense {
namespace {

const City& test_city() {
  static const City city = generate_city();
  return city;
}

// ------------------------------------------------------------ stop database

TEST(StopDatabase, AddAndLookup) {
  StopDatabase db;
  db.add(3, Fingerprint{{1, 2}});
  db.add(5, Fingerprint{{3, 4}});
  EXPECT_EQ(db.size(), 2u);
  ASSERT_NE(db.fingerprint_of(3), nullptr);
  EXPECT_EQ(*db.fingerprint_of(3), (Fingerprint{{1, 2}}));
  EXPECT_EQ(db.fingerprint_of(99), nullptr);
}

TEST(StopDatabase, AddReplacesExisting) {
  StopDatabase db;
  db.add(3, Fingerprint{{1, 2}});
  db.add(3, Fingerprint{{7, 8}});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(*db.fingerprint_of(3), (Fingerprint{{7, 8}}));
}

TEST(StopDatabase, MedoidPicksCentralSample) {
  // Two similar samples and one outlier: the medoid is one of the pair.
  const std::vector<Fingerprint> samples{
      Fingerprint{{1, 2, 3, 4}},
      Fingerprint{{1, 2, 3, 5}},
      Fingerprint{{9, 8, 7, 6}},
  };
  const Fingerprint rep = select_representative(samples);
  EXPECT_TRUE(rep == samples[0] || rep == samples[1]);
}

TEST(StopDatabase, MedoidOfSingleSampleIsItself) {
  const std::vector<Fingerprint> samples{Fingerprint{{4, 5}}};
  EXPECT_EQ(select_representative(samples), samples[0]);
}

TEST(StopDatabase, MedoidOfEmptyThrows) {
  EXPECT_THROW(select_representative({}), std::invalid_argument);
}

TEST(StopDatabase, BuildCoversEffectiveStopsOnly) {
  const City& city = test_city();
  int scans = 0;
  const StopDatabase db = build_stop_database(
      city,
      [&](StopId stop, int run) {
        ++scans;
        return Fingerprint{{stop * 10 + run % 2, stop * 10 + 1}};
      },
      2);
  // One record per effective stop; twins share the canonical entry.
  std::size_t effective = 0;
  for (const BusStop& s : city.stops()) {
    if (city.effective_stop(s.id) == s.id) ++effective;
  }
  EXPECT_EQ(db.size(), effective);
  EXPECT_EQ(scans, static_cast<int>(effective) * 2);
  for (const StopRecord& r : db.records()) {
    EXPECT_EQ(city.effective_stop(r.stop), r.stop);
  }
}

TEST(StopDatabase, BuildRejectsBadRunCount) {
  EXPECT_THROW(build_stop_database(
                   test_city(), [](StopId, int) { return Fingerprint{}; }, 0),
               std::invalid_argument);
}

// ----------------------------------------------------------------- matcher

StopDatabase toy_db() {
  StopDatabase db;
  db.add(0, Fingerprint{{1, 2, 3, 4, 5}});
  db.add(1, Fingerprint{{10, 11, 12, 13}});
  db.add(2, Fingerprint{{1, 2, 3, 9, 8}});
  return db;
}

TEST(StopMatcher, PicksBestScoringStop) {
  const StopDatabase db = toy_db();
  const StopMatcher matcher(db);
  const auto m = matcher.match(Fingerprint{{10, 11, 12, 13}});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->stop, 1);
  EXPECT_DOUBLE_EQ(m->score, 4.0);
}

TEST(StopMatcher, GammaThresholdRejectsWeakMatches) {
  const StopDatabase db = toy_db();
  const StopMatcher matcher(db);
  EXPECT_FALSE(matcher.match(Fingerprint{{77, 88}}).has_value());
  EXPECT_FALSE(matcher.match(Fingerprint{{1, 99}}).has_value());  // score 1
}

TEST(StopMatcher, TieBreakByCommonCells) {
  StopDatabase db;
  // Both stops align {1,2,3} perfectly; stop 1 shares one extra weak ID.
  db.add(0, Fingerprint{{1, 2, 3, 7, 8}});
  db.add(1, Fingerprint{{1, 2, 3, 6, 9}});
  const StopMatcher matcher(db);
  const auto m = matcher.match(Fingerprint{{1, 2, 3, 9}});
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->stop, 1);
  EXPECT_EQ(m->common_cells, 4);
}

TEST(StopMatcher, MatchAllSortedByScore) {
  const StopDatabase db = toy_db();
  const StopMatcher matcher(db);
  const auto all = matcher.match_all(Fingerprint{{1, 2, 3, 4, 5}});
  ASSERT_EQ(all.size(), 2u);  // stops 0 and 2 pass gamma
  EXPECT_EQ(all[0].stop, 0);
  EXPECT_GE(all[0].score, all[1].score);
}

// -------------------------------------------------------------- clustering

MatchedSample ms(double t, StopId stop, double score) {
  return MatchedSample{0, t, stop, score};
}

TEST(Clustering, AffinityFormulaMatchesEq1) {
  const ClusteringConfig cfg;
  // Same stop, same score, 0 s apart: (30-0)/30 + (7-0)/7 = 2.
  EXPECT_DOUBLE_EQ(cluster_affinity(ms(0, 1, 5), ms(0, 1, 5), cfg), 2.0);
  // Different stops: L = 0.
  EXPECT_DOUBLE_EQ(cluster_affinity(ms(0, 1, 5), ms(15, 2, 5), cfg), 0.5);
  // Same stop, score gap 3.5, 30 s apart: 0 + (7-3.5)/7 = 0.5.
  EXPECT_DOUBLE_EQ(cluster_affinity(ms(0, 1, 2.0), ms(30, 1, 5.5), cfg), 0.5);
}

TEST(Clustering, GroupsTapsAtOneStop) {
  std::vector<MatchedSample> samples;
  for (int i = 0; i < 6; ++i) samples.push_back(ms(100.0 + i * 1.1, 4, 5.0));
  const auto clusters = cluster_samples(samples);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members(samples).size(), 6u);
  EXPECT_EQ(clusters[0].best_candidate().stop, 4);
  EXPECT_DOUBLE_EQ(clusters[0].best_candidate().probability, 1.0);
  EXPECT_DOUBLE_EQ(clusters[0].arrival, 100.0);
  EXPECT_NEAR(clusters[0].departure, 105.5, 1e-9);
}

TEST(Clustering, SplitsDistantStops) {
  std::vector<MatchedSample> samples{ms(0, 1, 5), ms(1, 1, 5), ms(120, 2, 5),
                                     ms(121, 2, 5)};
  const auto clusters = cluster_samples(samples);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].best_candidate().stop, 1);
  EXPECT_EQ(clusters[1].best_candidate().stop, 2);
}

TEST(Clustering, MisMatchedSampleStaysInTimeCluster) {
  // One noisy sample matched to a different stop but taken within the same
  // dwell: time affinity keeps it in the cluster; candidates reflect both.
  std::vector<MatchedSample> samples{ms(0, 1, 5), ms(1, 3, 4), ms(2, 1, 5)};
  const auto clusters = cluster_samples(samples);
  ASSERT_EQ(clusters.size(), 1u);
  ASSERT_EQ(clusters[0].candidates.size(), 2u);
  EXPECT_EQ(clusters[0].best_candidate().stop, 1);
  EXPECT_NEAR(clusters[0].best_candidate().probability, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(clusters[0].candidates[1].probability, 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(clusters[0].candidates[1].mean_similarity, 4.0);
}

TEST(Clustering, TiedCandidatesKeepTheirPinnedOrder) {
  // 30 taps in one dwell, each voting for a different stop with the same
  // score: every candidate ties on probability and mean similarity. The
  // pool reaches the (unstable) sort in ascending stop order, whatever the
  // member order; the order below was recorded from the per-cluster
  // std::map implementation and must not move.
  const StopId votes[] = {17, 4,  23, 9,  30, 1,  12, 26, 6,  19,
                          2,  28, 14, 8,  21, 11, 3,  25, 16, 7,
                          29, 13, 5,  22, 10, 27, 15, 18, 24, 20};
  std::vector<MatchedSample> samples;
  for (std::size_t i = 0; i < std::size(votes); ++i) {
    samples.push_back(ms(0.5 * static_cast<double>(i), votes[i], 5.0));
  }
  const auto clusters = cluster_samples(samples);
  ASSERT_EQ(clusters.size(), 1u);
  std::vector<StopId> order;
  for (const StopCandidate& c : clusters[0].candidates) order.push_back(c.stop);
  const std::vector<StopId> pinned{16, 30, 29, 28, 27, 26, 25, 24, 23, 22,
                                   21, 20, 19, 18, 17, 1,  15, 14, 13, 12,
                                   11, 10, 9,  8,  7,  6,  5,  4,  3,  2};
  EXPECT_EQ(order, pinned);
}

TEST(Clustering, RequiresTimeOrder) {
  std::vector<MatchedSample> samples{ms(10, 1, 5), ms(5, 1, 5)};
  EXPECT_THROW(cluster_samples(samples), std::invalid_argument);
}

TEST(Clustering, EmptyInputYieldsNoClusters) {
  EXPECT_TRUE(cluster_samples({}).empty());
}

// Larger ε splits more: cluster count is non-decreasing in ε.
class EpsilonMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonMonotonicity, ClusterCountNonDecreasing) {
  Rng rng(5);
  std::vector<MatchedSample> samples;
  double t = 0.0;
  for (int stop = 0; stop < 8; ++stop) {
    const int taps = rng.uniform_int(1, 5);
    for (int k = 0; k < taps; ++k) {
      samples.push_back(ms(t, stop, rng.uniform(3.0, 7.0)));
      t += rng.uniform(0.8, 2.5);
    }
    t += rng.uniform(40.0, 90.0);
  }
  ClusteringConfig lo, hi;
  lo.epsilon = GetParam();
  hi.epsilon = GetParam() + 0.2;
  EXPECT_LE(cluster_samples(samples, lo).size(),
            cluster_samples(samples, hi).size());
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonMonotonicity,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2,
                                           1.4, 1.6, 1.8));

// ------------------------------------------------------------- route graph

TEST(RouteGraph, RelationFollowsRouteOrder) {
  const City& city = test_city();
  const RouteGraph graph(city);
  const BusRoute& route = city.routes()[0];
  const StopId a = city.effective_stop(route.stops()[1].stop);
  const StopId b = city.effective_stop(route.stops()[4].stop);
  EXPECT_EQ(graph.relation(a, b), 1);   // b behind a (skips allowed)
  EXPECT_EQ(graph.relation(a, a), 1);   // same stop
  // The reverse variant makes (b, a) reachable too — via the twin sequence —
  // so pick a pair on a one-directional stretch for the -1 case: use two
  // stops from unrelated routes that share no corridor.
  EXPECT_EQ(graph.route_sequence(route.id()).size(), route.stop_count());
}

TEST(RouteGraph, UnrelatedStopsScoreMinusOne) {
  const City& city = test_city();
  const RouteGraph graph(city);
  // Find two effective stops that never co-occur on any route.
  const auto& routes = city.routes();
  const StopId x = city.effective_stop(routes[0].stops()[0].stop);
  StopId y = kInvalidStop;
  for (const BusStop& s : city.stops()) {
    const StopId eff = city.effective_stop(s.id);
    bool co_occurs = false;
    for (const BusRoute& r : routes) {
      bool has_x = false, has_y = false;
      for (const RouteStop& rs : r.stops()) {
        const StopId e = city.effective_stop(rs.stop);
        has_x = has_x || e == x;
        has_y = has_y || e == eff;
      }
      co_occurs = co_occurs || (has_x && has_y);
    }
    if (!co_occurs && eff != x) {
      y = eff;
      break;
    }
  }
  ASSERT_NE(y, kInvalidStop);
  EXPECT_EQ(graph.relation(x, y), -1);
  EXPECT_EQ(graph.relation(y, x), -1);
}

// ------------------------------------------------------------- trip mapper

SampleCluster cluster_of(std::vector<StopCandidate> candidates, double t0) {
  return SampleCluster{0, 1, t0, t0, std::move(candidates)};
}

TEST(TripMapper, RouteConstraintOverridesLocalBest) {
  const City& city = test_city();
  const RouteGraph graph(city);
  const TripMapper mapper(graph);
  const BusRoute& route = city.routes()[0];
  const StopId s1 = city.effective_stop(route.stops()[1].stop);
  const StopId s2 = city.effective_stop(route.stops()[2].stop);
  const StopId s3 = city.effective_stop(route.stops()[3].stop);
  // Middle cluster slightly prefers an unreachable stop; order fixes it.
  StopId rogue = kInvalidStop;
  for (const BusStop& s : city.stops()) {
    const StopId eff = city.effective_stop(s.id);
    if (eff != s1 && eff != s2 && eff != s3 &&
        graph.relation(s1, eff) == -1 && graph.relation(eff, s3) == -1) {
      rogue = eff;
      break;
    }
  }
  ASSERT_NE(rogue, kInvalidStop);
  std::vector<SampleCluster> clusters{
      cluster_of({{s1, 1.0, 6.0}}, 0.0),
      cluster_of({{rogue, 0.6, 5.0}, {s2, 0.4, 5.0}}, 60.0),
      cluster_of({{s3, 1.0, 6.0}}, 120.0),
  };
  const MappedTrip trip = mapper.map_trip(clusters);
  ASSERT_EQ(trip.stops.size(), 3u);
  EXPECT_EQ(trip.stops[0].stop, s1);
  EXPECT_EQ(trip.stops[1].stop, s2);  // constraint rescued the right stop
  EXPECT_EQ(trip.stops[2].stop, s3);
}

TEST(TripMapper, EmptyTrip) {
  const RouteGraph graph(test_city());
  const TripMapper mapper(graph);
  EXPECT_TRUE(mapper.map_trip({}).stops.empty());
}

TEST(TripMapper, ThrowsOnClusterWithoutCandidates) {
  const RouteGraph graph(test_city());
  const TripMapper mapper(graph);
  std::vector<SampleCluster> clusters(1);
  EXPECT_THROW(mapper.map_trip(clusters), std::invalid_argument);
}

// Property: the DP equals exhaustive enumeration on random instances.
class DpEqualsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(DpEqualsBruteForce, SameLikelihood) {
  const City& city = test_city();
  const RouteGraph graph(city);
  const TripMapper mapper(graph);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Random clusters with 1-3 candidates drawn from random effective stops.
  std::vector<StopId> pool;
  for (const BusStop& s : city.stops()) {
    if (city.effective_stop(s.id) == s.id) pool.push_back(s.id);
  }
  std::vector<SampleCluster> clusters;
  const int n = rng.uniform_int(2, 6);
  for (int k = 0; k < n; ++k) {
    std::vector<StopCandidate> cands;
    const int m = rng.uniform_int(1, 3);
    for (int c = 0; c < m; ++c) {
      cands.push_back(StopCandidate{
          pool[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(pool.size()) - 1))],
          rng.uniform(0.1, 1.0), rng.uniform(2.0, 7.0)});
    }
    clusters.push_back(cluster_of(std::move(cands), k * 60.0));
  }
  const MappedTrip dp = mapper.map_trip(clusters);
  const MappedTrip brute = mapper.map_trip_exhaustive(clusters);
  EXPECT_NEAR(dp.likelihood, brute.likelihood, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpEqualsBruteForce,
                         ::testing::Range(0, 25));

// --------------------------------------------------------- segment catalog

TEST(SegmentCatalog, AdjacentSegmentsTileEveryRoute) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  for (const BusRoute& route : city.routes()) {
    for (std::size_t i = 0; i + 1 < route.stop_count(); ++i) {
      const SegmentKey key{
          city.effective_stop(route.stops()[i].stop),
          city.effective_stop(route.stops()[i + 1].stop)};
      const SpanInfo* info = catalog.adjacent(key);
      ASSERT_NE(info, nullptr);
      EXPECT_GT(info->length_m, 0.0);
      EXPECT_GT(info->free_speed_kmh, 20.0);
    }
  }
}

TEST(SegmentCatalog, SpanResolvesSkippedStops) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  const BusRoute& route = city.routes()[2];
  const SegmentKey span_key{
      city.effective_stop(route.stops()[1].stop),
      city.effective_stop(route.stops()[4].stop)};
  const auto span = catalog.span(span_key);
  ASSERT_TRUE(span.has_value());
  EXPECT_NEAR(span->length_m, route.stop_arc(4) - route.stop_arc(1), 1e-6);
  const auto run = catalog.stop_run(span_key);
  ASSERT_EQ(run.size(), 4u);
  double chain_len = 0.0;
  for (std::size_t i = 0; i + 1 < run.size(); ++i) {
    chain_len += catalog.adjacent(SegmentKey{run[i], run[i + 1]})->length_m;
  }
  EXPECT_NEAR(chain_len, span->length_m, 1e-6);
}

// A city whose first route visits stop 1 twice, on two links with
// different free speeds: the generated cities have no such loop.
City loop_city() {
  std::vector<RoadLink> links;
  links.push_back(RoadLink{0, Polyline({{0, 0}, {600, 0}}), RoadClass::kLocal,
                           30.0, false});
  links.push_back(RoadLink{1, Polyline({{600, 0}, {1000, 0}}),
                           RoadClass::kArterial, 60.0, false});
  std::vector<BusStop> stops;
  for (int i = 0; i < 5; ++i) {
    BusStop stop;
    stop.id = i;
    stop.position = Point{100.0 * i, 0.0};
    stops.push_back(stop);
  }
  const auto route = [](RouteId id, std::vector<StopId> ids) {
    std::vector<RouteStop> visits;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      visits.push_back(RouteStop{ids[i], 100.0 + 150.0 * static_cast<double>(i)});
    }
    return BusRoute(id, "L" + std::to_string(id), 0,
                    Polyline({{0, 0}, {1000, 0}}), std::move(visits),
                    {{0, 0.0, 600.0}, {1, 600.0, 1000.0}});
  };
  std::vector<BusRoute> routes;
  routes.push_back(route(0, {0, 1, 2, 1, 3}));
  routes.push_back(route(1, {2, 1, 4}));
  routes.push_back(route(2, {1, 0, 3, 2}));
  return City(BoundingBox{{0, 0}, {1000, 100}}, RoadNetwork(std::move(links)),
              std::move(stops), std::move(routes));
}

// The stop index must answer exactly what a scan of every route's stop
// sequence answers — the first route, in route order, with `to` after the
// first visit of `from` — over every ordered stop pair, ids out of range
// included; and summary() must equal span() without the links.
void expect_locate_matches_route_scan(const City& city) {
  const SegmentCatalog catalog(city);
  std::vector<std::vector<StopId>> sequences;
  for (const BusRoute& route : city.routes()) {
    std::vector<StopId> seq;
    for (const RouteStop& rs : route.stops()) {
      seq.push_back(city.effective_stop(rs.stop));
    }
    sequences.push_back(std::move(seq));
  }
  const auto scan = [&](const SegmentKey& key)
      -> std::optional<std::pair<RouteId, std::pair<int, int>>> {
    for (std::size_t r = 0; r < sequences.size(); ++r) {
      const auto& seq = sequences[r];
      const auto from = std::find(seq.begin(), seq.end(), key.from);
      if (from == seq.end()) continue;
      const auto to = std::find(from + 1, seq.end(), key.to);
      if (to == seq.end()) continue;
      return std::make_pair(static_cast<RouteId>(r),
                            std::make_pair(static_cast<int>(from - seq.begin()),
                                           static_cast<int>(to - seq.begin())));
    }
    return std::nullopt;
  };
  std::vector<StopId> ids{kInvalidStop};
  for (std::size_t id = 0; id <= city.stops().size(); ++id) {
    ids.push_back(static_cast<StopId>(id));
  }
  std::size_t located = 0;
  std::size_t skipped_spans = 0;
  for (const StopId from : ids) {
    for (const StopId to : ids) {
      const SegmentKey key{from, to};
      const auto expected = scan(key);
      ASSERT_EQ(catalog.locate(key), expected) << from << ">" << to;
      const auto span = catalog.span(key);
      const auto summary = catalog.summary(key);
      ASSERT_EQ(span.has_value(), summary.has_value()) << from << ">" << to;
      if (!expected) continue;
      ++located;
      if (catalog.adjacent(key) == nullptr) ++skipped_spans;
      // Bitwise: the estimator reads these instead of the span.
      EXPECT_EQ(summary->route, span->route);
      EXPECT_EQ(summary->length_m, span->length_m);
      EXPECT_EQ(summary->free_speed_kmh, span->free_speed_kmh);
    }
  }
  EXPECT_GT(skipped_spans, 0u);  // the non-adjacent path is covered
  EXPECT_GT(located, skipped_spans);
}

TEST(SegmentCatalog, LocateIndexMatchesRouteScan) {
  expect_locate_matches_route_scan(test_city());
  expect_locate_matches_route_scan(loop_city());
  // The loop: stop 1 is visited at positions 1 and 3 of route 0.
  const City loop = loop_city();
  const SegmentCatalog catalog(loop);
  using Located = std::optional<std::pair<RouteId, std::pair<int, int>>>;
  EXPECT_EQ(catalog.locate(SegmentKey{1, 1}), Located({0, {1, 3}}));
  EXPECT_EQ(catalog.locate(SegmentKey{2, 1}), Located({0, {2, 3}}));
  EXPECT_EQ(catalog.locate(SegmentKey{1, 4}), Located({1, {1, 2}}));
  EXPECT_EQ(catalog.locate(SegmentKey{0, 2}), Located({0, {0, 2}}));
  EXPECT_FALSE(catalog.locate(SegmentKey{4, 1}).has_value());
}

TEST(SegmentCatalog, UnknownPairReturnsEmpty) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  EXPECT_FALSE(catalog.span(SegmentKey{0, 0}).has_value());
  EXPECT_TRUE(catalog.stop_run(SegmentKey{0, 0}).empty());
}

TEST(SegmentCatalog, LinkDecompositionSumsToLength) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  for (const SegmentKey& key : catalog.adjacent_keys()) {
    const SpanInfo* info = catalog.adjacent(key);
    double total = 0.0;
    for (const auto& [link, len] : info->links) total += len;
    EXPECT_NEAR(total, info->length_m, 1e-6);
  }
}

// --------------------------------------------------------- travel estimator

TEST(TravelEstimator, AttReducesToFreeTimeAtFreeFlow) {
  const SegmentCatalog catalog(test_city());
  const TravelEstimator est(catalog);
  const double free_btt = est.free_bus_time_s(400.0, 50.0);
  const double att = est.att_seconds(free_btt, 400.0, 50.0);
  EXPECT_NEAR(att, 0.4 / 50.0 * 3600.0, 1e-9);  // a = 28.8 s
  // Faster-than-free BTT clamps at a.
  EXPECT_NEAR(est.att_seconds(free_btt - 10.0, 400.0, 50.0), att, 1e-9);
}

TEST(TravelEstimator, AttGrowsLinearlyWithCongestionExcess) {
  const SegmentCatalog catalog(test_city());
  AttModelConfig cfg;
  cfg.b = 0.5;
  const TravelEstimator est(catalog, cfg);
  const double free_btt = est.free_bus_time_s(400.0, 50.0);
  const double att1 = est.att_seconds(free_btt + 20.0, 400.0, 50.0);
  const double att2 = est.att_seconds(free_btt + 40.0, 400.0, 50.0);
  EXPECT_NEAR(att2 - att1, 0.5 * 20.0, 1e-9);
}

TEST(TravelEstimator, EstimateFromHandBuiltTrip) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  const RouteGraph graph(city);
  const TravelEstimator est(catalog);
  const BusRoute& route = city.routes()[0];
  auto eff = [&](int i) { return city.effective_stop(route.stops()[i].stop); };
  // Clusters at stops 2, 3 and 5 (stop 4 skipped by the bus).
  MappedTrip trip;
  auto add = [&](int stop_idx, double t_arr, double t_dep) {
    trip.stops.push_back(MappedCluster{
        static_cast<std::uint32_t>(trip.stops.size()), eff(stop_idx), t_arr,
        t_dep});
  };
  add(2, 0.0, 10.0);
  add(3, 70.0, 80.0);
  add(5, 250.0, 260.0);
  const auto estimates = est.estimate(trip);
  // Adjacent pair 2->3 plus the skip span 3->5 projected onto 3->4 and 4->5.
  ASSERT_EQ(estimates.size(), 3u);
  EXPECT_EQ(estimates[0].segment, (SegmentKey{eff(2), eff(3)}));
  EXPECT_DOUBLE_EQ(estimates[0].btt_s, 60.0);
  EXPECT_EQ(estimates[1].segment, (SegmentKey{eff(3), eff(4)}));
  EXPECT_EQ(estimates[2].segment, (SegmentKey{eff(4), eff(5)}));
  EXPECT_DOUBLE_EQ(estimates[1].btt_s, 170.0);
  EXPECT_DOUBLE_EQ(estimates[1].att_speed_kmh, estimates[2].att_speed_kmh);
  for (const auto& e : estimates) {
    EXPECT_GT(e.att_speed_kmh, 0.0);
    EXPECT_LT(e.att_speed_kmh, 80.0);
  }
}

TEST(TravelEstimator, SkipsDegeneratePairs) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  const TravelEstimator est(catalog);
  const BusRoute& route = city.routes()[0];
  const StopId s = city.effective_stop(route.stops()[2].stop);
  MappedTrip trip;
  trip.stops.push_back(MappedCluster{0, s, 0.0, 0.0});
  trip.stops.push_back(MappedCluster{1, s, 0.0, 0.0});  // same stop twice
  EXPECT_TRUE(est.estimate(trip).empty());
}

// ------------------------------------------------------------------ fusion

SpeedEstimate estimate_at(SegmentKey key, double speed, SimTime t) {
  SpeedEstimate e;
  e.segment = key;
  e.att_speed_kmh = speed;
  e.time = t;
  return e;
}

TEST(SpeedFusion, FirstObservationInitialises) {
  SpeedFusion fusion;
  fusion.add(estimate_at({1, 2}, 40.0, 100.0));
  fusion.flush_until(1000.0);
  const auto f = fusion.query({1, 2});
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->mean_kmh, 40.0);
  EXPECT_EQ(f->observation_count, 1);
}

TEST(SpeedFusion, Eq4PrecisionWeightedUpdate) {
  FusionConfig cfg;
  cfg.observation_variance = 30.0;
  cfg.variance_floor = 0.0;
  cfg.process_noise_per_s = 0.0;
  SpeedFusion fusion(cfg);
  fusion.add(estimate_at({1, 2}, 40.0, 100.0));   // period 0
  fusion.add(estimate_at({1, 2}, 50.0, 400.0));   // period 1
  fusion.flush_until(10000.0);
  const auto f = fusion.query({1, 2});
  ASSERT_TRUE(f.has_value());
  // After init: v=40, s2=30. Update with v̄=50, s̄2=30 -> v=45, s2=15.
  EXPECT_DOUBLE_EQ(f->mean_kmh, 45.0);
  EXPECT_DOUBLE_EQ(f->variance, 15.0);
}

TEST(SpeedFusion, WithinPeriodObservationsAreAveraged) {
  SpeedFusion fusion;
  fusion.add(estimate_at({3, 4}, 30.0, 10.0));
  fusion.add(estimate_at({3, 4}, 50.0, 20.0));  // same 5-minute period
  fusion.flush_until(1000.0);
  const auto f = fusion.query({3, 4});
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(f->mean_kmh, 40.0);
  EXPECT_EQ(f->observation_count, 2);
}

TEST(SpeedFusion, OpenPeriodNotFlushed) {
  SpeedFusion fusion;
  fusion.add(estimate_at({5, 6}, 30.0, 10.0));
  fusion.flush_until(200.0);  // same period still open
  EXPECT_FALSE(fusion.query({5, 6}).has_value());
  fusion.flush_until(301.0);
  EXPECT_TRUE(fusion.query({5, 6}).has_value());
}

TEST(SpeedFusion, AgeingShiftsWeightTowardFreshData) {
  // After a long silent gap the stale mean barely counts: the fused value
  // moves most of the way to the new observation.
  FusionConfig cfg;
  cfg.observation_variance = 30.0;
  cfg.process_noise_per_s = 0.03;
  SpeedFusion fusion(cfg);
  fusion.add(estimate_at({1, 2}, 20.0, 10.0));
  fusion.add(estimate_at({1, 2}, 50.0, 2.0 * kHour));
  fusion.flush_until(3.0 * kHour);
  const auto f = fusion.query({1, 2});
  ASSERT_TRUE(f.has_value());
  EXPECT_GT(f->mean_kmh, 40.0);  // tracked the fresh 50, not the stale 20
}

TEST(SpeedFusion, VarianceDecreasesMonotonicallyToFloor) {
  FusionConfig cfg;
  cfg.variance_floor = 4.0;
  cfg.process_noise_per_s = 0.0;
  SpeedFusion fusion(cfg);
  double prev = 1e9;
  for (int k = 0; k < 20; ++k) {
    fusion.add(estimate_at({1, 2}, 40.0, k * 300.0 + 10.0));
    fusion.flush_until((k + 1) * 300.0 + 10.0);
    const auto f = fusion.query({1, 2});
    ASSERT_TRUE(f.has_value());
    EXPECT_LE(f->variance, prev + 1e-12);
    prev = f->variance;
  }
  EXPECT_DOUBLE_EQ(prev, 4.0);
}

TEST(SpeedFusion, SegmentsIsolated) {
  SpeedFusion fusion;
  fusion.add(estimate_at({1, 2}, 40.0, 10.0));
  fusion.add(estimate_at({2, 3}, 20.0, 10.0));
  fusion.flush_until(1000.0);
  EXPECT_DOUBLE_EQ(fusion.query({1, 2})->mean_kmh, 40.0);
  EXPECT_DOUBLE_EQ(fusion.query({2, 3})->mean_kmh, 20.0);
  EXPECT_EQ(fusion.all().size(), 2u);
}

// ------------------------------------------------------------- traffic map

TEST(TrafficMap, ClassifyLevels) {
  EXPECT_EQ(classify_speed(10.0), SpeedLevel::kVerySlow);
  EXPECT_EQ(classify_speed(25.0), SpeedLevel::kSlow);
  EXPECT_EQ(classify_speed(35.0), SpeedLevel::kMedium);
  EXPECT_EQ(classify_speed(45.0), SpeedLevel::kFast);
  EXPECT_EQ(classify_speed(55.0), SpeedLevel::kVeryFast);
}

TEST(TrafficMap, SnapshotFiltersStaleEstimates) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  SpeedFusion fusion;
  const SegmentKey key = catalog.adjacent_keys()[0];
  fusion.add(estimate_at(key, 35.0, 100.0));
  fusion.flush_until(10000.0);
  const TrafficMap fresh = TrafficMap::snapshot(fusion, catalog, 500.0, 3600.0);
  EXPECT_EQ(fresh.segments().size(), 1u);
  const TrafficMap stale = TrafficMap::snapshot(fusion, catalog, 50000.0, 3600.0);
  EXPECT_TRUE(stale.segments().empty());
}

TEST(TrafficMap, CoverageAndHistogram) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  SpeedFusion fusion;
  double t = 10.0;
  for (const SegmentKey& key : catalog.adjacent_keys()) {
    fusion.add(estimate_at(key, 15.0 + (key.from % 5) * 10.0, t));
  }
  fusion.flush_until(1e6);
  const TrafficMap map = TrafficMap::snapshot(fusion, catalog, 400.0, 1e9);
  EXPECT_EQ(map.segments().size(), catalog.adjacent_keys().size());
  EXPECT_GT(map.coverage_ratio(catalog), 0.4);
  int total = 0;
  for (const auto& [level, count] : map.level_histogram()) total += count;
  EXPECT_EQ(total, static_cast<int>(map.segments().size()));
  EXPECT_GT(map.mean_speed_kmh(), 10.0);
}

TEST(TrafficMap, AsciiRenderHasExpectedShape) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  SpeedFusion fusion;
  fusion.add(estimate_at(catalog.adjacent_keys()[0], 12.0, 10.0));
  fusion.flush_until(1e6);
  const TrafficMap map = TrafficMap::snapshot(fusion, catalog, 400.0, 1e9);
  const std::string art = map.render_ascii(catalog, 70, 20);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 20);
  EXPECT_NE(art.find('1'), std::string::npos);  // the very-slow segment
  EXPECT_NE(art.find('.'), std::string::npos);  // uncovered bus roads
}

// -------------------------------------------------------- google indicator

TEST(GoogleIndicator, LevelsAndCodes) {
  EXPECT_EQ(google_level(10.0), GoogleLevel::kVerySlow);
  EXPECT_EQ(google_level(30.0), GoogleLevel::kSlow);
  EXPECT_EQ(google_level(40.0), GoogleLevel::kNormal);
  EXPECT_EQ(google_level(60.0), GoogleLevel::kFast);
  EXPECT_EQ(google_level_code(GoogleLevel::kVerySlow), 1);
  EXPECT_EQ(google_level_code(GoogleLevel::kFast), 4);
  EXPECT_EQ(to_string(GoogleLevel::kNormal), "normal");
}

// ------------------------------------------------------------- gps tracker

TEST(GpsTracker, MatchedArcsAreMonotone) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  const GpsTracker tracker(catalog);
  const BusRoute& route = city.routes()[0];
  // Clean synthetic trace with a deliberate backward scatter.
  std::vector<std::pair<SimTime, Point>> fixes;
  for (double arc = 0.0; arc < 2000.0; arc += 100.0) {
    fixes.emplace_back(arc / 10.0, route.path().point_at(arc));
  }
  fixes[5].second = route.path().point_at(300.0);  // behind fix 4
  const auto arcs = tracker.matched_arcs(route, fixes);
  for (std::size_t i = 1; i < arcs.size(); ++i) {
    EXPECT_GE(arcs[i], arcs[i - 1]);
  }
}

TEST(GpsTracker, CleanTraceRecoversBusTravelTimes) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  AttModelConfig att;
  const GpsTracker tracker(catalog, att);
  const BusRoute& route = city.routes()[0];
  // Bus at constant 10 m/s, no noise: BTT between adjacent stops = gap/10.
  std::vector<std::pair<SimTime, Point>> fixes;
  for (double arc = 0.0; arc <= route.length(); arc += 20.0) {
    fixes.emplace_back(arc / 10.0, route.path().point_at(arc));
  }
  const auto estimates = tracker.estimate(route, fixes);
  ASSERT_GT(estimates.size(), 5u);
  for (const auto& e : estimates) {
    const SpanInfo* info = catalog.adjacent(e.segment);
    ASSERT_NE(info, nullptr);
    EXPECT_NEAR(e.btt_s, info->length_m / 10.0, 5.0);
  }
}

TEST(GpsTracker, TooFewFixesYieldNothing) {
  const City& city = test_city();
  const SegmentCatalog catalog(city);
  const GpsTracker tracker(catalog);
  EXPECT_TRUE(tracker.estimate(city.routes()[0], {}).empty());
  EXPECT_TRUE(
      tracker.estimate(city.routes()[0], {{0.0, Point{0, 0}}}).empty());
}

}  // namespace
}  // namespace bussense
