// Cross-module property and parameterized sweeps: invariants that must hold
// across configurations, seeds and scales (not just the default testbed).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <numbers>
#include <set>

#include "citynet/city_generator.h"
#include "common/stats.h"
#include "core/matching.h"
#include "core/route_graph.h"
#include "core/segment_catalog.h"
#include "cellular/deployment.h"
#include "cellular/scanner.h"
#include "core/stop_matcher.h"
#include "core/ingest_service.h"
#include "core/server.h"
#include "core/travel_estimator.h"
#include "core/traffic_map.h"
#include "dsp/audio_synth.h"
#include "dsp/beep_detector.h"
#include "dsp/fft.h"
#include "dsp/goertzel.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

// ------------------------------------------------------ city invariants

struct CityParams {
  double width;
  double height;
  std::uint64_t seed;
  std::vector<std::string> routes;
};

// Names each case (and its ctest id) by its geometry and seed, e.g.
// "7000x4000_seed7", instead of by raw bytes that include heap pointers.
void PrintTo(const CityParams& p, std::ostream* os) {
  *os << p.width << 'x' << p.height << "_seed" << p.seed;
}

class CityInvariants : public ::testing::TestWithParam<CityParams> {};

TEST_P(CityInvariants, HoldAcrossConfigurations) {
  const CityParams& p = GetParam();
  CityConfig cfg;
  cfg.width_m = p.width;
  cfg.height_m = p.height;
  cfg.seed = p.seed;
  cfg.route_names = p.routes;
  const City city = generate_city(cfg);

  // Route invariants: spans tile, stops ordered, both directions mirrored.
  for (const BusRoute& route : city.routes()) {
    double expected = 0.0;
    for (const LinkSpan& span : route.link_spans()) {
      EXPECT_NEAR(span.arc_begin, expected, 1e-6);
      expected = span.arc_end;
    }
    EXPECT_NEAR(expected, route.length(), 1e-6);
    for (std::size_t i = 1; i < route.stops().size(); ++i) {
      EXPECT_GT(route.stops()[i].arc_pos, route.stops()[i - 1].arc_pos);
    }
  }
  // Twin symmetry everywhere.
  for (const BusStop& s : city.stops()) {
    if (s.opposite) {
      EXPECT_EQ(*city.stop(*s.opposite).opposite, s.id);
    }
  }
  // The segment catalog must cover every adjacent pair.
  const SegmentCatalog catalog(city);
  for (const BusRoute& route : city.routes()) {
    for (std::size_t i = 0; i + 1 < route.stop_count(); ++i) {
      const SegmentKey key{city.effective_stop(route.stops()[i].stop),
                           city.effective_stop(route.stops()[i + 1].stop)};
      EXPECT_NE(catalog.adjacent(key), nullptr);
    }
  }
  // The route graph respects every route order.
  const RouteGraph graph(city);
  for (const BusRoute& route : city.routes()) {
    const auto& seq = graph.route_sequence(route.id());
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      EXPECT_EQ(graph.relation(seq[i], seq[i + 1]), 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, CityInvariants,
    ::testing::Values(
        CityParams{7000, 4000, 7, {"79", "99", "241", "243", "252", "257", "182", "31"}},
        CityParams{7000, 4000, 99, {"79", "99", "243"}},
        CityParams{5000, 5000, 3, {"241", "252", "182"}},
        CityParams{4000, 2500, 11, {"79", "31"}},
        CityParams{9000, 6000, 21, {"99", "257", "182", "31"}}));

// ----------------------------------------------------- matching properties

class MatchingProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatchingProperties, TriangleOfBasicInvariants) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Fingerprint a, b;
    const int na = rng.uniform_int(1, 7);
    const int nb = rng.uniform_int(1, 7);
    std::set<CellId> seen;
    for (int i = 0; i < na; ++i) a.cells.push_back(rng.uniform_int(1, 15));
    for (int i = 0; i < nb; ++i) b.cells.push_back(rng.uniform_int(1, 15));
    const double sab = similarity(a, b);
    // Symmetry, bounds, self-maximality.
    EXPECT_DOUBLE_EQ(sab, similarity(b, a));
    EXPECT_GE(sab, 0.0);
    EXPECT_LE(sab, max_similarity(a, b) + 1e-9);
    EXPECT_GE(similarity(a, a), sab - 1e-9);
    // Appending a fresh unmatched id never lowers the local-alignment score.
    Fingerprint a_ext = a;
    a_ext.cells.push_back(9999);
    EXPECT_GE(similarity(a_ext, b) + 1e-9, sab);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingProperties,
                         ::testing::Values(1, 2, 3, 4, 5));

// --------------------------------------------- indexed matcher equivalence

// The inverted-index candidate generation must be a pure optimisation:
// match() and match_all() results — stop, score, common-cell tie-break,
// below-γ rejections — are identical to the brute-force database scan for
// any database size and fingerprint content (including duplicate cell IDs,
// which make the shared-cell pruning bound conservative but still sound).
class IndexedMatcherEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexedMatcherEquivalence, MatchAndMatchAllIdenticalToBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const int n_records = rng.uniform_int(1, 60);
    // Small pools force collisions/duplicates; large pools force rejections.
    const int pool = rng.uniform_int(4, 10 + 4 * n_records);
    StopDatabase db;
    for (int r = 0; r < n_records; ++r) {
      Fingerprint fp;
      const int len = rng.uniform_int(1, 7);
      for (int k = 0; k < len; ++k) fp.cells.push_back(rng.uniform_int(1, pool));
      db.add(static_cast<StopId>(r + 1), std::move(fp));
    }
    StopMatcherConfig brute_cfg;
    brute_cfg.accel.use_index = false;
    const StopMatcher indexed(db);  // use_index defaults to true
    const StopMatcher brute(db, brute_cfg);
    for (int q = 0; q < 40; ++q) {
      Fingerprint sample;
      const int len = rng.uniform_int(0, 7);
      for (int k = 0; k < len; ++k)
        sample.cells.push_back(rng.uniform_int(1, pool));
      MatchStats stats;
      const auto a = indexed.match(sample, &stats);
      const auto b = brute.match(sample);
      ASSERT_EQ(a.has_value(), b.has_value()) << to_string(sample);
      if (a) {
        EXPECT_EQ(a->stop, b->stop);
        EXPECT_EQ(a->score, b->score);  // same DP kernel → bit-identical
        EXPECT_EQ(a->common_cells, b->common_cells);
      }
      EXPECT_LE(stats.records_accepted, stats.gamma_candidates);
      EXPECT_LE(stats.gamma_candidates, stats.records_considered);
      EXPECT_EQ(stats.records_pruned,
                stats.records_considered - stats.records_accepted);
      const auto all_a = indexed.match_all(sample);
      const auto all_b = brute.match_all(sample);
      ASSERT_EQ(all_a.size(), all_b.size());
      for (std::size_t i = 0; i < all_a.size(); ++i) {
        EXPECT_EQ(all_a[i].stop, all_b[i].stop);
        EXPECT_EQ(all_a[i].score, all_b[i].score);
        EXPECT_EQ(all_a[i].common_cells, all_b[i].common_cells);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedMatcherEquivalence,
                         ::testing::Values(11, 12, 13));

TEST(IndexedMatcher, ReplacedFingerprintIsReindexed) {
  StopDatabase db;
  db.add(1, Fingerprint{{1, 2, 3}});
  db.add(2, Fingerprint{{4, 5, 6}});
  db.add(1, Fingerprint{{7, 8, 9}});  // replaces stop 1's fingerprint
  const StopMatcher matcher(db);
  // Old posting entries must be gone: {1,2,3} now matches nothing.
  EXPECT_FALSE(matcher.match(Fingerprint{{1, 2, 3}}).has_value());
  const auto hit = matcher.match(Fingerprint{{7, 8, 9}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stop, 1);
  EXPECT_DOUBLE_EQ(hit->score, 3.0);
}

TEST(IndexedMatcher, FullPipelineReportsIdenticalToBruteForce) {
  // End-to-end: on the default test world, the whole pipeline — matched
  // samples, rejections, mapped stops, speed estimates — is byte-identical
  // with and without the index.
  World world;
  Rng survey(2024);
  const StopDatabase db = build_stop_database(
      world.city(),
      [&](StopId stop, int run) {
        return world.scan_stop(stop, survey, run % 2 == 1);
      },
      3);
  ServerConfig brute_cfg;
  brute_cfg.matcher.accel.use_index = false;
  const TrafficServer indexed(world.city(), db);
  const TrafficServer brute(world.city(), db, brute_cfg);
  Rng rng(31);
  const auto day = world.simulate_day(0, 1.0, rng);
  ASSERT_GT(day.trips.size(), 20u);
  for (const AnnotatedTrip& trip : day.trips) {
    const auto a = indexed.analyze_trip(trip.upload);
    const auto b = brute.analyze_trip(trip.upload);
    EXPECT_EQ(a.rejected_samples, b.rejected_samples);
    ASSERT_EQ(a.matched.size(), b.matched.size());
    for (std::size_t i = 0; i < a.matched.size(); ++i) {
      EXPECT_EQ(a.matched[i].stop, b.matched[i].stop);
      EXPECT_EQ(a.matched[i].score, b.matched[i].score);
    }
    ASSERT_EQ(a.mapped.stops.size(), b.mapped.stops.size());
    for (std::size_t i = 0; i < a.mapped.stops.size(); ++i) {
      EXPECT_EQ(a.mapped.stops[i].stop, b.mapped.stops[i].stop);
    }
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
      EXPECT_EQ(a.estimates[i].segment, b.estimates[i].segment);
      EXPECT_EQ(a.estimates[i].att_speed_kmh, b.estimates[i].att_speed_kmh);
      EXPECT_EQ(a.estimates[i].time, b.estimates[i].time);
    }
  }
}

// One simulated day on the default world, shared by the trip-path
// properties below.
struct DayBed {
  World world;
  StopDatabase database;
  std::vector<TripUpload> uploads;

  DayBed() {
    Rng survey(2024);
    database = build_stop_database(
        world.city(),
        [&](StopId stop, int run) {
          return world.scan_stop(stop, survey, run % 2 == 1);
        },
        3);
    Rng rng(31);
    for (AnnotatedTrip& trip : world.simulate_day(0, 1.0, rng).trips) {
      uploads.push_back(std::move(trip.upload));
    }
  }
};

const DayBed& day_bed() {
  static const DayBed bed;
  return bed;
}

TEST(MatcherMetrics, PerTripFlushKeepsPerSampleTotals) {
  // The trip path records a trip's matcher counters in one flush; the
  // totals must equal what one match() per sample records.
  const DayBed& bed = day_bed();
  const TrafficServer server(bed.world.city(), bed.database);
  StopMatcher matcher(bed.database);
  MetricsRegistry per_sample;
  matcher.bind_metrics(&per_sample);
  for (const TripUpload& upload : bed.uploads) {
    (void)server.analyze_trip(upload);
    for (const CellularSample& s : upload.samples) {
      if (!s.fingerprint.empty()) (void)matcher.match(s.fingerprint);
    }
  }
  const MetricsSnapshot got = server.metrics().snapshot();
  const MetricsSnapshot want = per_sample.snapshot();
  for (const char* name :
       {"matcher.calls", "matcher.records_considered",
        "matcher.gamma_candidates", "matcher.records_pruned",
        "matcher.records_accepted", "matcher.records_bound_skipped"}) {
    EXPECT_EQ(got.counters.at(name), want.counters.at(name)) << name;
  }
  EXPECT_GT(got.counters.at("matcher.calls"), 1000u);
}

TEST(ShardedIdentity, ShuffledHostileUploadsFuseBitIdenticalToSerial) {
  // Shard consumers reuse one analysis scratch across trips; nothing of
  // one trip may leak into the next. Uploads with emptied fingerprints,
  // duplicated timestamps and shuffled samples, fed in a shuffled order
  // to a 1- and a 3-shard service, must fuse exactly like the serial
  // server fed them in day order.
  const DayBed& bed = day_bed();
  Rng rng(41);
  const auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {  // seeded Fisher–Yates
      std::swap(v[i - 1],
                v[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1))]);
    }
  };
  std::vector<TripUpload> uploads = bed.uploads;
  std::size_t emptied = 0, duplicated = 0;
  for (TripUpload& u : uploads) {
    for (std::size_t i = 1; i < u.samples.size(); ++i) {
      if (rng.bernoulli(0.1)) {
        u.samples[i].fingerprint = Fingerprint{};
        ++emptied;
      }
      if (rng.bernoulli(0.15)) {
        u.samples[i].time = u.samples[i - 1].time;
        ++duplicated;
      }
    }
    shuffle(u.samples);
  }
  ASSERT_GT(emptied, 10u);
  ASSERT_GT(duplicated, 10u);

  const SimTime end = at_clock(1, 0, 0);
  TrafficServer serial(bed.world.city(), bed.database);
  for (const TripUpload& u : uploads) (void)serial.process_trip(u);
  serial.advance_time(end);
  const std::vector<FusionExportEntry> want = serial.export_fusion();
  ASSERT_GT(want.size(), 10u);

  std::vector<std::size_t> order(uploads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    shuffle(order);
    ShardedIngestConfig sharding;
    sharding.shards = shards;
    ShardedIngestService service(bed.world.city(), bed.database, {}, sharding);
    for (const std::size_t i : order) {
      ASSERT_TRUE(service.process_trip(uploads[i]).accepted());
    }
    service.advance_time(end);
    const std::vector<FusionExportEntry> got = service.backend().export_fusion();
    ASSERT_EQ(got.size(), want.size()) << shards << " shards";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].key == want[i].key);
      ASSERT_EQ(got[i].fused.has_value(), want[i].fused.has_value());
      if (got[i].fused) {
        EXPECT_EQ(got[i].fused->mean_kmh, want[i].fused->mean_kmh);
        EXPECT_EQ(got[i].fused->variance, want[i].fused->variance);
        EXPECT_EQ(got[i].fused->updated_at, want[i].fused->updated_at);
        EXPECT_EQ(got[i].fused->observation_count,
                  want[i].fused->observation_count);
      }
      EXPECT_EQ(got[i].pending, want[i].pending);
    }
  }
}

// ------------------------------------------- fusion and coverage oracles

// The map-based fusion store the dense stripes replaced: one std::map of
// open period batches per segment, closed in period order. Kept here as
// the oracle the dense state must match bit for bit.
class MapFusion {
 public:
  explicit MapFusion(FusionConfig config) : config_(config) {}

  void add(const SpeedEstimate& e) {
    const auto period =
        static_cast<std::int64_t>(std::floor(e.time / config_.update_period_s));
    states_[key_of(e.segment)].pending[period].push_back(e.att_speed_kmh);
  }

  void flush_until(SimTime now) {
    const auto now_period =
        static_cast<std::int64_t>(std::floor(now / config_.update_period_s));
    for (auto& [key, state] : states_) {
      while (!state.pending.empty() &&
             state.pending.begin()->first < now_period) {
        const auto it = state.pending.begin();
        std::vector<double>& values = it->second;
        std::sort(values.begin(), values.end());
        double sum = 0.0;
        for (const double v : values) sum += v;
        const int count = static_cast<int>(values.size());
        apply(state, sum / count,
              (static_cast<double>(it->first) + 1.0) * config_.update_period_s,
              count);
        state.pending.erase(it);
      }
    }
  }

  std::vector<FusionExportEntry> export_state() const {
    std::vector<FusionExportEntry> out;
    for (const auto& [key, state] : states_) {
      FusionExportEntry entry;
      entry.key = SegmentKey{key.first, key.second};
      entry.fused = state.fused;
      for (const auto& [period, values] : state.pending) {
        std::vector<double> sorted = values;
        std::sort(sorted.begin(), sorted.end());
        entry.pending.emplace_back(period, std::move(sorted));
      }
      out.push_back(std::move(entry));
    }
    return out;  // std::map order == key order
  }

 private:
  struct State {
    std::optional<FusedSpeed> fused;
    std::map<std::int64_t, std::vector<double>> pending;
  };
  static std::pair<StopId, StopId> key_of(const SegmentKey& k) {
    return {k.from, k.to};
  }
  void apply(State& state, double mean_obs, SimTime at, int count) const {
    if (!state.fused) {
      state.fused =
          FusedSpeed{mean_obs, config_.observation_variance, at, count};
      return;
    }
    FusedSpeed& f = *state.fused;
    f.variance += config_.process_noise_per_s * std::max(0.0, at - f.updated_at);
    const double obs_var = config_.observation_variance;
    const double denom = f.variance + obs_var;
    f.mean_kmh = (f.mean_kmh * obs_var + mean_obs * f.variance) / denom;
    f.variance = std::max(f.variance * obs_var / denom, config_.variance_floor);
    f.updated_at = at;
    f.observation_count += count;
  }

  FusionConfig config_;
  std::map<std::pair<StopId, StopId>, State> states_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_fused_bits(const FusedSpeed& got, const FusedSpeed& want,
                       const std::string& label) {
  EXPECT_EQ(bits(got.mean_kmh), bits(want.mean_kmh)) << label;
  EXPECT_EQ(bits(got.variance), bits(want.variance)) << label;
  EXPECT_EQ(bits(got.updated_at), bits(want.updated_at)) << label;
  EXPECT_EQ(got.observation_count, want.observation_count) << label;
}

// The dense store's export and visitation must equal the oracle's, bit
// for bit: same segments, same posteriors, same open batches.
void expect_matches_oracle(const SpeedFusion& dense, const MapFusion& oracle,
                           const std::string& label) {
  const std::vector<FusionExportEntry> got = dense.export_state();
  const std::vector<FusionExportEntry> want = oracle.export_state();
  ASSERT_EQ(got.size(), want.size()) << label;
  std::vector<std::pair<SegmentKey, FusedSpeed>> want_fused;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << label;
    ASSERT_EQ(got[i].fused.has_value(), want[i].fused.has_value()) << label;
    if (want[i].fused) {
      expect_fused_bits(*got[i].fused, *want[i].fused, label);
      want_fused.emplace_back(want[i].key, *want[i].fused);
    }
    ASSERT_EQ(got[i].pending.size(), want[i].pending.size()) << label;
    for (std::size_t b = 0; b < got[i].pending.size(); ++b) {
      EXPECT_EQ(got[i].pending[b].first, want[i].pending[b].first) << label;
      ASSERT_EQ(got[i].pending[b].second.size(),
                want[i].pending[b].second.size()) << label;
      for (std::size_t v = 0; v < got[i].pending[b].second.size(); ++v) {
        EXPECT_EQ(bits(got[i].pending[b].second[v]),
                  bits(want[i].pending[b].second[v])) << label;
      }
    }
  }
  std::vector<std::pair<SegmentKey, FusedSpeed>> visited;
  dense.visit_all([&](const SegmentKey& key, const FusedSpeed& fused) {
    visited.emplace_back(key, fused);
  });
  std::sort(visited.begin(), visited.end(), [](const auto& a, const auto& b) {
    return std::pair(a.first.from, a.first.to) <
           std::pair(b.first.from, b.first.to);
  });
  ASSERT_EQ(visited.size(), want_fused.size()) << label;
  for (std::size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i].first, want_fused[i].first) << label;
    expect_fused_bits(visited[i].second, want_fused[i].second, label);
  }
}

TEST(FusionOracle, DenseStateMatchesMapBasedFusionBitForBit) {
  // A random stream over a few dozen segments: late estimates for earlier
  // periods (open or already closed), several open periods per segment,
  // flushes at arbitrary (mostly non-boundary) times, single and batched
  // adds, and restores mid-stream — into the same store and into a fresh
  // one.
  const FusionConfig config;
  int restores = 0;
  std::size_t most_open = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    auto dense = std::make_unique<SpeedFusion>(config);
    MapFusion oracle(config);
    SimTime now = 6.0 * 3600.0;
    std::vector<SpeedEstimate> batch;
    for (int step = 0; step < 3000; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      now += rng.uniform(0.0, 20.0);
      SpeedEstimate e;
      e.segment = SegmentKey{rng.uniform_int(0, 7), rng.uniform_int(0, 5)};
      // Mostly current, often up to three periods late.
      e.time = now - (rng.bernoulli(0.3) ? rng.uniform(0.0, 3.0 * 300.0) : 0.0);
      e.att_speed_kmh = rng.uniform(3.0, 70.0);
      oracle.add(e);
      if (rng.bernoulli(0.5)) {
        dense->add(e);
      } else {
        batch.push_back(e);
        if (batch.size() >= 40 || rng.bernoulli(0.05)) {
          dense->add(batch);
          batch.clear();
        }
      }
      if (rng.bernoulli(0.02)) {
        dense->add(batch);
        batch.clear();
        // Non-boundary flush times; now and then exactly on a boundary,
        // now and then a period behind the stream.
        SimTime at = now - rng.uniform(0.0, 600.0);
        if (rng.bernoulli(0.2)) at = std::floor(at / 300.0) * 300.0;
        dense->flush_until(at);
        oracle.flush_until(at);
        expect_matches_oracle(*dense, oracle, label);
      }
      if (rng.bernoulli(0.004)) {
        dense->add(batch);
        batch.clear();
        const std::vector<FusionExportEntry> saved = dense->export_state();
        for (const FusionExportEntry& entry : saved) {
          most_open = std::max(most_open, entry.pending.size());
        }
        ++restores;
        if (rng.bernoulli(0.5)) {
          dense->restore_state(saved);
        } else {
          dense = std::make_unique<SpeedFusion>(config);
          dense->restore_state(saved);
        }
        expect_matches_oracle(*dense, oracle, label + " (restored)");
      }
    }
    dense->add(batch);
    dense->flush_until(now + 600.0);
    oracle.flush_until(now + 600.0);
    expect_matches_oracle(*dense, oracle, "seed " + std::to_string(seed));
    if (testing::Test::HasFailure()) return;
  }
  // The stream did restore mid-stream with several periods open at once.
  EXPECT_GT(restores, 8);
  EXPECT_GE(most_open, 3u);
}

// The std::map coverage formula the flat per-link array replaced.
double map_coverage_ratio(const TrafficMap& map, const SegmentCatalog& catalog) {
  std::map<SegmentId, double> covered_m;
  for (const MapSegment& seg : map.segments()) {
    const SpanInfo* info = catalog.adjacent(seg.key);
    if (!info) continue;
    for (const auto& [link, len] : info->links) {
      double& m = covered_m[link];
      m = std::min(m + len, catalog.city().network().link(link).length());
    }
  }
  double covered = 0.0;
  for (const auto& [link, len] : covered_m) covered += len;
  const double total = catalog.city().network().total_length();
  return total > 0.0 ? std::min(1.0, covered / total) : 0.0;
}

TEST(CoverageOracle, FlatCoverageMatchesMapFormulaBitForBit) {
  // Random live subsets of the catalogue, with forward and reverse keys of
  // one corridor (shared links, so the per-link cap bites) and keys the
  // catalogue does not know.
  const SegmentCatalog catalog(day_bed().world.city());
  const std::vector<SegmentKey>& keys = catalog.adjacent_keys();
  ASSERT_FALSE(keys.empty());
  const SimTime now = 12.0 * 3600.0;
  const auto estimate = [&](SegmentKey key, double kmh) {
    SpeedEstimate e;
    e.segment = key;
    e.time = now - 400.0;
    e.att_speed_kmh = kmh;
    return e;
  };
  std::size_t shared = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    SpeedFusion fusion;
    const double density = rng.uniform(0.0, 1.0);
    for (const SegmentKey& key : keys) {
      if (!rng.bernoulli(density)) continue;
      fusion.add(estimate(key, rng.uniform(5.0, 60.0)));
      const SegmentKey reverse{key.to, key.from};
      if (catalog.adjacent(reverse) && rng.bernoulli(0.7)) {
        fusion.add(estimate(reverse, 30.0));
        ++shared;
      }
    }
    for (int i = 0; i < 5; ++i) {
      fusion.add(estimate(SegmentKey{100000 + i, 100001 + i}, 20.0));
    }
    fusion.flush_until(now);
    const TrafficMap map = TrafficMap::snapshot(fusion, catalog, now);
    EXPECT_EQ(bits(map.coverage_ratio(catalog)),
              bits(map_coverage_ratio(map, catalog)))
        << "seed " << seed;
  }
  EXPECT_GT(shared, 0u);  // the reverse keys did share links
}

TEST(IndexedMatcher, PruningSkipsHopelessCandidates) {
  // 1 shared cell cannot reach γ = 2, so the index must not even align it.
  StopDatabase db;
  db.add(1, Fingerprint{{10, 11, 12, 13}});
  db.add(2, Fingerprint{{20, 21, 22, 23}});
  const StopMatcher matcher(db);
  MatchStats stats;
  EXPECT_FALSE(matcher.match(Fingerprint{{10, 30, 31}}, &stats).has_value());
  EXPECT_EQ(stats.records_considered, 2u);
  EXPECT_EQ(stats.gamma_candidates, 0u);
  EXPECT_EQ(stats.records_accepted, 0u);
  EXPECT_EQ(stats.records_pruned, 2u);
}

// ------------------------------------------------------- goertzel vs fft

class SpectrumAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpectrumAgreement, ParsevalHoldsForAllSizes) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<float> x(n);
  for (float& v : x) v = static_cast<float>(rng.normal(0.0, 1.0));
  double time_energy = 0.0;
  for (float v : x) time_energy += static_cast<double>(v) * v;
  const auto spec = fft_real(x);
  double freq_energy = 0.0;
  for (const auto& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(spec.size()), time_energy,
              1e-6 * time_energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpectrumAgreement,
                         ::testing::Values(2, 16, 64, 128, 256, 500, 1024));

// SNR sweep: the detector holds its ~98% hit rate down to modest beep
// amplitudes and never fires without a beep.
class BeepSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(BeepSnrSweep, DetectsAtAmplitude) {
  AudioEnvironmentConfig env;
  env.beep_amplitude = GetParam();
  Rng rng(static_cast<std::uint64_t>(GetParam() * 1000));
  int hits = 0;
  const int trials = 12;
  for (int i = 0; i < trials; ++i) {
    const auto audio = synthesize_bus_audio(env, 4.0, {2.0}, rng);
    BeepDetector detector;
    const auto events = detector.process(audio);
    hits += !events.empty() && std::abs(events.front().time - 2.0) < 0.1;
  }
  EXPECT_GE(hits, trials - 1);
}

INSTANTIATE_TEST_SUITE_P(Amplitudes, BeepSnrSweep,
                         ::testing::Values(0.15, 0.2, 0.3, 0.5));

// ------------------------------------------------------ radio propagation

class PathLossExponent : public ::testing::TestWithParam<double> {};

TEST_P(PathLossExponent, MeanSlopeMatchesModel) {
  PropagationConfig cfg;
  cfg.path_loss_exponent = GetParam();
  cfg.shadow_sigma_db = 0.0;  // isolate the deterministic slope
  std::vector<CellTower> towers{{1, {0.0, 0.0}, 38.5}};
  const RadioEnvironment env(towers, cfg, 1);
  const double r1 = env.mean_rss_dbm(env.towers()[0], {100.0, 0.0});
  const double r2 = env.mean_rss_dbm(env.towers()[0], {1000.0, 0.0});
  // One decade of distance costs 10*n dB.
  EXPECT_NEAR(r1 - r2, 10.0 * GetParam(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Exponents, PathLossExponent,
                         ::testing::Values(2.0, 2.7, 3.5, 4.0));

class ScannerCap : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScannerCap, NeverExceedsMaxTowers) {
  Rng rng(5);
  const BoundingBox region{{0.0, 0.0}, {3000.0, 3000.0}};
  const auto towers = deploy_towers(region, DeploymentConfig{}, rng);
  const RadioEnvironment env(towers, PropagationConfig{}, 2);
  ScannerConfig cfg;
  cfg.max_towers = GetParam();
  const CellScanner scanner(cfg);
  for (int i = 0; i < 20; ++i) {
    const Point p{rng.uniform(500.0, 2500.0), rng.uniform(500.0, 2500.0)};
    EXPECT_LE(scanner.scan_fingerprint(env, p, rng).size(), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, ScannerCap, ::testing::Values(1, 3, 5, 7, 10));

// ----------------------------------------------------- traffic field days

TEST(TrafficFieldProperties, ConsecutiveDaysDiffer) {
  const City city = generate_city();
  const TrafficField field(city.network(), TrafficFieldConfig{}, 5);
  // The noise periods do not divide a day, so day 0 and day 1 at the same
  // clock time are distinct while both stay within bounds.
  int distinct = 0;
  for (SegmentId link = 0; link < 50; ++link) {
    const double v0 = field.car_speed_kmh(link, at_clock(0, 9, 0));
    const double v1 = field.car_speed_kmh(link, at_clock(1, 9, 0));
    if (std::abs(v0 - v1) > 0.1) ++distinct;
  }
  EXPECT_GT(distinct, 30);
}

TEST(TrafficFieldProperties, HarmonicMeanBelowArithmetic) {
  const City city = generate_city();
  const TrafficField field(city.network(), TrafficFieldConfig{}, 6);
  const BusRoute& route = city.routes()[0];
  const SimTime t = at_clock(0, 8, 30);
  const auto parts = route.link_lengths_between(0.0, 3000.0);
  double arith = 0.0, len = 0.0;
  for (const auto& [link, l] : parts) {
    arith += field.car_speed_kmh(link, t) * l;
    len += l;
  }
  arith /= len;
  EXPECT_LE(field.mean_car_speed_kmh(route, 0.0, 3000.0, t), arith + 1e-9);
}

// ------------------------------------------------------------- bus physics

class BusKinematics : public ::testing::TestWithParam<int> {};

TEST_P(BusKinematics, SpeedRespectsLimitsEveryRun) {
  static const World world{};
  const BusRoute& route =
      world.city().routes()[static_cast<std::size_t>(GetParam())];
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 50);
  const BusRun run = world.buses().simulate_run(
      route, at_clock(0, 8, 0), {{1, 2}}, {}, 600.0, rng,
      /*record_trajectory=*/true);
  const double vmax = kmh_to_ms(world.buses().config().max_speed_kmh);
  for (std::size_t i = 1; i < run.trajectory.size(); ++i) {
    const double dt = run.trajectory[i].time - run.trajectory[i - 1].time;
    if (dt <= 0.0) continue;
    const double v = (run.trajectory[i].arc - run.trajectory[i - 1].arc) / dt;
    EXPECT_LE(v, vmax + 0.5);
    EXPECT_GE(v, -1e-9);
  }
  // Arrival/departure bookkeeping is monotone across the whole run.
  SimTime prev = run.depart_time;
  for (const StopVisit& v : run.visits) {
    EXPECT_GE(v.arrival, prev - 1e-9);
    EXPECT_GE(v.departure, v.arrival);
    prev = v.departure;
  }
}

INSTANTIATE_TEST_SUITE_P(Routes, BusKinematics,
                         ::testing::Values(0, 2, 5, 8, 11, 14));

// -------------------------------------------------------------- estimator

TEST(TravelModelProperties, AttMonotoneInBtt) {
  const City city = generate_city();
  const SegmentCatalog catalog(city);
  const TravelEstimator est(catalog);
  double prev = 0.0;
  for (double btt = 10.0; btt < 400.0; btt += 10.0) {
    const double att = est.att_seconds(btt, 400.0, 50.0);
    EXPECT_GE(att, prev);
    prev = att;
  }
}

TEST(TravelModelProperties, SpeedLevelsPartitionTheLine) {
  // Every speed belongs to exactly one of the five display levels and the
  // mapping is monotone.
  SpeedLevel prev = classify_speed(0.0);
  for (double v = 0.0; v < 90.0; v += 0.5) {
    const SpeedLevel level = classify_speed(v);
    EXPECT_GE(static_cast<int>(level), static_cast<int>(prev));
    prev = level;
  }
  EXPECT_EQ(prev, SpeedLevel::kVeryFast);
}

// ------------------------------------------------------------- world scale

class WorldScales : public ::testing::TestWithParam<int> {};

TEST_P(WorldScales, DayPipelineConsistentAtAnyParticipation) {
  static const World world{};
  static StopDatabase db = [] {
    Rng survey(2024);
    return build_stop_database(
        world.city(),
        [&](StopId s, int run) { return world.scan_stop(s, survey, run % 2); },
        3);
  }();
  WorldConfig cfg = world.config();
  cfg.participant_count = GetParam();
  const World scaled(cfg);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto day = scaled.simulate_day(0, 1.0, rng);
  TrafficServer server(scaled.city(), db);
  int estimates = 0;
  for (const AnnotatedTrip& trip : day.trips) {
    const auto report = server.process_trip(trip.upload);
    estimates += static_cast<int>(report.estimates.size());
    // Every estimate's speed is physical.
    for (const SpeedEstimate& e : report.estimates) {
      EXPECT_GT(e.att_speed_kmh, 0.0);
      EXPECT_LT(e.att_speed_kmh, 80.0);
      EXPECT_GT(e.btt_s, 0.0);
    }
  }
  if (GetParam() > 0) {
    EXPECT_GT(estimates, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Participants, WorldScales,
                         ::testing::Values(1, 5, 22));

}  // namespace
}  // namespace bussense
