// Epoch-based serving tier (DESIGN.md §13): the publish/pin/retire
// protocol, bit-identity of published epochs against the serial snapshot,
// the three query families, and the obs instruments.
//
// The concurrency properties this suite pins down:
//
//   * no torn epoch — 8 readers validating internal invariants while a
//     publisher churns epochs over live sharded ingest (run under
//     ThreadSanitizer by scripts/tier1.sh BUSSENSE_SERVING=ON);
//   * retired epochs are reclaimed — a 10k-epoch churn with readers
//     attached ends with exactly one live epoch (run under
//     AddressSanitizer leak checking by the same tier-1 stage);
//   * epoch-boundary equivalence — an epoch published at SimTime `now` is
//     bit-identical to the serial TrafficMap::snapshot at the same `now`,
//     for every front end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/epoch_publisher.h"
#include "core/ingest_service.h"
#include "core/query_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "obs/metrics.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

struct Testbed {
  World world;
  StopDatabase database;
  std::vector<AnnotatedTrip> trips;

  Testbed() {
    Rng survey_rng(2024);
    database = build_stop_database(
        world.city(),
        [&](StopId stop, int run) {
          return world.scan_stop(stop, survey_rng, run % 2 == 1);
        },
        5);
    Rng rng(77);
    trips = world.simulate_day(0, 1.2, rng).trips;
  }
};

const Testbed& testbed() {
  static const Testbed bed;
  return bed;
}

// Canonical byte rendering of a traffic map: segments in key order, every
// float as %.17g — equal strings mean bit-identical maps (same idiom as
// the ingest identity suite).
std::string map_bytes(const TrafficMap& map) {
  std::vector<MapSegment> segments = map.segments();
  std::sort(segments.begin(), segments.end(),
            [](const MapSegment& a, const MapSegment& b) {
              return a.key.from != b.key.from ? a.key.from < b.key.from
                                              : a.key.to < b.key.to;
            });
  std::string out;
  char buf[160];
  for (const MapSegment& s : segments) {
    std::snprintf(buf, sizeof buf, "%d>%d %.17g %.17g %d %d;",
                  static_cast<int>(s.key.from), static_cast<int>(s.key.to),
                  s.speed_kmh, s.updated_at, s.observation_count,
                  static_cast<int>(s.level));
    out += buf;
  }
  return out;
}

// Order-sensitive equality: same segments in the same order with the same
// bits (stronger than map_bytes — also pins the traversal order).
void expect_maps_identical_in_order(const TrafficMap& a, const TrafficMap& b) {
  ASSERT_EQ(a.segments().size(), b.segments().size());
  EXPECT_EQ(a.time(), b.time());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    const MapSegment& x = a.segments()[i];
    const MapSegment& y = b.segments()[i];
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.speed_kmh, y.speed_kmh);
    EXPECT_EQ(x.updated_at, y.updated_at);
    EXPECT_EQ(x.observation_count, y.observation_count);
    EXPECT_EQ(x.level, y.level);
  }
}

// A small synthetic fusion over the first `n` catalogued segments — the
// cheap substrate for churn/staleness tests.
SpeedFusion tiny_fusion(const SegmentCatalog& catalog, std::size_t n,
                        double speed_kmh, SimTime at) {
  SpeedFusion fusion;
  const auto& keys = catalog.adjacent_keys();
  for (std::size_t i = 0; i < std::min(n, keys.size()); ++i) {
    SpeedEstimate e;
    e.segment = keys[i];
    e.att_speed_kmh = speed_kmh;
    e.time = at;
    fusion.add(e);
  }
  fusion.flush_until(at + kHour);
  return fusion;
}

// A serial server primed with the testbed's simulated day up to `now`.
struct PrimedServer {
  TrafficServer server;
  SimTime now;

  explicit PrimedServer(std::size_t max_trips = 200)
      : server(testbed().world.city(), testbed().database) {
    const Testbed& bed = testbed();
    SimTime latest = 0.0;
    std::size_t fed = 0;
    for (const AnnotatedTrip& trip : bed.trips) {
      if (trip.upload.samples.empty()) continue;
      server.process_trip(trip.upload);
      for (const auto& s : trip.upload.samples) {
        latest = std::max(latest, s.time);
      }
      if (++fed >= max_trips) break;
    }
    // Stay inside the predictor's 1800 s staleness window so live
    // estimates actually influence ETAs.
    now = latest + 10 * kMinute;
    server.advance_time(now);
  }
};

// ------------------------------------------------------ geometry key table

// The flat key → ordinal table answers what a scan of the geometry's
// entries answers: the ordinal of every catalogued key and of every
// reversed one, nothing for every other ordered pair of catalogued stops
// (the pairs sharing a `to` among them). Its probes stay as short as a uniform hash's
// at the table's maximal load of 1/2, where linear probing reads on
// average 1.5 slots for a hit and 2.5 for a miss (Knuth). A home slot
// taken from the low bits of the hash depends on `to` alone and piles
// every key sharing a `to` onto one chain, which breaks both bounds.
TEST(SegmentGeometry, FlatOrdinalTableMatchesLinearScan) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  const SegmentGeometry geo(catalog, 32, 16);
  ASSERT_GT(geo.size(), 1u);
  const auto scan = [&](const SegmentKey& key) {
    std::optional<std::uint32_t> found;
    for (std::uint32_t i = 0; i < geo.size() && !found; ++i) {
      if (geo.entry(i).key == key) found = i;
    }
    return found;
  };

  std::set<std::pair<StopId, StopId>> catalogued;
  std::set<StopId> stops;
  std::size_t wrong = 0;
  double hit_reads = 0.0;
  for (std::uint32_t i = 0; i < geo.size(); ++i) {
    const SegmentKey key = geo.entry(i).key;
    catalogued.emplace(key.from, key.to);
    stops.insert(key.from);
    stops.insert(key.to);
    if (geo.ordinal(key) != scan(key) || !geo.ordinal(key)) ++wrong;
    hit_reads += static_cast<double>(geo.probe_length(key));
  }
  EXPECT_EQ(wrong, 0u) << "catalogued keys answered unlike the scan";

  // Reversed keys: catalogued or not, answered as the scan answers them.
  for (std::uint32_t i = 0; i < geo.size(); ++i) {
    const SegmentKey reversed{geo.entry(i).key.to, geo.entry(i).key.from};
    if (geo.ordinal(reversed) != scan(reversed)) ++wrong;
  }

  std::size_t misses = 0;
  double miss_reads = 0.0;
  for (const StopId from : stops) {
    for (const StopId to : stops) {
      if (catalogued.count({from, to}) != 0) continue;
      const SegmentKey key{from, to};
      ++misses;
      if (geo.ordinal(key)) ++wrong;
      miss_reads += static_cast<double>(geo.probe_length(key));
    }
  }
  EXPECT_FALSE(geo.ordinal(SegmentKey{}));  // kInvalidStop both ends
  EXPECT_FALSE(geo.ordinal(SegmentKey{*stops.begin(), kInvalidStop}));
  EXPECT_EQ(wrong, 0u) << "uncatalogued keys answered";
  ASSERT_GT(misses, geo.size());

  const double hit_mean = hit_reads / static_cast<double>(geo.size());
  const double miss_mean = miss_reads / static_cast<double>(misses);
  EXPECT_LE(hit_mean, 1.5);
  EXPECT_LE(miss_mean, 2.5);
}

// ------------------------------------------------------------- validation

TEST(EpochPublisherConfig, RejectsNonsense) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisherConfig no_readers;
  no_readers.max_readers = 0;
  EXPECT_THROW(EpochPublisher(catalog, no_readers), std::invalid_argument);
  EpochPublisherConfig bad_grid;
  bad_grid.grid_cols = 0;
  EXPECT_THROW(EpochPublisher(catalog, bad_grid), std::invalid_argument);
  EpochPublisherConfig bad_age;
  bad_age.max_age_s = 0.0;
  EXPECT_THROW(EpochPublisher(catalog, bad_age), std::invalid_argument);
}

// ------------------------------------------------- empty-publisher behavior

TEST(EpochPublisher, PinBeforeFirstPublishIsFalsy) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisher pub(catalog);
  EXPECT_FALSE(pub.pin());
  EXPECT_EQ(pub.epochs_published(), 0u);
  EXPECT_EQ(pub.epochs_live(), 0u);
  EXPECT_EQ(pub.pinned_readers(), 0u);
}

TEST(QueryService, AnswersBeforeFirstPublish) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisher pub(catalog);
  QueryService svc(pub);

  const auto speed = svc.segment_speed(catalog.adjacent_keys().front());
  EXPECT_EQ(speed.epoch_id, 0u);
  EXPECT_FALSE(speed.live);

  const BusRoute& route = *bed.world.city().route_by_name("79", 0);
  const auto eta = svc.route_eta(route, 0, 1000.0);
  EXPECT_EQ(eta.epoch_id, 0u);
  ASSERT_EQ(eta.arrivals.size(), route.stop_count() - 1);
  for (const ArrivalPrediction& p : eta.arrivals) {
    EXPECT_FALSE(p.from_live_traffic);  // free-flow fallback
    EXPECT_GT(p.eta, 1000.0);
  }

  const auto region = svc.region_aggregate(pub.geometry().region());
  EXPECT_EQ(region.epoch_id, 0u);
  EXPECT_EQ(region.segments_total, 0);

  const auto snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("queries.no_epoch"), 3u);
}

// ----------------------------------------------------- epoch bit-identity

TEST(EpochServing, PublishedEpochMatchesSerialSnapshot) {
  const PrimedServer primed;
  EpochPublisher pub(primed.server.catalog());
  const std::uint64_t id = primed.server.publish_epoch(pub, primed.now);
  EXPECT_EQ(id, 1u);

  const EpochPublisher::Pin p = pub.pin();
  ASSERT_TRUE(p);
  EXPECT_EQ(p->id(), 1u);
  EXPECT_EQ(p->time(), primed.now);
  const TrafficMap serial = primed.server.snapshot(primed.now);
  ASSERT_GT(serial.segments().size(), 0u);
  expect_maps_identical_in_order(p->map(), serial);

  // Precomputed aggregates match the map's own methods bit-for-bit.
  EXPECT_EQ(p->mean_speed_kmh(), serial.mean_speed_kmh());
  EXPECT_EQ(p->coverage_ratio(),
            serial.coverage_ratio(primed.server.catalog()));
  EXPECT_EQ(p->level_histogram(), serial.level_histogram());
}

TEST(EpochServing, AllFrontEndsPublishIdenticalEpochs) {
  const Testbed& bed = testbed();
  std::vector<TripUpload> uploads;
  for (const AnnotatedTrip& trip : bed.trips) {
    if (!trip.upload.samples.empty()) uploads.push_back(trip.upload);
    if (uploads.size() >= 120) break;
  }
  ASSERT_GE(uploads.size(), 20u);
  SimTime latest = 0.0;
  for (const TripUpload& u : uploads) {
    for (const auto& s : u.samples) latest = std::max(latest, s.time);
  }
  const SimTime now = latest + kHour;

  auto epoch_bytes = [&](auto& ingestor) {
    EpochPublisher pub(ingestor.catalog());
    ingestor.publish_epoch(pub, now);
    const EpochPublisher::Pin p = pub.pin();
    return map_bytes(p->map());
  };

  TrafficServer serial(bed.world.city(), bed.database);
  for (const TripUpload& u : uploads) serial.process_trip(u);
  serial.advance_time(now);
  const std::string expected = epoch_bytes(serial);
  EXPECT_EQ(expected, map_bytes(serial.snapshot(now)));

  ShardedIngestService sharded(bed.world.city(), bed.database);
  for (const TripUpload& u : uploads) sharded.process_trip(u);
  sharded.advance_time(now);
  EXPECT_EQ(epoch_bytes(sharded), expected);
}

// ------------------------------------------------------ staleness boundary

// The cutoff in TrafficMap::add_fused is strict `>` on the age: an
// estimate exactly max_age_s old is included; one epsilon older is not.
// Pinned across the copying and the visiting build.
TEST(TrafficMapStaleness, BoundaryIsInclusiveAtExactlyMaxAge) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  const SegmentKey key = catalog.adjacent_keys().front();

  SpeedFusion fusion;
  SpeedEstimate e;
  e.segment = key;
  e.att_speed_kmh = 25.0;
  e.time = 300.0;
  fusion.add(e);
  fusion.flush_until(10000.0);
  const auto fused = fusion.query(key);
  ASSERT_TRUE(fused.has_value());
  const SimTime updated = fused->updated_at;

  const double max_age = 600.0;
  const SimTime at_boundary = updated + max_age;  // age == max_age exactly
  const SimTime past_boundary =
      std::nextafter(at_boundary, std::numeric_limits<double>::infinity());

  // Exactly max_age_s old: included, by both build paths.
  EXPECT_EQ(
      TrafficMap::snapshot(fusion, catalog, at_boundary, max_age).segments().size(),
      1u);
  EXPECT_EQ(TrafficMap::snapshot_visiting(fusion, catalog, at_boundary, max_age)
                .segments()
                .size(),
            1u);

  // One epsilon older: excluded, by both build paths.
  EXPECT_TRUE(TrafficMap::snapshot(fusion, catalog, past_boundary, max_age)
                  .segments()
                  .empty());
  EXPECT_TRUE(
      TrafficMap::snapshot_visiting(fusion, catalog, past_boundary, max_age)
          .segments()
          .empty());
}

TEST(TrafficMapStaleness, VisitingBuildBitIdenticalToCopyingBuild) {
  const PrimedServer primed;
  const SpeedFusion& fusion = primed.server.fusion();
  const SegmentCatalog& catalog = primed.server.catalog();
  expect_maps_identical_in_order(
      TrafficMap::snapshot_visiting(fusion, catalog, primed.now),
      TrafficMap::snapshot(fusion, catalog, primed.now));
}

// ----------------------------------------------------------- query families

TEST(QueryService, SegmentSpeedMatchesSnapshotForAllKeys) {
  const PrimedServer primed;
  EpochPublisher pub(primed.server.catalog());
  primed.server.publish_epoch(pub, primed.now);
  QueryService svc(pub);

  const TrafficMap serial = primed.server.snapshot(primed.now);
  std::size_t live = 0;
  for (const SegmentKey& key : primed.server.catalog().adjacent_keys()) {
    const SegmentSpeedResult r = svc.segment_speed(key);
    EXPECT_EQ(r.epoch_id, 1u);
    EXPECT_EQ(r.epoch_time, primed.now);
    const auto it = std::find_if(
        serial.segments().begin(), serial.segments().end(),
        [&](const MapSegment& s) { return s.key == key; });
    if (it == serial.segments().end()) {
      EXPECT_FALSE(r.live);
      continue;
    }
    ++live;
    ASSERT_TRUE(r.live);
    EXPECT_EQ(r.speed_kmh, it->speed_kmh);
    EXPECT_EQ(r.level, it->level);
    EXPECT_EQ(r.updated_at, it->updated_at);
    EXPECT_EQ(r.observation_count, it->observation_count);
  }
  EXPECT_EQ(live, serial.segments().size());
}

// publish_map takes any TrafficMap, so an epoch may hold a row whose key
// the publisher's catalog does not list (here a span over one skipped
// stop). Key lookups answer it from its map row, bit for bit; region and
// k-nearest queries, which know only catalogued midpoints, skip it.
TEST(EpochServing, OffCatalogRowAnsweredByKeyIgnoredBySpatialQueries) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  const auto& keys = catalog.adjacent_keys();
  std::optional<SegmentKey> span;
  for (std::size_t i = 0; i + 1 < keys.size() && !span; ++i) {
    if (keys[i].to == keys[i + 1].from && keys[i].from != keys[i + 1].to) {
      span = SegmentKey{keys[i].from, keys[i + 1].to};
    }
  }
  ASSERT_TRUE(span);
  ASSERT_EQ(catalog.adjacent(*span), nullptr);

  SpeedFusion fusion = tiny_fusion(catalog, 8, 30.0, 4000.0);
  SpeedEstimate e;
  e.segment = *span;
  e.att_speed_kmh = 17.25;
  e.time = 4100.0;
  fusion.add(e);
  fusion.flush_until(4100.0 + kHour);
  const TrafficMap map = TrafficMap::snapshot(fusion, catalog, 5000.0);
  ASSERT_EQ(map.segments().size(), 9u);
  const auto row = std::find_if(
      map.segments().begin(), map.segments().end(),
      [&](const MapSegment& s) { return s.key == *span; });
  ASSERT_NE(row, map.segments().end());

  EpochPublisher pub(catalog);
  pub.publish_map(map);
  QueryService svc(pub);
  const EpochPublisher::Pin p = pub.pin();
  ASSERT_TRUE(p);

  const MapSegment* seg = p->segment(*span);
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->speed_kmh, row->speed_kmh);
  EXPECT_EQ(seg->level, row->level);
  EXPECT_EQ(seg->updated_at, row->updated_at);
  EXPECT_EQ(seg->observation_count, row->observation_count);
  const std::optional<FusedSpeed> fused = p->fused(*span);
  ASSERT_TRUE(fused);
  EXPECT_EQ(fused->mean_kmh, row->speed_kmh);
  EXPECT_EQ(fused->variance, 0.0);
  EXPECT_EQ(fused->updated_at, row->updated_at);
  EXPECT_EQ(fused->observation_count, row->observation_count);
  const SegmentSpeedResult r = svc.segment_speed(*span);
  ASSERT_TRUE(r.live);
  EXPECT_EQ(r.speed_kmh, row->speed_kmh);
  EXPECT_EQ(r.level, row->level);
  EXPECT_EQ(r.updated_at, row->updated_at);
  EXPECT_EQ(r.observation_count, row->observation_count);

  // A key neither catalogued nor in the map finds nothing.
  const SegmentKey reversed{span->to, span->from};
  EXPECT_EQ(p->segment(reversed), nullptr);
  EXPECT_FALSE(p->fused(reversed));
  EXPECT_FALSE(svc.segment_speed(reversed).live);
  // The catalogued rows still answer from their own rows.
  for (const MapSegment& s : map.segments()) {
    const MapSegment* got = p->segment(s.key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->speed_kmh, s.speed_kmh);
  }

  const RegionAggregate all = p->region(pub.geometry().region());
  EXPECT_EQ(all.segments_live, 8);
  EXPECT_EQ(all.segments_total, static_cast<int>(pub.geometry().size()));
  const std::vector<NearestSegment> nearest =
      p->k_nearest(pub.geometry().region().min, keys.size());
  EXPECT_EQ(nearest.size(), 8u);
  for (const NearestSegment& n : nearest) EXPECT_FALSE(n.segment.key == *span);
}

TEST(QueryService, RouteEtaMatchesPredictorAgainstLiveFusion) {
  const PrimedServer primed;
  EpochPublisher pub(primed.server.catalog());
  primed.server.publish_epoch(pub, primed.now);
  QueryService svc(pub);

  const ArrivalPredictor predictor(primed.server.catalog());
  bool any_live = false;
  for (const char* name : {"79", "243"}) {
    for (int dir = 0; dir < 2; ++dir) {
      const BusRoute* route = testbed().world.city().route_by_name(name, dir);
      if (!route) continue;
      const SimTime depart = primed.now - 10 * kMinute;
      const RouteEtaResult served = svc.route_eta(*route, 0, depart);
      EXPECT_EQ(served.epoch_id, 1u);
      const auto expected = predictor.predict(*route, 0, depart,
                                              primed.server.fusion(),
                                              primed.now);
      ASSERT_EQ(served.arrivals.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(served.arrivals[i].eta, expected[i].eta);  // bit-identical
        EXPECT_EQ(served.arrivals[i].from_live_traffic,
                  expected[i].from_live_traffic);
        any_live |= expected[i].from_live_traffic;
      }
    }
  }
  EXPECT_TRUE(any_live);  // the primed map must actually influence an ETA
}

TEST(QueryService, RegionAggregatesMatchWholeMapStatistics) {
  const PrimedServer primed;
  EpochPublisher pub(primed.server.catalog());
  primed.server.publish_epoch(pub, primed.now);
  QueryService svc(pub);

  const TrafficMap serial = primed.server.snapshot(primed.now);
  const RegionAggregate whole = svc.region_aggregate(pub.geometry().region());
  EXPECT_EQ(whole.epoch_id, 1u);
  EXPECT_EQ(whole.epoch_time, primed.now);
  EXPECT_EQ(whole.segments_total,
            static_cast<int>(pub.geometry().size()));
  EXPECT_EQ(whole.segments_live,
            static_cast<int>(serial.segments().size()));
  // Same length-weighted mean as the map (different but fixed fold order —
  // compare to rounding).
  EXPECT_NEAR(whole.mean_speed_kmh, serial.mean_speed_kmh(),
              1e-9 * std::max(1.0, serial.mean_speed_kmh()));
  int hist_sum = 0;
  for (const int c : whole.level_histogram) hist_sum += c;
  EXPECT_EQ(hist_sum, whole.segments_live);
  for (const auto& [level, count] : serial.level_histogram()) {
    EXPECT_EQ(whole.level_histogram[static_cast<std::size_t>(level)], count);
  }
  EXPECT_GT(whole.coverage_ratio, 0.0);
  EXPECT_LE(whole.coverage_ratio, 1.0);

  // An empty box aggregates to zero.
  const RegionAggregate empty =
      svc.region_aggregate({{-500.0, -500.0}, {-400.0, -400.0}});
  EXPECT_EQ(empty.segments_total, 0);
  EXPECT_EQ(empty.segments_live, 0);
  EXPECT_EQ(empty.mean_speed_kmh, 0.0);

  // Determinism: repeating the query reproduces every field bit-for-bit.
  const RegionAggregate again = svc.region_aggregate(pub.geometry().region());
  EXPECT_EQ(again.mean_speed_kmh, whole.mean_speed_kmh);
  EXPECT_EQ(again.live_length_m, whole.live_length_m);
  EXPECT_EQ(again.total_length_m, whole.total_length_m);
  EXPECT_EQ(again.coverage_ratio, whole.coverage_ratio);

  // A half-city box sees a strict subset.
  BoundingBox half = pub.geometry().region();
  half.max.x = 0.5 * (half.min.x + half.max.x);
  const RegionAggregate left = svc.region_aggregate(half);
  EXPECT_LT(left.segments_total, whole.segments_total);
  EXPECT_LE(left.segments_live, whole.segments_live);
}

// ------------------------------------------------------- k-nearest queries

// Brute-force oracle: scan every catalogued segment, keep the live ones,
// sort by (distance, key) and take k — the ring walk must match this
// bit-for-bit, including the computed distances.
std::vector<NearestSegment> brute_force_k_nearest(const EpochPublisher& pub,
                                                  const EpochSnapshot& snap,
                                                  Point p, std::size_t k) {
  std::vector<NearestSegment> all;
  for (std::uint32_t o = 0; o < pub.geometry().size(); ++o) {
    const SegmentGeometry::Entry& e = pub.geometry().entry(o);
    const MapSegment* live = snap.segment(e.key);
    if (!live) continue;
    all.push_back({*live, e.midpoint, distance(p, e.midpoint)});
  }
  std::sort(all.begin(), all.end(),
            [](const NearestSegment& a, const NearestSegment& b) {
              if (a.distance_m != b.distance_m) {
                return a.distance_m < b.distance_m;
              }
              if (a.segment.key.from != b.segment.key.from) {
                return a.segment.key.from < b.segment.key.from;
              }
              return a.segment.key.to < b.segment.key.to;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void expect_nearest_identical(const std::vector<NearestSegment>& got,
                              const std::vector<NearestSegment>& want,
                              const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].segment.key, want[i].segment.key) << label << " row " << i;
    EXPECT_EQ(got[i].distance_m, want[i].distance_m) << label << " row " << i;
    EXPECT_EQ(got[i].midpoint.x, want[i].midpoint.x) << label << " row " << i;
    EXPECT_EQ(got[i].midpoint.y, want[i].midpoint.y) << label << " row " << i;
    EXPECT_EQ(got[i].segment.speed_kmh, want[i].segment.speed_kmh)
        << label << " row " << i;
    EXPECT_EQ(got[i].segment.updated_at, want[i].segment.updated_at)
        << label << " row " << i;
    EXPECT_EQ(got[i].segment.observation_count,
              want[i].segment.observation_count)
        << label << " row " << i;
  }
}

// The ring walk must agree with the brute-force oracle for random query
// points inside the city box, outside it (clamping only shrinks per-axis
// distances, so the pruning bound stays valid), and at several k including
// k larger than the live-segment count.
TEST(KNearestLiveSegments, BitIdenticalToBruteForceSweep) {
  const PrimedServer primed;
  EpochPublisher pub(primed.server.catalog());
  primed.server.publish_epoch(pub, primed.now);
  QueryService svc(pub);
  const EpochPublisher::Pin pin = pub.pin();
  ASSERT_TRUE(pin);
  ASSERT_GT(pin->live_segments(), 10u);

  const BoundingBox& box = pub.geometry().region();
  Rng rng(4242);
  std::vector<Point> points;
  for (int i = 0; i < 40; ++i) {  // interior
    points.push_back({rng.uniform(box.min.x, box.max.x),
                      rng.uniform(box.min.y, box.max.y)});
  }
  const double w = box.max.x - box.min.x, h = box.max.y - box.min.y;
  for (int i = 0; i < 20; ++i) {  // exterior, up to half a box-size away
    points.push_back({rng.uniform(box.min.x - 0.5 * w, box.max.x + 0.5 * w),
                      rng.uniform(box.min.y - 0.5 * h, box.max.y + 0.5 * h)});
  }
  points.push_back(box.min);  // corners and just-past-corner extremes
  points.push_back(box.max);
  points.push_back({box.min.x - 3.0 * w, box.max.y + 2.0 * h});

  for (const Point& p : points) {
    for (const std::size_t k :
         {std::size_t{1}, std::size_t{3}, std::size_t{17},
          pin->live_segments(), pin->live_segments() + 64}) {
      const auto want = brute_force_k_nearest(pub, *pin, p, k);
      const std::string label = "p=(" + std::to_string(p.x) + "," +
                                std::to_string(p.y) +
                                ") k=" + std::to_string(k);
      expect_nearest_identical(pin->k_nearest(p, k), want, label);

      const KNearestResult via_service = svc.k_nearest_live_segments(p, k);
      EXPECT_EQ(via_service.epoch_id, 1u) << label;
      EXPECT_EQ(via_service.epoch_time, primed.now) << label;
      expect_nearest_identical(via_service.nearest, want, label + " (svc)");
    }
  }

  // k = 0 and the pre-publish/no-epoch path are well-defined empties.
  EXPECT_TRUE(pin->k_nearest(points.front(), 0).empty());
  const auto counters = svc.metrics().snapshot().counters;
  EXPECT_GT(counters.at("queries.knearest"), 0u);
}

TEST(KNearestLiveSegments, BeforeFirstPublishIsEmpty) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisher pub(catalog);
  QueryService svc(pub);
  const KNearestResult r = svc.k_nearest_live_segments(0.0, 0.0, 5);
  EXPECT_EQ(r.epoch_id, 0u);
  EXPECT_TRUE(r.nearest.empty());
  EXPECT_EQ(svc.metrics().snapshot().counters.at("queries.no_epoch"), 1u);
}

// --------------------------------------------------------- pin/retire rules

TEST(EpochPublisher, PinnedEpochSurvivesLaterPublishes) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisher pub(catalog);
  const SpeedFusion fusion = tiny_fusion(catalog, 8, 30.0, 4000.0);

  pub.publish_from(fusion, 5000.0);
  EpochPublisher::Pin old = pub.pin();
  ASSERT_TRUE(old);
  EXPECT_EQ(old->id(), 1u);

  pub.publish_from(fusion, 6000.0);
  pub.publish_from(fusion, 7000.0);
  // The pinned epoch is retired but must not be reclaimed.
  EXPECT_EQ(pub.epochs_published(), 3u);
  EXPECT_EQ(pub.epochs_retired(), 1u);  // epoch 2 freed; epoch 1 pinned
  EXPECT_EQ(pub.epochs_live(), 2u);
  EXPECT_EQ(old->id(), 1u);
  EXPECT_EQ(old->time(), 5000.0);

  old = EpochPublisher::Pin();  // release
  pub.reclaim();
  EXPECT_EQ(pub.epochs_live(), 1u);
  EXPECT_EQ(pub.epochs_retired(), 2u);
  EXPECT_EQ(pub.pin()->id(), 3u);
}

TEST(EpochPublisher, PinsAreReentrantPerThread) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisher pub(catalog);
  const SpeedFusion fusion = tiny_fusion(catalog, 4, 30.0, 4000.0);
  pub.publish_from(fusion, 5000.0);

  EpochPublisher::Pin outer = pub.pin();
  pub.publish_from(fusion, 6000.0);
  EpochPublisher::Pin inner = pub.pin();  // nested: same epoch as outer
  EXPECT_EQ(inner.get(), outer.get());
  EXPECT_EQ(inner->id(), 1u);
  inner = EpochPublisher::Pin();  // inner release keeps the outer pin
  EXPECT_EQ(outer->id(), 1u);
  EXPECT_EQ(pub.pinned_readers(), 1u);
  outer = EpochPublisher::Pin();
  EXPECT_EQ(pub.pinned_readers(), 0u);
  // Fully released: the next pin observes the newest epoch.
  EXPECT_EQ(pub.pin()->id(), 2u);
}

// One thread's pins of two publishers, interleaved, nested and released
// out of order, keep each publisher's depth and registry its own; a
// publisher built where a destroyed one lived starts from fresh state.
TEST(EpochPublisher, PinStateStaysPerPublisherOnOneThread) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  const SpeedFusion fusion = tiny_fusion(catalog, 4, 30.0, 4000.0);
  EpochPublisherConfig one_slot;
  one_slot.max_readers = 1;
  const auto overflows = [](const EpochPublisher& pub) {
    return pub.metrics().snapshot().counters.at("epochs.overflow_readers");
  };
  std::optional<EpochPublisher> a;
  a.emplace(catalog, one_slot);
  EpochPublisher b(catalog);
  a->publish_from(fusion, 5000.0);  // a: epoch 1
  b.publish_from(fusion, 5000.0);
  b.publish_from(fusion, 6000.0);  // b: epoch 2
  // Another thread takes a's only slot, so this thread's a-pins overflow.
  std::thread([&] { EXPECT_TRUE(a->pin()); }).join();

  {
    EpochPublisher::Pin a1 = a->pin();
    EpochPublisher::Pin b1 = b.pin();
    a->publish_from(fusion, 7000.0);  // a: epoch 2
    b.publish_from(fusion, 7000.0);   // b: epoch 3
    EpochPublisher::Pin a2 = a->pin();  // nested in a1
    EpochPublisher::Pin b2 = b.pin();   // nested in b1
    EXPECT_EQ(a1->id(), 1u);
    EXPECT_EQ(a2.get(), a1.get());
    EXPECT_EQ(b1->id(), 2u);
    EXPECT_EQ(b2.get(), b1.get());
    EXPECT_EQ(a->pinned_readers(), 1u);
    EXPECT_EQ(b.pinned_readers(), 1u);
    EXPECT_EQ(overflows(*a), 1u);

    a1 = EpochPublisher::Pin();  // a2 still holds a's epoch 1
    b1 = EpochPublisher::Pin();  // b2 still holds b's epoch 2
    EXPECT_EQ(a->pinned_readers(), 1u);
    EXPECT_EQ(b.pinned_readers(), 1u);
    a->reclaim();
    EXPECT_EQ(a->epochs_live(), 2u);
    EpochPublisher::Pin b3 = b.pin();  // nested in b2
    EXPECT_EQ(b3->id(), 2u);
    a2 = EpochPublisher::Pin();
    EXPECT_EQ(a->pinned_readers(), 0u);
    EXPECT_EQ(b.pinned_readers(), 1u);
    b2 = EpochPublisher::Pin();
    EXPECT_EQ(b.pinned_readers(), 1u);
    b3 = EpochPublisher::Pin();
    EXPECT_EQ(b.pinned_readers(), 0u);
    EXPECT_EQ(b.pin()->id(), 3u);
    EXPECT_EQ(a->pin()->id(), 2u);  // a's state is the thread's last used
  }

  // Same storage, new publisher: its first pin takes its own only slot
  // (no overflow carried over), so the next thread is the one to overflow.
  a.reset();
  a.emplace(catalog, one_slot);
  a->publish_from(tiny_fusion(catalog, 6, 40.0, 8000.0), 9000.0);
  const EpochPublisher::Pin fresh = a->pin();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->id(), 1u);
  EXPECT_EQ(fresh->time(), 9000.0);
  EXPECT_EQ(fresh->live_segments(), 6u);
  EXPECT_EQ(a->pinned_readers(), 1u);
  EXPECT_EQ(overflows(*a), 0u);
  std::thread([&] {
    const EpochPublisher::Pin other = a->pin();
    EXPECT_TRUE(other && other.get() == fresh.get());
  }).join();
  EXPECT_EQ(overflows(*a), 1u);
}

TEST(EpochPublisher, OverflowReadersBeyondSlotCapacity) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisherConfig cfg;
  cfg.max_readers = 2;
  EpochPublisher pub(catalog, cfg);
  const SpeedFusion fusion = tiny_fusion(catalog, 8, 30.0, 4000.0);
  pub.publish_from(fusion, 5000.0);

  constexpr int kThreads = 6;
  std::atomic<int> pinned{0};
  std::atomic<bool> go{false};
  std::atomic<int> ok{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      const EpochPublisher::Pin p = pub.pin();
      if (p && p->id() == 1u && p->live_segments() == 8u) ok.fetch_add(1);
      pinned.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
    });
  }
  while (pinned.load() < kThreads) std::this_thread::yield();
  EXPECT_EQ(ok.load(), kThreads);  // every thread saw a valid epoch
  EXPECT_EQ(pub.pinned_readers(), static_cast<std::size_t>(kThreads));
  // A publish while all six hold pins must keep epoch 1 alive.
  pub.publish_from(fusion, 6000.0);
  EXPECT_EQ(pub.epochs_live(), 2u);
  go.store(true);
  for (std::thread& t : pool) t.join();
  pub.reclaim();
  EXPECT_EQ(pub.epochs_live(), 1u);
  EXPECT_EQ(pub.pinned_readers(), 0u);
  // Exactly max_readers slots exist; the other four threads overflowed.
  EXPECT_EQ(pub.metrics().snapshot().counters.at("epochs.overflow_readers"),
            static_cast<std::uint64_t>(kThreads) - cfg.max_readers);
}

// ------------------------------------------------- concurrency properties

// Property (a): no torn epoch. Eight readers continuously pin and validate
// internal invariants of whatever epoch they see, while one thread feeds
// trips to the sharded service (whose consumers fold into the fusion
// store) and advances time, and another publishes epochs from the live
// fusion. Run under TSan by the tier-1 serving stage.
TEST(EpochServingProperty, NoTornEpochUnderPublishAndIngest) {
  const Testbed& bed = testbed();
  ShardedIngestService server(bed.world.city(), bed.database);
  EpochPublisherConfig cfg;
  cfg.max_readers = 16;
  EpochPublisher pub(server.catalog(), cfg);
  QueryService svc(pub);

  std::vector<TripUpload> uploads;
  for (const AnnotatedTrip& trip : bed.trips) {
    if (!trip.upload.samples.empty()) uploads.push_back(trip.upload);
    if (uploads.size() >= 60) break;
  }
  ASSERT_GE(uploads.size(), 10u);

  constexpr int kReaders = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> validated{0};

  // Every epoch is stamped with one far horizon and admits estimates of
  // any age, so it shows whatever periods the ingest thread has closed.
  const SimTime horizon = at_clock(30, 0, 0);
  std::thread ingest([&] {
    std::size_t i = 0;
    SimTime now = at_clock(0, 8, 0);
    while (!stop.load(std::memory_order_relaxed)) {
      server.process_trip(uploads[i++ % uploads.size()]);
      if (i % 8 == 0) {
        now = std::min(now + kMinute, horizon);
        server.advance_time(now);  // the only producer: drains, then closes
      }
    }
  });

  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      server.publish_epoch(pub, horizon, horizon);
    }
  });

  std::vector<std::thread> readers;
  const BusRoute& route = *bed.world.city().route_by_name("79", 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t last_id = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const EpochPublisher::Pin p = pub.pin();
        if (!p) continue;
        // Epoch ids only move forward for any single reader.
        ASSERT_GE(p->id(), last_id);
        last_id = p->id();
        // Internal consistency: every derived field recomputes to itself.
        const TrafficMap& map = p->map();
        for (const MapSegment& seg : map.segments()) {
          ASSERT_EQ(seg.level, classify_speed(seg.speed_kmh));
          ASSERT_LE(seg.updated_at, p->time());
        }
        ASSERT_EQ(p->mean_speed_kmh(), map.mean_speed_kmh());
        int hist = 0;
        for (const auto& [level, count] : p->level_histogram()) {
          (void)level;
          hist += count;
        }
        ASSERT_EQ(hist, static_cast<int>(map.segments().size()));
        // Exercise the query families concurrently too.
        if (r % 2 == 0) {
          (void)svc.route_eta(route, 0, p->time());
        } else {
          (void)svc.region_aggregate(pub.geometry().region());
        }
        validated.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Run until every actor has demonstrably overlapped: plenty of epochs
  // published, plenty of reader validations — capped by a generous
  // deadline so sanitizer builds still terminate.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((validated.load(std::memory_order_relaxed) < 2000 ||
          pub.epochs_published() < 100) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  ingest.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GE(pub.epochs_published(), 100u);
  EXPECT_GE(validated.load(), 2000u);
  pub.reclaim();
  EXPECT_EQ(pub.epochs_live(), 1u);
}

// Property (b): retired epochs are reclaimed. 10k epochs churn over a tiny
// fusion while readers pin; at the end exactly one epoch remains. Run
// under ASan leak checking by the tier-1 serving stage.
TEST(EpochServingProperty, TenThousandEpochChurnReclaimsEverything) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisher pub(catalog);
  const SpeedFusion fusion = tiny_fusion(catalog, 6, 35.0, 1000.0);

  constexpr int kEpochs = 10000;
  // Publish times creep forward by 10 ms per epoch so every epoch stays
  // far inside the 3600 s staleness window.
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const EpochPublisher::Pin p = pub.pin();
        if (p) {
          ASSERT_EQ(p->live_segments(), 6u);
          ASSERT_EQ(p->map().segments()[0].speed_kmh,
                    p->map().segments()[1].speed_kmh);
        }
      }
    });
  }

  for (int i = 0; i < kEpochs; ++i) {
    pub.publish_from(fusion, 2000.0 + 0.01 * i);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  pub.reclaim();
  EXPECT_EQ(pub.epochs_published(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(pub.epochs_live(), 1u);
  EXPECT_EQ(pub.epochs_retired(), static_cast<std::uint64_t>(kEpochs) - 1);
  EXPECT_EQ(pub.pinned_readers(), 0u);
  // The surviving epoch is the newest.
  EXPECT_EQ(pub.pin()->id(), static_cast<std::uint64_t>(kEpochs));
}

// ------------------------------------------------------- background ticker

TEST(EpochPublisher, BackgroundTickerPublishesPeriodically) {
  const PrimedServer primed;
  EpochPublisher pub(primed.server.catalog());
  std::atomic<int> ticks{0};
  SimTime now = primed.now;
  pub.start(
      [&](EpochPublisher& p) {
        now += kMinute;
        primed.server.publish_epoch(p, now);
        ticks.fetch_add(1);
      },
      0.005);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ticks.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pub.stop();
  const int final_ticks = ticks.load();
  EXPECT_GE(final_ticks, 3);
  EXPECT_EQ(pub.epochs_published(), static_cast<std::uint64_t>(final_ticks));
  // stop() is a barrier: no further publishes afterwards.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ticks.load(), final_ticks);
  EXPECT_EQ(pub.pin()->id(), static_cast<std::uint64_t>(final_ticks));
}

// ------------------------------------------------------------ observability

TEST(EpochPublisherMetrics, InstrumentsTrackLifecycle) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisher pub(catalog);
  const SpeedFusion fusion = tiny_fusion(catalog, 4, 30.0, 1000.0);
  for (int i = 0; i < 5; ++i) pub.publish_from(fusion, 5000.0 + i);

  const MetricsSnapshot snap = pub.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("epochs.published"), 5u);
  EXPECT_EQ(snap.counters.at("epochs.retired"), 4u);
  EXPECT_EQ(snap.gauges.at("epochs.live"), 1.0);
  EXPECT_EQ(snap.gauges.at("epochs.pinned"), 0.0);
  EXPECT_EQ(snap.histograms.at("publish.build_s").total, 5u);

  // The pinned gauge samples the registry at reclaim time.
  const EpochPublisher::Pin p = pub.pin();
  pub.reclaim();
  EXPECT_EQ(pub.metrics().snapshot().gauges.at("epochs.pinned"), 1.0);
}

TEST(QueryServiceMetrics, LatencyHistogramPerFamily) {
  const PrimedServer primed;
  EpochPublisher pub(primed.server.catalog());
  primed.server.publish_epoch(pub, primed.now);
  QueryService svc(pub);

  const SegmentKey key = primed.server.catalog().adjacent_keys().front();
  const BusRoute& route = *testbed().world.city().route_by_name("79", 0);
  for (int i = 0; i < 7; ++i) (void)svc.segment_speed(key);
  for (int i = 0; i < 3; ++i) (void)svc.route_eta(route, 0, primed.now);
  for (int i = 0; i < 2; ++i) {
    (void)svc.region_aggregate(pub.geometry().region());
  }

  const MetricsSnapshot snap = svc.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("queries.segment"), 7u);
  EXPECT_EQ(snap.counters.at("queries.eta"), 3u);
  EXPECT_EQ(snap.counters.at("queries.region"), 2u);
  EXPECT_EQ(snap.counters.at("queries.no_epoch"), 0u);
  // Latency is sampled: a fresh histogram times this thread's first query
  // and then one in BucketHistogram::kSampleEvery, so ⌈n / 64⌉ each.
  EXPECT_EQ(snap.histograms.at("query.latency.segment").total, 1u);
  EXPECT_EQ(snap.histograms.at("query.latency.eta").total, 1u);
  EXPECT_EQ(snap.histograms.at("query.latency.region").total, 1u);
}

TEST(QueryServiceMetrics, DisabledObservabilityRecordsNothing) {
  const Testbed& bed = testbed();
  const SegmentCatalog catalog(bed.world.city());
  EpochPublisherConfig pcfg;
  pcfg.obs.enabled = false;
  EpochPublisher pub(catalog, pcfg);
  const SpeedFusion fusion = tiny_fusion(catalog, 4, 30.0, 1000.0);
  pub.publish_from(fusion, 5000.0);

  QueryServiceConfig qcfg;
  qcfg.obs.enabled = false;
  QueryService svc(pub, qcfg);
  (void)svc.segment_speed(catalog.adjacent_keys().front());

  EXPECT_TRUE(pub.metrics().snapshot().counters.empty());
  EXPECT_TRUE(svc.metrics().snapshot().counters.empty());
  EXPECT_TRUE(svc.metrics().snapshot().histograms.empty());
  // Counters still work without instruments.
  EXPECT_EQ(pub.epochs_published(), 1u);
}

// Satellite: Gauge semantics under registry merge and JSON export —
// last-writer-wins, matching the instantaneous-value meaning.
TEST(GaugeMergeSemantics, MergeTakesOtherValueAndExportsDeterministically) {
  MetricsRegistry a, b;
  a.gauge("epochs.pinned").set(2.0);
  a.counter("epochs.published").add(10);
  b.gauge("epochs.pinned").set(5.0);
  b.counter("epochs.published").add(3);

  a.merge(b);
  const MetricsSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.gauges.at("epochs.pinned"), 5.0);  // last writer wins
  EXPECT_EQ(snap.counters.at("epochs.published"), 13u);  // counters sum

  // Merging a registry that lacks the gauge leaves the value untouched.
  MetricsRegistry c;
  c.counter("unrelated").inc();
  a.merge(c);
  EXPECT_EQ(a.snapshot().gauges.at("epochs.pinned"), 5.0);

  // A gauge present in `other` overwrites even with the default 0.0 —
  // last-writer-wins has no "keep the larger" special case.
  MetricsRegistry d;
  d.gauge("epochs.pinned").set(0.0);
  a.merge(d);
  EXPECT_EQ(a.snapshot().gauges.at("epochs.pinned"), 0.0);

  // JSON export is deterministic: equal contents, equal bytes.
  MetricsRegistry x, y;
  x.gauge("g.two").set(2.5);
  x.gauge("g.one").set(-1.0);
  x.counter("c").add(7);
  y.counter("c").add(7);
  y.gauge("g.one").set(-1.0);  // registered in a different order
  y.gauge("g.two").set(2.5);
  EXPECT_EQ(x.to_json(), y.to_json());
  EXPECT_NE(x.to_json().find("\"g.one\""), std::string::npos);
}

}  // namespace
}  // namespace bussense
