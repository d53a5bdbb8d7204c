// Fault-injection layer and admission control.
//
// Properties pinned here:
//   * every FaultPlan injector is bit-reproducible from (seed, trip_index)
//     and independent of the rest of the batch;
//   * a zeroed plan is the identity;
//   * on a clean workload the pipeline is bit-identical with admission
//     checks on or off, and across the serial TrafficServer and the
//     sharded service (which runs admission partition-locally — dedup and
//     skew state live inside the participant's shard);
//   * the admission stage rejects replays/malformed/disordered uploads
//     with typed reasons instead of throwing, re-anchors skewed clocks,
//     and accounts for every verdict in ingest.* counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ingest_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "faults/fault_injection.h"
#include "sensing/trip_signature.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

struct Testbed {
  World world;
  StopDatabase database;
  std::vector<TripUpload> uploads;

  Testbed() {
    Rng survey_rng(2024);
    database = build_stop_database(
        world.city(),
        [&](StopId stop, int run) {
          return world.scan_stop(stop, survey_rng, run % 2 == 1);
        },
        5);
    Rng rng(77);
    for (AnnotatedTrip& trip : world.simulate_day(0, 1.2, rng).trips) {
      // Admission (rightly) rejects sample-less uploads; keep the workload
      // to trips the clean pipeline accepts so identity tests are exact.
      if (!trip.upload.samples.empty()) {
        uploads.push_back(std::move(trip.upload));
      }
    }
  }
};

const Testbed& testbed() {
  static const Testbed bed;
  return bed;
}

ServerConfig admission_on() {
  ServerConfig config;
  config.admission.enabled = true;
  return config;
}

AnnotatedTrip single_trip(std::uint64_t seed, SimTime depart = 0.0) {
  const Testbed& bed = testbed();
  Rng rng(seed);
  const BusRoute& route = *bed.world.city().route_by_name("243", 0);
  return bed.world.simulate_single_trip(
      route, 2, 14, depart > 0.0 ? depart : at_clock(0, 9, 0), rng);
}

// ------------------------------------------------------------- plan basics

TEST(FaultPlan, ValidatesKnobs) {
  FaultPlan bad;
  bad.duplicate_prob = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = FaultPlan{};
  bad.truncate_min_keep = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = FaultPlan{};
  bad.jitter_sigma_s = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = FaultPlan{};
  bad.clock_skew_max_s = -10.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(FaultPlan{}.validate());
  EXPECT_NO_THROW(FaultPlan::standard(1, 0.25).validate());
  EXPECT_THROW(FaultPlan::standard(1, -0.1), std::invalid_argument);
}

TEST(FaultPlan, ZeroPlanIsIdentity) {
  const Testbed& bed = testbed();
  const FaultPlan plan;  // default: nothing enabled
  ASSERT_TRUE(plan.is_identity());
  FaultStats stats;
  const auto out = inject_faults(bed.uploads, plan, &stats);
  EXPECT_EQ(out, bed.uploads);
  EXPECT_EQ(stats.trips_in, bed.uploads.size());
  EXPECT_EQ(stats.trips_out, bed.uploads.size());
  EXPECT_EQ(stats.corrupted_trips, 0u);
  EXPECT_EQ(stats.duplicated + stats.skewed + stats.jittered +
                stats.truncated + stats.shuffled + stats.cells_dropped +
                stats.cells_injected + stats.batch_reordered,
            0u);
}

TEST(FaultPlan, BitReproducibleFromSeed) {
  const Testbed& bed = testbed();
  const FaultPlan plan = FaultPlan::standard(12345, 0.35);
  FaultStats s1, s2;
  const auto a = inject_faults(bed.uploads, plan, &s1);
  const auto b = inject_faults(bed.uploads, plan, &s2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(s1.corrupted_trips, s2.corrupted_trips);
  EXPECT_EQ(s1.cells_dropped, s2.cells_dropped);
  EXPECT_EQ(s1.cells_injected, s2.cells_injected);
  EXPECT_GT(s1.corrupted_trips, 0u);
  EXPECT_GT(s1.trips_out, s1.trips_in);  // some replays at 35%
}

TEST(FaultPlan, DifferentSeedsProduceDifferentCorruption) {
  const Testbed& bed = testbed();
  const auto a = inject_faults(bed.uploads, FaultPlan::standard(1, 0.5));
  const auto b = inject_faults(bed.uploads, FaultPlan::standard(2, 0.5));
  EXPECT_NE(a, b);
}

TEST(FaultPlan, PerTripCorruptionIndependentOfBatch) {
  const Testbed& bed = testbed();
  FaultPlan plan = FaultPlan::standard(777, 0.4);
  plan.reorder_batch = false;  // the one (documented) batch-level injector
  const auto batch = inject_faults(bed.uploads, plan);
  ASSERT_GE(batch.size(), bed.uploads.size());
  for (std::size_t i = 0; i < bed.uploads.size(); ++i) {
    // Corrupting trip i alone, at its batch stream index, must reproduce
    // exactly what the full-batch pass did to it.
    const auto solo =
        inject_faults({bed.uploads[i]}, plan, nullptr, /*first_index=*/i);
    ASSERT_FALSE(solo.empty());
    EXPECT_EQ(batch[i], solo[0]) << "trip " << i;
  }
}

TEST(FaultPlan, ClockSkewIsConstantPerParticipant) {
  const Testbed& bed = testbed();
  FaultPlan plan;
  plan.seed = 9;
  plan.clock_skew_prob = 1.0;
  plan.clock_skew_max_s = 1800.0;
  const auto out = inject_faults(bed.uploads, plan);
  ASSERT_EQ(out.size(), bed.uploads.size());
  std::map<std::int32_t, double> offset_of;
  std::size_t shifted = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const TripUpload& before = bed.uploads[i];
    const TripUpload& after = out[i];
    ASSERT_EQ(after.samples.size(), before.samples.size());
    if (before.samples.empty()) continue;
    const double offset = after.samples[0].time - before.samples[0].time;
    EXPECT_LE(std::abs(offset), 1800.0);
    if (offset != 0.0) ++shifted;
    // Same constant within the trip... (NEAR: fl(t + offset) − t rounds in
    // the last ulps depending on t's magnitude, the offset itself is exact)
    for (std::size_t k = 0; k < before.samples.size(); ++k) {
      EXPECT_NEAR(after.samples[k].time - before.samples[k].time, offset,
                  1e-6);
    }
    // ...and the same constant for every trip of the participant.
    const auto [it, inserted] =
        offset_of.emplace(before.participant_id, offset);
    if (!inserted) {
      EXPECT_NEAR(it->second, offset, 1e-6);
    }
  }
  EXPECT_GT(shifted, out.size() / 2);  // prob 1: everyone's clock is off
}

TEST(FaultPlan, StatsAccountingAndMetricsExport) {
  const Testbed& bed = testbed();
  FaultStats stats;
  const auto out =
      inject_faults(bed.uploads, FaultPlan::standard(31, 0.3), &stats);
  EXPECT_EQ(stats.trips_in, bed.uploads.size());
  EXPECT_EQ(stats.trips_out, out.size());
  EXPECT_EQ(stats.trips_out, stats.trips_in + stats.duplicated);
  EXPECT_LE(stats.corrupted_trips, stats.trips_in);
  EXPECT_GT(stats.corrupted_trips, 0u);
  EXPECT_EQ(stats.batch_reordered, 1u);

  MetricsRegistry registry;
  stats.register_into(registry);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("faults.injected.duplicate"), stats.duplicated);
  EXPECT_EQ(snap.counters.at("faults.injected.clock_skew"), stats.skewed);
  EXPECT_EQ(snap.counters.at("faults.injected.truncate"), stats.truncated);
  EXPECT_EQ(snap.counters.at("faults.injected.shuffle"), stats.shuffled);
  EXPECT_EQ(snap.counters.at("faults.injected.cells_dropped"),
            stats.cells_dropped);
  EXPECT_EQ(snap.counters.at("faults.injected.cells_injected"),
            stats.cells_injected);
  EXPECT_EQ(snap.counters.at("faults.injected.corrupted_trips"),
            stats.corrupted_trips);
}

// --------------------------------------------------------------- admission

TEST(Admission, RejectsReplayedUploads) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database, admission_on());
  const TripUpload& upload = bed.uploads.front();
  EXPECT_EQ(server.process_trip(upload).outcome, IngestOutcome::kProcessed);
  const TripReport replay = server.process_trip(upload);
  EXPECT_EQ(replay.outcome, IngestOutcome::kRejected);
  EXPECT_EQ(replay.reject_reason, RejectReason::kDuplicate);
  EXPECT_EQ(server.trips_processed(), 1u);
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("ingest.admitted"), 1u);
  EXPECT_EQ(snap.counters.at("ingest.rejected.duplicate"), 1u);
}

TEST(Admission, DedupWindowIsBoundedLru) {
  const Testbed& bed = testbed();
  ASSERT_GE(bed.uploads.size(), 3u);
  ServerConfig config = admission_on();
  config.admission.dedup_capacity = 2;
  TrafficServer server(bed.world.city(), bed.database, config);
  server.process_trip(bed.uploads[0]);
  server.process_trip(bed.uploads[1]);
  server.process_trip(bed.uploads[2]);  // evicts uploads[0]'s signature
  // Outside the window the replay is no longer recognised — the LRU trades
  // a bounded replay horizon for bounded memory.
  EXPECT_EQ(server.process_trip(bed.uploads[0]).outcome,
            IngestOutcome::kProcessed);
  // Inside the window it still is.
  EXPECT_EQ(server.process_trip(bed.uploads[2]).reject_reason,
            RejectReason::kDuplicate);
}

TEST(Admission, RejectsMalformedUploads) {
  const Testbed& bed = testbed();
  ServerConfig config = admission_on();
  config.admission.max_samples = 32;
  TrafficServer server(bed.world.city(), bed.database, config);

  // Empty upload: no usable signal.
  EXPECT_EQ(server.process_trip(TripUpload{}).reject_reason,
            RejectReason::kMalformed);

  // Sample-count bound (memory-exhaustion vector).
  TripUpload oversized;
  for (int i = 0; i < 33; ++i) {
    oversized.samples.push_back(
        CellularSample{static_cast<double>(i), Fingerprint{{1, 2}}});
  }
  EXPECT_EQ(server.process_trip(oversized).reject_reason,
            RejectReason::kMalformed);

  // Fingerprint far beyond what a scan can see.
  TripUpload fat;
  fat.samples.push_back(CellularSample{0.0, {}});
  fat.samples[0].fingerprint.cells.assign(65, 7);
  EXPECT_EQ(server.process_trip(fat).reject_reason, RejectReason::kMalformed);

  // Non-finite timestamps.
  TripUpload nan_time;
  nan_time.samples.push_back(CellularSample{
      std::numeric_limits<double>::quiet_NaN(), Fingerprint{{1}}});
  EXPECT_EQ(server.process_trip(nan_time).reject_reason,
            RejectReason::kMalformed);

  // Implausible duration.
  TripUpload era;
  era.samples.push_back(CellularSample{0.0, Fingerprint{{1}}});
  era.samples.push_back(CellularSample{7.0 * 3600.0, Fingerprint{{1}}});
  EXPECT_EQ(server.process_trip(era).reject_reason, RejectReason::kMalformed);

  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("ingest.rejected.malformed"), 5u);
  EXPECT_EQ(server.trips_processed(), 0u);
}

TEST(Admission, RejectsDisorderBeyondToleranceOnly) {
  const Testbed& bed = testbed();
  TrafficServer server(bed.world.city(), bed.database, admission_on());

  TripUpload wild;
  wild.samples.push_back(CellularSample{1000.0, Fingerprint{{1}}});
  wild.samples.push_back(CellularSample{100.0, Fingerprint{{1}}});
  EXPECT_EQ(server.process_trip(wild).reject_reason,
            RejectReason::kNonMonotone);

  // A small inversion is lossy-link reordering — tolerated (the matcher
  // sorts), not rejected.
  TripUpload mild = single_trip(21).upload;
  ASSERT_GE(mild.samples.size(), 2u);
  std::swap(mild.samples[0].time, mild.samples[1].time);
  EXPECT_EQ(server.process_trip(mild).outcome, IngestOutcome::kProcessed);
}

TEST(Admission, ReanchorsSkewedParticipantClocks) {
  const Testbed& bed = testbed();
  TrafficServer reference(bed.world.city(), bed.database);
  TrafficServer server(bed.world.city(), bed.database, admission_on());

  AnnotatedTrip trip = single_trip(33);
  trip.upload.participant_id = 7001;
  const TripReport clean = reference.process_trip(trip.upload);
  ASSERT_GT(clean.estimates.size(), 3u);
  const SimTime end = trip.upload.samples.back().time;

  // The fusion watermark is what skew is judged against.
  server.advance_time(end + 60.0);

  // Same trip, phone clock 2 h fast. Without correction every estimate
  // lands 2 h in the future; with it, BTTs (time deltas) are untouched and
  // the timeline returns to the plausible window around the watermark.
  TripUpload skewed = trip.upload;
  for (CellularSample& s : skewed.samples) s.time += 7200.0;
  const TripReport report = server.process_trip(skewed);
  EXPECT_EQ(report.outcome, IngestOutcome::kProcessed);
  ASSERT_EQ(report.estimates.size(), clean.estimates.size());
  for (std::size_t i = 0; i < clean.estimates.size(); ++i) {
    // The correction is a constant shift, so BTT deltas — and the speeds
    // derived from them — survive (up to shift-arithmetic rounding).
    EXPECT_NEAR(report.estimates[i].att_speed_kmh,
                clean.estimates[i].att_speed_kmh, 1e-6);
    EXPECT_EQ(report.estimates[i].segment, clean.estimates[i].segment);
    // Re-anchored to end at the watermark, not 2 h out.
    EXPECT_LT(report.estimates[i].time, end + 120.0);
  }

  // The offset is remembered per participant: a second trip from the same
  // phone is corrected by the same amount without fresh evidence.
  AnnotatedTrip second = single_trip(34, at_clock(0, 9, 30));
  second.upload.participant_id = 7001;
  TripUpload second_skewed = second.upload;
  for (CellularSample& s : second_skewed.samples) s.time += 7200.0;
  const TripReport second_report = server.process_trip(second_skewed);
  EXPECT_EQ(second_report.outcome, IngestOutcome::kProcessed);
  const MetricsSnapshot snap = server.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("ingest.skew_corrected"), 2u);

  TrafficServer second_reference(bed.world.city(), bed.database);
  const TripReport second_clean = second_reference.process_trip(second.upload);
  ASSERT_EQ(second_report.estimates.size(), second_clean.estimates.size());
  for (std::size_t i = 0; i < second_clean.estimates.size(); ++i) {
    EXPECT_NEAR(second_report.estimates[i].att_speed_kmh,
                second_clean.estimates[i].att_speed_kmh, 1e-6);
  }
}

// ------------------------------------------------- clean-workload identity

template <typename FusionLike>
void expect_fused_equal(
    const std::vector<std::pair<SegmentKey, FusedSpeed>>& expected,
    const FusionLike& fusion, const std::string& label) {
  ASSERT_EQ(fusion.all().size(), expected.size()) << label;
  for (const auto& [key, fused] : expected) {
    const auto got = fusion.query(key);
    ASSERT_TRUE(got.has_value()) << label;
    EXPECT_EQ(got->mean_kmh, fused.mean_kmh) << label;
    EXPECT_EQ(got->variance, fused.variance) << label;
    EXPECT_EQ(got->updated_at, fused.updated_at) << label;
    EXPECT_EQ(got->observation_count, fused.observation_count) << label;
  }
}

// The acceptance property: admission on + zero FaultPlan must be
// bit-identical to the trusting pipeline, on every front end.
TEST(AdmissionIdentity, CleanWorkloadBitIdenticalAcrossFrontEnds) {
  const Testbed& bed = testbed();
  const SimTime end = at_clock(1, 0, 0);
  const auto clean = inject_faults(bed.uploads, FaultPlan{});  // identity

  TrafficServer baseline(bed.world.city(), bed.database);  // admission off
  for (const TripUpload& upload : clean) baseline.process_trip(upload);
  baseline.advance_time(end);
  const auto expected = baseline.fusion().all();
  ASSERT_FALSE(expected.empty());

  // Serial server, admission on.
  TrafficServer serial(bed.world.city(), bed.database, admission_on());
  for (const TripUpload& upload : clean) {
    ASSERT_TRUE(serial.process_trip(upload).accepted());
  }
  serial.advance_time(end);
  expect_fused_equal(expected, serial.fusion(), "serial");
  EXPECT_EQ(serial.metrics().snapshot().counters.at("ingest.admitted"),
            clean.size());

  // Sharded ingest service, admission on — but partition-local: each
  // shard's dedup LRU and skew table only ever sees its own participants.
  // 4 shards, 3 producer threads.
  ShardedIngestService sharded(bed.world.city(), bed.database, admission_on());
  std::vector<std::thread> feeders;
  for (int t = 0; t < 3; ++t) {
    feeders.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < clean.size();
           i += 3) {
        ASSERT_TRUE(sharded.process_trip(clean[i]).accepted());
      }
    });
  }
  for (std::thread& th : feeders) th.join();
  sharded.advance_time(end);
  expect_fused_equal(expected, sharded.backend().fusion(), "sharded");
  EXPECT_EQ(sharded.trips_processed(), clean.size());
  // Admission verdicts land in the shard registries; the deterministic
  // merge accounts for every upload exactly once across shards.
  EXPECT_EQ(sharded.shard_metrics().counters.at("ingest.admitted"),
            clean.size());
}

// Replays are byte-identical, so whichever copy wins admission yields the
// same analysis: under a duplicate-only plan the fused map must still be
// bit-identical to the clean baseline at any worker interleaving.
TEST(AdmissionIdentity, DuplicateOnlyPlanFusesToCleanBaseline) {
  const Testbed& bed = testbed();
  const SimTime end = at_clock(1, 0, 0);
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate_prob = 0.5;
  FaultStats stats;
  const auto corrupted = inject_faults(bed.uploads, plan, &stats);
  ASSERT_GT(stats.duplicated, 0u);

  TrafficServer baseline(bed.world.city(), bed.database);
  for (const TripUpload& upload : bed.uploads) baseline.process_trip(upload);
  baseline.advance_time(end);

  ShardedIngestService hardened(bed.world.city(), bed.database,
                               admission_on());
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < corrupted.size();
           i += 4) {
        hardened.process_trip(corrupted[i]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  hardened.advance_time(end);
  expect_fused_equal(baseline.fusion().all(), hardened.backend().fusion(),
                     "dedup vs clean");

  // Replays carry their original's participant id, so dedup — which is
  // partition-local — sees every copy in the same shard.
  const MetricsSnapshot snap = hardened.shard_metrics();
  EXPECT_EQ(snap.counters.at("ingest.rejected.duplicate"), stats.duplicated);
  EXPECT_EQ(snap.counters.at("ingest.admitted"), bed.uploads.size());
}

// Every submitted upload is accounted for: admitted + Σ rejected == sent.
// The sharded service admits inside the shard, after process_trip() has
// answered kQueued, so the verdicts are read from the shard registries.
TEST(AdmissionAccounting, VerdictCountsCoverEverySubmission) {
  const Testbed& bed = testbed();
  const auto corrupted =
      inject_faults(bed.uploads, FaultPlan::standard(404, 0.2));

  ShardedIngestService server(bed.world.city(), bed.database, admission_on());
  std::uint64_t accepted_reports = 0, rejected_reports = 0;
  std::mutex count_mutex;
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t acc = 0, rej = 0;
      for (std::size_t i = static_cast<std::size_t>(t); i < corrupted.size();
           i += 4) {
        if (server.process_trip(corrupted[i]).accepted()) {
          ++acc;
        } else {
          ++rej;
        }
      }
      const std::lock_guard<std::mutex> lock(count_mutex);
      accepted_reports += acc;
      rejected_reports += rej;
    });
  }
  for (std::thread& th : pool) th.join();
  server.advance_time(at_clock(1, 0, 0));

  // Every upload was queued; admission judged each one in its shard.
  EXPECT_EQ(accepted_reports, corrupted.size());
  EXPECT_EQ(rejected_reports, 0u);
  const MetricsSnapshot snap = server.shard_metrics();
  const std::uint64_t admitted = snap.counters.at("ingest.admitted");
  const std::uint64_t rejected =
      snap.counters.at("ingest.rejected.duplicate") +
      snap.counters.at("ingest.rejected.malformed") +
      snap.counters.at("ingest.rejected.non_monotone");
  EXPECT_EQ(snap.counters.at("ingest.shard.processed"), admitted);
  EXPECT_EQ(admitted + rejected, corrupted.size());
  EXPECT_GT(rejected, 0u);  // 20% corruption must trip some check
  EXPECT_EQ(server.trips_processed(), admitted);
}

// --------------------------------------------------------- trip signatures

TEST(TripSignature, DistinguishesContentAndOrder) {
  const Testbed& bed = testbed();
  const TripUpload& a = bed.uploads[0];
  const TripUpload& b = bed.uploads[1];
  EXPECT_EQ(trip_signature(a), trip_signature(a));
  EXPECT_NE(trip_signature(a), trip_signature(b));

  TripUpload other_participant = a;
  other_participant.participant_id += 1;
  EXPECT_NE(trip_signature(a), trip_signature(other_participant));

  TripUpload perturbed = a;
  ASSERT_FALSE(perturbed.samples.empty());
  perturbed.samples[0].time += 1e-9;
  EXPECT_NE(trip_signature(a), trip_signature(perturbed));

  // Cell-boundary shifts must not alias ({1,2},{3} vs {1},{2,3}).
  TripUpload x, y;
  x.samples = {CellularSample{0.0, Fingerprint{{1, 2}}},
               CellularSample{0.0, Fingerprint{{3}}}};
  y.samples = {CellularSample{0.0, Fingerprint{{1}}},
               CellularSample{0.0, Fingerprint{{2, 3}}}};
  EXPECT_NE(trip_signature(x), trip_signature(y));
}

// Admission is off by default, in TrafficServer and ShardedIngestService
// alike, so the match stage is the last guard between an upload's sample
// times and the fusion's integer period index.
TEST(SampleTimeBounds, OutOfRangeTimesNeverReachTheFusion) {
  const Testbed& bed = testbed();
  const AnnotatedTrip clean = single_trip(2);
  const std::size_t mid = clean.upload.samples.size() / 2;
  for (const double bad :
       {1e300, -1e300, std::numeric_limits<double>::infinity()}) {
    TripUpload upload = clean.upload;
    upload.samples[mid].time = bad;

    TrafficServer server(bed.world.city(), bed.database);
    const TripReport reference = server.analyze_trip(clean.upload);
    const bool mid_matched =
        std::any_of(reference.matched.begin(), reference.matched.end(),
                    [&](const MatchedSample& m) { return m.index == mid; });
    ASSERT_TRUE(mid_matched);
    const TripReport report = server.process_trip(upload);
    EXPECT_EQ(report.matched.size(), reference.matched.size() - 1);
    EXPECT_EQ(report.rejected_samples, reference.rejected_samples + 1);
    EXPECT_EQ(server.metrics().snapshot().counters.at(
                  "pipeline.samples_rejected"),
              reference.rejected_samples * 2 + 1);
    ASSERT_FALSE(report.estimates.empty());
    for (const SpeedEstimate& e : report.estimates) {
      EXPECT_TRUE(in_sim_range(e.time)) << e.time;
    }

    ShardedIngestService service(bed.world.city(), bed.database);
    EXPECT_TRUE(service.process_trip(upload).accepted());
    const SimTime end_of_day = at_clock(1, 0, 0);
    server.advance_time(end_of_day);
    service.advance_time(end_of_day);
    const TrafficServer* backends[] = {&server, &service.backend()};
    for (const TrafficServer* backend : backends) {
      const auto fused = backend->export_fusion();
      ASSERT_FALSE(fused.empty());
      for (const FusionExportEntry& entry : fused) {
        ASSERT_TRUE(entry.fused.has_value());
        EXPECT_GE(entry.fused->updated_at, 0.0);
        EXPECT_LE(entry.fused->updated_at, end_of_day);
        EXPECT_TRUE(entry.pending.empty());
      }
    }
  }
}

TEST(AdmissionConfigValidation, ThrowsOnNonsense) {
  const Testbed& bed = testbed();
  ServerConfig bad = admission_on();
  bad.admission.max_samples = 0;
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database, bad),
               std::invalid_argument);
  bad = admission_on();
  bad.admission.min_samples = 10;
  bad.admission.max_samples = 5;
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database, bad),
               std::invalid_argument);
  bad = admission_on();
  bad.admission.max_trip_duration_s = 0.0;
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database, bad),
               std::invalid_argument);
  bad = admission_on();
  bad.admission.max_clock_skew_s = -1.0;
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database, bad),
               std::invalid_argument);
  // An empty upload would be admitted and, once a watermark exists, store
  // a -inf skew offset that turns its participant's next trip into NaNs.
  bad = admission_on();
  bad.admission.min_samples = 0;
  EXPECT_THROW(TrafficServer(bed.world.city(), bed.database, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace bussense
