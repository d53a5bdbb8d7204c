// Allocation budget of the trip path and of the hand-off to the shards.
//
// A shard consumer analyses every trip through
// TrafficServer::process_admitted over one reused TripScratch. The stage
// types are index views and the scratch keeps its buffers' capacity, so
// once warm a trip allocates only where a stage outgrows what earlier trips
// needed. The sharded front end copies each upload into a recycled inbox
// slot, so once warm the hand-off allocates nothing either. This binary
// replaces the global operator new with a counting one and pins both
// budgets, so deep copies cannot creep back into the path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/ingest_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "trafficsim/world.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// The nothrow form (std::stable_sort's buffer) allocates through the same
// malloc, so the deletes below free whatever either new returned.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC would otherwise see new → malloc and delete → free at a
// call site and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bussense {
namespace {

// Heap allocations a steady-state trip may make in the shard's analysis
// entry point. Measured on the trips below: 7, 2 and 0 after the warm-up
// trip, all growth of buffers the warm-up did not need. Stage types that
// deep-copied every fingerprint made 374–580 per trip here (and about 104
// per LodWorld trip of ~7 samples).
constexpr std::size_t kTripAllocationBudget = 12;

struct Bed {
  World world;
  StopDatabase database;

  Bed() {
    Rng survey(2024);
    database = build_stop_database(
        world.city(),
        [&](StopId stop, int run) {
          return world.scan_stop(stop, survey, run % 2 == 1);
        },
        3);
  }
};

const Bed& bed() {
  static const Bed instance;
  return instance;
}

TripUpload trip_on(const char* route_name, int from, int to, SimTime depart,
                   std::uint64_t seed) {
  Rng rng(seed);
  const BusRoute& route = *bed().world.city().route_by_name(route_name, 0);
  return bed().world.simulate_single_trip(route, from, to, depart, rng).upload;
}

// Allocations made by one process_admitted() call.
std::size_t allocations_of(TrafficServer& server, const TripUpload& trip,
                           TripScratch& scratch,
                           std::vector<SpeedEstimate>& out) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  server.process_admitted(trip, scratch, out);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(TripAllocations, SteadyStateTripStaysWithinBudget) {
  TrafficServer server(bed().world.city(), bed().database);
  TripScratch scratch;
  std::vector<SpeedEstimate> batch;
  batch.reserve(1024);
  const TripUpload warm = trip_on("243", 2, 14, at_clock(0, 9, 0), 2);
  const std::vector<TripUpload> trips{
      trip_on("243", 2, 14, at_clock(0, 9, 0), 3),
      trip_on("243", 1, 12, at_clock(0, 17, 30), 4),
      trip_on("79", 1, 10, at_clock(0, 8, 0), 5),
  };
  (void)allocations_of(server, warm, scratch, batch);
  std::size_t estimates = 0;
  for (const TripUpload& trip : trips) {
    ASSERT_GT(trip.samples.size(), 5u);
    const std::size_t before = batch.size();
    const std::size_t n = allocations_of(server, trip, scratch, batch);
    EXPECT_LE(n, kTripAllocationBudget) << trip.samples.size() << " samples";
    estimates += batch.size() - before;
  }
  // The budget must be met by trips that do real work.
  EXPECT_GT(estimates, 10u);
  // The same trip again outgrows nothing.
  EXPECT_EQ(allocations_of(server, trips.front(), scratch, batch), 0u);
}

// Heap allocations per upload a warm 3-shard service may make across
// process_trip() and the consumers (analysis and fold included). Measured
// on the trips below: 3-6 for 24 uploads of 1278 samples (12 runs), buffer
// growth in the fusion, clustering and a slot's spare list. Spans over
// skipped stops cost 17 more while the estimator built their link list.
// A producer that deep-copied each upload made one allocation per sample
// plus one, 1302 here, before the consumer even ran.
constexpr double kHandOffAllocationsPerUpload = 0.5;

std::vector<TripUpload> hand_off_trips() {
  std::vector<TripUpload> trips;
  for (std::uint64_t seed = 20; seed < 44; ++seed) {
    TripUpload trip = trip_on(seed % 2 ? "243" : "79", 1 + seed % 4,
                              9 + seed % 3, at_clock(0, 7 + seed % 12, 0), seed);
    trip.participant_id = static_cast<std::int32_t>(seed);
    trips.push_back(std::move(trip));
  }
  return trips;
}

TEST(TripAllocations, WarmHandOffStaysWithinBudget) {
  // Admission off and no WAL: what is left is the copy into the inbox, the
  // consumer's analysis over its scratch, and the fold. With room for one
  // upload, a shard's two slots alternate strictly, so each sees the same
  // uploads in every replay and two replays warm them whatever the timing.
  ShardedIngestConfig sharding;
  sharding.shards = 3;
  sharding.queue_capacity = 1;
  ShardedIngestService service(bed().world.city(), bed().database, {},
                               sharding);
  const std::vector<TripUpload> trips = hand_off_trips();
  std::size_t samples = 0;
  for (const TripUpload& trip : trips) samples += trip.samples.size();
  const auto replay = [&] {
    for (const TripUpload& trip : trips) {
      ASSERT_EQ(service.process_trip(trip).outcome, IngestOutcome::kQueued);
    }
    service.advance_time(at_clock(1, 0, 0));
  };
  replay();
  replay();
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  replay();
  const std::size_t made = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(static_cast<double>(made),
            kHandOffAllocationsPerUpload * static_cast<double>(trips.size()))
      << made << " allocations for " << trips.size() << " uploads of "
      << samples << " samples";
  EXPECT_GT(samples, 10 * trips.size());  // a deep copy would have cost
  EXPECT_EQ(service.trips_processed(), 3 * trips.size());
}

TEST(TripAllocations, OutsizedUploadIsNotRetained) {
  ShardedIngestConfig sharding;
  sharding.shards = 3;
  sharding.queue_capacity = 2;
  ShardedIngestService service(bed().world.city(), bed().database, {},
                               sharding);
  const std::vector<TripUpload> trips = hand_off_trips();
  TripUpload huge;
  huge.participant_id = 7;
  // Cells no surveyed stop has, so the pipeline rejects each sample fast.
  CellularSample unknown;
  unknown.fingerprint.cells = {900000001, 900000002, 900000003, 900000004};
  huge.samples.resize(std::size_t{1} << 16, unknown);
  for (std::size_t i = 0; i < huge.samples.size(); ++i) {
    huge.samples[i].time = at_clock(0, 9, 0) + static_cast<double>(i);
  }
  ASSERT_EQ(service.process_trip(huge).outcome, IngestOutcome::kQueued);
  for (const TripUpload& trip : trips) (void)service.process_trip(trip);
  service.drain();
  EXPECT_LE(service.max_slot_retained_bytes(),
            ShardedIngestService::kSlotRetainBytes);
  // The ordinary uploads stay resident in their slots.
  EXPECT_GT(service.max_slot_retained_bytes(), 0u);
  EXPECT_EQ(service.trips_processed(), trips.size() + 1);
}

TEST(TripAllocations, ScratchPathEqualsFreshAnalysis) {
  // Reusing a scratch across trips must not leak one trip into the next:
  // every trip's estimates equal a fresh analyze_trip() of it.
  TrafficServer server(bed().world.city(), bed().database);
  TripScratch scratch;
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const TripUpload trip = trip_on(seed % 2 ? "243" : "79", 1 + seed % 3, 11,
                                    at_clock(0, 7 + seed, 0), seed);
    std::vector<SpeedEstimate> out;
    server.process_admitted(trip, scratch, out);
    const TripReport fresh = server.analyze_trip(trip);
    ASSERT_EQ(out.size(), fresh.estimates.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].segment, fresh.estimates[i].segment);
      EXPECT_EQ(out[i].time, fresh.estimates[i].time);
      EXPECT_EQ(out[i].att_speed_kmh, fresh.estimates[i].att_speed_kmh);
    }
    EXPECT_EQ(scratch.mapped.stops.size(), fresh.mapped.stops.size());
    EXPECT_EQ(scratch.rejected_samples, fresh.rejected_samples);
  }
}

}  // namespace
}  // namespace bussense
