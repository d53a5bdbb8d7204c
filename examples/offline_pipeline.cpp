// offline_pipeline: the deployment workflow across process boundaries.
//
// In the real system the war-walk tool, the phones and the backend are
// separate programs talking through files/uploads. This example exercises
// that split with the plain-text wire formats:
//
//   1. survey  — build the fingerprint database, save it to disk
//   2. phones  — record a batch of trips, save them to disk
//   3. server  — load both files and produce the traffic estimates,
//                journaling every admitted trip to a write-ahead log and
//                then crashing (destruction without close())
//   4. restart — a fresh process recovers checkpoint + WAL suffix and
//                reproduces the same estimates byte-for-byte
//
// Run:  ./offline_pipeline [workdir]
//
// The backend is a durable ShardedIngestService, the one front end that
// owns the write-ahead log; its fused map is bit-identical to the serial
// TrafficServer's for the same uploads (the ingest determinism contract).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/ingest_service.h"
#include "core/serialization.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "trafficsim/world.h"

using namespace bussense;

// Canonical text form of a map: enough to show two runs agreed exactly.
// Lines are sorted because snapshot order follows processing order, which
// the shard consumers do not pin; the estimates themselves are
// deterministic.
static std::string map_fingerprint(const TrafficMap& map) {
  std::vector<std::string> lines;
  char buf[128];
  for (const MapSegment& s : map.segments()) {
    std::snprintf(buf, sizeof buf, "%d>%d %.17g\n", s.key.from, s.key.to,
                  s.speed_kmh);
    lines.emplace_back(buf);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

int main(int argc, char** argv) {
  const std::filesystem::path dir =
      argc > 1 ? argv[1] : std::filesystem::temp_directory_path() / "bussense";
  std::filesystem::create_directories(dir);
  const std::string db_path = (dir / "stops.db").string();
  const std::string trips_path = (dir / "trips.txt").string();

  World world;
  const City& city = world.city();

  // --- 1. the survey tool ----------------------------------------------
  {
    Rng survey(2024);
    const StopDatabase db = build_stop_database(
        city,
        [&](StopId s, int run) { return world.scan_stop(s, survey, run % 2); },
        5);
    save_stop_database(db, db_path);
    std::cout << "survey: wrote " << db.size() << " stop fingerprints to "
              << db_path << "\n";
  }

  // --- 2. the phones -----------------------------------------------------
  {
    Rng rng(17);
    const auto day = world.simulate_day(0, 2.0, rng);
    std::vector<TripUpload> uploads;
    uploads.reserve(day.trips.size());
    for (const AnnotatedTrip& trip : day.trips) uploads.push_back(trip.upload);
    std::ofstream os(trips_path);
    save_trips(uploads, os);
    std::cout << "phones: queued " << uploads.size() << " trips to "
              << trips_path << "\n";
  }

  // --- 3. the backend server (durable, then crashes) ---------------------
  ServerConfig backend;
  backend.durability.enabled = true;
  backend.durability.directory = (dir / "durable").string();
  backend.durability.fsync = FsyncPolicy::kInterval;
  std::string crashed_fingerprint;
  {
    // Async front end: uploads land in per-participant shards, each with
    // its own consumer thread and WAL segment.
    ShardedIngestConfig sharding;
    sharding.shards = 2;
    ShardedIngestService service(city, load_stop_database(db_path), backend,
                                 sharding);
    service.open();  // fresh directory: nothing to recover yet

    std::ifstream is(trips_path);
    auto uploads = load_trips(is);
    // Feed in start-time order so the mid-feed advance_time is a true
    // watermark: every later trip starts after it, so no estimate lands in
    // a fusion period the barrier already closed.
    std::stable_sort(uploads.begin(), uploads.end(),
                     [](const TripUpload& a, const TripUpload& b) {
                       return a.samples.front().time < b.samples.front().time;
                     });
    std::size_t queued = 0;
    for (std::size_t i = 0; i < uploads.size(); ++i) {
      if (service.process_trip(uploads[i]).accepted()) ++queued;
      if (i == uploads.size() / 2) {
        // Mid-day recovery point: everything before it replays from the
        // checkpoint, everything after from the WAL suffix.
        service.advance_time(uploads[i].samples.front().time);
        std::cout << "server: checkpoint " << service.checkpoint()
                  << " written mid-feed\n";
      }
    }
    service.advance_time(at_clock(0, 23, 0));  // drains the queue first
    const TrafficMap map = service.snapshot(at_clock(0, 18, 0), 3 * kHour);
    crashed_fingerprint = map_fingerprint(map);
    const MetricsSnapshot ms = service.metrics().snapshot();
    std::cout << "server: accepted " << queued << "/" << uploads.size()
              << " trips, " << ms.counters.at("pipeline.estimates")
              << " segment estimates, evening map covers "
              << 100.0 * map.coverage_ratio(service.catalog())
              << "% of the road network\n";
    std::cout << "server: WAL appends=" << ms.counters.at("durability.appends")
              << " bytes=" << ms.counters.at("durability.bytes_appended")
              << " fsyncs=" << ms.counters.at("durability.fsyncs") << "\n";

    // The observability layer sees every stage; persist it for operators.
    const std::string metrics_path = (dir / "metrics.json").string();
    std::ofstream(metrics_path) << service.metrics().to_json() << "\n";
    std::cout << "server: metrics (per-stage latency, WAL counters) in "
              << metrics_path << "\n";

    // No close(): scope exit models a power cut after the final fsync
    // interval. Everything admitted is already in the trip log.
    std::cout << "server: crashing without close()\n";
  }

  // --- 4. the restarted server ------------------------------------------
  {
    // Same shard count: each shard replays its own WAL segment.
    ShardedIngestConfig sharding;
    sharding.shards = 2;
    ShardedIngestService service(city, load_stop_database(db_path), backend,
                                 sharding);
    const RecoveryReport rec = service.open();
    std::cout << "restart: checkpoint "
              << (rec.checkpoint_loaded ? std::to_string(rec.checkpoint_id)
                                        : std::string("none"))
              << " + " << rec.replayed_trips << " WAL trips / "
              << rec.replayed_time_marks << " time marks replayed, "
              << rec.truncated_tail_bytes << " torn bytes truncated\n";
    service.advance_time(at_clock(0, 23, 0));
    const TrafficMap map = service.snapshot(at_clock(0, 18, 0), 3 * kHour);
    std::cout << "restart: evening map "
              << (map_fingerprint(map) == crashed_fingerprint
                      ? "byte-identical to the crashed run"
                      : "DIVERGED from the crashed run")
              << "\n";
    service.close();  // clean shutdown this time
  }
  std::cout << "artifacts left in " << dir << "\n";
  return 0;
}
