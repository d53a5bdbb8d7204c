// metropolis_day: a LodWorld weekday at 500k riders (about 50k trips of
// about 8 samples, nearly all OnRails) replayed in a closed loop from one
// producer thread through ShardedIngestService — three shards, kBlock
// backpressure, admission on, the WAL on with kInterval fsyncs in a fresh
// directory per pass — with advance_time then publish_epoch every 300 s of
// sim time. Trips here cost a fraction of a full-fidelity testbed trip and
// matching is a smaller share of them, so queueing, barrier drains, period
// closes, WAL appends and epoch publishes carry a far larger share. LOD
// rider ids spread evenly over the shards, so this workload measures
// sharding.
#include <filesystem>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/matching_simd.h"

namespace perfbench {

using namespace bussense;

std::unique_ptr<Metropolis> build_metropolis(const Options& options) {
  auto m = std::make_unique<Metropolis>();
  m->bed = build_testbed();
  const std::int64_t riders = options.smoke ? 20'000 : 500'000;
  const std::int64_t start = now_ns();
  LodConfig config;
  config.seed = options.seed;
  const LodWorld lod(m->bed->world, riders, config);
  ThreadPool pool(ThreadPool::default_concurrency(4));
  std::vector<LodTrip> trips = lod.simulate_day(0, &pool);
  m->generate_s = seconds_since(start);
  m->loss = lod.loss();
  m->census = lod.census();
  m->uploads.reserve(trips.size());
  for (LodTrip& t : trips) {
    m->uploads.push_back(TimedUpload{std::move(t.trip.upload), t.arrival});
  }
  m->windows = plan_windows(m->uploads);
  return m;
}

ServerConfig metropolis_server_config() {
  ServerConfig config;
  config.admission.enabled = true;
  return config;
}

ShardedIngestConfig metropolis_sharding() {
  ShardedIngestConfig sharding;
  sharding.shards = 3;
  sharding.backpressure = ShardedIngestConfig::Backpressure::kBlock;
  return sharding;
}

void sharded_pass(ShardedIngestService& service, EpochPublisher& publisher,
                  const std::vector<TimedUpload>& uploads,
                  const std::vector<Window>& windows, PassSamples& out,
                  SpanRecorder* rec) {
  out.enqueue_ns.reserve(out.enqueue_ns.size() + uploads.size());
  const std::uint64_t accepted_before = out.accepted;
  const std::size_t first_trip = out.enqueue_ns.size();
  const std::size_t first_window = out.lag_ns.size();
  const std::int64_t start = now_ns();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Window& win = windows[w];
    for (std::size_t i = win.begin; i < win.end; ++i) {
      ScopedSpan span(rec, "ingest.process_trip", -1, i);
      const std::int64_t t0 = now_ns();
      const bool accepted = service.process_trip(uploads[i].upload).accepted();
      out.enqueue_ns.push_back(static_cast<double>(now_ns() - t0));
      ++out.submitted;
      if (accepted) ++out.accepted;
    }
    ScopedSpan window(rec, "window", -1, w);
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan s(rec, "ingest.advance_time", window.id(), w);
      service.advance_time(win.close);
    }
    const std::int64_t t1 = now_ns();
    {
      ScopedSpan s(rec, "epoch_publisher.publish", window.id(), w);
      service.publish_epoch(publisher, win.close);
    }
    const std::int64_t t2 = now_ns();
    out.drain_ns.push_back(static_cast<double>(t1 - t0));
    out.publish_ns.push_back(static_cast<double>(t2 - t1));
    out.lag_ns.push_back(static_cast<double>(t2 - t0));
  }
  const double pass_s = seconds_since(start);
  out.busy_s += pass_s;
  out.passes.add(static_cast<double>(out.accepted - accepted_before) / pass_s,
                 std::vector<double>(out.enqueue_ns.begin() + first_trip, out.enqueue_ns.end()),
                 std::vector<double>(out.lag_ns.begin() + first_window, out.lag_ns.end()));
}

std::vector<std::uint64_t> check_sharded(const ShardedIngestService& service,
                                         const EpochPublisher& publisher,
                                         const Reference& reference,
                                         std::uint64_t accepted, Report& report) {
  const std::string fused = diff_fusion(service.backend().export_fusion(), reference.fusion);
  report.check(fused.empty(), "sharded fused state differs from the serial reference: " + fused);
  const std::string served = diff_map(canonical(publisher.pin()->map()), reference.map);
  report.check(served.empty(), "sharded last epoch differs from the serial reference: " + served);

  std::vector<std::uint64_t> processed;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < service.shard_count(); ++s) {
    const MetricsSnapshot snap = service.shard_registry(s).snapshot();
    const auto it = snap.counters.find("ingest.shard.processed");
    processed.push_back(it == snap.counters.end() ? 0 : it->second);
    total += processed.back();
  }
  for (std::size_t s = 0; s < processed.size(); ++s) {
    report.check(2 * processed.size() * processed[s] >= total,
                 "shard " + std::to_string(s) + " processed " + std::to_string(processed[s]) +
                     " of " + std::to_string(total) + " uploads, under half its fair share");
  }
  report.check(total == accepted, "sharded: processed " + std::to_string(total) + " of " +
                                      std::to_string(accepted) + " accepted uploads");
  const MetricsSnapshot merged = service.shard_metrics();
  const auto count = [&](const char* name) -> std::uint64_t {
    const auto it = merged.counters.find(name);
    return it == merged.counters.end() ? 0 : it->second;
  };
  const std::uint64_t refused = count("ingest.rejected.duplicate") +
                                count("ingest.rejected.malformed") +
                                count("ingest.rejected.non_monotone");
  report.check(refused == 0 && count("ingest.admitted") == accepted,
               "sharded: admission refused " + std::to_string(refused) + " clean uploads");

  // The batch SIMD matcher must run inside the pipeline, not only in the
  // matching bench: its incumbent-bound prescreen counts skips only there.
  const MetricsSnapshot backend = service.metrics().snapshot();
  const auto skipped = backend.counters.find("matcher.records_bound_skipped");
  const simd::Kernel kernel = simd::active_kernel();
  if (kernel != simd::Kernel::kScalar) {
    report.check(skipped != backend.counters.end() && skipped->second > 0,
                 std::string("sharded: the ") + simd::kernel_name(kernel) +
                     " batch matcher never ran inside the pipeline");
  }
  return processed;
}

namespace {

// Closed-loop passes over the whole day until `seconds` of replay have run.
// Each pass gets a fresh service and WAL directory (untimed) and ends with
// the correctness checks.
struct Passes {
  PassSamples samples;
  std::vector<std::uint64_t> processed;  ///< per shard, last pass
  std::uint64_t count = 0;
  double fsyncs = 0.0;
  double wal_bytes = 0.0;
};

void run_passes(const Metropolis& m, const Reference& reference, const Options& options,
                double seconds, SpanRecorder* rec, Passes& out, Report& report) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const std::string wal_dir = scratch_dir(options, "wal");
    {
      ServerConfig config = metropolis_server_config();
      config.durability.enabled = true;
      config.durability.directory = wal_dir;
      config.durability.fsync = FsyncPolicy::kInterval;
      ShardedIngestService service(m.bed->world.city(), m.bed->database, config,
                                   metropolis_sharding());
      (void)service.open();
      EpochPublisher publisher(service.catalog());
      const std::uint64_t accepted_before = out.samples.accepted;
      sharded_pass(service, publisher, m.uploads, m.windows, out.samples, rec);
      service.close();
      out.processed = check_sharded(service, publisher, reference,
                                    out.samples.accepted - accepted_before, report);
      const MetricsSnapshot snap = service.metrics().snapshot();
      const auto counter = [&](const char* name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
      };
      out.fsyncs += counter("durability.fsyncs");
      out.wal_bytes += counter("durability.bytes_appended");
    }
    std::filesystem::remove_all(wal_dir);
    release_free_memory();
    ++out.count;
  } while (now_ns() < deadline);
}

std::string joined(const std::vector<std::uint64_t>& values) {
  std::string out;
  for (const std::uint64_t v : values) {
    if (!out.empty()) out += '/';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

void run_metropolis_day(const Options& options, Report& report) {
  // An untraced run sets up three times and replays for a third of
  // `seconds` after each set-up, so its passes sample the host over the
  // whole run rather than over its last stretch only.
  const int setups = options.trace ? 1 : 3;
  std::unique_ptr<Metropolis> m;
  std::vector<double> setup_s;
  std::uint64_t first_digest = 0;
  Reference reference;
  Passes passes;
  for (int k = 0; k < setups; ++k) {
    m.reset();
    release_free_memory();
    const std::int64_t start = now_ns();
    m = build_metropolis(options);
    setup_s.push_back(seconds_since(start));
    const std::uint64_t d = digest(m->uploads);
    if (k == 0) {
      first_digest = d;
      reference = serial_reference(*m->bed, metropolis_server_config(), m->uploads, m->windows,
                                   options.seed);
      report.check(reference.accepted == m->uploads.size(), "serial reference rejected uploads");
    }
    // The same uploads, so the reference of the first set-up holds.
    report.check(d == first_digest, "metropolis_day: set-up is not deterministic");
    release_free_memory();
    if (!options.trace) {
      run_passes(*m, reference, options, options.seconds / setups, nullptr, passes, report);
    }
  }
  const LodLoss& loss = m->loss;
  report.check(loss.dropped_no_route == 0,
               "LodWorld dropped " + std::to_string(loss.dropped_no_route) + " trips with no route");
  report.check(loss.planned == loss.emitted + loss.dropped_no_route + loss.thin,
               "LodWorld loss accounting does not add up");
  report.stamp("riders", static_cast<double>(m->census.riders));
  report.stamp("riders_focus_event_onrails", std::to_string(m->census.focus) + "/" +
                                                 std::to_string(m->census.event) + "/" +
                                                 std::to_string(m->census.on_rails));
  report.stamp("lod_planned_emitted_thin_dropped",
               std::to_string(loss.planned) + "/" + std::to_string(loss.emitted) + "/" +
                   std::to_string(loss.thin) + "/" + std::to_string(loss.dropped_no_route));
  report.stamp("trips", static_cast<double>(m->uploads.size()));
  report.stamp("windows", static_cast<double>(m->windows.size()));
  report.stamp("shards", static_cast<double>(metropolis_sharding().shards));

  if (!options.trace) {
    const PassSamples& s = passes.samples;
    report_end_to_end(report, setup_s, s.passes);
    report.metric("trips_per_s", static_cast<double>(s.accepted) / s.busy_s, "trips/s",
                  s.accepted, false);
    report.metric("failed_fraction",
                  static_cast<double>(s.submitted - s.accepted) /
                      static_cast<double>(std::max<std::uint64_t>(s.submitted, 1)),
                  "ratio", s.submitted, false);
    report.metric("wal_fsyncs_per_pass", passes.fsyncs / static_cast<double>(passes.count),
                  "count", passes.count, false);
    report.metric("wal_bytes_per_trip", passes.wal_bytes / static_cast<double>(s.accepted), "B",
                  s.accepted, false);
    report.stamp("passes", static_cast<double>(passes.count));
    report.stamp("shard_processed", joined(passes.processed));
    report.attempt(s.submitted, s.submitted - s.accepted);
    return;
  }

  Passes plain, traced;
  run_passes(*m, reference, options, options.seconds / 2, nullptr, plain, report);
  SpanRecorder front;
  run_passes(*m, reference, options, options.seconds / 2, &front, traced, report);
  FrontEndSamples fe;
  fe.enqueue_ns = traced.samples.enqueue_ns;
  fe.drain_ns = traced.samples.drain_ns;
  fe.processed_per_partition = traced.processed;
  fe.untraced_ops_per_s = static_cast<double>(plain.samples.accepted) / plain.samples.busy_s;
  fe.traced_ops_per_s = static_cast<double>(traced.samples.accepted) / traced.samples.busy_s;
  report_front_end_layers(report, fe);

  SpanRecorder staged;
  ServingSamples serving = run_staged(*m->bed, m->uploads, m->windows, reference, options,
                                      staged, report);
  // Publishing is the sharded front end's own here; the probe supplies the
  // pin and query samples.
  serving.publish_ns = traced.samples.publish_ns;
  report_serving_layers(report, serving);
  report.metric("trafficsim.generate_s", m->generate_s, "s", 1, true);
  report.stamp("shard_processed", joined(traced.processed));
  const std::string path = options.out_dir + "/spans-metropolis_day-seed" +
                           std::to_string(options.seed) + ".csv";
  write_spans(path, {&front, &staged});
  report.stamp("span_file", path);
  const std::uint64_t submitted = plain.samples.submitted + traced.samples.submitted;
  const std::uint64_t accepted = plain.samples.accepted + traced.samples.accepted;
  report.attempt(submitted, submitted - accepted);
}

}  // namespace perfbench
