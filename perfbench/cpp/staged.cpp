// The traced stage-at-a-time re-run shared by every workload: each layer's
// public stage function is called on its own under a span, so the layer
// table attributes a trip's time without touching the library.
#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "core/admission.h"
#include "core/checkpoint.h"
#include "core/travel_estimator.h"

namespace perfbench {

using namespace bussense;

namespace {

// Trip-path layers: module, span name, per-trip metric.
struct Layer {
  const char* layer;
  const char* span;
  const char* metric;
};
constexpr Layer kTripLayers[] = {
    {"core.admission", "admission.admit", "admission.admit_us_per_trip"},
    {"core.trip_log", "trip_log.append", "trip_log.append_us_per_trip"},
    {"core.stop_matcher", "matcher.match", "matcher.match_us_per_trip"},
    {"core.clustering", "clustering.cluster", "clustering.cluster_us_per_trip"},
    {"core.trip_mapper", "trip_mapper.map", "trip_mapper.map_us_per_trip"},
    {"core.travel_estimator", "travel_estimator.estimate",
     "travel_estimator.estimate_us_per_trip"},
    {"core.fusion", "fusion.fold", "fusion.fold_us_per_trip"},
};

// One window's serving probe: a timed batch of pins, then 16 segment
// lookups and one query of each other family against the epoch just
// published.
void probe(const EpochPublisher& publisher, const QueryService& queries,
           const QueryPools& pools, std::uint64_t window, SimTime now,
           std::int32_t parent, SpanRecorder& rec, ServingSamples& out) {
  constexpr int kPins = 64;
  std::uint64_t sink = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kPins; ++i) sink += publisher.pin()->id();
  const std::int64_t t1 = now_ns();
  rec.record("epoch_publisher.pin", parent, window, t0, t1);
  out.pin_ns.push_back(static_cast<double>(t1 - t0) / kPins);
  std::vector<std::uint64_t> positions;
  for (std::uint64_t k = 0; k < 16; ++k) {
    positions.push_back(mix_position(Family::kSegment, window * 16 + k));
  }
  for (const Family f : {Family::kKNearest, Family::kRegion, Family::kEta}) {
    positions.push_back(mix_position(f, window));
  }
  for (const std::uint64_t p : positions) {
    const Family f = family_at(p);
    const std::int64_t q0 = now_ns();
    sink += run_query(queries, pools, p, now);
    const std::int64_t q1 = now_ns();
    rec.record(query_span(f), parent, window, q0, q1);
    out.query_ns[f].push_back(static_cast<double>(q1 - q0));
    ++out.query_count[f];
  }
  if (sink == 0) std::fputs("probe: no epoch answered\n", stderr);
}

double counter(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

}  // namespace

ServingSamples run_staged(const Testbed& bed, const std::vector<TimedUpload>& uploads,
                          const std::vector<Window>& windows,
                          const Reference& reference, const Options& options,
                          SpanRecorder& rec, Report& report) {
  // Analysis stages only: admission and the WAL run as stages of their own.
  const ServerConfig config;
  TrafficServer server(bed.world.city(), bed.database, config);
  TravelEstimator estimator(server.catalog(), config.att);
  AdmissionConfig admission_config;
  admission_config.enabled = true;
  AdmissionController admission(admission_config);
  DurabilityConfig wal_config;
  wal_config.enabled = true;
  wal_config.directory = scratch_dir(options, "staged-wal");
  wal_config.fsync = FsyncPolicy::kInterval;
  DurabilityManager wal(wal_config, 1);
  MetricsRegistry wal_metrics;
  wal.bind_metrics(&wal_metrics);
  (void)wal.open();
  EpochPublisher publisher(server.catalog());
  const QueryService queries(publisher);
  const QueryPools pools = make_query_pools(publisher, bed.world.city(), options.seed);

  // Prime the matcher's lazily built quantized database view.
  (void)server.match_samples(uploads.front().upload);
  const MetricsSnapshot before = server.metrics().snapshot();

  std::uint64_t trips = 0, rejected = 0, samples = 0, matched_samples = 0;
  std::uint64_t clusters = 0, estimates = 0;
  ServingSamples serving;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Window& win = windows[w];
    for (std::size_t i = win.begin; i < win.end; ++i) {
      const TripUpload& upload = uploads[i].upload;
      ScopedSpan trip(&rec, "trip", -1, i);
      ++trips;
      TripUpload corrected;
      const TripUpload* use = &upload;
      AdmitInfo info;
      RejectReason why = RejectReason::kNone;
      {
        ScopedSpan s(&rec, "admission.admit", trip.id(), i);
        why = admission.admit(upload, corrected, use, &info);
      }
      if (why != RejectReason::kNone) {
        ++rejected;
        continue;
      }
      {
        ScopedSpan s(&rec, "trip_log.append", trip.id(), i);
        wal.append_trip(0, *use, info);
      }
      std::vector<MatchedSample> matched;
      {
        ScopedSpan s(&rec, "matcher.match", trip.id(), i);
        matched = server.match_samples(*use);
      }
      std::vector<SampleCluster> cl;
      {
        ScopedSpan s(&rec, "clustering.cluster", trip.id(), i);
        cl = server.cluster_samples(matched);
      }
      MappedTrip mapped;
      {
        ScopedSpan s(&rec, "trip_mapper.map", trip.id(), i);
        mapped = server.map_trip(cl);
      }
      std::vector<SpeedEstimate> est;
      {
        ScopedSpan s(&rec, "travel_estimator.estimate", trip.id(), i);
        est = estimator.estimate(mapped);
      }
      {
        ScopedSpan s(&rec, "fusion.fold", trip.id(), i);
        server.ingest(est);
      }
      samples += use->samples.size();
      matched_samples += matched.size();
      clusters += cl.size();
      estimates += est.size();
    }
    ScopedSpan window(&rec, "window", -1, w);
    {
      ScopedSpan s(&rec, "trip_log.time_mark", window.id(), w);
      wal.append_time_mark(win.close);
    }
    {
      ScopedSpan s(&rec, "admission.observe", window.id(), w);
      admission.observe_time(win.close);
    }
    {
      ScopedSpan s(&rec, "fusion.advance", window.id(), w);
      server.advance_time(win.close);
    }
    {
      ScopedSpan s(&rec, "epoch_publisher.publish", window.id(), w);
      server.publish_epoch(publisher, win.close);
    }
    serving.epochs_live_max = std::max(serving.epochs_live_max, publisher.epochs_live());
    probe(publisher, queries, pools, w, win.close, window.id(), rec, serving);
  }
  wal.close();
  std::filesystem::remove_all(wal_config.directory);

  // The staged re-run must rebuild the workload's fused state exactly.
  report.check(rejected == 0, "staged: admission rejected a clean upload");
  const std::string fused = diff_fusion(server.fusion().export_state(), reference.fusion);
  report.check(fused.empty(), "staged: fused state differs from the serial reference: " + fused);
  const std::string served = diff_map(canonical(publisher.pin()->map()), reference.map);
  report.check(served.empty(), "staged: last epoch differs from the serial reference: " + served);

  std::map<std::string, SpanStats> stats;
  aggregate_spans(rec.spans(), stats);
  serving.publish_ns = stats["epoch_publisher.publish"].durations_ns;
  const double trip_s = stats["trip"].total_s;
  const double n = static_cast<double>(std::max<std::uint64_t>(trips, 1));
  const double per_window = static_cast<double>(std::max<std::size_t>(windows.size(), 1));

  // The layer table: self time of every trip-path layer plus the part of
  // the traced trip time no layer span covers.
  std::printf("per-layer self time over %llu traced trips (%.6f s, %.3f us/trip):\n",
              static_cast<unsigned long long>(trips), trip_s, 1e6 * trip_s / n);
  std::printf("  %-24s %10s %12s %10s %8s\n", "layer", "spans", "self_s", "us/trip", "share");
  double share_sum = 0.0;
  for (const Layer& l : kTripLayers) {
    const SpanStats& s = stats[l.span];
    const double share = trip_s > 0.0 ? s.self_s / trip_s : 0.0;
    share_sum += share;
    std::printf("  %-24s %10llu %12.6f %10.3f %8.4f\n", l.layer,
                static_cast<unsigned long long>(s.count), s.self_s, 1e6 * s.self_s / n, share);
    const std::string metric = l.metric;
    report.metric(metric, 1e6 * s.self_s / n, "us", s.count, true);
    report.metric(metric.substr(0, metric.find('.')) + ".share", share, "ratio", s.count, true);
  }
  const double unattributed = trip_s > 0.0 ? stats["trip"].self_s / trip_s : 0.0;
  share_sum += unattributed;
  std::printf("  %-24s %10s %12.6f %10.3f %8.4f\n", "(unattributed)", "-",
              stats["trip"].self_s, 1e6 * stats["trip"].self_s / n, unattributed);
  std::printf("  %-24s %10s %12.6f %10.3f %8.4f\n", "total", "-", trip_s, 1e6 * trip_s / n,
              share_sum);
  std::printf("per-window calls over %zu windows:\n", windows.size());
  for (const char* name : {"trip_log.time_mark", "admission.observe", "fusion.advance",
                           "epoch_publisher.publish", "epoch_publisher.pin", "query.segment",
                           "query.knearest", "query.region", "query.eta"}) {
    const SpanStats& s = stats[name];
    std::printf("  %-24s %10llu %12.6f %10.3f us/window\n", name,
                static_cast<unsigned long long>(s.count), s.self_s, 1e6 * s.self_s / per_window);
  }
  std::fflush(stdout);

  report.metric("trace.unattributed_share", unattributed, "ratio", trips, true);
  report.metric("trace.trip_us", 1e6 * trip_s / n, "us", trips, true);
  report.metric("trace.trips", static_cast<double>(trips), "count", trips, true);
  report.metric("fusion.advance_us_per_window", 1e6 * stats["fusion.advance"].self_s / per_window,
                "us", windows.size(), true);

  const MetricsSnapshot after = server.metrics().snapshot();
  const auto delta = [&](const char* name) { return counter(after, name) - counter(before, name); };
  const double considered = delta("matcher.records_considered");
  const double candidates = delta("matcher.gamma_candidates");
  const double skipped = delta("matcher.records_bound_skipped");
  report.metric("admission.reject_ratio", static_cast<double>(rejected) / n, "ratio", trips, true);
  report.metric("matcher.samples_per_trip", static_cast<double>(samples) / n, "count", trips, true);
  report.metric("matcher.samples_considered", static_cast<double>(samples), "count", trips, true);
  report.metric("matcher.gamma_accept_ratio",
                samples ? static_cast<double>(matched_samples) / static_cast<double>(samples) : 0.0,
                "ratio", samples, true);
  report.metric("matcher.records_considered", considered, "count", samples, true);
  report.metric("matcher.candidate_ratio", considered > 0.0 ? candidates / considered : 0.0,
                "ratio", samples, true);
  report.metric("matcher.gamma_candidates", candidates, "count", samples, true);
  report.metric("matcher.bound_skip_ratio", candidates > 0.0 ? skipped / candidates : 0.0,
                "ratio", samples, true);
  report.metric("matcher.records_bound_skipped", skipped, "count", samples, true);
  report.metric("clustering.clusters_per_trip", static_cast<double>(clusters) / n, "count",
                trips, true);
  report.metric("travel_estimator.estimates_per_trip", static_cast<double>(estimates) / n,
                "count", trips, true);
  const MetricsSnapshot wal_snap = wal_metrics.snapshot();
  report.metric("trip_log.bytes_per_trip", counter(wal_snap, "durability.bytes_appended") / n,
                "B", trips, true);
  report.metric("trip_log.fsyncs", counter(wal_snap, "durability.fsyncs"), "count", trips, true);
  return serving;
}

}  // namespace perfbench
