// serving_read_write: set-up builds the fused state of metropolis_day's
// stream through the sharded front end; then 2 reader threads run the fixed
// query mix (family_at: mostly segment_speed, fixed shares of region,
// route-ETA and k-nearest queries) flat out while 1 publisher thread
// republishes an epoch every 5 ms. No ingest runs while measuring. It loads
// the hazard-pointer pin path, the query families and epoch build/reclaim
// under read contention: an ingest change should be neutral here, and a
// serving change neutral on the other workload.
//
// Each reader has a QueryService of its own over the shared publisher, so
// the readers share the epochs and the hazard-pointer slots but not the
// query counters and latency histograms. With one shared QueryService every
// query made atomic read-modify-writes on lines both readers write: the
// query p50 doubled, and throughput fell to 3.2-3.7M queries/s, split run
// to run into two levels, against 5.2-6.2M with a service per reader
// (alternating runs on a shared 4-core host). Readers and publisher are
// pinned to distinct CPUs when the process may use three or more; the
// stamp records the placement.
//
// The workload's operation is one pass of a reader through the 112-query
// mix, and its latency the sum of the pass's timed queries. Single-query
// latency is printed as detail lines only: its p90 (about 0.4 us) falls
// among the slowest segment lookups, just below the 10.7% of heavier
// queries, and moved by 0.17 and 0.32 (IQR over median) in two sets of ten
// seeds; the p90 of a pass, a sum of 112 queries, moved by 0.07 and 0.14,
// no further than throughput did.
#include <pthread.h>
#include <sched.h>

#include <array>
#include <atomic>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace bussense;

namespace {

constexpr int kReaders = 2;
constexpr std::int64_t kPublishPeriodNs = 5'000'000;
constexpr std::uint64_t kSpotEvery = 16384;  // queries between spot checks
constexpr std::size_t kSpanCap = 250'000;    // query spans per reader (traced)
constexpr std::int64_t kSliceNs = 100'000'000;  // throughput/latency interval

struct Served {
  std::unique_ptr<Metropolis> m;
  std::unique_ptr<ShardedIngestService> service;  // reads m's city and database
  PassSamples ingest;
};

std::unique_ptr<Served> setup(const Options& options) {
  auto s = std::make_unique<Served>();
  s->m = build_metropolis(options);
  s->service = std::make_unique<ShardedIngestService>(
      s->m->bed->world.city(), s->m->bed->database, metropolis_server_config(),
      metropolis_sharding());
  (void)s->service->open();
  EpochPublisher publisher(s->service->catalog());
  sharded_pass(*s->service, publisher, s->m->uploads, s->m->windows, s->ingest, nullptr);
  return s;
}

// CPUs for the publisher then each reader: the last kReaders + 1 CPUs this
// process may run on, or none (no pinning) when it may use fewer.
std::vector<int> placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  constexpr std::size_t kPinned = kReaders + 1;
  if (cpus.size() < kPinned) return {};
  return std::vector<int>(cpus.end() - kPinned, cpus.end());
}

// Pins the calling thread to `cpus[slot]`; a no-op without a placement.
void pin_thread(const std::vector<int>& cpus, std::size_t slot) {
  if (slot >= cpus.size()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot], &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

struct Reader {
  std::vector<LatencyHistogram> slices;  ///< mix-pass latency per 100 ms slice
  LatencyHistogram query_latency;        ///< single queries, whole phase
  std::uint64_t queries = 0;
  std::atomic<std::uint64_t> progress{0};  ///< `queries`, sampled per slice
  std::array<std::uint64_t, 4> per_family{};
  std::uint64_t spot_checks = 0;
  std::vector<std::string> failures;
  std::vector<double> pin_ns;
  SpanRecorder spans{kSpanCap};
};

struct Phase {
  std::vector<Reader> readers = std::vector<Reader>(kReaders);
  SpanRecorder publisher_spans;
  std::vector<double> publish_ns;
  std::vector<std::size_t> publish_slice;  ///< slice each publish started in
  std::size_t epochs_live_max = 0;
  std::vector<double> slice_rates;  ///< mix passes/s over each 100 ms slice
  double elapsed_s = 0.0;
  std::vector<std::string> failures;

  std::uint64_t queries() const {
    std::uint64_t n = 0;
    for (const Reader& r : readers) n += r.queries;
    return n;
  }

  /// Adds per slice the mix passes/s, the latency p50/p90/p99 of both
  /// readers' passes and the publish p50/p90 (slices with too few passes
  /// for a p99 are left out) to `out`, and the phase's single-query
  /// latencies to `all`.
  void add_intervals(Intervals& out, LatencyHistogram& all) const {
    std::size_t slices = 0;
    for (const Reader& r : readers) slices = std::max(slices, r.slices.size());
    std::vector<std::vector<double>> publishes(slices);
    for (std::size_t i = 0; i < publish_ns.size(); ++i) {
      if (publish_slice[i] < slices) publishes[publish_slice[i]].push_back(publish_ns[i]);
    }
    for (const Reader& r : readers) all.merge(r.query_latency);
    for (std::size_t k = 0; k < slices; ++k) {
      LatencyHistogram merged;
      for (const Reader& r : readers) {
        if (k < r.slices.size()) merged.merge(r.slices[k]);
      }
      if (merged.count() < 1000 || publishes[k].empty()) continue;
      out.p50_ns.push_back(merged.quantile_ns(0.5));
      out.p90_ns.push_back(merged.quantile_ns(0.9));
      out.p99_ns.push_back(merged.quantile_ns(0.99));
      out.ops += merged.count();
      out.lags += publishes[k].size();
      out.lag_p50_ns.push_back(quantile(publishes[k], 0.5));
      out.lag_p90_ns.push_back(quantile(publishes[k], 0.9));
    }
    out.rates.insert(out.rates.end(), slice_rates.begin(), slice_rates.end());
  }
};

void read_loop(const QueryService& queries, const QueryPools& pools, SimTime now,
               std::uint64_t first, std::int64_t start_ns, bool traced,
               const std::atomic<bool>& stop, Reader& out) {
  // Spot checks rotate through the families.
  constexpr Family kChecked[] = {Family::kSegment, Family::kKNearest, Family::kRegion,
                                 Family::kEta};
  std::uint64_t p = first;  // a multiple of kMixPeriod: whole passes only
  std::uint64_t sink = 0;
  std::int64_t pass_ns = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto slice = static_cast<std::size_t>((now_ns() - start_ns) / kSliceNs);
    if (slice >= out.slices.size()) out.slices.resize(slice + 1);
    LatencyHistogram& passes = out.slices[slice];
    for (int k = 0; k < 256; ++k, ++p) {
      const std::int64_t t0 = now_ns();
      sink += run_query(queries, pools, p, now);
      const std::int64_t t1 = now_ns();
      out.query_latency.record(t1 - t0);
      pass_ns += t1 - t0;
      if ((p + 1) % kMixPeriod == 0) {
        passes.record(pass_ns);
        pass_ns = 0;
      }
      const Family f = family_at(p);
      ++out.per_family[static_cast<std::size_t>(f)];
      if (traced && !out.spans.full() && (f != Family::kSegment || p % 64 == 1)) {
        out.spans.record(query_span(f), -1, p, t0, t1);
      }
    }
    out.queries += 256;
    out.progress.store(out.queries, std::memory_order_relaxed);
    if (out.queries % kSpotEvery == 0) {
      const std::uint64_t q = mix_position(kChecked[out.spot_checks % 4], p / kMixPeriod);
      ++out.spot_checks;
      const std::string error = spot_check(queries, pools, q, now);
      if (!error.empty() && out.failures.size() < 5) out.failures.push_back(error);
      if (traced) {
        constexpr int kPins = 64;
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < kPins; ++i) sink += queries.pin()->id();
        const std::int64_t t1 = now_ns();
        out.spans.record("epoch_publisher.pin", -1, p, t0, t1);
        out.pin_ns.push_back(static_cast<double>(t1 - t0) / kPins);
      }
    }
  }
  if (sink == 0) out.failures.push_back("no query was answered from an epoch");
}

// Readers flat out plus the 5 ms publisher for `seconds`.
Phase serve(const ShardedIngestService& source, EpochPublisher& publisher,
            const QueryPools& pools, SimTime now, double seconds, bool traced,
            const std::vector<int>& cpus) {
  Phase phase;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const std::int64_t start = now_ns();
  threads.emplace_back([&] {
    pin_thread(cpus, 0);
    try {
      std::int64_t next = now_ns();
      for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const std::int64_t t0 = now_ns();
        source.publish_epoch(publisher, now);
        const std::int64_t t1 = now_ns();
        phase.publish_ns.push_back(static_cast<double>(t1 - t0));
        phase.publish_slice.push_back(static_cast<std::size_t>((t0 - start) / kSliceNs));
        phase.epochs_live_max = std::max(phase.epochs_live_max, publisher.epochs_live());
        if (traced) phase.publisher_spans.record("epoch_publisher.publish", -1, k, t0, t1);
        next += kPublishPeriodNs;
        const std::int64_t wait = next - now_ns();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        } else {
          next = now_ns();
        }
      }
    } catch (const std::exception& e) {
      phase.failures.push_back(std::string("publisher: ") + e.what());
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      pin_thread(cpus, static_cast<std::size_t>(r) + 1);
      Reader& out = phase.readers[static_cast<std::size_t>(r)];
      try {
        const QueryService queries(publisher);
        read_loop(queries, pools, now, static_cast<std::uint64_t>(r) * 8929 * kMixPeriod,
                  start, traced, stop, out);
      } catch (const std::exception& e) {
        out.failures.push_back(std::string("reader: ") + e.what());
      }
    });
  }
  const auto progress = [&] {
    std::uint64_t n = 0;
    for (const Reader& r : phase.readers) n += r.progress.load(std::memory_order_relaxed);
    return n;
  };
  std::int64_t slice_start = now_ns();
  std::uint64_t done = progress();
  while (slice_start - start < static_cast<std::int64_t>(seconds * 1e9)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(slice_start + kSliceNs - now_ns()));
    const std::int64_t t = now_ns();
    const std::uint64_t n = progress();
    phase.slice_rates.push_back(static_cast<double>(n - done) * 1e9 /
                                static_cast<double>(kMixPeriod) /
                                static_cast<double>(t - slice_start));
    slice_start = t;
    done = n;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  phase.elapsed_s = seconds_since(start);
  for (const Reader& r : phase.readers) {
    phase.failures.insert(phase.failures.end(), r.failures.begin(), r.failures.end());
  }
  return phase;
}

// Counts the phase's spot checks and records its failures; returns the count.
std::uint64_t check_phase(const Phase& phase, Report& report) {
  std::uint64_t spot_checks = 0;
  for (const Reader& r : phase.readers) spot_checks += r.spot_checks;
  report.check(spot_checks > 0, "serving: no spot check ran");
  for (const std::string& failure : phase.failures) report.check(false, "serving: " + failure);
  return spot_checks;
}

}  // namespace

void run_serving_read_write(const Options& options, Report& report) {
  // An untraced run sets up three times and serves for a third of
  // `seconds` after each set-up, so its rounds sample the host over the
  // whole run rather than over its last stretch only.
  //
  // Each set-up's rounds run over a publisher (with its segment geometry
  // and epochs) and query pools built afresh after the allocator returned
  // its free memory, so each round reads from new pages. Without the
  // rebuilds the serving figures hold one level for a whole process, and
  // that level differs from process to process (from 5.0M to 6.5M
  // queries/s on a shared 4-core host); with them the level moves from
  // round to round, so the medians over the slices of all rounds sample
  // many memory layouts instead of one, as layout randomization does in
  // Stabilizer (Curtsinger and Berger, ASPLOS 2013).
  const int setups = options.trace ? 1 : 3;
  constexpr int kRoundsPerSetup = 4;
  const int rounds = setups * kRoundsPerSetup;
  const std::vector<int> cpus = placement();
  std::unique_ptr<Served> served;
  std::vector<double> setup_s;
  std::uint64_t first_digest = 0;
  Reference reference;
  Intervals intervals;
  LatencyHistogram latency;
  std::uint64_t queries = 0, spot_checks = 0, publishes = 0, failures = 0;
  double elapsed_s = 0.0;
  for (int k = 0; k < setups; ++k) {
    served.reset();
    release_free_memory();
    const std::int64_t start = now_ns();
    served = setup(options);
    setup_s.push_back(seconds_since(start));
    const Metropolis& m = *served->m;
    const std::uint64_t d = digest(m.uploads);
    if (k == 0) {
      first_digest = d;
      reference = serial_reference(*m.bed, metropolis_server_config(), m.uploads, m.windows,
                                   options.seed);
      report.check(reference.accepted == m.uploads.size(), "serial reference rejected uploads");
    }
    // The same uploads, so the reference of the first set-up holds.
    report.check(d == first_digest, "serving_read_write: set-up is not deterministic");
    const SimTime now = m.windows.back().close;
    {
      EpochPublisher publisher(served->service->catalog());
      served->service->publish_epoch(publisher, now);
      (void)check_sharded(*served->service, publisher, reference, served->ingest.accepted,
                          report);
    }
    for (int round = 0; round < (options.trace ? 0 : kRoundsPerSetup); ++round) {
      release_free_memory();
      EpochPublisher publisher(served->service->catalog());
      served->service->publish_epoch(publisher, now);
      const QueryPools pools = make_query_pools(publisher, m.bed->world.city(), options.seed);
      const Phase phase = serve(*served->service, publisher, pools, now,
                                options.seconds / rounds, false, cpus);
      spot_checks += check_phase(phase, report);
      phase.add_intervals(intervals, latency);
      queries += phase.queries();
      publishes += phase.publish_ns.size();
      failures += phase.failures.size();
      elapsed_s += phase.elapsed_s;
    }
  }
  const Metropolis& m = *served->m;
  ShardedIngestService& service = *served->service;
  report.stamp("trips", static_cast<double>(m.uploads.size()));
  report.stamp("windows", static_cast<double>(m.windows.size()));
  report.stamp("readers", static_cast<double>(kReaders));
  report.stamp("publish_period_ms", static_cast<double>(kPublishPeriodNs) / 1e6);
  std::string where = "unpinned";
  if (!cpus.empty()) {
    where = "publisher@" + std::to_string(cpus[0]) + " readers@";
    for (std::size_t r = 1; r < cpus.size(); ++r) {
      if (r > 1) where += ',';
      where += std::to_string(cpus[r]);
    }
  }
  report.stamp("placement", where);

  if (!options.trace) {
    const auto n = static_cast<double>(queries);
    report_end_to_end(report, setup_s, intervals);
    report.metric("queries_per_s", n / elapsed_s, "queries/s", queries, false);
    report.metric("query_latency_p50_ns", latency.quantile_ns(0.5), "ns", latency.count(), false);
    report.metric("query_latency_p90_ns", latency.quantile_ns(0.9), "ns", latency.count(), false);
    report.metric("query_latency_p99_ns", latency.quantile_ns(0.99), "ns", latency.count(), false);
    report.metric("failed_fraction", static_cast<double>(failures) / n, "ratio", queries, false);
    report.stamp("rounds", static_cast<double>(rounds));
    report.stamp("spot_checks", static_cast<double>(spot_checks));
    report.stamp("queries", n);
    report.stamp("publishes", static_cast<double>(publishes));
    report.attempt(queries, 0);
    return;
  }

  const SimTime now = m.windows.back().close;
  EpochPublisher publisher(service.catalog());
  service.publish_epoch(publisher, now);
  const QueryPools pools = make_query_pools(publisher, m.bed->world.city(), options.seed);
  const Phase plain = serve(service, publisher, pools, now, options.seconds / 2, false, cpus);
  const Phase traced = serve(service, publisher, pools, now, options.seconds / 2, true, cpus);
  report.stamp("spot_checks",
               static_cast<double>(check_phase(plain, report) + check_phase(traced, report)));

  // The ingest front end's layers come from a traced replay of the stream
  // into a fresh service.
  ShardedIngestService replay(m.bed->world.city(), m.bed->database, metropolis_server_config(),
                              metropolis_sharding());
  (void)replay.open();
  EpochPublisher replay_publisher(replay.catalog());
  SpanRecorder front;
  PassSamples pass;
  sharded_pass(replay, replay_publisher, m.uploads, m.windows, pass, &front);
  FrontEndSamples fe;
  fe.enqueue_ns = pass.enqueue_ns;
  fe.drain_ns = pass.drain_ns;
  fe.processed_per_partition =
      check_sharded(replay, replay_publisher, reference, pass.accepted, report);
  constexpr auto kPass = static_cast<double>(kMixPeriod);
  fe.untraced_ops_per_s = static_cast<double>(plain.queries()) / kPass / plain.elapsed_s;
  fe.traced_ops_per_s = static_cast<double>(traced.queries()) / kPass / traced.elapsed_s;
  report_front_end_layers(report, fe);

  SpanRecorder staged;
  (void)run_staged(*m.bed, m.uploads, m.windows, reference, options, staged, report);

  // Serving layers from the traced reader phase.
  ServingSamples serving;
  serving.publish_ns = traced.publish_ns;
  serving.epochs_live_max = traced.epochs_live_max;
  std::map<std::string, SpanStats> stats;
  for (const Reader& r : traced.readers) {
    aggregate_spans(r.spans.spans(), stats);
    serving.pin_ns.insert(serving.pin_ns.end(), r.pin_ns.begin(), r.pin_ns.end());
    for (std::size_t f = 0; f < r.per_family.size(); ++f) {
      serving.query_count[static_cast<Family>(f)] += r.per_family[f];
    }
  }
  for (const Family f : {Family::kSegment, Family::kKNearest, Family::kRegion, Family::kEta}) {
    serving.query_ns[f] = stats[query_span(f)].durations_ns;
  }
  report_serving_layers(report, serving);
  report.metric("trafficsim.generate_s", m.generate_s, "s", 1, true);

  const std::string path = options.out_dir + "/spans-serving_read_write-seed" +
                           std::to_string(options.seed) + ".csv";
  std::vector<const SpanRecorder*> recorders = {&front, &staged, &traced.publisher_spans};
  for (const Reader& r : traced.readers) recorders.push_back(&r.spans);
  write_spans(path, recorders);
  report.stamp("span_file", path);
  report.stamp("queries", static_cast<double>(plain.queries() + traced.queries()));
  report.attempt(plain.queries() + traced.queries(), 0);
}

}  // namespace perfbench
