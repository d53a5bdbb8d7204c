// Shared pieces of the end-to-end + per-layer benchmark (run.py documents
// the command line, README.md the metrics): the report every run prints,
// timing and percentile helpers, the span recorder of traced runs, the
// fixture every workload builds, the window plan of a replay and the
// correctness gate against a serial TrafficServer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/epoch_publisher.h"
#include "core/fusion.h"
#include "core/ingest_service.h"
#include "core/query_service.h"
#include "core/server.h"
#include "core/stop_database.h"
#include "core/traffic_map.h"
#include "core/workload_replay.h"
#include "trafficsim/lod_world.h"
#include "trafficsim/world.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;                        ///< reduced sizes (smoke check)
  std::string out_dir = ".bench_build/out";  ///< span files, WAL scratch
  std::string git = "unknown";               ///< git describe of the tree
};

// ------------------------------------------------------------------ timing

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// q-quantile (q in [0, 1]), linear interpolation between closest ranks;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// Latency histogram in nanoseconds, for samples too many to keep: 1 ns
/// buckets below 1024 ns, then 64 log-spaced buckets per octave (under 1.6%
/// wide). quantile_ns() interpolates by rank inside the bucket.
class LatencyHistogram {
 public:
  void record(std::int64_t ns);
  void merge(const LatencyHistogram& other);
  double quantile_ns(double q) const;
  std::uint64_t count() const { return total_; }

 private:
  static constexpr std::size_t kLinear = 1024;
  static constexpr std::size_t kPerOctave = 64;
  static constexpr std::size_t kOctaves = 32;
  std::vector<std::uint64_t> counts_ =
      std::vector<std::uint64_t>(kLinear + kPerOctave * kOctaves, 0);
  std::uint64_t total_ = 0;
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();
/// Returns the allocator's free memory to the OS. Called between untimed
/// phases (set-ups, passes), so the peak RSS is that of one set-up or one
/// service rather than of memory the allocator kept from earlier ones.
void release_free_memory();
// ------------------------------------------------------------------ report

/// Everything one run prints. Metrics marked `json` form the final result
/// line (the BENCHMARK.json set of this mode); the others are detail lines.
/// Every metric records its sample count.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples, bool json);
  void stamp(const std::string& key, const std::string& value);
  void stamp(const std::string& key, double value);
  /// A self-check or correctness check; any failure makes the run incorrect.
  bool check(bool ok, const std::string& what);
  /// Operations attempted in the measured phase, and how many of them were
  /// rejected or failed.
  void attempt(std::uint64_t ops, std::uint64_t failed);
  /// Prints the stamp, the metric lines and the result line; returns the
  /// exit code (1 when anything failed).
  int finish(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
    bool json;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;  ///< JSON values
  std::vector<std::string> failures_;  ///< first few failed checks
  std::uint64_t checks_ = 0;
  std::uint64_t checks_failed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ops_ = 0;
};

// ----------------------------------------------------------------- tracing

/// One traced call: name, start and end, the span that caused it (-1 for a
/// root) and the request (trip, window or query) it belongs to.
struct Span {
  const char* name;
  std::int32_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// The spans of one thread, kept in memory until the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = SIZE_MAX) : capacity_(capacity) {}
  std::int32_t begin(const char* name, std::int32_t parent, std::uint64_t request) {
    spans_.push_back(Span{name, parent, request, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// A span whose times the caller already took.
  void record(const char* name, std::int32_t parent, std::uint64_t request,
              std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  }
  bool full() const { return spans_.size() >= capacity_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::size_t capacity_;
};

/// RAII span; a null recorder makes it a no-op, so traced and untraced
/// passes share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int32_t parent = -1,
             std::uint64_t request = 0)
      : rec_(rec), id_(rec ? rec->begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::int32_t id_;
};

/// Per-name totals. A span's self time is its duration minus the part of
/// it its child spans cover.
struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_ns;
};
void aggregate_spans(const std::vector<Span>& spans,
                     std::map<std::string, SpanStats>& into);

/// Writes every recorder's spans as CSV (id,name,parent,request,start_ns,
/// end_ns; ids global, times relative to the earliest span).
void write_spans(const std::string& path,
                 const std::vector<const SpanRecorder*>& recorders);

// ----------------------------------------------------------------- fixture

/// The city, its cellular plant and the surveyed fingerprint database. Fixed
/// across seeds: the seed varies the riders' trips and queries, not the city.
struct Testbed {
  bussense::World world;
  bussense::StopDatabase database;
};
std::unique_ptr<Testbed> build_testbed();

/// Uploads of one fusion window: [begin, end) arrive before the
/// advance_time(close) that ends it. Same cadence as replay_workload: a
/// 300 s boundary closes when the first upload at or after it arrives
/// (empty windows included), and the last window closes 30 s after the
/// last arrival.
struct Window {
  std::size_t begin = 0;
  std::size_t end = 0;
  bussense::SimTime close = 0.0;
};
std::vector<Window> plan_windows(const std::vector<bussense::TimedUpload>& uploads);

/// FNV-1a over every upload's content and arrival (set-up determinism).
std::uint64_t digest(const std::vector<bussense::TimedUpload>& uploads);

// -------------------------------------------------------- correctness gate

/// A serial TrafficServer fed the same uploads window by window, each
/// window's uploads in a seeded shuffled order — so agreement also shows
/// the fused state does not depend on processing order.
struct Reference {
  std::vector<bussense::FusionExportEntry> fusion;
  std::vector<bussense::MapSegment> map;  ///< at the last close, by key
  std::uint64_t accepted = 0;
};
Reference serial_reference(const Testbed& bed, bussense::ServerConfig config,
                           const std::vector<bussense::TimedUpload>& uploads,
                           const std::vector<Window>& windows,
                           std::uint64_t seed);

std::vector<bussense::MapSegment> canonical(const bussense::TrafficMap& map);
/// Empty when bit-identical, else the first difference.
std::string diff_fusion(const std::vector<bussense::FusionExportEntry>& got,
                        const std::vector<bussense::FusionExportEntry>& want);
std::string diff_map(const std::vector<bussense::MapSegment>& got,
                     const std::vector<bussense::MapSegment>& want);

// ----------------------------------------------------------------- queries

enum class Family : std::uint8_t { kSegment, kKNearest, kRegion, kEta };
const char* family_name(Family family);
const char* query_span(Family family);  ///< "query.<family>"

/// Seeded query arguments for every family.
struct QueryPools {
  std::vector<bussense::SegmentKey> keys;
  std::vector<bussense::Point> points;
  std::vector<bussense::BoundingBox> boxes;
  std::vector<std::pair<const bussense::BusRoute*, int>> etas;
};
QueryPools make_query_pools(const bussense::EpochPublisher& publisher,
                            const bussense::City& city, std::uint64_t seed);

/// The fixed serving mix, a period of 112 positions: 100 segment-speed
/// lookups, 10 region aggregates and one route ETA — the 200k : 20k : 2k
/// segment/region/ETA mix of bench_query_service's mixed-family run — plus
/// one k-nearest query, given the ETA share.
constexpr std::uint64_t kMixPeriod = 112;
Family family_at(std::uint64_t p);
/// A mix position of `family` in period `period`.
std::uint64_t mix_position(Family family, std::uint64_t period);

/// Runs query p of the mix; returns the answering epoch id.
std::uint64_t run_query(const bussense::QueryService& queries,
                        const QueryPools& pools, std::uint64_t p,
                        bussense::SimTime now);

/// Re-runs query p under a pinned epoch and compares the answer with one
/// computed directly from that epoch's map. Empty when they agree.
std::string spot_check(const bussense::QueryService& queries,
                       const QueryPools& pools, std::uint64_t p,
                       bussense::SimTime now);

// ----------------------------------------------------- end-to-end metrics

/// Per-interval figures of a run's measured phase; an interval is a
/// round, a pass or a time slice.
struct Intervals {
  std::vector<double> rates;       ///< operations (trips or mix passes) per second
  std::vector<double> p50_ns;      ///< per-operation latency p50
  std::vector<double> p90_ns;      ///< per-operation latency p90
  std::vector<double> p99_ns;      ///< per-operation latency p99
  std::vector<double> lag_p50_ns;  ///< window-close-to-served lag p50
  std::vector<double> lag_p90_ns;  ///< window-close-to-served lag p90
  std::uint64_t ops = 0;           ///< latency samples behind them
  std::uint64_t lags = 0;          ///< lag samples behind them

  /// Adds an interval's figures from its operation and lag samples.
  void add(double rate, std::vector<double> latency_ns, std::vector<double> lag_ns);
};

/// The end-to-end metrics every workload reports, the BENCHMARK.json
/// end_to_end set: median set-up time over the run's set-ups, the medians
/// over the run's intervals of operations per second, per-operation
/// latency p90 and window-close-to-served lag p90, the means over them of
/// the per-operation latency p50 and lag p50, and peak RSS. Medians over
/// intervals keep a burst of load from other processes on the host from
/// moving the figures. The p50s take the mean instead: serving_read_write's
/// intervals fall into two speed states of the host's cores (mix-pass p50
/// near 25 us or near 35 us), and a median over intervals jumps from one to
/// the other as the share of fast intervals crosses one half, while the
/// mean moves in proportion to it. The per-operation p99 is a detail line:
/// it moved half again as much as p50 with the load of other tenants on the
/// host, beyond the largest regression bound.
void report_end_to_end(Report& report, const std::vector<double>& setup_s,
                       const Intervals& intervals);

// ------------------------------------------------------- per-layer metrics

/// Samples of the serving layers, from whichever phase exercised them.
struct ServingSamples {
  std::vector<double> publish_ns;
  std::vector<double> pin_ns;  ///< per pin, from timed batches
  std::size_t epochs_live_max = 0;
  std::map<Family, std::vector<double>> query_ns;
  std::map<Family, std::uint64_t> query_count;
};
void report_serving_layers(Report& report, const ServingSamples& samples);

/// Samples of the sharded front end (its process_trip and advance_time
/// calls) and the traced-vs-untraced throughput of the same workload.
struct FrontEndSamples {
  std::vector<double> enqueue_ns;
  std::vector<double> drain_ns;
  std::vector<std::uint64_t> processed_per_partition;
  double untraced_ops_per_s = 0.0;
  double traced_ops_per_s = 0.0;
};
void report_front_end_layers(Report& report, const FrontEndSamples& samples);

/// The traced stage-at-a-time re-run (staged.cpp). Every upload goes
/// admit → WAL append → match → cluster → map → estimate → fold and every
/// window time-mark → advance → publish → query probe, each call under its
/// own span. Adds the trip-path per-layer metrics and prints the layer
/// table; returns the serving-layer samples of the probe.
ServingSamples run_staged(const Testbed& bed,
                          const std::vector<bussense::TimedUpload>& uploads,
                          const std::vector<Window>& windows,
                          const Reference& reference, const Options& options,
                          SpanRecorder& rec, Report& report);

/// A fresh scratch directory under the run's output directory.
std::string scratch_dir(const Options& options, const std::string& name);

// -------------------------------------------------------------- metropolis

/// A LodWorld weekday (day 0) of the metropolis, sorted by arrival — the
/// input of metropolis_day and serving_read_write.
struct Metropolis {
  std::unique_ptr<Testbed> bed;
  std::vector<bussense::TimedUpload> uploads;
  std::vector<Window> windows;
  double generate_s = 0.0;
  bussense::LodLoss loss;
  bussense::LodCensus census;
};
std::unique_ptr<Metropolis> build_metropolis(const Options& options);

/// Admission on; three shards with kBlock backpressure (one producer plus
/// three consumers fill a 4-core host).
bussense::ServerConfig metropolis_server_config();
bussense::ShardedIngestConfig metropolis_sharding();

/// Per-call samples of replays through the sharded front end.
struct PassSamples {
  std::vector<double> enqueue_ns;  ///< process_trip, backpressure included
  std::vector<double> drain_ns;    ///< advance_time
  std::vector<double> publish_ns;  ///< publish_epoch
  std::vector<double> lag_ns;      ///< advance_time call to publish_epoch return
  Intervals passes;                ///< per pass: trips/s, enqueue latency
  double busy_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
};

/// Replays every upload through `service` from this one producer thread in
/// window order, closing each window with advance_time then publish_epoch.
void sharded_pass(bussense::ShardedIngestService& service,
                  bussense::EpochPublisher& publisher,
                  const std::vector<bussense::TimedUpload>& uploads,
                  const std::vector<Window>& windows, PassSamples& out,
                  SpanRecorder* rec);

/// The checks after a sharded pass: fused state and last epoch against the
/// serial reference, every shard at least half its fair share, every
/// upload admitted, and — with a vector matcher kernel — the batch matcher's
/// incumbent-bound prescreen skipped records inside the pipeline
/// (matcher.records_bound_skipped > 0). Returns the uploads processed per
/// shard.
std::vector<std::uint64_t> check_sharded(const bussense::ShardedIngestService& service,
                                         const bussense::EpochPublisher& publisher,
                                         const Reference& reference,
                                         std::uint64_t accepted, Report& report);

// --------------------------------------------------------------- workloads

void run_metropolis_day(const Options& options, Report& report);
void run_serving_read_write(const Options& options, Report& report);

}  // namespace perfbench
