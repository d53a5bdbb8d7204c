// Backend traffic-monitoring server: the full pipeline of Figure 4.
//
// receive trip → per-sample matching (γ filter) → per-bus-stop clustering →
// per-trip ML mapping under route constraints → travel time extraction →
// BTT→ATT model → Bayesian fusion → traffic map.
//
// TrafficServer is the pipeline plus its serial, synchronous reference
// path: every identity property compares against process_trip(). It is
// also the backend of the ingest front end, ShardedIngestService
// (core/ingest_service.h): analysis is a pure function of immutable state
// and the fusion store is internally locked, so shard consumers call
// process_admitted() and ingest() concurrently.
//
// There is one analysis path. process_admitted() runs match → cluster →
// map → estimate over a caller-owned TripScratch, whose stage outputs are
// index views (a matched sample names its upload sample, a cluster a run
// of matched samples, a mapped stop its cluster) and whose buffers are
// reused from trip to trip; each shard consumer owns one. analyze_trip()
// and process_trip() run the same code over a local scratch and hand its
// stage outputs to the caller in a TripReport. Durability (write-ahead
// log, checkpoints, recovery) lives only in ShardedIngestService; a
// 1-shard service is the durable serial path. Every pipeline stage
// reports throughput, rejection counts and latency into the server's
// MetricsRegistry (disable via ServerConfig::obs — results are
// bit-identical either way). The counters are exact; the per-trip stage
// latencies (pipeline.{match,cluster,map,estimate,trip}_s) are sampled:
// a thread times one trip in BucketHistogram::kSampleEvery, its first
// included, and a timed trip times all of its stages. The per-batch fold
// (fusion.fold_s) is timed on every call.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "citynet/city.h"
#include "core/admission.h"
#include "core/clustering.h"
#include "core/config_common.h"
#include "core/fusion.h"
#include "core/ingest_report.h"
#include "core/route_graph.h"
#include "core/segment_catalog.h"
#include "core/stop_matcher.h"
#include "core/traffic_map.h"
#include "core/travel_estimator.h"
#include "core/trip_mapper.h"
#include "obs/metrics.h"
#include "sensing/trip.h"

namespace bussense {

class EpochPublisher;  // core/epoch_publisher.h (serving tier, DESIGN.md §13)

/// Working memory of one analysing thread: the stage outputs of the trip it
/// analysed last and the stages' reusable buffers. Reusing one across trips
/// keeps a steady-state trip nearly allocation-free.
struct TripScratch {
  std::vector<MatchedSample> matched;  ///< by time; see TripReport
  std::size_t rejected_samples = 0;
  std::vector<SampleCluster> clusters;
  MappedTrip mapped;
  ClusteringScratch clustering;
  MapperScratch mapping;
};

struct ServerConfig {
  StopMatcherConfig matcher;
  ClusteringConfig clustering;
  AttModelConfig att;
  FusionConfig fusion;

  StagesConfig stages;
  ObservabilityConfig obs;

  /// Write-ahead trip log + checkpoint/restore (DESIGN.md §14). Off by
  /// default. Only ShardedIngestService honours it, through its
  /// open()/checkpoint()/close() lifecycle: every admitted upload is
  /// logged before its estimates are applied. TrafficServer throws
  /// std::invalid_argument when it is enabled.
  DurabilityConfig durability;

  /// Admission control (core/admission.h): replay dedup, sanity bounds and
  /// clock-skew re-anchoring before any pipeline work. Off by default; on
  /// a clean workload the pipeline is bit-identical with it on or off
  /// (property-tested), so enabling it only ever costs the checks.
  AdmissionConfig admission;

  /// Validates the whole nested config tree (matcher scores, clustering
  /// scales, fusion periods); throws std::invalid_argument on nonsense
  /// such as a non-positive fusion update period. One call checks
  /// everything — the single entry point for all front ends.
  void validate() const;
};

class TrafficServer {
 public:
  /// Throws std::invalid_argument on an invalid config, and when
  /// config.durability.enabled is set (run a durable ShardedIngestService
  /// instead).
  TrafficServer(const City& city, StopDatabase database,
                ServerConfig config = {});

  /// Runs the full pipeline — admission, process_admitted(), ingest() —
  /// and folds the estimates into the fusion state. Returns a fully
  /// populated report with outcome kProcessed, or kRejected plus the
  /// admission verdict.
  TripReport process_trip(const TripUpload& trip);

  /// The pure analysis part of process_trip: match → cluster → map →
  /// estimate. Feeds no fusion state and counts no trip; thread-safe.
  TripReport analyze_trip(const TripUpload& trip) const;

  /// The trip path: analyses an upload that already passed admission (and,
  /// in a durable service, the log) over `scratch`, counts it as processed
  /// and appends its estimates to `out`, not yet folded — the caller hands
  /// them to ingest(), alone or batched with other trips'. Thread-safe
  /// with one scratch per thread.
  void process_admitted(const TripUpload& trip, TripScratch& scratch,
                        std::vector<SpeedEstimate>& out);

  /// Folds estimates into the fusion state (the mutable half).
  /// Thread-safe: the fusion store locks per stripe.
  void ingest(const std::vector<SpeedEstimate>& estimates);

  /// Pipeline stages exposed individually (benches and ablations), each
  /// the trip path's own stage over fresh buffers. The match stage drops
  /// samples with an empty fingerprint or a time outside ±kMaxSimTime and
  /// samples below γ, counting them in `rejected`.
  std::vector<MatchedSample> match_samples(const TripUpload& trip,
                                           std::size_t* rejected = nullptr) const;
  std::vector<SampleCluster> cluster_samples(
      std::span<const MatchedSample> matched) const;
  MappedTrip map_trip(std::span<const SampleCluster> clusters) const;

  /// Advances the admission watermark and closes fusion periods up to
  /// `now`. Call only once every estimate older than `now`'s period has
  /// been handed in.
  void advance_time(SimTime now);
  /// The fused traffic map.
  TrafficMap snapshot(SimTime now, double max_age_s = 3600.0) const;

  /// Publishes the current fused state as a serving epoch (DESIGN.md §13):
  /// the same fused state and strict-`>` staleness boundary as
  /// snapshot(now, max_age_s) — the published epoch's map is bit-identical
  /// to that snapshot — built by visitation (no intermediate fused-map
  /// copy) and swapped in behind the publisher's atomic epoch pointer.
  /// Returns the new epoch id.
  std::uint64_t publish_epoch(EpochPublisher& publisher, SimTime now,
                              double max_age_s = 3600.0) const;

  /// Recovery hooks for ShardedIngestService, which owns the WAL segments
  /// and admission but folds into this server: the checkpointed state
  /// that lives here. Call only while quiescent.
  std::vector<FusionExportEntry> export_fusion() const {
    return fusion_.export_state();
  }
  void restore(const std::vector<FusionExportEntry>& fusion,
               std::uint64_t trips_processed);

  /// Pipeline-wide registry (throughput, rejection counts, per-stage
  /// latency). Always present; empty when observability is disabled.
  const MetricsRegistry& metrics() const { return *metrics_; }
  /// Mutable registry access (front ends layered on top register their own
  /// instruments here so one export covers the whole pipeline).
  MetricsRegistry& metrics_registry() { return *metrics_; }

  const City& city() const { return *city_; }
  const StopDatabase& database() const { return database_; }
  const SegmentCatalog& catalog() const { return catalog_; }
  const SpeedFusion& fusion() const { return fusion_; }
  const RouteGraph& route_graph() const { return route_graph_; }
  std::uint64_t trips_processed() const { return trips_processed_.value(); }

 private:
  /// The stages over caller buffers, each counted, and timed into its
  /// latency histogram when `timed`.
  void match_into(const TripUpload& trip, std::vector<MatchedSample>& out,
                  std::size_t& rejected, bool timed) const;
  void cluster_into(std::span<const MatchedSample> matched,
                    std::vector<SampleCluster>& out,
                    ClusteringScratch& scratch, bool timed) const;
  void map_into(std::span<const SampleCluster> clusters, MappedTrip& out,
                MapperScratch& scratch, bool timed) const;
  /// match → cluster → map → estimate into `scratch` and `out`.
  void analyze(const TripUpload& trip, TripScratch& scratch,
               std::vector<SpeedEstimate>& out, bool timed) const;

  const City* city_;
  StopDatabase database_;
  ServerConfig config_;
  RouteGraph route_graph_;
  SegmentCatalog catalog_;
  StopMatcher matcher_;
  TripMapper mapper_;
  TravelEstimator estimator_;
  SpeedFusion fusion_;
  std::unique_ptr<AdmissionController> admission_;
  /// Per-thread cells, so the shard consumers never write one line; kept
  /// with observability off too (checkpoints save it).
  Counter trips_processed_;

  // Observability: instruments cached at construction; all null-checked so
  // the disabled path costs one branch. Owned registry exists either way
  // (metrics() must always have something to return).
  std::unique_ptr<MetricsRegistry> metrics_;
  struct Instruments {
    Counter* trips = nullptr;
    Counter* samples_considered = nullptr;
    Counter* samples_rejected = nullptr;
    Counter* samples_matched = nullptr;
    Counter* clusters = nullptr;
    Counter* estimates = nullptr;
    BucketHistogram* match_s = nullptr;
    BucketHistogram* cluster_s = nullptr;
    BucketHistogram* map_s = nullptr;
    BucketHistogram* estimate_s = nullptr;
    BucketHistogram* fold_s = nullptr;
    BucketHistogram* trip_s = nullptr;
  };
  Instruments inst_;
};

}  // namespace bussense
