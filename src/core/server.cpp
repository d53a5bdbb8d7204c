#include "core/server.h"

#include <algorithm>
#include <stdexcept>

#include "core/epoch_publisher.h"

namespace bussense {

void ServerConfig::validate() const {
  matcher.validate();
  if (!(clustering.max_score > 0.0)) {
    throw std::invalid_argument("ServerConfig: clustering.max_score must be > 0");
  }
  if (!(clustering.max_gap_s > 0.0)) {
    throw std::invalid_argument("ServerConfig: clustering.max_gap_s must be > 0");
  }
  if (!(fusion.update_period_s > 0.0)) {
    throw std::invalid_argument(
        "ServerConfig: fusion.update_period_s must be > 0");
  }
  if (!(fusion.observation_variance > 0.0)) {
    throw std::invalid_argument(
        "ServerConfig: fusion.observation_variance must be > 0");
  }
  if (!(fusion.variance_floor >= 0.0)) {
    throw std::invalid_argument(
        "ServerConfig: fusion.variance_floor must be >= 0");
  }
  if (!(fusion.process_noise_per_s >= 0.0)) {
    throw std::invalid_argument(
        "ServerConfig: fusion.process_noise_per_s must be >= 0");
  }
  admission.validate();
  durability.validate();
}

TrafficServer::TrafficServer(const City& city, StopDatabase database,
                             ServerConfig config)
    : city_(&city),
      database_(std::move(database)),
      config_(config),
      route_graph_(city),
      catalog_(city),
      matcher_(database_, config_.matcher),
      mapper_(route_graph_),
      estimator_(catalog_, config_.att),
      fusion_(config_.fusion),
      metrics_(std::make_unique<MetricsRegistry>()) {
  config_.validate();
  if (config_.durability.enabled) {
    throw std::invalid_argument(
        "TrafficServer: durability is owned by ShardedIngestService; run a "
        "1-shard service for a durable serial path");
  }
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
  }
  if (config_.obs.enabled) {
    inst_.trips = &metrics_->counter("pipeline.trips");
    inst_.samples_considered = &metrics_->counter("pipeline.samples_considered");
    inst_.samples_rejected = &metrics_->counter("pipeline.samples_rejected");
    inst_.samples_matched = &metrics_->counter("pipeline.samples_matched");
    inst_.clusters = &metrics_->counter("pipeline.clusters");
    inst_.estimates = &metrics_->counter("pipeline.estimates");
    inst_.match_s = &metrics_->histogram("pipeline.match_s");
    inst_.cluster_s = &metrics_->histogram("pipeline.cluster_s");
    inst_.map_s = &metrics_->histogram("pipeline.map_s");
    inst_.estimate_s = &metrics_->histogram("pipeline.estimate_s");
    inst_.fold_s = &metrics_->histogram("fusion.fold_s");
    inst_.trip_s = &metrics_->histogram("pipeline.trip_s");
    matcher_.bind_metrics(metrics_.get());
    if (admission_) admission_->bind_metrics(metrics_.get());
  }
}

namespace {

// A report carrying the scratch's stage outputs (moved out).
TripReport report_of(TripScratch& scratch,
                     std::vector<SpeedEstimate> estimates) {
  TripReport report;
  report.matched = std::move(scratch.matched);
  report.rejected_samples = scratch.rejected_samples;
  report.clusters = std::move(scratch.clusters);
  report.mapped = std::move(scratch.mapped);
  report.estimates = std::move(estimates);
  return report;
}

}  // namespace

void TrafficServer::match_into(const TripUpload& trip,
                               std::vector<MatchedSample>& out,
                               std::size_t& rejected, bool timed) const {
  const ScopedTimer timer(timed ? inst_.match_s : nullptr);
  out.clear();
  rejected = 0;
  MatchStats stats;
  for (std::size_t i = 0; i < trip.samples.size(); ++i) {
    const CellularSample& sample = trip.samples[i];
    // Malformed or censored samples, and times no fusion period can hold.
    if (sample.fingerprint.empty() || !in_sim_range(sample.time)) {
      ++rejected;
      continue;
    }
    if (const auto result = matcher_.match_deferred(sample.fingerprint, stats)) {
      out.push_back(MatchedSample{static_cast<std::uint32_t>(i), sample.time,
                                  result->stop, result->score});
    } else {
      ++rejected;
    }
  }
  matcher_.record(stats);
  // Uploads come from unsynchronised phones over lossy links: never trust
  // their sample ordering (the clustering stage requires time order). Ties
  // keep upload order, as a stable sort would.
  const auto earlier = [](const MatchedSample& a, const MatchedSample& b) {
    return a.time < b.time || (a.time == b.time && a.index < b.index);
  };
  if (!std::is_sorted(out.begin(), out.end(), earlier)) {
    std::sort(out.begin(), out.end(), earlier);
  }
  if (inst_.samples_considered) {
    inst_.samples_considered->add(trip.samples.size());
    inst_.samples_rejected->add(rejected);
    inst_.samples_matched->add(out.size());
  }
}

void TrafficServer::cluster_into(std::span<const MatchedSample> matched,
                                 std::vector<SampleCluster>& out,
                                 ClusteringScratch& scratch,
                                 bool timed) const {
  const ScopedTimer timer(timed ? inst_.cluster_s : nullptr);
  if (config_.stages.clustering) {
    bussense::cluster_samples(matched, config_.clustering, out, scratch);
  } else {
    // Ablation: each sample becomes its own singleton cluster.
    out.clear();
    for (std::uint32_t i = 0; i < matched.size(); ++i) {
      const MatchedSample& m = matched[i];
      out.push_back(SampleCluster{i, 1, m.time, m.time,
                                  {StopCandidate{m.stop, 1.0, m.score}}});
    }
  }
  if (inst_.clusters) inst_.clusters->add(out.size());
}

void TrafficServer::map_into(std::span<const SampleCluster> clusters,
                             MappedTrip& out, MapperScratch& scratch,
                             bool timed) const {
  const ScopedTimer timer(timed ? inst_.map_s : nullptr);
  if (config_.stages.trip_mapping) {
    mapper_.map_trip(clusters, out, scratch);
  } else {
    // Ablation: take each cluster's best candidate with no sequence
    // reasoning.
    out.stops.clear();
    out.likelihood = 0.0;
    for (std::uint32_t k = 0; k < clusters.size(); ++k) {
      const SampleCluster& c = clusters[k];
      out.stops.push_back(MappedCluster{k, c.best_candidate().stop, c.arrival,
                                        c.departure});
    }
  }
}

void TrafficServer::analyze(const TripUpload& trip, TripScratch& scratch,
                            std::vector<SpeedEstimate>& out, bool timed) const {
  match_into(trip, scratch.matched, scratch.rejected_samples, timed);
  cluster_into(scratch.matched, scratch.clusters, scratch.clustering, timed);
  map_into(scratch.clusters, scratch.mapped, scratch.mapping, timed);
  const std::size_t before = out.size();
  {
    const ScopedTimer timer(timed ? inst_.estimate_s : nullptr);
    estimator_.estimate(scratch.mapped, out);
  }
  if (inst_.estimates) inst_.estimates->add(out.size() - before);
}

std::vector<MatchedSample> TrafficServer::match_samples(
    const TripUpload& trip, std::size_t* rejected) const {
  std::vector<MatchedSample> matched;
  std::size_t dropped = 0;
  match_into(trip, matched, dropped, sampled(inst_.match_s) != nullptr);
  if (rejected) *rejected = dropped;
  return matched;
}

std::vector<SampleCluster> TrafficServer::cluster_samples(
    std::span<const MatchedSample> matched) const {
  std::vector<SampleCluster> clusters;
  ClusteringScratch scratch;
  cluster_into(matched, clusters, scratch,
               sampled(inst_.cluster_s) != nullptr);
  return clusters;
}

MappedTrip TrafficServer::map_trip(
    std::span<const SampleCluster> clusters) const {
  MappedTrip trip;
  MapperScratch scratch;
  map_into(clusters, trip, scratch, sampled(inst_.map_s) != nullptr);
  return trip;
}

TripReport TrafficServer::analyze_trip(const TripUpload& trip) const {
  TripScratch scratch;
  std::vector<SpeedEstimate> estimates;
  analyze(trip, scratch, estimates, sampled(inst_.trip_s) != nullptr);
  return report_of(scratch, std::move(estimates));
}

void TrafficServer::process_admitted(const TripUpload& trip,
                                     TripScratch& scratch,
                                     std::vector<SpeedEstimate>& out) {
  // One sampling decision per trip: a timed trip times all of its stages.
  BucketHistogram* const trip_s = sampled(inst_.trip_s);
  {
    const ScopedTimer timer(trip_s);
    analyze(trip, scratch, out, trip_s != nullptr);
  }
  trips_processed_.inc();
  if (inst_.trips) inst_.trips->inc();
}

void TrafficServer::ingest(const std::vector<SpeedEstimate>& estimates) {
  const ScopedTimer timer(inst_.fold_s);  // a batch per call: time every one
  fusion_.add(estimates);
}

TripReport TrafficServer::process_trip(const TripUpload& trip) {
  const TripUpload* use = &trip;
  TripUpload corrected;
  if (admission_) {
    const RejectReason why = admission_->admit(trip, corrected, use);
    if (why != RejectReason::kNone) {
      TripReport rejected;
      rejected.outcome = IngestOutcome::kRejected;
      rejected.reject_reason = why;
      return rejected;
    }
  }
  TripScratch scratch;
  std::vector<SpeedEstimate> estimates;
  process_admitted(*use, scratch, estimates);
  ingest(estimates);
  return report_of(scratch, std::move(estimates));
}

void TrafficServer::advance_time(SimTime now) {
  if (admission_) admission_->observe_time(now);
  fusion_.flush_until(now);
}

void TrafficServer::restore(const std::vector<FusionExportEntry>& fusion,
                            std::uint64_t trips_processed) {
  fusion_.restore_state(fusion);
  // Quiescent, so the cells hold still: one add lands the sum exactly.
  trips_processed_.add(trips_processed - trips_processed_.value());
}

TrafficMap TrafficServer::snapshot(SimTime now, double max_age_s) const {
  return TrafficMap::snapshot(fusion_, catalog_, now, max_age_s);
}

std::uint64_t TrafficServer::publish_epoch(EpochPublisher& publisher,
                                           SimTime now,
                                           double max_age_s) const {
  return publisher.publish_from(fusion_, now, max_age_s);
}

}  // namespace bussense
