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

std::vector<MatchedSample> TrafficServer::match_samples(
    const TripUpload& trip, std::size_t* rejected) const {
  const double start = inst_.match_s ? monotonic_time_s() : 0.0;
  std::vector<MatchedSample> matched;
  std::size_t dropped = 0;
  for (const CellularSample& sample : trip.samples) {
    if (sample.fingerprint.empty()) {  // malformed or censored sample
      ++dropped;
      continue;
    }
    if (const auto result = matcher_.match(sample.fingerprint)) {
      matched.push_back(MatchedSample{sample, result->stop, result->score});
    } else {
      ++dropped;
    }
  }
  // Uploads come from unsynchronised phones over lossy links: never trust
  // their sample ordering (the clustering stage requires time order).
  std::stable_sort(matched.begin(), matched.end(),
                   [](const MatchedSample& a, const MatchedSample& b) {
                     return a.sample.time < b.sample.time;
                   });
  if (rejected) *rejected = dropped;
  if (inst_.match_s) {
    inst_.match_s->record(monotonic_time_s() - start);
    inst_.samples_considered->add(trip.samples.size());
    inst_.samples_rejected->add(dropped);
    inst_.samples_matched->add(matched.size());
  }
  return matched;
}

std::vector<SampleCluster> TrafficServer::cluster_samples(
    const std::vector<MatchedSample>& matched) const {
  const double start = inst_.cluster_s ? monotonic_time_s() : 0.0;
  std::vector<SampleCluster> clusters;
  if (config_.stages.clustering) {
    clusters = bussense::cluster_samples(matched, config_.clustering);
  } else {
    // Ablation: each sample becomes its own singleton cluster.
    clusters.reserve(matched.size());
    for (const MatchedSample& m : matched) {
      SampleCluster c;
      c.members.push_back(m);
      c.candidates.push_back(StopCandidate{m.stop, 1.0, m.score});
      clusters.push_back(std::move(c));
    }
  }
  if (inst_.cluster_s) {
    inst_.cluster_s->record(monotonic_time_s() - start);
    inst_.clusters->add(clusters.size());
  }
  return clusters;
}

MappedTrip TrafficServer::map_trip(
    const std::vector<SampleCluster>& clusters) const {
  const double start = inst_.map_s ? monotonic_time_s() : 0.0;
  MappedTrip trip;
  if (config_.stages.trip_mapping) {
    trip = mapper_.map_trip(clusters);
  } else {
    // Ablation: take each cluster's best candidate with no sequence
    // reasoning.
    for (const SampleCluster& c : clusters) {
      trip.stops.push_back(MappedCluster{c, c.best_candidate().stop});
    }
  }
  if (inst_.map_s) inst_.map_s->record(monotonic_time_s() - start);
  return trip;
}

TripReport TrafficServer::analyze_trip(const TripUpload& trip) const {
  TripReport report;
  report.matched = match_samples(trip, &report.rejected_samples);
  const auto clusters = cluster_samples(report.matched);
  report.mapped = map_trip(clusters);
  const double start = inst_.estimate_s ? monotonic_time_s() : 0.0;
  report.estimates = estimator_.estimate(report.mapped);
  if (inst_.estimate_s) {
    inst_.estimate_s->record(monotonic_time_s() - start);
    inst_.estimates->add(report.estimates.size());
  }
  return report;
}

TripReport TrafficServer::process_admitted(const TripUpload& trip) {
  const double start = inst_.trip_s ? monotonic_time_s() : 0.0;
  TripReport report = analyze_trip(trip);
  trips_processed_.fetch_add(1, std::memory_order_relaxed);
  if (inst_.trip_s) {
    inst_.trip_s->record(monotonic_time_s() - start);
    inst_.trips->inc();
  }
  return report;
}

void TrafficServer::ingest(const std::vector<SpeedEstimate>& estimates) {
  const double start = inst_.fold_s ? monotonic_time_s() : 0.0;
  fusion_.add(estimates);
  if (inst_.fold_s) inst_.fold_s->record(monotonic_time_s() - start);
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
  TripReport report = process_admitted(*use);
  ingest(report.estimates);
  return report;
}

void TrafficServer::advance_time(SimTime now) {
  if (admission_) admission_->observe_time(now);
  fusion_.flush_until(now);
}

void TrafficServer::restore(const std::vector<FusionExportEntry>& fusion,
                            std::uint64_t trips_processed) {
  fusion_.restore_state(fusion);
  trips_processed_.store(trips_processed, std::memory_order_relaxed);
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
