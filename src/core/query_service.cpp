#include "core/query_service.h"

namespace bussense {

QueryService::QueryService(const EpochPublisher& publisher,
                           QueryServiceConfig config)
    : publisher_(&publisher),
      config_(config),
      predictor_(publisher.catalog(), config.predictor),
      metrics_(std::make_unique<MetricsRegistry>()) {
  if (config_.obs.enabled) {
    inst_.segment = &metrics_->counter("queries.segment");
    inst_.eta = &metrics_->counter("queries.eta");
    inst_.region = &metrics_->counter("queries.region");
    inst_.knearest = &metrics_->counter("queries.knearest");
    inst_.no_epoch = &metrics_->counter("queries.no_epoch");
    inst_.lat_segment = &metrics_->histogram("query.latency.segment");
    inst_.lat_eta = &metrics_->histogram("query.latency.eta");
    inst_.lat_region = &metrics_->histogram("query.latency.region");
    inst_.lat_knearest = &metrics_->histogram("query.latency.knearest");
  }
}

SegmentSpeedResult QueryService::segment_speed(const SegmentKey& key) const {
  const ScopedTimer timer(sampled(inst_.lat_segment));
  SegmentSpeedResult out;
  if (const EpochPublisher::Pin p = publisher_->pin()) {
    out.epoch_id = p->id();
    out.epoch_time = p->time();
    if (const MapSegment* seg = p->segment(key)) {
      out.live = true;
      out.speed_kmh = seg->speed_kmh;
      out.level = seg->level;
      out.updated_at = seg->updated_at;
      out.observation_count = seg->observation_count;
    }
  } else if (inst_.no_epoch) {
    inst_.no_epoch->inc();
  }
  if (inst_.segment) inst_.segment->inc();
  return out;
}

RouteEtaResult QueryService::route_eta(const BusRoute& route, int from_index,
                                       SimTime departure) const {
  const ScopedTimer timer(sampled(inst_.lat_eta));
  RouteEtaResult out;
  if (const EpochPublisher::Pin p = publisher_->pin()) {
    out.epoch_id = p->id();
    out.epoch_time = p->time();
    const EpochSnapshot* snap = p.get();
    out.arrivals = predictor_.predict(
        route, from_index, departure,
        [snap](const SegmentKey& key) { return snap->fused(key); },
        /*now=*/snap->time());
  } else {
    // No epoch yet: free-flow predictions (no speed source), with the
    // departure instant standing in for "now".
    if (inst_.no_epoch) inst_.no_epoch->inc();
    out.arrivals = predictor_.predict(
        route, from_index, departure,
        [](const SegmentKey&) { return std::optional<FusedSpeed>(); },
        /*now=*/departure);
  }
  if (inst_.eta) inst_.eta->inc();
  return out;
}

RegionAggregate QueryService::region_aggregate(const BoundingBox& box) const {
  const ScopedTimer timer(sampled(inst_.lat_region));
  RegionAggregate out;
  if (const EpochPublisher::Pin p = publisher_->pin()) {
    out = p->region(box);
  } else if (inst_.no_epoch) {
    inst_.no_epoch->inc();
  }
  if (inst_.region) inst_.region->inc();
  return out;
}

KNearestResult QueryService::k_nearest_live_segments(Point p,
                                                     std::size_t k) const {
  const ScopedTimer timer(sampled(inst_.lat_knearest));
  KNearestResult out;
  if (const EpochPublisher::Pin pin = publisher_->pin()) {
    out.epoch_id = pin->id();
    out.epoch_time = pin->time();
    out.nearest = pin->k_nearest(p, k);
  } else if (inst_.no_epoch) {
    inst_.no_epoch->inc();
  }
  if (inst_.knearest) inst_.knearest->inc();
  return out;
}

}  // namespace bussense
