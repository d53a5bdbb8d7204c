#include "core/db_updater.h"

#include <algorithm>
#include <set>

namespace bussense {

namespace {

/// True if `middle` is the single stop between `before` and `after` on some
/// directed route.
bool is_single_gap(const RouteGraph& graph, StopId before, StopId after,
                   StopId* middle, std::size_t route_count) {
  for (RouteId r = 0; r < static_cast<RouteId>(route_count); ++r) {
    const auto& seq = graph.route_sequence(r);
    for (std::size_t i = 0; i + 2 < seq.size(); ++i) {
      if (seq[i] == before && seq[i + 2] == after) {
        *middle = seq[i + 1];
        return true;
      }
    }
  }
  return false;
}

}  // namespace

DatabaseUpdater::DatabaseUpdater(DbUpdaterConfig config)
    : config_(std::move(config)) {}

void DatabaseUpdater::remember(StopId stop, const Fingerprint& fingerprint) {
  if (fingerprint.empty()) return;
  auto& window = recent_[stop];
  window.push_back(fingerprint);
  ++observations_;
  if (window.size() > config_.window) window.pop_front();
}

bool DatabaseUpdater::refresh(StopId stop, StopDatabase& database,
                              bool bypass_guards) {
  const auto& window = recent_[stop];
  if (window.size() < config_.refresh_after) return false;

  const Fingerprint* current = database.fingerprint_of(stop);
  // Health check: a database entry that still aligns with the fresh window
  // is left alone; only demonstrable decay triggers a refresh.
  if (current != nullptr && !current->empty()) {
    double mean_sim = 0.0;
    for (const Fingerprint& fp : window) {
      mean_sim += similarity(fp, *current, config_.matching);
    }
    mean_sim /= static_cast<double>(window.size());
    if (mean_sim >= config_.refresh_below_similarity) return false;
  }
  const std::vector<Fingerprint> samples(window.begin(), window.end());
  Fingerprint winner = select_representative(samples, config_.matching);
  // Continuity guard — except for hole recovery, whose stop identity comes
  // from the trip context, not from matching against the decayed entry.
  if (!bypass_guards && current != nullptr && !current->empty() &&
      similarity(winner, *current, config_.matching) <
          config_.min_continuity_similarity) {
    return false;
  }
  database.add(stop, std::move(winner));
  ++refreshes_;
  return true;
}

int DatabaseUpdater::observe(const TripUpload& upload, const TripReport& report,
                             StopDatabase& database) {
  int refreshed = 0;
  for (const MappedCluster& mc : report.mapped.stops) {
    const SampleCluster& cluster = report.clusters[mc.cluster];
    const StopCandidate& best = cluster.best_candidate();
    if (best.stop != mc.stop) continue;  // mapping overrode the local match
    if (cluster.count < config_.min_cluster_size ||
        best.probability < config_.min_probability ||
        best.mean_similarity < config_.min_mean_similarity) {
      continue;
    }
    for (const MatchedSample& m : cluster.members(report.matched)) {
      remember(mc.stop, upload.samples[m.index].fingerprint);
    }
    if (refresh(mc.stop, database, /*bypass_guards=*/false)) ++refreshed;
  }
  return refreshed;
}

int DatabaseUpdater::recover_holes(const TripUpload& upload,
                                   const TripReport& report,
                                   const RouteGraph& graph,
                                   StopDatabase& database) {
  const std::vector<MappedCluster>& stops = report.mapped.stops;
  if (stops.size() < 2) return 0;
  // Times consumed by matched clusters; everything else is an orphan.
  std::set<double> matched_times;
  for (const MappedCluster& mc : stops) {
    for (const MatchedSample& m :
         report.clusters[mc.cluster].members(report.matched)) {
      matched_times.insert(m.time);
    }
  }
  // Both anchors must be confidently mapped.
  const auto confident = [&](const MappedCluster& mc) {
    const SampleCluster& cluster = report.clusters[mc.cluster];
    const StopCandidate& best = cluster.best_candidate();
    return best.stop == mc.stop && cluster.count >= 2 &&
           best.probability >= config_.min_probability &&
           best.mean_similarity >= config_.min_mean_similarity;
  };
  int refreshed = 0;
  for (std::size_t k = 0; k + 1 < stops.size(); ++k) {
    const MappedCluster& before = stops[k];
    const MappedCluster& after = stops[k + 1];
    if (!confident(before) || !confident(after)) continue;
    StopId middle = kInvalidStop;
    if (!is_single_gap(graph, before.stop, after.stop, &middle,
                       graph.route_count())) {
      continue;
    }
    // Orphan samples strictly between the anchors.
    std::vector<const Fingerprint*> orphans;
    for (const CellularSample& s : upload.samples) {
      if (matched_times.contains(s.time)) continue;
      if (s.time > before.departure && s.time < after.arrival) {
        orphans.push_back(&s.fingerprint);
      }
    }
    if (orphans.size() < 2) continue;  // a lone false beep proves nothing
    for (const Fingerprint* fp : orphans) remember(middle, *fp);
    if (refresh(middle, database, /*bypass_guards=*/true)) ++refreshed;
  }
  return refreshed;
}

}  // namespace bussense
