#include "core/trip_mapper.h"

#include <limits>
#include <stdexcept>

namespace bussense {

namespace {

MappedCluster mapped(std::span<const SampleCluster> clusters, std::size_t k,
                     int choice) {
  const SampleCluster& c = clusters[k];
  return MappedCluster{static_cast<std::uint32_t>(k),
                       c.candidates[static_cast<std::size_t>(choice)].stop,
                       c.arrival, c.departure};
}

}  // namespace

double TripMapper::sequence_score(std::span<const SampleCluster> clusters,
                                  const std::vector<int>& choice) const {
  if (choice.size() != clusters.size()) {
    throw std::invalid_argument("sequence_score: choice size mismatch");
  }
  double score = 0.0;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    const StopCandidate& c =
        clusters[k].candidates.at(static_cast<std::size_t>(choice[k]));
    const double term = c.probability * c.mean_similarity;
    if (k == 0) {
      score += term;
    } else {
      const StopCandidate& prev = clusters[k - 1].candidates.at(
          static_cast<std::size_t>(choice[k - 1]));
      score += term * graph_->relation(prev.stop, c.stop);
    }
  }
  return score;
}

void TripMapper::map_trip(std::span<const SampleCluster> clusters,
                          MappedTrip& out, MapperScratch& scratch) const {
  out.stops.clear();
  out.likelihood = 0.0;
  if (clusters.empty()) return;
  const double neg_inf = -std::numeric_limits<double>::infinity();

  // value[offset[k] + c]: best objective of a prefix ending with candidate c
  // of cluster k; parent[offset[k] + c]: its argmax predecessor.
  std::vector<std::size_t>& offset = scratch.offset;
  offset.resize(clusters.size() + 1);
  offset[0] = 0;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    if (clusters[k].candidates.empty()) {
      throw std::invalid_argument("map_trip: cluster without candidates");
    }
    offset[k + 1] = offset[k] + clusters[k].candidates.size();
  }
  std::vector<double>& value = scratch.value;
  std::vector<int>& parent = scratch.parent;
  value.assign(offset.back(), neg_inf);
  parent.assign(offset.back(), -1);
  for (std::size_t c = 0; c < clusters[0].candidates.size(); ++c) {
    const StopCandidate& cand = clusters[0].candidates[c];
    value[c] = cand.probability * cand.mean_similarity;
  }
  for (std::size_t k = 1; k < clusters.size(); ++k) {
    const std::vector<StopCandidate>& prevs = clusters[k - 1].candidates;
    for (std::size_t c = 0; c < clusters[k].candidates.size(); ++c) {
      const StopCandidate& cand = clusters[k].candidates[c];
      const double term = cand.probability * cand.mean_similarity;
      double& best = value[offset[k] + c];
      for (std::size_t p = 0; p < prevs.size(); ++p) {
        const double v = value[offset[k - 1] + p] +
                         term * graph_->relation(prevs[p].stop, cand.stop);
        if (v > best) {
          best = v;
          parent[offset[k] + c] = static_cast<int>(p);
        }
      }
    }
  }
  // Select the best terminal candidate and trace back.
  const std::size_t last = clusters.size() - 1;
  std::size_t best_c = 0;
  for (std::size_t c = 1; c < clusters[last].candidates.size(); ++c) {
    if (value[offset[last] + c] > value[offset[last] + best_c]) best_c = c;
  }
  out.likelihood = value[offset[last] + best_c];
  out.stops.resize(clusters.size());
  int c = static_cast<int>(best_c);
  for (std::size_t k = clusters.size(); k-- > 0;) {
    out.stops[k] = mapped(clusters, k, c);
    c = parent[offset[k] + static_cast<std::size_t>(c)];
  }
}

MappedTrip TripMapper::map_trip(std::span<const SampleCluster> clusters) const {
  MappedTrip out;
  MapperScratch scratch;
  map_trip(clusters, out, scratch);
  return out;
}

MappedTrip TripMapper::map_trip_exhaustive(
    std::span<const SampleCluster> clusters) const {
  MappedTrip out;
  if (clusters.empty()) return out;
  std::vector<int> choice(clusters.size(), 0);
  std::vector<int> best_choice;
  double best = -std::numeric_limits<double>::infinity();
  while (true) {
    const double s = sequence_score(clusters, choice);
    if (s > best) {
      best = s;
      best_choice = choice;
    }
    // Advance the mixed-radix counter.
    std::size_t k = 0;
    for (; k < clusters.size(); ++k) {
      if (++choice[k] < static_cast<int>(clusters[k].candidates.size())) break;
      choice[k] = 0;
    }
    if (k == clusters.size()) break;
  }
  out.likelihood = best;
  for (std::size_t k = 0; k < clusters.size(); ++k) {
    out.stops.push_back(mapped(clusters, k, best_choice[k]));
  }
  return out;
}

}  // namespace bussense
