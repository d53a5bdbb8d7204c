#include "core/clustering.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bussense {

double cluster_affinity(const MatchedSample& a, const MatchedSample& b,
                        const ClusteringConfig& config) {
  const double dt = std::abs(b.time - a.time);
  const double time_term = (config.max_gap_s - dt) / config.max_gap_s;
  double l = 0.0;
  if (a.stop == b.stop && a.stop != kInvalidStop) {
    l = (config.max_score - std::abs(b.score - a.score)) / config.max_score;
  }
  return time_term + l;
}

namespace {

// Candidate pool of one cluster: per matched stop, ascending, the share of
// members and their mean score (summed in member order), then sorted by
// descending probability and similarity.
void finalize(SampleCluster& cluster, std::span<const MatchedSample> matched,
              ClusteringScratch& scratch) {
  auto& votes = scratch.votes;
  votes.clear();
  for (std::uint32_t i = cluster.first; i < cluster.first + cluster.count; ++i) {
    votes.emplace_back(matched[i].stop, i);
  }
  std::sort(votes.begin(), votes.end());
  const double total = static_cast<double>(cluster.count);
  for (std::size_t run = 0; run < votes.size();) {
    const StopId stop = votes[run].first;
    std::size_t end = run;
    double score_sum = 0.0;
    for (; end < votes.size() && votes[end].first == stop; ++end) {
      score_sum += matched[votes[end].second].score;
    }
    const double count = static_cast<double>(end - run);
    cluster.candidates.push_back(
        StopCandidate{stop, count / total, score_sum / count});
    run = end;
  }
  std::sort(cluster.candidates.begin(), cluster.candidates.end(),
            [](const StopCandidate& a, const StopCandidate& b) {
              return a.probability > b.probability ||
                     (a.probability == b.probability &&
                      a.mean_similarity > b.mean_similarity);
            });
}

}  // namespace

void cluster_samples(std::span<const MatchedSample> samples,
                     const ClusteringConfig& config,
                     std::vector<SampleCluster>& out,
                     ClusteringScratch& scratch) {
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].time < samples[i - 1].time) {
      throw std::invalid_argument("cluster_samples: samples must be time-ordered");
    }
  }
  for (SampleCluster& c : out) scratch.spare.push_back(std::move(c.candidates));
  out.clear();
  for (std::uint32_t i = 0; i < samples.size(); ++i) {
    bool joined = false;
    if (!out.empty()) {
      for (const MatchedSample& member : out.back().members(samples)) {
        if (cluster_affinity(member, samples[i], config) > config.epsilon) {
          joined = true;
          break;
        }
      }
    }
    if (!joined) {
      SampleCluster& opened = out.emplace_back();
      opened.first = i;
      opened.arrival = samples[i].time;
      if (scratch.spare.empty()) {
        // Room for the few stops a cluster's members ever vote for, so a
        // recycled pool fits whichever cluster takes it next.
        opened.candidates.reserve(4);
      } else {
        opened.candidates = std::move(scratch.spare.back());
        opened.candidates.clear();
        scratch.spare.pop_back();
      }
    }
    ++out.back().count;
    out.back().departure = samples[i].time;
  }
  for (SampleCluster& c : out) finalize(c, samples, scratch);
}

std::vector<SampleCluster> cluster_samples(
    std::span<const MatchedSample> samples, const ClusteringConfig& config) {
  std::vector<SampleCluster> out;
  ClusteringScratch scratch;
  cluster_samples(samples, config, out, scratch);
  return out;
}

}  // namespace bussense
