// Per-bus-stop co-clustering of matched samples (paper Section III-C.2).
//
// When a bus dwells at a stop, several passengers tap in quick succession;
// the resulting samples are redundant observations of the same stop. Two
// samples e_i, e_j are clustered together when
//
//   (t0 − |t_j − t_i|)/t0 + L(e_i, e_j) > ε,      (paper Eq. 1)
//   L = (s0 − |s_j − s_i|)/s0  if matched stops agree, else 0
//
// with s0 = 7 (max similarity score), t0 = 30 s, ε = 0.6. Clusters record a
// candidate pool — the matched stops of their members with per-stop
// probability p and mean similarity s̄ — consumed by the trip mapper.
//
// The stage types are views, not copies: a matched sample names its upload
// sample by index, and since a sample only ever joins the latest cluster, a
// cluster is a contiguous run of the time-ordered matched samples.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "citynet/types.h"
#include "common/sim_time.h"

namespace bussense {

/// A sample that survived per-sample matching.
struct MatchedSample {
  std::uint32_t index = 0;     ///< position in TripUpload::samples
  SimTime time = 0.0;          ///< that sample's time
  StopId stop = kInvalidStop;  ///< best-match effective stop
  double score = 0.0;          ///< its similarity score
};

struct ClusteringConfig {
  double max_score = 7.0;  ///< s0
  double max_gap_s = 30.0; ///< t0
  double epsilon = 0.6;    ///< ε (paper: accuracy plateaus around 0.3–1.3)
};

struct StopCandidate {
  StopId stop = kInvalidStop;
  double probability = 0.0;      ///< p_k(i): fraction of members matching stop
  double mean_similarity = 0.0;  ///< s̄_k(i)
};

struct SampleCluster {
  std::uint32_t first = 0;  ///< first member's position in the matched samples
  std::uint32_t count = 0;  ///< members: matched[first, first + count)
  SimTime arrival = 0.0;    ///< first member's time
  SimTime departure = 0.0;  ///< last member's time
  std::vector<StopCandidate> candidates;  ///< by descending probability

  /// The members, in time order, within the matched samples the cluster
  /// was built from.
  std::span<const MatchedSample> members(
      std::span<const MatchedSample> matched) const {
    return matched.subspan(first, count);
  }
  /// Highest-probability candidate (ties: higher mean similarity).
  const StopCandidate& best_candidate() const { return candidates.front(); }
};

/// Buffers cluster_samples() reuses from one trip to the next.
struct ClusteringScratch {
  /// (stop, member position) of the cluster being finalised.
  std::vector<std::pair<StopId, std::uint32_t>> votes;
  /// Candidate storage of earlier clusters, handed to new ones.
  std::vector<std::vector<StopCandidate>> spare;
};

/// Pairwise affinity of Eq. 1 (left-hand side).
double cluster_affinity(const MatchedSample& a, const MatchedSample& b,
                        const ClusteringConfig& config);

/// Clusters samples (must be in non-decreasing time order; throws
/// std::invalid_argument otherwise). A sample joins the current cluster if
/// its affinity with any member exceeds ε; otherwise it opens a new one.
/// Replaces the contents of `out`.
void cluster_samples(std::span<const MatchedSample> samples,
                     const ClusteringConfig& config,
                     std::vector<SampleCluster>& out,
                     ClusteringScratch& scratch);

/// The same with fresh buffers.
std::vector<SampleCluster> cluster_samples(
    std::span<const MatchedSample> samples, const ClusteringConfig& config = {});

}  // namespace bussense
