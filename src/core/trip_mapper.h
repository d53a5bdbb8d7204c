// Per-trip maximum-likelihood mapping (paper Section III-C.3, Eq. 2).
//
// Given the cluster sequence of one trip, choose one candidate stop per
// cluster maximising
//
//   p_1 s̄_1 + Σ_{i>=2} p_i s̄_i · R(b_{i-1}, b_i)
//
// where p and s̄ come from the cluster candidate pools and R is the route
// order relation. The objective is additive over consecutive pairs, so the
// argmax is computed exactly by dynamic programming over (cluster,
// candidate) states; an exhaustive enumeration is provided for testing the
// DP's optimality on small instances.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/clustering.h"
#include "core/route_graph.h"

namespace bussense {

struct MappedCluster {
  std::uint32_t cluster = 0;   ///< position in the trip's cluster sequence
  StopId stop = kInvalidStop;  ///< chosen effective stop
  SimTime arrival = 0.0;       ///< the cluster's arrival time
  SimTime departure = 0.0;     ///< and its departure time
};

struct MappedTrip {
  std::vector<MappedCluster> stops;  ///< one entry per input cluster, in order
  double likelihood = 0.0;           ///< value of the Eq. 2 objective
};

/// The dynamic programme's tables, one slot per (cluster, candidate), reused
/// by map_trip() from one trip to the next.
struct MapperScratch {
  std::vector<std::size_t> offset;  ///< first slot of each cluster
  std::vector<double> value;   ///< best objective of a prefix ending there
  std::vector<int> parent;     ///< its argmax predecessor candidate
};

class TripMapper {
 public:
  explicit TripMapper(const RouteGraph& graph) : graph_(&graph) {}

  /// Exact argmax of Eq. 2 by dynamic programming, into `out`.
  void map_trip(std::span<const SampleCluster> clusters, MappedTrip& out,
                MapperScratch& scratch) const;
  /// The same with fresh buffers.
  MappedTrip map_trip(std::span<const SampleCluster> clusters) const;

  /// Brute-force argmax (exponential; property tests only).
  MappedTrip map_trip_exhaustive(std::span<const SampleCluster> clusters) const;

  /// Objective value of a concrete stop assignment (shared by both solvers).
  double sequence_score(std::span<const SampleCluster> clusters,
                        const std::vector<int>& choice) const;

 private:
  const RouteGraph* graph_;
};

}  // namespace bussense
