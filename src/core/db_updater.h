// Online fingerprint-database maintenance (paper Section III-B: "a database
// storing cellular fingerprints of all bus stops which can be built
// online/offline", Figure 4's "Update" arrow).
//
// Cellular plants evolve — towers are re-homed, re-sectored, renumbered.
// The updater closes the loop: whenever the trip mapper places a cluster at
// a stop with high confidence, the cluster's samples become fresh survey
// observations of that stop; once enough accumulate, the stop's database
// fingerprint is re-selected as the medoid of the recent window. A crowd of
// riders thus keeps the database current without any deliberate war-walks.
#pragma once

#include <deque>
#include <unordered_map>

#include "core/ingest_report.h"
#include "core/matching.h"
#include "core/route_graph.h"
#include "core/stop_database.h"
#include "core/trip_mapper.h"
#include "sensing/trip.h"

namespace bussense {

struct DbUpdaterConfig {
  /// A cluster contributes only if every member matched the same stop
  /// (probability 1 after rounding) with at least this mean similarity.
  /// The bar sits just above the server's γ so the updater keeps learning
  /// even while tower churn erodes scores — the consensus requirement below
  /// carries the confidence instead.
  double min_probability = 0.99;
  double min_mean_similarity = 3.0;
  /// Single-tap clusters carry no redundancy; require several corroborating
  /// taps before trusting the mapping enough to learn from it.
  std::size_t min_cluster_size = 4;
  /// Recent observations kept per stop; the refresh medoid is taken over
  /// this window.
  std::size_t window = 16;
  /// Observations required before a refresh is applied.
  std::size_t refresh_after = 10;
  /// Refresh only on evidence of decay: if the incumbent entry still aligns
  /// with the fresh window at or above this mean similarity it is healthy
  /// and left untouched. This stops self-training drift — fresh, mutually
  /// correlated samples would otherwise outvote a perfectly good entry.
  double refresh_below_similarity = 3.6;
  /// Continuity guard: a replacement must still align with the incumbent at
  /// least this well. Gradual tower churn passes (one tower renumbers at a
  /// time); a confidently mis-mapped neighbour stop does not.
  double min_continuity_similarity = 1.5;
  MatchingConfig matching;
};

class DatabaseUpdater {
 public:
  explicit DatabaseUpdater(DbUpdaterConfig config = {});

  /// Harvests confident clusters of an analysed trip (`report`, from
  /// analyze_trip or process_trip on `upload`) into the per-stop windows
  /// and refreshes `database` entries whose window is ripe. Returns the
  /// number of stops refreshed.
  int observe(const TripUpload& upload, const TripReport& report,
              StopDatabase& database);

  /// Hole recovery: once a stop's database entry has decayed so far that
  /// its samples fall below the server's γ, no cluster ever forms there and
  /// observe() can never repair it. But the *trip context* still identifies
  /// the stop: samples rejected by the matcher that fall strictly between
  /// two confidently mapped clusters whose stops sit exactly two apart on a
  /// common route must belong to the stop in the middle. Those orphans are
  /// credited to that stop and can resurrect its entry. Returns the number
  /// of stops refreshed this way.
  int recover_holes(const TripUpload& upload, const TripReport& report,
                    const RouteGraph& graph, StopDatabase& database);

  std::uint64_t observations() const { return observations_; }
  std::uint64_t refreshes() const { return refreshes_; }

 private:
  /// Adds a fingerprint to the stop's window.
  void remember(StopId stop, const Fingerprint& fingerprint);
  /// Refreshes the stop's database entry if its window is ripe and the
  /// entry has decayed. Returns true on refresh. `bypass_guards` skips the
  /// continuity check (hole recovery).
  bool refresh(StopId stop, StopDatabase& database, bool bypass_guards);

  DbUpdaterConfig config_;
  std::unordered_map<StopId, std::deque<Fingerprint>> recent_;
  std::uint64_t observations_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace bussense
