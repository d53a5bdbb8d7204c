// Per-sample matching against the stop database (paper Section III-C.1).
//
// Each uploaded cellular sample is scored with the modified Smith–Waterman
// similarity; the best-scoring stop wins, ties broken by the larger number
// of common cell IDs. Samples whose best score falls below the acceptance
// threshold γ (= 2, from the Figure 2 measurement) are discarded as noise.
//
// Candidate generation is sublinear in the database size: because an
// alignment can score at most match_score per shared cell ID, a record can
// only reach γ if it shares ≥ ⌈γ / match_score⌉ cell IDs with the sample
// (= 2 in the paper's setting). The matcher resolves each sample cell once
// through the database's dictionary and walks the CSR posting lists of the
// quantized view once. Per touched record the walk counts both the shared
// cell occurrences (the γ bound) and the distinct common cells (the
// tie-break, common_cell_count), listing records in first-touch order;
// only the records passing the bound are aligned — with results identical
// to the full scan. Both the scalar and the batch path share this walk.
// `accel.use_index = false` keeps the brute-force scan for the scalability
// ablations.
//
// Surviving candidates are scored through the fixed-point batch kernel
// (core/matching_simd.h) 8–16 at a time when `accel.use_simd` is on and the
// scoring parameters quantize exactly; an upper-bound prescreen
// (shared-cell count × match_score, the same trick as CellScanner's RSS
// precheck) additionally skips candidates that provably cannot beat the
// incumbent best. The winner rule — score, then common cells, then the
// lower record index — is a total order, so the enumeration order changes
// which records the prescreen skips but never the winner. All of these are
// pure optimisations: results — scores, winners, tie-breaks — are
// bit-identical to the brute-force scan (property-tested in
// tests/test_matching_simd.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/matching.h"
#include "core/matching_simd.h"
#include "core/stop_database.h"
#include "obs/metrics.h"

namespace bussense {

struct StopMatcherConfig {
  MatchingConfig matching;
  double accept_threshold = 2.0;  ///< γ

  /// Fast-path switches (DESIGN.md §6). Grouped so ablations flip one
  /// documented knob instead of a loose boolean.
  struct Acceleration {
    /// Generate candidates from the inverted cell-ID index. Falls back to
    /// the full scan automatically when the γ-derived bound is unsound
    /// (negative penalties, non-positive match score or threshold).
    bool use_index = true;
    /// Batch-score candidates through the runtime-dispatched fixed-point
    /// kernel (AVX2/NEON/scalar-batch, core/matching_simd.h), with the
    /// incumbent upper-bound prescreen. Engages only when the scoring
    /// parameters quantize exactly (×10), γ > 0, the database's
    /// quantized view is valid and a vector unit backs the kernel at
    /// runtime (without AVX2/NEON the batch packing costs more than it
    /// saves, so those hosts keep the classic scalar loop); match
    /// results are bit-identical either way, so the knob is pure
    /// performance (stats profiles differ).
    bool use_simd = true;
  };
  Acceleration accel;

  /// Throws std::invalid_argument on nonsense (non-finite γ or matching
  /// scores). Called by StopMatcher.
  void validate() const;
};

struct MatchResult {
  StopId stop = kInvalidStop;  ///< effective stop id
  double score = 0.0;
  int common_cells = 0;
};

/// Per-call work counters. Follows the repo-wide stats convention:
/// `*_considered` (total work the brute-force path would do), `*_pruned`
/// (work the fast path provably skipped), `*_accepted` (work actually
/// done), with reset()/merge() for aggregation — see ScanStats.
struct MatchStats {
  std::size_t calls = 0;               ///< match()/match_all() calls covered
  std::size_t records_considered = 0;  ///< database size
  std::size_t gamma_candidates = 0;    ///< records surviving the γ bound
  std::size_t records_pruned = 0;      ///< records never run through the DP
  std::size_t records_accepted = 0;    ///< records actually aligned
  /// γ-passing candidates whose upper bound could not beat the incumbent
  /// best score, so their DP was provably unnecessary (SIMD path only;
  /// included in records_pruned).
  std::size_t records_bound_skipped = 0;

  void reset() { *this = MatchStats{}; }
  void merge(const MatchStats& other) {
    calls += other.calls;
    records_considered += other.records_considered;
    gamma_candidates += other.gamma_candidates;
    records_pruned += other.records_pruned;
    records_accepted += other.records_accepted;
    records_bound_skipped += other.records_bound_skipped;
  }
};

class StopMatcher {
 public:
  StopMatcher(const StopDatabase& database, StopMatcherConfig config = {});

  /// Best acceptable match, or nullopt if the best score is below γ.
  std::optional<MatchResult> match(const Fingerprint& sample,
                                   MatchStats* stats = nullptr) const;

  /// match() that merges the call's counters into `pending` instead of
  /// recording them: a caller matching a batch of samples (one trip's)
  /// records the whole batch once with record(pending).
  std::optional<MatchResult> match_deferred(const Fingerprint& sample,
                                            MatchStats& pending) const;

  /// Every stop scoring >= γ, best first: by score, then common cells, then
  /// stop id (diagnostics / ablations).
  std::vector<MatchResult> match_all(const Fingerprint& sample,
                                     MatchStats* stats = nullptr) const;

  /// Adds `stats` to the bound registry's counters (no-op when unbound).
  void record(const MatchStats& stats) const;

  /// Accumulates every call's MatchStats into `registry` (counters
  /// `matcher.calls`, `matcher.records_considered/pruned/accepted`,
  /// `matcher.gamma_candidates`, `matcher.records_bound_skipped`). Counter
  /// updates are lock-free, so bound matchers stay safe to use from many
  /// threads; recording never affects match results. Pass nullptr to unbind.
  void bind_metrics(MetricsRegistry* registry);

  const StopMatcherConfig& config() const { return config_; }

  /// True when match()/match_all() will take the batch-kernel path for this
  /// matcher (knob on, exact fixed-point config, valid quantized view).
  bool simd_active() const;

  /// Capacity (records) of the calling thread's candidate-walk scratch —
  /// test hook for the retention cap (DESIGN.md §12).
  static std::size_t thread_scratch_capacity();

 private:
  bool index_usable() const;
  /// Upper bound on a record's score, `limit` = min(shared, n, m): at most
  /// one match per shared cell occurrence, and no more matches than the
  /// shorter fingerprint has cells.
  double score_bound(std::uint32_t limit) const;
  /// γ-passing survivors (first-touch order) with their limits and common
  /// counts, via the index when usable, else the full record range.
  void collect_survivors(const Fingerprint& sample,
                         const StopDatabase::QuantizedView& qv,
                         MatchStats& local) const;
  /// Scores the collected survivors in place, through the batch kernel by
  /// length class when `batch`, else one similarity() each;
  /// `prune_incumbent` enables the cannot-beat-the-best skip (match() only).
  void score_survivors(const Fingerprint& sample,
                       const StopDatabase::QuantizedView& qv, bool batch,
                       bool prune_incumbent, MatchStats& local) const;
  /// Scores the sample down the active path and calls accept(record, score,
  /// common) for every aligned record scoring >= γ, in no particular order;
  /// `common` is the record's common-cell count, or -1 on the brute-force
  /// scan, which does not count it. `prune_incumbent` enables the
  /// cannot-beat-the-best skip (match() only).
  template <typename Accept>
  void scan(const Fingerprint& sample, bool prune_incumbent, MatchStats& local,
            Accept&& accept) const;

  const StopDatabase* database_;
  StopMatcherConfig config_;
  FixedScores fixed_;  ///< quantized scoring parameters (cached)
  /// Fewest shared cells that can reach γ (the γ bound as an integer test).
  std::uint64_t min_shared_ = 0;
  // Cached instrument handles (null when unbound). The registry outlives
  // the matcher by contract.
  Counter* calls_ = nullptr;
  Counter* considered_ = nullptr;
  Counter* candidates_ = nullptr;
  Counter* pruned_ = nullptr;
  Counter* accepted_ = nullptr;
  Counter* bound_skipped_ = nullptr;
};

}  // namespace bussense
