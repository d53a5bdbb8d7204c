// Bayesian fusion of repeated speed estimates (paper Section III-D, Eq. 4).
//
// Each road segment accumulates estimates from many trips. Updates run on a
// period T (paper: 5 minutes): estimates arriving within one period are
// averaged into a single observation, then combined with the running
// estimate by the precision-weighted update
//
//   v_new = (v·σ̄² + v̄·σ²) / (σ² + σ̄²),   σ²_new = σ²σ̄² / (σ² + σ̄²)
//
// A variance floor keeps the fused estimate responsive after long streams
// of observations (without it σ² → 0 and new traffic would never register;
// the paper's 5-minute batching plus finite experiment length hides this —
// the floor is our documented stabilisation).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "core/segment_catalog.h"
#include "core/travel_estimator.h"

namespace bussense {

struct FusionConfig {
  double update_period_s = 300.0;     ///< T (paper: 5 min)
  double observation_variance = 30.0; ///< σ̄² of one averaged observation (km/h)²
  double variance_floor = 4.0;        ///< lower bound on fused σ²
  /// Process noise: traffic drifts, so a stale estimate loses precision at
  /// this rate ((km/h)² per second) before each update. Keeps the filter
  /// tracking the daily congestion cycle instead of averaging it away —
  /// our documented stabilisation on top of the paper's Eq. 4.
  double process_noise_per_s = 0.03;
};

struct FusedSpeed {
  double mean_kmh = 0.0;
  double variance = 0.0;
  SimTime updated_at = 0.0;
  int observation_count = 0;  ///< raw estimates folded in so far
};

/// One segment's complete fusion state — the fused posterior plus every
/// still-open period batch — exported for checkpoints (core/checkpoint.h).
/// export_state() sorts entries by key and each period's pending values
/// ascending, so the export of a given fused state is byte-deterministic;
/// restoring sorted values is lossless because flush_until() sorts before
/// summing anyway.
struct FusionExportEntry {
  SegmentKey key;
  std::optional<FusedSpeed> fused;
  std::vector<std::pair<std::int64_t, std::vector<double>>> pending;
};

/// Period-batched Eq. 4 fusion, internally locked.
///
/// Segments are partitioned by hash across kStripes independent stripes,
/// each behind its own mutex: a segment's entire history lives in exactly
/// one stripe, so the per-segment arithmetic — and with it the
/// order-insensitive determinism described at add() — is untouched, while
/// writers on different stripes never contend. Every method is thread-safe,
/// so the sharded ingest consumers fold into one SpeedFusion concurrently.
class SpeedFusion {
 public:
  static constexpr std::size_t kStripes = 16;

  explicit SpeedFusion(FusionConfig config = {});

  /// Feeds one raw estimate; batched until its period closes. Locks the
  /// owning stripe only.
  ///
  /// Determinism: a period's estimates are summed in *sorted* order when
  /// the batch closes, so the fused result depends only on the multiset of
  /// estimates per period — any arrival order (e.g. from concurrent
  /// ingestion workers) yields bit-identical doubles.
  void add(const SpeedEstimate& estimate);

  /// Folds a batch, taking each stripe lock at most once.
  void add(const std::vector<SpeedEstimate>& estimates);

  /// Closes every batch whose period ends at or before `now`, applying the
  /// Eq. 4 update. Call before querying.
  void flush_until(SimTime now);

  /// Latest fused estimate for a segment, if any.
  std::optional<FusedSpeed> query(const SegmentKey& segment) const;

  /// All segments with a fused estimate, stripe by stripe.
  std::vector<std::pair<SegmentKey, FusedSpeed>> all() const;

  /// Visits every fused estimate in place, in exactly the order all()
  /// would list them — callers that only need one pass (epoch builds,
  /// exports) skip the intermediate vector copy. Each stripe lock is held
  /// for its own pass only; the callback must not re-enter this fusion.
  void visit_all(
      const std::function<void(const SegmentKey&, const FusedSpeed&)>& fn) const;

  /// Complete state for a checkpoint, sorted by key (byte-deterministic).
  std::vector<FusionExportEntry> export_state() const;

  /// Replaces all state with an export. The rebuilt stripes list segments
  /// in (sorted) entry order, which may differ from the original insertion
  /// order — per-segment arithmetic and the fused values are bit-identical;
  /// consumers comparing whole maps must canonicalise.
  void restore_state(const std::vector<FusionExportEntry>& entries);

  const FusionConfig& config() const { return config_; }

 private:
  /// One open period: its raw values (not a running sum) so the close-time
  /// summation can be order-insensitive.
  struct Batch {
    std::int64_t period = 0;
    std::vector<double> values;
  };
  struct State {
    SegmentKey key;
    std::optional<FusedSpeed> fused;
    /// batches[0, open) are the open periods in ascending order; the rest
    /// are closed batches kept (values cleared) for their buffers, so a
    /// steady stream of periods reuses storage instead of allocating.
    std::vector<Batch> batches;
    std::size_t open = 0;
  };
  /// Dense per-segment state: `index` maps a key to its slot in `states`
  /// (insertion order, which is also visitation order), and `pending`
  /// lists the slots with open batches, so flush_until() visits only
  /// those. Cache-line aligned so neighbouring stripes' locks and vector
  /// headers never share a line.
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::unordered_map<SegmentKey, std::uint32_t, SegmentKeyHash> index;
    std::vector<State> states;
    std::vector<std::uint32_t> pending;
  };

  static std::size_t stripe_of(const SegmentKey& key) {
    return SegmentKeyHash{}(key) % kStripes;
  }
  /// The key's slot in stripe.states, appended when new.
  static std::uint32_t slot_of(Stripe& stripe, const SegmentKey& key);
  /// The open batch for `period`, opened (from a kept buffer if any) in
  /// period order when absent; lists the slot as pending when it had none.
  static std::vector<double>& batch_of(Stripe& stripe, std::uint32_t slot,
                                       std::int64_t period);
  void add_locked(Stripe& stripe, const SpeedEstimate& estimate);
  void apply(State& state, double mean_obs, SimTime at, int count) const;
  /// Closes `state`'s batches with periods before `now_period`; returns
  /// whether any batch is still open.
  bool close_until(State& state, std::int64_t now_period) const;

  FusionConfig config_;
  // A vector (not an array) so the fusion stays movable: the mutexes stay
  // put in the heap buffer.
  std::vector<Stripe> stripes_ = std::vector<Stripe>(kStripes);
};

}  // namespace bussense
