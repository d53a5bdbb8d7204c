// Epoch-based (RCU-style) snapshot publisher: the write side of the
// serving tier (DESIGN.md §13).
//
// Ingest mutates fused state behind stripe locks; serving millions of
// queries cannot afford to touch those locks. The publisher periodically
// builds an immutable, query-optimized EpochSnapshot from the fused map —
// a dense live-row overlay on the publisher's static segment geometry,
// precomputed level / coverage / mean-speed aggregates and a uniform
// spatial grid for region queries — and swaps it in behind one atomic
// pointer. Readers never block and never take a lock:
//
//   publish   build snapshot → current_.exchange(new) → retire old →
//             reclaim (free every retired epoch no reader still pins);
//   pin       read current_, advertise it in this thread's hazard slot,
//             re-validate current_ — the classic hazard-pointer handshake.
//             On success the epoch cannot be freed until the slot clears;
//             on failure (a publish won the race) retry with the newer
//             pointer. The reader never dereferences an unvalidated epoch;
//   unpin     clear the hazard slot (release). A retired epoch is freed
//             only after the publisher observes every slot not holding it,
//             so readers always see a fully constructed, never-torn,
//             never-recycled snapshot (property-tested under TSan; the
//             churn suite is ASan leak-verified).
//
// Nothing on the serving path hashes into a node-based map. A key lookup
// is one probe of the geometry's flat key → ordinal table (open
// addressing, built once per publisher) and one read of the epoch's
// ordinal → row overlay; an epoch build is one such probe per live
// segment. A pin finds its thread's per-publisher state through a
// one-entry thread-local cache, and the Pin carries that state, so the
// unpin looks nothing up.
//
// The reader registry is a fixed array of cache-line-padded atomic slots,
// handed out one per (thread, publisher) on first pin. Threads beyond
// max_readers fall back to a mutex-guarded overflow multiset — correctness
// unchanged, just not lock-free (counted in epochs.overflow_readers).
//
// Pins are re-entrant per thread (a nested pin returns the already-pinned
// epoch) and must be released on the thread that acquired them. All pins
// must be released before the publisher is destroyed; the destructor spins
// until the registry is empty.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/geo.h"
#include "core/config_common.h"
#include "core/fusion.h"
#include "core/segment_catalog.h"
#include "core/traffic_map.h"
#include "obs/metrics.h"

namespace bussense {

struct EpochPublisherConfig {
  /// Staleness cutoff handed to the snapshot build (strict `>` boundary,
  /// see TrafficMap::snapshot).
  double max_age_s = 3600.0;
  /// Lock-free reader slots; additional reader threads fall back to the
  /// mutex-guarded overflow path.
  std::size_t max_readers = 64;
  /// Spatial grid for region queries, over the city bounding box.
  int grid_cols = 32;
  int grid_rows = 16;
  ObservabilityConfig obs;  // core/config_common.h

  /// Throws std::invalid_argument on nonsense (no readers, empty grid,
  /// non-positive staleness window).
  void validate() const;
};

/// Aggregate answer for a bounding-box region query. Covered/total lengths
/// count catalogued adjacent segments whose midpoint lies in the box.
struct RegionAggregate {
  std::uint64_t epoch_id = 0;
  SimTime epoch_time = 0.0;
  int segments_total = 0;  ///< catalogued segments in the box
  int segments_live = 0;   ///< of those, carrying a live estimate
  double mean_speed_kmh = 0.0;  ///< length-weighted over live segments
  double live_length_m = 0.0;
  double total_length_m = 0.0;
  double coverage_ratio = 0.0;  ///< live_length / total_length (0 if empty)
  std::array<int, 5> level_histogram{};  ///< live segments per SpeedLevel
};

/// One answer row of a k-nearest query: a live segment (copied out of the
/// epoch's map), its catalogued midpoint and its straight-line distance
/// from the query point.
struct NearestSegment {
  MapSegment segment;
  Point midpoint;
  double distance_m = 0.0;
};

/// Static geometry of every catalogued adjacent segment, built once per
/// publisher: midpoints, lengths, a flat key → ordinal table and a
/// row-major uniform grid binning segments by midpoint (CSR). Epochs
/// reference it; only the thin live-segment overlay is rebuilt per
/// publish.
class SegmentGeometry {
 public:
  SegmentGeometry(const SegmentCatalog& catalog, int cols, int rows);

  struct Entry {
    SegmentKey key;
    Point midpoint;
    double length_m = 0.0;
  };

  /// The 64-bit form of a key the ordinal table stores: `from` in the
  /// high word, `to` in the low word (so it also orders keys by (from, to)).
  static std::uint64_t packed(const SegmentKey& key) {
    return (std::uint64_t{static_cast<std::uint32_t>(key.from)} << 32) |
           static_cast<std::uint32_t>(key.to);
  }

  std::size_t size() const { return entries_.size(); }
  const Entry& entry(std::uint32_t ordinal) const { return entries_[ordinal]; }
  /// Ordinal of a catalogued adjacent segment; nullopt for any other key.
  /// Inline: a lookup is a multiply, a shift and (almost always) one slot.
  std::optional<std::uint32_t> ordinal(const SegmentKey& key) const {
    const std::uint64_t k = packed(key);
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home_slot(k);; i = (i + 1) & mask) {
      const KeySlot& slot = table_[i];
      if (slot.ordinal == kNoOrdinal) return std::nullopt;
      if (slot.key == k) return slot.ordinal;
    }
  }
  /// Slots a lookup of `key` reads, its home slot included (1 = no
  /// collision): the table's clustering, as a hit or a miss sees it.
  std::size_t probe_length(const SegmentKey& key) const;
  const SegmentCatalog& catalog() const { return *catalog_; }

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  /// Grid column/row containing a coordinate (clamped to the city box).
  int col_of(double x) const;
  int row_of(double y) const;
  /// Grid cell containing `p` (clamped to the city box).
  std::size_t cell_of(Point p) const;
  /// Ordinals binned into one cell, ascending.
  const std::uint32_t* cell_begin(std::size_t cell) const;
  const std::uint32_t* cell_end(std::size_t cell) const;
  const BoundingBox& region() const { return region_; }

 private:
  static constexpr std::uint32_t kNoOrdinal = 0xffffffffu;  ///< empty slot
  struct KeySlot {
    std::uint64_t key = 0;  ///< packed()
    std::uint32_t ordinal = kNoOrdinal;
  };
  /// Slot where the probe for a packed key starts: the top bits of a
  /// multiplicative hash. (The low bits would depend on `to` alone, since
  /// `from` sits above bit 32 of the packed key.)
  std::size_t home_slot(std::uint64_t k) const {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> table_shift_);
  }

  const SegmentCatalog* catalog_;
  std::vector<Entry> entries_;  ///< catalog.adjacent_keys() order
  /// Key → ordinal: open addressing over a power-of-two table at most
  /// half full, linear probing.
  std::vector<KeySlot> table_;
  unsigned table_shift_ = 63;  ///< 64 − log2(table_.size())
  BoundingBox region_;
  int cols_;
  int rows_;
  std::vector<std::uint32_t> cell_start_;  ///< CSR offsets, row-major cells
  std::vector<std::uint32_t> cell_items_;  ///< ordinals, ascending per cell
};

/// One immutable published epoch: the TrafficMap it wraps (bit-identical
/// to TrafficMap::snapshot at the publish instant — property-tested), the
/// live-segment overlay on the publisher's geometry (ordinal → map row),
/// and whole-map aggregates precomputed at build time. Never mutated after
/// publish; safe to read from any number of threads without locks.
class EpochSnapshot {
 public:
  static constexpr std::uint32_t kNotLive = 0xffffffffu;

  std::uint64_t id() const { return id_; }
  SimTime time() const { return map_.time(); }
  double max_age_s() const { return max_age_s_; }

  const TrafficMap& map() const { return map_; }
  std::size_t live_segments() const { return map_.segments().size(); }

  /// The key's map row; nullptr when the segment has no live estimate.
  /// A catalogued key is one geometry probe and one overlay read; any
  /// other key (a map handed to publish_map may hold some) is looked up
  /// in the epoch's sorted off-geometry rows.
  const MapSegment* segment(const SegmentKey& key) const {
    if (const auto ord = geometry_->ordinal(key)) {
      const std::uint32_t row = live_of_ordinal_[*ord];
      return row == kNotLive ? nullptr : &map_.segments()[row];
    }
    return off_geometry_.empty() ? nullptr : off_geometry_segment(key);
  }

  /// The segment's estimate as a FusedSpeed view (mean_kmh, updated_at and
  /// observation_count preserved; variance is not carried into epochs and
  /// reads 0). Enough for ArrivalPredictor — which reads only mean and
  /// age — to predict bit-identically to the source fusion.
  std::optional<FusedSpeed> fused(const SegmentKey& key) const;

  /// Region aggregate over the grid; deterministic per epoch (fixed
  /// cell-then-ordinal fold order).
  RegionAggregate region(const BoundingBox& box) const;

  /// The k live segments whose midpoints are nearest `p` (Euclidean,
  /// planar-frame metres — NOT lat/lon), ordered by (distance, key). Walks
  /// the publisher's grid in expanding Chebyshev rings from the cell
  /// containing `p` (clamped into the city box for points outside it) and
  /// stops once every unvisited ring is provably farther than the current
  /// k-th best — bit-identical to a brute-force scan (property-tested).
  /// Fewer than k rows when the epoch has fewer live segments.
  std::vector<NearestSegment> k_nearest(Point p, std::size_t k) const;

  // Whole-map aggregates, precomputed at publish.
  double coverage_ratio() const { return coverage_ratio_; }
  double mean_speed_kmh() const { return mean_speed_kmh_; }
  const std::map<SpeedLevel, int>& level_histogram() const {
    return level_histogram_;
  }

 private:
  friend class EpochPublisher;
  EpochSnapshot(TrafficMap map, const SegmentGeometry& geometry,
                double max_age_s);
  const MapSegment* off_geometry_segment(const SegmentKey& key) const;

  std::uint64_t id_ = 0;  ///< assigned by the publisher before the swap
  double max_age_s_ = 0.0;
  TrafficMap map_;
  const SegmentGeometry* geometry_;
  std::vector<std::uint32_t> live_of_ordinal_;  ///< geometry → map index
  /// (packed key, map index) of the rows whose key the geometry does not
  /// catalogue, ascending by key. Empty for maps built from a fusion over
  /// the publisher's catalog.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> off_geometry_;
  std::map<SpeedLevel, int> level_histogram_;
  double coverage_ratio_ = 0.0;
  double mean_speed_kmh_ = 0.0;
};

class EpochPublisher {
 private:
  struct LocalPin;  // per (thread, publisher) pin state, defined below

 public:
  /// RAII pinned epoch. Falsy when nothing has been published yet. Must be
  /// released on the thread that acquired it; re-entrant pins on the same
  /// thread return the same epoch.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept
        : pub_(other.pub_), local_(other.local_), snap_(other.snap_) {
      other.pub_ = nullptr;
      other.local_ = nullptr;
      other.snap_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        release();
        pub_ = other.pub_;
        local_ = other.local_;
        snap_ = other.snap_;
        other.pub_ = nullptr;
        other.local_ = nullptr;
        other.snap_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    explicit operator bool() const { return snap_ != nullptr; }
    const EpochSnapshot& operator*() const { return *snap_; }
    const EpochSnapshot* operator->() const { return snap_; }
    const EpochSnapshot* get() const { return snap_; }

   private:
    friend class EpochPublisher;
    Pin(const EpochPublisher* pub, LocalPin* local, const EpochSnapshot* snap)
        : pub_(pub), local_(local), snap_(snap) {}
    void release();

    const EpochPublisher* pub_ = nullptr;
    LocalPin* local_ = nullptr;  ///< the acquiring thread's pin state
    const EpochSnapshot* snap_ = nullptr;
  };

  explicit EpochPublisher(const SegmentCatalog& catalog,
                          EpochPublisherConfig config = {});
  /// Stops the ticker, waits for every pin to be released, frees all
  /// epochs.
  ~EpochPublisher();

  EpochPublisher(const EpochPublisher&) = delete;
  EpochPublisher& operator=(const EpochPublisher&) = delete;

  /// Publishes a prebuilt map as the next epoch; returns its id (ids start
  /// at 1 and increase by 1 per publish). Publishes are serialized
  /// internally and may come from any thread.
  std::uint64_t publish_map(TrafficMap map);

  /// Builds the snapshot by visitation (no intermediate fused-map copy;
  /// TrafficMap::snapshot_visiting) and publishes it. The 2-arg forms use
  /// config().max_age_s.
  std::uint64_t publish_from(const SpeedFusion& fusion, SimTime now);
  std::uint64_t publish_from(const SpeedFusion& fusion, SimTime now,
                             double max_age_s);

  /// Periodic publishing: calls tick(*this) immediately, then every
  /// `period_s` (wall clock) until stop(). The tick callback typically
  /// calls TrafficServer::publish_epoch or
  /// ShardedIngestService::publish_epoch.
  void start(std::function<void(EpochPublisher&)> tick, double period_s);
  /// Stops and joins the ticker; idempotent (also run by the destructor).
  void stop();

  /// Lock-free on the registered-reader path (a handful of atomics); the
  /// mutex-guarded overflow path engages only beyond max_readers threads.
  Pin pin() const;

  // Lifecycle accounting (exact under quiescence; monotone counters).
  std::uint64_t epochs_published() const {
    return published_.load(std::memory_order_relaxed);
  }
  std::uint64_t epochs_retired() const {  ///< retired *and freed*
    return retired_freed_.load(std::memory_order_relaxed);
  }
  /// Epochs currently allocated: the live one plus retired-but-still-
  /// pinned ones awaiting reclamation.
  std::size_t epochs_live() const;
  /// Occupied reader slots (registry scan + overflow; approximate while
  /// readers are in flight).
  std::size_t pinned_readers() const;

  /// Frees every retired epoch no reader pins; runs automatically after
  /// each publish, public so tests and quiescent owners can force it.
  /// Returns how many epochs were freed.
  std::size_t reclaim();

  const SegmentCatalog& catalog() const { return geometry_.catalog(); }
  const SegmentGeometry& geometry() const { return geometry_; }
  const EpochPublisherConfig& config() const { return config_; }

  /// Serving-tier instruments: epochs.published / epochs.retired counters,
  /// epochs.pinned gauge (sampled at reclaim), epochs.overflow_readers,
  /// publish.build_s histogram. Empty when observability is disabled.
  const MetricsRegistry& metrics() const { return *metrics_; }
  MetricsRegistry& metrics_registry() { return *metrics_; }

 private:
  struct alignas(64) Slot {
    std::atomic<const EpochSnapshot*> hazard{nullptr};
  };
  struct LocalPin {
    std::size_t slot = SIZE_MAX;
    bool overflow = false;
    int depth = 0;
    const EpochSnapshot* snap = nullptr;
  };

  /// This thread's pin state for this publisher: a one-entry thread-local
  /// cache in front of the thread's id → state map.
  LocalPin& local_pin() const;
  void unpin(LocalPin& lp) const;
  std::uint64_t publish_impl(TrafficMap map, double max_age_s);
  std::size_t reclaim_locked();
  std::size_t count_pinned_locked(
      std::vector<const EpochSnapshot*>* hazards) const;

  SegmentGeometry geometry_;
  EpochPublisherConfig config_;
  /// Key for the thread-local pin state; never reused, so no thread's
  /// cache or map entry for a destroyed publisher is ever looked up again.
  const std::uint64_t publisher_id_;

  // Publish/retire/reclaim state, serialized by publish_mutex_.
  mutable std::mutex publish_mutex_;
  std::atomic<const EpochSnapshot*> current_{nullptr};
  std::vector<std::unique_ptr<EpochSnapshot>> owned_;
  std::vector<const EpochSnapshot*> retired_;
  std::uint64_t next_id_ = 1;

  // Reader registry.
  mutable std::vector<Slot> slots_;
  mutable std::atomic<std::size_t> next_slot_{0};
  mutable std::mutex overflow_pins_mutex_;
  mutable std::multiset<const EpochSnapshot*> overflow_pins_;

  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> retired_freed_{0};

  // Ticker.
  std::mutex ticker_mutex_;
  std::condition_variable ticker_cv_;
  bool ticker_stop_ = false;
  std::thread ticker_;

  std::unique_ptr<MetricsRegistry> metrics_;
  struct Instruments {
    Counter* published = nullptr;
    Counter* retired = nullptr;
    Counter* overflow_readers = nullptr;
    Gauge* pinned = nullptr;
    Gauge* live = nullptr;
    BucketHistogram* build_s = nullptr;
  };
  Instruments inst_;
};

}  // namespace bussense
