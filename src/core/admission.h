// Admission control for trip uploads: the defense half of the fault story.
//
// Uploads come from uncontrolled phones, so a networked deployment must
// assume hostile input — replayed uploads, absurd counts, shuffled or
// skewed timestamps (src/faults/ injects exactly these). Before any
// pipeline work is spent, TrafficServer::process_trip and every
// ShardedIngestService shard run the upload through an AdmissionController:
//
//   1. sanity bounds — sample count, per-fingerprint cell count, finite
//      timestamps, total duration (kMalformed);
//   2. time order — backward jumps beyond a tolerance are rejected
//      (kNonMonotone); small inversions are tolerated because the matcher
//      sorts anyway;
//   3. duplicate detection — a bounded LRU of recent trip_signature()
//      hashes refuses byte-identical replays (kDuplicate);
//   4. clock-skew re-anchoring — a per-participant constant offset,
//      estimated against the fusion watermark (the latest advance_time),
//      is subtracted from the sample times of trips that end implausibly
//      far from it. Correction, not rejection: the data is good, only the
//      phone's clock is wrong.
//
// Rejections return TripReport{kRejected, reason} instead of throwing, and
// every verdict is counted: ingest.admitted + Σ ingest.rejected.* ==
// uploads submitted (tested). Re-anchoring only fires once a watermark
// exists, so offline batch runs — which call advance_time() after the last
// trip — are bit-identical with admission on or off for clean workloads
// (property-tested). Skew state is processing-order dependent by nature;
// duplicate detection is not (replays are byte-identical, so whichever
// copy wins admission yields the same analysis).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "core/ingest_report.h"
#include "obs/metrics.h"
#include "sensing/trip.h"

namespace bussense {

struct AdmissionConfig {
  /// Off by default: the historical trusting pipeline. ServerConfig embeds
  /// this struct; TrafficServer and ShardedIngestService both honour it.
  bool enabled = false;

  /// Replay window: how many recent upload signatures the LRU remembers.
  /// 0 disables duplicate detection.
  std::size_t dedup_capacity = 4096;

  /// Sample-count bounds. Uploads below min_samples (e.g. empty) carry no
  /// usable signal; above max_samples they are a memory-exhaustion vector.
  /// min_samples must be > 0.
  std::size_t min_samples = 1;
  std::size_t max_samples = 100000;

  /// A scan sees a handful of towers; a fingerprint beyond this is bogus.
  std::size_t max_fingerprint_cells = 64;

  /// Largest tolerated backward timestamp step within an upload. Small
  /// inversions are lossy-link reordering (the matcher sorts them away);
  /// beyond this the sequence is garbage.
  double max_out_of_order_s = 120.0;

  /// Longest plausible single trip (first to last sample).
  double max_trip_duration_s = 6.0 * 3600.0;

  /// Clock-skew re-anchoring threshold: a trip ending further than this
  /// from the fusion watermark has its participant's offset re-estimated
  /// and subtracted. 0 disables re-anchoring.
  double max_clock_skew_s = 1800.0;

  /// Bound on the per-participant skew table (hostile participant ids must
  /// not grow it without limit); on overflow the table resets.
  std::size_t skew_state_capacity = 65536;

  /// Throws std::invalid_argument on nonsense (zero/negative bounds,
  /// min_samples of 0 or above max_samples).
  void validate() const;
};

/// Facts the durability layer needs about an admitted upload: what the
/// dedup LRU recorded and what skew correction was applied. Written into
/// the WAL (core/trip_log.h) so replay can rebuild this controller's state
/// without re-running admit() — which would wrongly dedup-reject the
/// replayed records.
struct AdmitInfo {
  std::uint64_t signature = 0;  ///< pre-correction trip_signature; 0 = none
  double skew_offset_s = 0.0;   ///< offset subtracted; 0 = uncorrected
};

/// Complete controller state for a checkpoint: the dedup LRU oldest-first,
/// the skew table sorted by participant id, and the watermark —
/// byte-deterministic for a given admission history.
struct AdmissionCheckpoint {
  std::vector<std::uint64_t> lru_oldest_first;
  std::vector<std::pair<std::int32_t, double>> skew_offsets;
  bool have_watermark = false;
  SimTime watermark = 0.0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Registers the ingest.admitted / ingest.rejected.* /
  /// ingest.skew_corrected instruments; null unbinds (no-op recording).
  void bind_metrics(MetricsRegistry* registry);

  /// Runs the checks above. Returns kNone on admission, with `use`
  /// pointing at the upload the pipeline should analyse — `trip` itself,
  /// or `corrected` when a clock-skew offset was subtracted. On rejection
  /// `use` is left pointing at `trip`. When `info` is non-null it receives
  /// the recorded signature and applied offset (durability plumbing).
  /// Thread-safe.
  RejectReason admit(const TripUpload& trip, TripUpload& corrected,
                     const TripUpload*& use, AdmitInfo* info = nullptr);

  /// WAL-replay hook: re-records an admission verdict without re-judging
  /// it — refreshes/inserts the signature in the dedup LRU and restores
  /// the participant's skew offset. No instruments fire (the original
  /// admission already counted). Thread-safe.
  void note_replayed(std::uint64_t signature, std::int32_t participant_id,
                     double skew_offset_s);

  /// Snapshot of the full mutable state (thread-safe).
  AdmissionCheckpoint export_state() const;

  /// Replaces the mutable state with a checkpoint (thread-safe).
  void restore_state(const AdmissionCheckpoint& state);

  /// Advances the fusion watermark (called from advance_time). The
  /// watermark only moves forward.
  void observe_time(SimTime now);

  /// Latest watermark, or -infinity before the first observe_time().
  SimTime watermark() const;

  const AdmissionConfig& config() const { return config_; }

 private:
  RejectReason check_shape(const TripUpload& trip, SimTime* begin,
                           SimTime* end) const;
  bool note_signature(std::uint64_t signature);  ///< false when a replay

  AdmissionConfig config_;

  mutable std::mutex mutex_;
  // Signature LRU: recency list + signature → list position.
  std::list<std::uint64_t> lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> seen_;
  std::unordered_map<std::int32_t, double> skew_offset_s_;
  SimTime watermark_ = 0.0;
  bool have_watermark_ = false;

  struct Instruments {
    Counter* admitted = nullptr;
    Counter* rejected_duplicate = nullptr;
    Counter* rejected_malformed = nullptr;
    Counter* rejected_non_monotone = nullptr;
    Counter* skew_corrected = nullptr;
  };
  Instruments inst_;
};

}  // namespace bussense
