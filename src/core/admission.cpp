#include "core/admission.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sensing/trip_signature.h"

namespace bussense {

void AdmissionConfig::validate() const {
  // An empty upload has no time span to anchor a skew estimate on: once a
  // watermark exists it would store a -inf offset for its participant.
  if (min_samples == 0) {
    throw std::invalid_argument("AdmissionConfig: min_samples must be > 0");
  }
  if (min_samples > max_samples) {
    throw std::invalid_argument(
        "AdmissionConfig: min_samples must be <= max_samples");
  }
  if (max_samples == 0) {
    throw std::invalid_argument("AdmissionConfig: max_samples must be > 0");
  }
  if (max_fingerprint_cells == 0) {
    throw std::invalid_argument(
        "AdmissionConfig: max_fingerprint_cells must be > 0");
  }
  if (!(max_out_of_order_s >= 0.0)) {
    throw std::invalid_argument(
        "AdmissionConfig: max_out_of_order_s must be >= 0");
  }
  if (!(max_trip_duration_s > 0.0)) {
    throw std::invalid_argument(
        "AdmissionConfig: max_trip_duration_s must be > 0");
  }
  if (!(max_clock_skew_s >= 0.0)) {
    throw std::invalid_argument(
        "AdmissionConfig: max_clock_skew_s must be >= 0");
  }
  if (skew_state_capacity == 0) {
    throw std::invalid_argument(
        "AdmissionConfig: skew_state_capacity must be > 0");
  }
}

AdmissionController::AdmissionController(AdmissionConfig config)
    : config_(config) {
  config_.validate();
}

void AdmissionController::bind_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    inst_ = Instruments{};
    return;
  }
  inst_.admitted = &registry->counter("ingest.admitted");
  inst_.rejected_duplicate = &registry->counter("ingest.rejected.duplicate");
  inst_.rejected_malformed = &registry->counter("ingest.rejected.malformed");
  inst_.rejected_non_monotone =
      &registry->counter("ingest.rejected.non_monotone");
  inst_.skew_corrected = &registry->counter("ingest.skew_corrected");
}

RejectReason AdmissionController::check_shape(const TripUpload& trip,
                                              SimTime* begin,
                                              SimTime* end) const {
  if (trip.samples.size() < config_.min_samples ||
      trip.samples.size() > config_.max_samples) {
    return RejectReason::kMalformed;
  }
  SimTime lo = std::numeric_limits<double>::infinity();
  SimTime hi = -std::numeric_limits<double>::infinity();
  SimTime prev = -std::numeric_limits<double>::infinity();
  for (const CellularSample& sample : trip.samples) {
    if (!std::isfinite(sample.time)) return RejectReason::kMalformed;
    if (sample.fingerprint.size() > config_.max_fingerprint_cells) {
      return RejectReason::kMalformed;
    }
    if (prev - sample.time > config_.max_out_of_order_s) {
      return RejectReason::kNonMonotone;
    }
    prev = sample.time;
    lo = std::min(lo, sample.time);
    hi = std::max(hi, sample.time);
  }
  if (hi - lo > config_.max_trip_duration_s) return RejectReason::kMalformed;
  *begin = lo;
  *end = hi;
  return RejectReason::kNone;
}

bool AdmissionController::note_signature(std::uint64_t signature) {
  const auto it = seen_.find(signature);
  if (it != seen_.end()) {
    // Refresh recency: a replay storm must not let its own target age out
    // of the window between copies.
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  lru_.push_front(signature);
  seen_.emplace(signature, lru_.begin());
  while (seen_.size() > config_.dedup_capacity) {
    seen_.erase(lru_.back());
    lru_.pop_back();
  }
  return true;
}

RejectReason AdmissionController::admit(const TripUpload& trip,
                                        TripUpload& corrected,
                                        const TripUpload*& use,
                                        AdmitInfo* info) {
  use = &trip;
  if (info) *info = AdmitInfo{};
  SimTime begin = 0.0, end = 0.0;
  const RejectReason shape = check_shape(trip, &begin, &end);
  if (shape != RejectReason::kNone) {
    if (shape == RejectReason::kMalformed && inst_.rejected_malformed) {
      inst_.rejected_malformed->inc();
    }
    if (shape == RejectReason::kNonMonotone && inst_.rejected_non_monotone) {
      inst_.rejected_non_monotone->inc();
    }
    return shape;
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  // Dedup on the bytes as uploaded (pre-correction): a retrying phone
  // resends exactly what it sent before, skewed clock included.
  if (config_.dedup_capacity > 0) {
    const std::uint64_t signature = trip_signature(trip);
    if (info) info->signature = signature;
    if (!note_signature(signature)) {
      if (inst_.rejected_duplicate) inst_.rejected_duplicate->inc();
      return RejectReason::kDuplicate;
    }
  }

  if (config_.max_clock_skew_s > 0.0 && have_watermark_) {
    if (skew_offset_s_.size() > config_.skew_state_capacity) {
      skew_offset_s_.clear();  // hostile-id overflow: coarse reset
    }
    double offset = 0.0;
    const auto known = skew_offset_s_.find(trip.participant_id);
    if (known != skew_offset_s_.end()) offset = known->second;
    // Phones upload a trip right after it ends, so with a healthy clock
    // (and any known offset removed) the trip end lands near the
    // watermark. A residual beyond the threshold is fresh skew evidence.
    const double residual = (end - offset) - watermark_;
    if (std::abs(residual) > config_.max_clock_skew_s) offset += residual;
    if (offset != 0.0) {
      skew_offset_s_[trip.participant_id] = offset;
      corrected = trip;
      for (CellularSample& sample : corrected.samples) sample.time -= offset;
      use = &corrected;
      if (info) info->skew_offset_s = offset;
      if (inst_.skew_corrected) inst_.skew_corrected->inc();
    }
  }

  if (inst_.admitted) inst_.admitted->inc();
  return RejectReason::kNone;
}

void AdmissionController::note_replayed(std::uint64_t signature,
                                        std::int32_t participant_id,
                                        double skew_offset_s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Signature 0 marks "dedup was off" in the WAL record; a genuine zero
  // hash (p ~ 2^-64) merely loses that one record's dedup entry on replay.
  if (config_.dedup_capacity > 0 && signature != 0) {
    note_signature(signature);
  }
  // admit() only writes the table when the (possibly re-used) offset is
  // non-zero, so replaying recorded non-zero offsets rebuilds it exactly.
  if (skew_offset_s != 0.0) skew_offset_s_[participant_id] = skew_offset_s;
}

AdmissionCheckpoint AdmissionController::export_state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  AdmissionCheckpoint out;
  // lru_ holds most-recent-first; export oldest-first so restore can
  // replay the recency order with plain push_fronts.
  out.lru_oldest_first.assign(lru_.rbegin(), lru_.rend());
  out.skew_offsets.assign(skew_offset_s_.begin(), skew_offset_s_.end());
  std::sort(out.skew_offsets.begin(), out.skew_offsets.end());
  out.have_watermark = have_watermark_;
  out.watermark = watermark_;
  return out;
}

void AdmissionController::restore_state(const AdmissionCheckpoint& state) {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  seen_.clear();
  for (const std::uint64_t signature : state.lru_oldest_first) {
    lru_.push_front(signature);
    seen_.emplace(signature, lru_.begin());
  }
  skew_offset_s_.clear();
  for (const auto& [participant, offset] : state.skew_offsets) {
    skew_offset_s_[participant] = offset;
  }
  have_watermark_ = state.have_watermark;
  watermark_ = state.watermark;
}

void AdmissionController::observe_time(SimTime now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!have_watermark_ || now > watermark_) {
    watermark_ = now;
    have_watermark_ = true;
  }
}

SimTime AdmissionController::watermark() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return have_watermark_ ? watermark_
                         : -std::numeric_limits<double>::infinity();
}

}  // namespace bussense
