#include "core/stop_matcher.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace bussense {

namespace {

using QuantizedView = StopDatabase::QuantizedView;

// A record sharing cells with the sample: shared-cell occurrence count.
struct Candidate {
  std::uint32_t record;
  std::uint32_t shared;
};

// A γ-passing candidate on the batch path.
struct Survivor {
  std::uint32_t record;
  std::uint32_t length;
  double bound;  ///< upper bound on the score
  double score;  ///< kNotScored until a DP ran
};

// Per-thread matcher scratch, reused across calls (thread_local because the
// sharded ingest service matches from many shard consumers). `counts` (shared-cell
// occurrences per record) and the `touched` bitmap are sized to the database
// and return to all zeros as the walk enumerates them, so a call pays no
// O(database) reset.
struct Scratch {
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> touched;  ///< bit r set iff counts[r] > 0
  std::vector<std::uint32_t> sample_ids;
  std::vector<std::int16_t> sample_ranks;
  std::vector<Candidate> candidates;  ///< records ascending
  // Batch path: survivors (records ascending) with their length range, the
  // length-class order for mixed lengths, one batch's lanes and the
  // kernel's transposed block.
  std::vector<Survivor> survivors;
  std::uint32_t min_length = 0;
  std::uint32_t max_length = 0;
  std::vector<std::uint32_t> class_end;
  std::vector<std::uint32_t> order;
  std::vector<Survivor*> lane_survivor;
  std::vector<std::int16_t> lane_scores;
  std::vector<std::int16_t> db_t;
};
thread_local Scratch t_scratch;

// Retention cap for the database-sized scratch. One match() against a huge
// database would otherwise pin O(db) capacity for the thread's whole
// lifetime (ingestion workers are long-lived); above this many entries the
// scratch is rebuilt at the size the current database actually needs.
constexpr std::size_t kScratchRetainEntries = std::size_t{1} << 16;

// Looks every sample cell up once: the dense id drives the posting walk,
// the rank feeds the batch kernel.
void resolve_sample(const QuantizedView& qv, const Fingerprint& sample) {
  Scratch& w = t_scratch;
  w.sample_ids.resize(sample.size());
  w.sample_ranks.resize(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    w.sample_ids[i] = qv.id_of(sample.cells[i]);
    w.sample_ranks[i] = QuantizedView::rank_of_id(w.sample_ids[i]);
  }
}

// Resolves the sample, then lists every record sharing at least one cell
// with it, records ascending (the scalar scan's tie-break order) straight
// from the bitmap's word order — no sort.
const std::vector<Candidate>& walk_index(const QuantizedView& qv,
                                         const Fingerprint& sample) {
  Scratch& w = t_scratch;
  const std::size_t records = qv.record.size();
  if (w.counts.capacity() > kScratchRetainEntries &&
      std::max(records, kScratchRetainEntries) < w.counts.capacity()) {
    // Shrink back after a huge-database excursion: release the buffers
    // (shrink_to_fit may legally keep the capacity) and regrow below.
    std::vector<std::uint32_t>().swap(w.counts);
    std::vector<std::uint64_t>().swap(w.touched);
    std::vector<Candidate>().swap(w.candidates);
    std::vector<Survivor>().swap(w.survivors);
  }
  if (w.counts.size() < records) {
    w.counts.resize(records, 0);
    w.touched.resize((records + 63) / 64, 0);
    // Reserved up front so nothing below can throw with the scratch dirty.
    w.candidates.reserve(records);
  }
  resolve_sample(qv, sample);
  w.candidates.clear();

  // Branch-free count: first touches are unpredictable, and setting a bit
  // twice is harmless. Lists are ascending, so their ends bound the range.
  std::size_t lo = SIZE_MAX, hi = 0;  // touched word range
  for (const std::uint32_t id : w.sample_ids) {
    if (id == QuantizedView::kNoId) continue;
    const std::uint32_t begin = qv.post_off[id], end = qv.post_off[id + 1];
    lo = std::min<std::size_t>(lo, qv.post_rec[begin] >> 6);
    hi = std::max<std::size_t>(hi, qv.post_rec[end - 1] >> 6);
    for (std::uint32_t p = begin; p < end; ++p) {
      const std::uint32_t rec = qv.post_rec[p];
      ++w.counts[rec];
      w.touched[rec >> 6] |= std::uint64_t{1} << (rec & 63);
    }
  }
  for (std::size_t word = lo; word <= hi; ++word) {
    std::uint64_t bits = w.touched[word];
    w.touched[word] = 0;
    while (bits != 0) {
      const auto rec =
          static_cast<std::uint32_t>(word * 64 + std::countr_zero(bits));
      bits &= bits - 1;
      w.candidates.push_back(Candidate{rec, w.counts[rec]});
      w.counts[rec] = 0;
    }
  }
  return w.candidates;
}

constexpr double kNotScored = -1.0;  // real scores are >= 0

// The running winner of the scalar scan's rule — higher score, then more
// common cells, then the earlier record — fed in ascending record order.
// common_cell_count runs only when a score ties the incumbent, plus once
// for the final winner.
class Winner {
 public:
  Winner(const Fingerprint& sample, const StopDatabase& database)
      : sample_(sample), records_(database.records()) {}

  void offer(std::uint32_t record, double score) {
    if (score > score_) {
      record_ = record;
      score_ = score;
      common_ = -1;
    } else if (score == score_) {
      if (common_ < 0) common_ = common_with(record_);
      const int common = common_with(record);
      if (common > common_) {
        record_ = record;
        common_ = common;
      }
    }
  }

  std::optional<MatchResult> result() {
    if (score_ == kNotScored) return std::nullopt;
    if (common_ < 0) common_ = common_with(record_);
    return MatchResult{records_[record_].stop, score_, common_};
  }

 private:
  int common_with(std::uint32_t record) const {
    return common_cell_count(sample_, records_[record].fingerprint);
  }

  const Fingerprint& sample_;
  const std::vector<StopRecord>& records_;
  std::uint32_t record_ = 0;
  double score_ = kNotScored;
  int common_ = -1;  ///< not computed yet
};

}  // namespace

void StopMatcherConfig::validate() const {
  if (!std::isfinite(accept_threshold)) {
    throw std::invalid_argument(
        "StopMatcherConfig: accept_threshold must be finite");
  }
  if (!std::isfinite(matching.match_score) ||
      !std::isfinite(matching.mismatch_penalty) ||
      !std::isfinite(matching.gap_penalty)) {
    throw std::invalid_argument(
        "StopMatcherConfig: matching scores must be finite");
  }
}

StopMatcher::StopMatcher(const StopDatabase& database, StopMatcherConfig config)
    : database_(&database), config_(config) {
  config_.validate();
  fixed_ = quantize_scores(config_.matching);
}

void StopMatcher::bind_metrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    calls_ = considered_ = candidates_ = pruned_ = accepted_ = bound_skipped_ =
        nullptr;
    return;
  }
  calls_ = &registry->counter("matcher.calls");
  considered_ = &registry->counter("matcher.records_considered");
  candidates_ = &registry->counter("matcher.gamma_candidates");
  pruned_ = &registry->counter("matcher.records_pruned");
  accepted_ = &registry->counter("matcher.records_accepted");
  bound_skipped_ = &registry->counter("matcher.records_bound_skipped");
}

void StopMatcher::record(const MatchStats& local) const {
  if (calls_ && local.calls > 0) {
    calls_->add(local.calls);
    considered_->add(local.records_considered);
    candidates_->add(local.gamma_candidates);
    pruned_->add(local.records_pruned);
    accepted_->add(local.records_accepted);
    bound_skipped_->add(local.records_bound_skipped);
  }
}

bool StopMatcher::index_usable() const {
  // The pruning bound score <= match_score · shared_cells needs a positive
  // match reward, non-negative penalties and a positive threshold; exotic
  // configurations keep the exhaustive scan.
  return config_.accel.use_index && config_.matching.match_score > 0.0 &&
         config_.matching.mismatch_penalty >= 0.0 &&
         config_.matching.gap_penalty >= 0.0 && config_.accept_threshold > 0.0;
}

bool StopMatcher::simd_active() const {
  // The batch path needs the exact fixed-point arithmetic (for the
  // bit-identity contract) and the same soundness conditions as the γ
  // bound; anything else keeps the scalar scan, which — since the scalar
  // path is the reference — is trivially identical across the knob.
  // It also needs a vector unit to pay for the batch packing: without
  // AVX2/NEON the lane-major scalar batch is slower than the plain DP
  // (measured ~0.5–0.8x), so kernel-less hosts keep the classic loop.
  return config_.accel.use_simd &&
         simd::active_kernel() != simd::Kernel::kScalar && fixed_.exact &&
         fixed_.match > 0 && fixed_.mismatch >= 0 && fixed_.gap >= 0 &&
         config_.accept_threshold > 0.0 && database_->quantized().valid;
}

std::size_t StopMatcher::thread_scratch_capacity() {
  return t_scratch.counts.capacity();
}

double StopMatcher::score_bound(std::size_t shared, std::size_t n,
                                std::size_t m) const {
  return config_.matching.match_score *
         static_cast<double>(std::min({shared, n, m}));
}

void StopMatcher::collect_survivors(const Fingerprint& sample,
                                    const QuantizedView& qv,
                                    MatchStats& local) const {
  Scratch& b = t_scratch;
  const std::size_t n = sample.cells.size();
  std::size_t kept = 0;
  // Branch-free compaction: write every candidate, keep those that can
  // reach γ (which ones do is unpredictable).
  const auto push = [&](std::uint32_t rec, std::size_t shared) {
    const std::uint32_t length = qv.record[rec].length;
    const double bound = score_bound(shared, n, length);
    b.survivors[kept] = Survivor{rec, length, bound, kNotScored};
    kept += bound >= config_.accept_threshold;
  };
  if (index_usable()) {
    const std::vector<Candidate>& candidates = walk_index(qv, sample);
    b.survivors.resize(candidates.size());
    for (const Candidate& c : candidates) push(c.record, c.shared);
  } else {
    resolve_sample(qv, sample);
    b.survivors.resize(qv.record.size());
    for (std::uint32_t rec = 0; rec < qv.record.size(); ++rec) {
      push(rec, qv.record[rec].length);
    }
  }
  b.survivors.resize(kept);
  b.min_length = UINT32_MAX;
  b.max_length = 0;
  for (const Survivor& s : b.survivors) {
    b.min_length = std::min(b.min_length, s.length);
    b.max_length = std::max(b.max_length, s.length);
  }
  local.gamma_candidates = kept;
}

void StopMatcher::score_survivors(const Fingerprint& sample,
                                  const QuantizedView& qv,
                                  bool prune_incumbent,
                                  MatchStats& local) const {
  Scratch& b = t_scratch;
  const std::int16_t* upload = b.sample_ranks.data();
  const std::size_t n = sample.cells.size();
  const simd::Kernel kernel = simd::active_kernel();
  const std::size_t width = simd::batch_width(kernel);
  b.lane_survivor.resize(width);
  b.lane_scores.resize(width);

  // Incumbent best score so far. Skipping a survivor whose bound is
  // *strictly* below it is sound in any processing order: the final best can
  // only be higher, so the skipped record can neither win nor tie.
  double best_score = kNotScored;
  const auto skip = [&](const Survivor& s) {
    if (!prune_incumbent || best_score < 0.0 || s.bound >= best_score) {
      return false;
    }
    ++local.records_bound_skipped;
    return true;
  };
  const auto note_score = [&](Survivor& s, double score) {
    s.score = score;
    if (score > best_score) best_score = score;
    ++local.records_accepted;
  };

  // Scores one length class, survivors at(0..count) in record order, so
  // every batch shares one DP shape.
  const auto score_class = [&](auto at, std::size_t count,
                               std::uint32_t class_len) {
    if (!fixed_point_usable(fixed_, std::min(n, std::size_t{class_len}))) {
      // Degenerate class (e.g. fingerprints long enough to overflow int16
      // deci-scores): score scalar — similarity() makes the identical
      // fixed/double choice per pair, preserving bit-identity.
      for (std::size_t k = 0; k < count; ++k) {
        Survivor& s = at(k);
        if (skip(s)) continue;
        note_score(s, similarity(sample,
                                 database_->records()[s.record].fingerprint,
                                 config_.matching));
      }
      return;
    }
    // Kernel batches of `width` lanes over this class.
    b.db_t.resize(std::size_t{class_len} * width);
    std::size_t k = 0;
    while (k < count) {
      std::size_t lanes = 0;
      while (k < count && lanes < width) {
        Survivor& s = at(k++);
        if (!skip(s)) b.lane_survivor[lanes++] = &s;
      }
      if (lanes == 0) continue;
      // Transpose the candidates' rank arrays into lane-major rows; unused
      // lanes carry kPadRank, which matches nothing and scores 0.
      if (lanes < width) {
        std::fill(b.db_t.begin(), b.db_t.end(), simd::kPadRank);
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::int16_t* src =
            qv.ranks.data() + qv.record[b.lane_survivor[lane]->record].offset;
        for (std::size_t j = 0; j < class_len; ++j) {
          b.db_t[j * width + lane] = src[j];
        }
      }
      simd::score_batch(upload, n, b.db_t.data(), class_len, fixed_,
                        b.lane_scores.data(), kernel);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        note_score(*b.lane_survivor[lane], fixed_to_score(b.lane_scores[lane]));
      }
    }
  };

  const std::size_t count = b.survivors.size();
  if (count == 0) return;
  if (b.min_length == b.max_length) {
    // One length class (the common case): record order is class order.
    score_class([&](std::size_t k) -> Survivor& { return b.survivors[k]; },
                count, b.min_length);
    return;
  }
  // Mixed lengths: stable counting sort of survivor indices by length, so
  // classes run in (length, record) order.
  const std::size_t span = b.max_length - b.min_length + 1;
  b.class_end.assign(span + 1, 0);
  for (const Survivor& s : b.survivors) {
    ++b.class_end[s.length - b.min_length + 1];
  }
  std::partial_sum(b.class_end.begin(), b.class_end.end(), b.class_end.begin());
  b.order.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    b.order[b.class_end[b.survivors[i].length - b.min_length]++] = i;
  }
  // class_end[c] now marks the end of class c (the filling advanced it).
  std::size_t begin = 0;
  for (std::size_t c = 0; c < span; ++c) {
    const std::size_t end = b.class_end[c];
    if (end == begin) continue;
    score_class(
        [&, begin](std::size_t k) -> Survivor& {
          return b.survivors[b.order[begin + k]];
        },
        end - begin, static_cast<std::uint32_t>(b.min_length + c));
    begin = end;
  }
}

template <typename Accept>
void StopMatcher::scan(const Fingerprint& sample, bool prune_incumbent,
                       MatchStats& local, Accept&& accept) const {
  local.records_considered = database_->size();
  if (simd_active()) {
    const QuantizedView& qv = database_->quantized();
    collect_survivors(sample, qv, local);
    score_survivors(sample, qv, prune_incumbent, local);
    for (const Survivor& s : t_scratch.survivors) {
      if (s.score >= config_.accept_threshold) accept(s.record, s.score);
    }
  } else {
    double best_score = kNotScored;
    const auto consider = [&](std::uint32_t rec) {
      ++local.records_accepted;
      const double score = similarity(
          sample, database_->records()[rec].fingerprint, config_.matching);
      best_score = std::max(best_score, score);
      if (score >= config_.accept_threshold) accept(rec, score);
    };
    if (!index_usable()) {
      local.gamma_candidates = database_->size();
      for (std::uint32_t rec = 0; rec < database_->size(); ++rec) consider(rec);
    } else {
      const QuantizedView& qv = database_->quantized();
      for (const Candidate& c : walk_index(qv, sample)) {
        const double bound = score_bound(c.shared, sample.cells.size(),
                                         qv.record[c.record].length);
        if (bound < config_.accept_threshold) continue;  // cannot reach γ
        ++local.gamma_candidates;
        // A candidate strictly below the incumbent score can neither win
        // nor tie (tie-breaks only apply at equal scores), so skip its DP.
        if (prune_incumbent && bound < best_score) {
          ++local.records_bound_skipped;
          continue;
        }
        consider(c.record);
      }
    }
  }
  local.records_pruned = local.records_considered - local.records_accepted;
}

std::optional<MatchResult> StopMatcher::match_deferred(
    const Fingerprint& sample, MatchStats& pending) const {
  MatchStats local;
  local.calls = 1;
  Winner winner(sample, *database_);
  scan(sample, /*prune_incumbent=*/true, local,
       [&](std::uint32_t rec, double score) { winner.offer(rec, score); });
  pending.merge(local);
  return winner.result();
}

std::optional<MatchResult> StopMatcher::match(const Fingerprint& sample,
                                              MatchStats* stats) const {
  MatchStats local;
  const auto result = match_deferred(sample, local);
  if (stats) *stats = local;
  record(local);
  return result;
}

std::vector<MatchResult> StopMatcher::match_all(const Fingerprint& sample,
                                                MatchStats* stats) const {
  MatchStats local;
  local.calls = 1;
  std::vector<MatchResult> out;
  scan(sample, /*prune_incumbent=*/false, local,
       [&](std::uint32_t rec, double score) {
         const StopRecord& r = database_->records()[rec];
         out.push_back(MatchResult{r.stop, score,
                                   common_cell_count(sample, r.fingerprint)});
       });
  if (stats) *stats = local;
  record(local);
  std::sort(out.begin(), out.end(), [](const MatchResult& a, const MatchResult& b) {
    return a.score > b.score ||
           (a.score == b.score && a.common_cells > b.common_cells);
  });
  return out;
}

}  // namespace bussense
