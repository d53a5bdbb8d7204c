#include "core/stop_matcher.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace bussense {

namespace {

using QuantizedView = StopDatabase::QuantizedView;

constexpr double kNotScored = -1.0;  // real scores are >= 0
constexpr int kUnknownCommon = -1;   // common-cell count not taken yet

// A γ-passing record with what the walk learnt about it.
struct Survivor {
  std::uint32_t record;
  std::uint32_t length;
  std::int32_t common;  ///< common_cell_count, or kUnknownCommon off the index
  std::uint32_t limit;  ///< min(shared occurrences, n, m): bound = match · limit
  double score;         ///< kNotScored until a DP ran
};

// Per-thread matcher scratch, reused across calls (thread_local because the
// sharded ingest service matches from many shard consumers). The
// database-sized buffers grow once and are never value-initialised per
// call: `counts` returns to all zeros as the compaction reads it, and
// `first_touch` and `survivors` are valid only up to the call's own counts.
struct Scratch {
  /// Per record, packed: distinct common cells << 32 | shared occurrences.
  std::vector<std::uint64_t> counts;
  /// Touched records in first-touch order, plus one slot for the
  /// branch-free write past the end.
  std::vector<std::uint32_t> first_touch;
  std::vector<std::uint32_t> sample_ids;
  std::vector<std::int16_t> sample_ranks;
  // Survivors (first-touch order) with their length range, the
  // length-class order for mixed lengths, and one batch's lanes: their
  // survivors, their rows in the rank blob and their scores.
  std::vector<Survivor> survivors;
  std::size_t survivor_count = 0;
  std::uint32_t min_length = 0;
  std::uint32_t max_length = 0;
  std::vector<std::uint32_t> class_end;
  std::vector<std::uint32_t> order;
  std::array<Survivor*, simd::kMaxBatchWidth> lane_survivor{};
  std::array<const std::int16_t*, simd::kMaxBatchWidth> lane_row{};
  std::array<std::int16_t, simd::kMaxBatchWidth> lane_scores10{};
  std::array<double, simd::kMaxBatchWidth> lane_scores{};
};
thread_local Scratch t_scratch;

// Retention cap for the database-sized scratch. One match() against a huge
// database would otherwise pin O(db) capacity for the thread's whole
// lifetime (ingestion workers are long-lived); above this many entries the
// scratch is rebuilt at the size the current database actually needs.
constexpr std::size_t kScratchRetainEntries = std::size_t{1} << 16;

// Sizes the database-sized scratch for `records`, shrinking it back first
// after a huge-database excursion.
void prepare_scratch(std::size_t records) {
  Scratch& w = t_scratch;
  if (w.counts.capacity() > kScratchRetainEntries &&
      std::max(records, kScratchRetainEntries) < w.counts.capacity()) {
    // Release the buffers (shrink_to_fit may legally keep the capacity)
    // and regrow below.
    std::vector<std::uint64_t>().swap(w.counts);
    std::vector<std::uint32_t>().swap(w.first_touch);
    std::vector<Survivor>().swap(w.survivors);
  }
  if (w.counts.size() < records) {
    // `counts` last: once it is large enough, so are the others, even if
    // an earlier call threw half-way through growing them.
    w.survivors.resize(records);
    w.first_touch.resize(records + 1);
    w.counts.resize(records, 0);
  }
}

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

// Walks the resolved sample's posting lists once and returns how many
// records it touched (listed in first_touch). One packed increment per
// posting carries both of a record's counts: the low half counts shared
// occurrences (the γ bound), the high half counts distinct common cells —
// common_cell_count(sample, record). A list is ascending, so an entry that
// differs from the one before it is that record's first for this cell. A
// record joins first_touch when its count leaves 0; the slot is written
// every time and the length grows only then, so there is no branch on
// which records are new.
std::size_t walk_index(const QuantizedView& qv) {
  Scratch& w = t_scratch;
  std::uint64_t* const counts = w.counts.data();
  std::uint32_t* const first_touch = w.first_touch.data();
  std::size_t touched = 0;
  for (const std::uint32_t id : w.sample_ids) {
    if (id == QuantizedView::kNoId) continue;
    const std::uint32_t* p = qv.post_rec.data() + qv.post_off[id];
    const std::uint32_t* const end = qv.post_rec.data() + qv.post_off[id + 1];
    std::uint32_t prev = QuantizedView::kNoId;  // no record
    for (; p != end; ++p) {
      const std::uint32_t rec = *p;
      const std::uint64_t count = counts[rec];
      first_touch[touched] = rec;
      touched += count == 0;
      counts[rec] = count + 1 + (std::uint64_t{rec != prev} << 32);
      prev = rec;
    }
  }
  return touched;
}

// The running winner under the scalar scan's rule: higher score, then more
// common cells, then the lower record index. The rule is a total order, so
// offers may arrive in any order. The index paths pass each record's
// common count from the walk; the brute-force scan passes kUnknownCommon,
// and the count is taken only when a score ties.
class Winner {
 public:
  Winner(const Fingerprint& sample, const StopDatabase& database)
      : sample_(sample), records_(database.records()) {}

  void offer(std::uint32_t record, double score, int common) {
    if (score < score_) return;
    if (score == score_) {
      resolve(record_, common_);
      resolve(record, common);
      if (common < common_ || (common == common_ && record > record_)) return;
    }
    record_ = record;
    score_ = score;
    common_ = common;
  }

  std::optional<MatchResult> result() {
    if (score_ == kNotScored) return std::nullopt;
    resolve(record_, common_);
    return MatchResult{records_[record_].stop, score_, common_};
  }

 private:
  void resolve(std::uint32_t record, int& common) const {
    if (common == kUnknownCommon) {
      common = common_cell_count(sample_, records_[record].fingerprint);
    }
  }

  const Fingerprint& sample_;
  const std::vector<StopRecord>& records_;
  std::uint32_t record_ = 0;
  double score_ = kNotScored;
  int common_ = kUnknownCommon;
};

// Fewest shared cells that can reach γ: the smallest k with
// match · k >= γ, found with the same double comparison the bound makes,
// so the integer test min(shared, n, m) >= k agrees with it exactly.
// 0 when the bound does not apply (non-positive match score or γ).
std::uint64_t min_shared_for(double match, double gamma) {
  if (!(match > 0.0) || !(gamma > 0.0)) return 0;
  const double estimate = std::ceil(gamma / match);
  constexpr std::uint64_t kUnreachable = std::uint64_t{1} << 32;
  if (!(estimate < static_cast<double>(kUnreachable))) return kUnreachable;
  auto k = static_cast<std::uint64_t>(estimate);
  while (k > 0 && match * static_cast<double>(k - 1) >= gamma) --k;
  while (match * static_cast<double>(k) < gamma) ++k;
  return k;
}

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
  min_shared_ =
      min_shared_for(config_.matching.match_score, config_.accept_threshold);
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
  // It also needs a vector unit. AVX2 reads the candidates' rows in place
  // and transposes them in registers; without AVX2/NEON, score_rows gathers
  // the rows into a lane-major block for the scalar batch, and that gather
  // plus the lane loop ran at ~0.5–0.8x the plain DP's speed (measured when
  // the matcher packed the same block itself), so kernel-less hosts keep
  // the classic loop.
  return config_.accel.use_simd &&
         simd::active_kernel() != simd::Kernel::kScalar && fixed_.exact &&
         fixed_.match > 0 && fixed_.mismatch >= 0 && fixed_.gap >= 0 &&
         config_.accept_threshold > 0.0 && database_->quantized().valid;
}

std::size_t StopMatcher::thread_scratch_capacity() {
  return t_scratch.counts.capacity();
}

double StopMatcher::score_bound(std::uint32_t limit) const {
  return config_.matching.match_score * static_cast<double>(limit);
}

void StopMatcher::collect_survivors(const Fingerprint& sample,
                                    const QuantizedView& qv,
                                    MatchStats& local) const {
  Scratch& b = t_scratch;
  const std::size_t records = qv.record.size();
  prepare_scratch(records);
  resolve_sample(qv, sample);
  const auto n = static_cast<std::uint32_t>(sample.size());
  Survivor* const out = b.survivors.data();
  std::size_t kept = 0;
  // Branch-free compaction: write every record, keep those that can reach
  // γ (which ones do is unpredictable).
  const auto push = [&](std::uint32_t rec, std::uint32_t shared, int common) {
    const std::uint32_t length = qv.record[rec].length;
    const std::uint32_t limit = std::min({shared, n, length});
    out[kept] = Survivor{rec, length, common, limit, kNotScored};
    kept += limit >= min_shared_;
  };
  if (index_usable()) {
    const std::size_t touched = walk_index(qv);
    for (std::size_t i = 0; i < touched; ++i) {
      const std::uint32_t rec = b.first_touch[i];
      const std::uint64_t count = b.counts[rec];
      b.counts[rec] = 0;
      push(rec, static_cast<std::uint32_t>(count),
           static_cast<int>(count >> 32));
    }
  } else {
    for (std::uint32_t rec = 0; rec < records; ++rec) {
      push(rec, qv.record[rec].length, kUnknownCommon);
    }
  }
  b.survivor_count = kept;
  b.min_length = UINT32_MAX;
  b.max_length = 0;
  for (std::size_t i = 0; i < kept; ++i) {
    b.min_length = std::min(b.min_length, out[i].length);
    b.max_length = std::max(b.max_length, out[i].length);
  }
  local.gamma_candidates = kept;
}

void StopMatcher::score_survivors(const Fingerprint& sample,
                                  const QuantizedView& qv, bool batch,
                                  bool prune_incumbent,
                                  MatchStats& local) const {
  Scratch& b = t_scratch;
  const std::int16_t* upload = b.sample_ranks.data();
  const std::size_t n = sample.cells.size();
  const simd::Kernel kernel = simd::active_kernel();
  const std::size_t width = simd::batch_width(kernel);

  // Incumbent best score so far. Skipping a survivor whose bound is
  // *strictly* below it is sound in any processing order: the final best can
  // only be higher, so the skipped record can neither win nor tie.
  double best_score = kNotScored;
  const auto skip = [&](const Survivor& s) {
    if (!prune_incumbent || best_score < 0.0 ||
        score_bound(s.limit) >= best_score) {
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
  // Scores survivors at(0..count) one similarity() at a time.
  const auto score_scalar = [&](auto at, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      Survivor& s = at(k);
      if (skip(s)) continue;
      note_score(s, similarity(sample,
                               database_->records()[s.record].fingerprint,
                               config_.matching));
    }
  };

  // Scores one length class, survivors at(0..count) in survivor order, so
  // every batch shares one DP shape.
  const auto score_class = [&](auto at, std::size_t count,
                               std::uint32_t class_len) {
    if (!fixed_point_usable(fixed_, std::min(n, std::size_t{class_len}))) {
      // Degenerate class (e.g. fingerprints long enough to overflow int16
      // deci-scores): score scalar — similarity() makes the identical
      // fixed/double choice per pair, preserving bit-identity.
      score_scalar(at, count);
      return;
    }
    // Kernel batches of `width` lanes over this class, each lane reading
    // its candidate's ranks in place; unused lanes read the pad row, which
    // matches nothing and scores 0.
    std::size_t k = 0;
    while (k < count) {
      std::size_t lanes = 0;
      while (k < count && lanes < width) {
        Survivor& s = at(k++);
        if (skip(s)) continue;
        b.lane_survivor[lanes] = &s;
        b.lane_row[lanes] = qv.ranks.data() + qv.record[s.record].offset;
        ++lanes;
      }
      if (lanes == 0) continue;
      std::fill(b.lane_row.begin() + lanes, b.lane_row.begin() + width,
                qv.pad_row());
      simd::score_rows(upload, n, b.lane_row.data(), class_len, fixed_,
                       b.lane_scores10.data(), kernel);
      // One pass over the full width (vectorised), then the live lanes.
      for (std::size_t lane = 0; lane < simd::kMaxBatchWidth; ++lane) {
        b.lane_scores[lane] = fixed_to_score(b.lane_scores10[lane]);
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        note_score(*b.lane_survivor[lane], b.lane_scores[lane]);
      }
    }
  };

  const std::size_t count = b.survivor_count;
  if (count == 0) return;
  const auto survivor = [&](std::size_t k) -> Survivor& {
    return b.survivors[k];
  };
  if (!batch) {
    score_scalar(survivor, count);
    return;
  }
  if (b.min_length == b.max_length) {
    // One length class (the common case): survivor order is class order.
    score_class(survivor, count, b.min_length);
    return;
  }
  // Mixed lengths: stable counting sort of survivor indices by length, so
  // classes run in (length, survivor) order.
  const std::size_t span = b.max_length - b.min_length + 1;
  b.class_end.assign(span + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    ++b.class_end[b.survivors[i].length - b.min_length + 1];
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
  const bool batch = simd_active();
  if (batch || index_usable()) {
    const QuantizedView& qv = database_->quantized();
    collect_survivors(sample, qv, local);
    score_survivors(sample, qv, batch, prune_incumbent, local);
    const Scratch& b = t_scratch;
    for (std::size_t i = 0; i < b.survivor_count; ++i) {
      const Survivor& s = b.survivors[i];
      if (s.score >= config_.accept_threshold) {
        accept(s.record, s.score, s.common);
      }
    }
  } else {
    // The brute-force reference: every record through the DP.
    local.gamma_candidates = database_->size();
    local.records_accepted = database_->size();
    for (std::uint32_t rec = 0; rec < database_->size(); ++rec) {
      const double score = similarity(
          sample, database_->records()[rec].fingerprint, config_.matching);
      if (score >= config_.accept_threshold) accept(rec, score, kUnknownCommon);
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
       [&](std::uint32_t rec, double score, int common) {
         winner.offer(rec, score, common);
       });
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
       [&](std::uint32_t rec, double score, int common) {
         const StopRecord& r = database_->records()[rec];
         out.push_back(MatchResult{
             r.stop, score,
             common == kUnknownCommon
                 ? common_cell_count(sample, r.fingerprint)
                 : common});
       });
  if (stats) *stats = local;
  record(local);
  // Best first; equal (score, common cells) entries by stop id, so the
  // order does not depend on the order the path found them in.
  std::sort(out.begin(), out.end(), [](const MatchResult& a, const MatchResult& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.common_cells != b.common_cells) return a.common_cells > b.common_cells;
    return a.stop < b.stop;
  });
  return out;
}

}  // namespace bussense
