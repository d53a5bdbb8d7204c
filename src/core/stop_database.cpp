#include "core/stop_database.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace bussense {

StopDatabase::StopDatabase(const StopDatabase& other)
    : records_(other.records_), index_(other.index_) {}

StopDatabase& StopDatabase::operator=(const StopDatabase& other) {
  if (this != &other) {
    records_ = other.records_;
    index_ = other.index_;
    quantized_ready_.store(false, std::memory_order_release);
  }
  return *this;
}

StopDatabase::StopDatabase(StopDatabase&& other) noexcept
    : records_(std::move(other.records_)), index_(std::move(other.index_)) {
  other.quantized_ready_.store(false, std::memory_order_release);
}

StopDatabase& StopDatabase::operator=(StopDatabase&& other) noexcept {
  if (this != &other) {
    records_ = std::move(other.records_);
    index_ = std::move(other.index_);
    quantized_ready_.store(false, std::memory_order_release);
    other.quantized_ready_.store(false, std::memory_order_release);
  }
  return *this;
}

void StopDatabase::add(StopId effective_stop, Fingerprint fingerprint) {
  quantized_ready_.store(false, std::memory_order_release);
  if (const auto it = index_.find(effective_stop); it != index_.end()) {
    records_[it->second].fingerprint = std::move(fingerprint);
    return;
  }
  index_.emplace(effective_stop, records_.size());
  records_.push_back(StopRecord{effective_stop, std::move(fingerprint)});
}

const StopDatabase::QuantizedView& StopDatabase::quantized() const {
  // Double-checked lazy build: the hot path (matcher batch scoring) pays one
  // acquire load; the first caller after a mutation rebuilds under the lock.
  if (!quantized_ready_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(quantized_mutex_);
    if (!quantized_ready_.load(std::memory_order_relaxed)) {
      auto view = std::make_unique<QuantizedView>();
      build_quantized(*view);
      quantized_ = std::move(view);
      quantized_ready_.store(true, std::memory_order_release);
    }
  }
  return *quantized_;
}

namespace {

using QuantizedView = StopDatabase::QuantizedView;

// Puts (cell, id) into the first empty slot of cell's probe chain; the cell
// must not be in the table yet.
void place(QuantizedView& view, CellId cell, std::uint32_t id) {
  const std::size_t mask = view.dictionary.size() - 1;
  std::size_t i = view.home_slot(cell);
  while (view.dictionary[i].id != QuantizedView::kNoId) i = (i + 1) & mask;
  view.dictionary[i] = {cell, id};
}

// Dense id of `cell`, giving it the next one on first encounter. Doubles
// the table before an insert would fill it past half.
std::uint32_t intern(QuantizedView& view, CellId cell) {
  const std::uint32_t known = view.id_of(cell);
  if (known != QuantizedView::kNoId) return known;
  if (2 * (std::size_t{view.cells} + 1) > view.dictionary.size()) {
    std::vector<QuantizedView::DictSlot> old(2 * view.dictionary.size());
    old.swap(view.dictionary);
    --view.dictionary_shift;
    for (const QuantizedView::DictSlot& slot : old) {
      if (slot.id != QuantizedView::kNoId) place(view, slot.cell, slot.id);
    }
  }
  place(view, cell, view.cells);
  return view.cells++;
}

}  // namespace

void StopDatabase::build_quantized(QuantizedView& view) const {
  view.record.resize(records_.size());
  // Length-class grouping: lay the rank arrays out in (length, record id)
  // order so same-length candidates — which the kernel batches together —
  // sit contiguously. RecordRef keeps O(1) lookup by record position.
  std::vector<std::uint32_t> order(records_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return records_[a].fingerprint.cells.size() <
                            records_[b].fingerprint.cells.size();
                   });
  std::size_t total = 0;
  std::size_t longest = 0;
  for (const StopRecord& r : records_) {
    total += r.fingerprint.cells.size();
    longest = std::max(longest, r.fingerprint.cells.size());
  }
  // The pad tail: the row of every unused kernel lane, long enough for
  // the longest class's 8-wide loads, and the margin those loads need past
  // the last record.
  const std::size_t pad = (longest + 7) / 8 * 8 + 8;
  view.ranks.reserve(total + pad);
  std::vector<std::uint32_t> ids;  // dense id of every ranks[] slot
  ids.reserve(total);
  for (const std::uint32_t rec : order) {
    const std::vector<CellId>& cells = records_[rec].fingerprint.cells;
    view.record[rec] = {static_cast<std::uint32_t>(view.ranks.size()),
                        static_cast<std::uint32_t>(cells.size())};
    for (const CellId cell : cells) {
      // Ids in first-encounter order over the length-grouped layout.
      const std::uint32_t id = intern(view, cell);
      ids.push_back(id);
      view.ranks.push_back(QuantizedView::rank_of_id(id));
    }
  }
  view.pad_offset = static_cast<std::uint32_t>(view.ranks.size());
  view.ranks.resize(view.ranks.size() + pad, simd::kPadRank);
  // Ids past the rank space left kUnknownRank holes in ranks: the kernel
  // must not run, but the index below is still exact.
  view.valid = view.cells <= QuantizedView::kRankSpace;

  // CSR postings: count per id, prefix-sum, then fill in ascending record
  // order so every list comes out sorted.
  view.post_off.assign(std::size_t{view.cells} + 1, 0);
  for (const std::uint32_t id : ids) ++view.post_off[id + 1];
  std::partial_sum(view.post_off.begin(), view.post_off.end(),
                   view.post_off.begin());
  view.post_rec.resize(total);
  std::vector<std::uint32_t> fill(view.post_off.begin(),
                                  view.post_off.end() - 1);
  for (std::uint32_t rec = 0; rec < view.record.size(); ++rec) {
    const QuantizedView::RecordRef ref = view.record[rec];
    for (std::uint32_t j = 0; j < ref.length; ++j) {
      view.post_rec[fill[ids[ref.offset + j]]++] = rec;
    }
  }
}

const Fingerprint* StopDatabase::fingerprint_of(StopId effective_stop) const {
  const auto it = index_.find(effective_stop);
  if (it == index_.end()) return nullptr;
  return &records_[it->second].fingerprint;
}

Fingerprint select_representative(const std::vector<Fingerprint>& samples,
                                  const MatchingConfig& config) {
  if (samples.empty()) {
    throw std::invalid_argument("select_representative: no samples");
  }
  std::size_t best = 0;
  double best_total = -1.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < samples.size(); ++j) {
      if (i != j) total += similarity(samples[i], samples[j], config);
    }
    if (total > best_total) {
      best_total = total;
      best = i;
    }
  }
  return samples[best];
}

StopDatabase build_stop_database(
    const City& city,
    const std::function<Fingerprint(StopId stop, int run)>& scan,
    int runs_per_stop, const MatchingConfig& config) {
  if (runs_per_stop < 1) {
    throw std::invalid_argument("build_stop_database: runs_per_stop < 1");
  }
  StopDatabase db;
  for (const BusStop& stop : city.stops()) {
    const StopId eff = city.effective_stop(stop.id);
    if (eff != stop.id) continue;  // twin handled via its canonical id
    std::vector<Fingerprint> samples;
    samples.reserve(static_cast<std::size_t>(runs_per_stop));
    for (int r = 0; r < runs_per_stop; ++r) {
      Fingerprint fp = scan(stop.id, r);
      if (!fp.empty()) samples.push_back(std::move(fp));
    }
    if (samples.empty()) continue;
    db.add(eff, select_representative(samples, config));
  }
  return db;
}

}  // namespace bussense
