#include "core/epoch_publisher.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "citynet/city.h"

namespace bussense {

namespace {

// Publisher ids are handed out once and never reused, so a thread's cached
// pin state for a destroyed publisher is simply never looked up again.
std::atomic<std::uint64_t> g_next_publisher_id{1};

}  // namespace

void EpochPublisherConfig::validate() const {
  if (max_readers == 0) {
    throw std::invalid_argument("EpochPublisherConfig: max_readers must be > 0");
  }
  if (grid_cols <= 0 || grid_rows <= 0) {
    throw std::invalid_argument(
        "EpochPublisherConfig: grid dimensions must be positive");
  }
  if (!(max_age_s > 0.0)) {
    throw std::invalid_argument("EpochPublisherConfig: max_age_s must be > 0");
  }
}

// ---------------------------------------------------------- SegmentGeometry

SegmentGeometry::SegmentGeometry(const SegmentCatalog& catalog, int cols,
                                 int rows)
    : catalog_(&catalog),
      region_(catalog.city().region()),
      cols_(cols),
      rows_(rows) {
  const auto& keys = catalog.adjacent_keys();
  entries_.reserve(keys.size());
  // At most half full: the smallest power of two ≥ 2 × keys (and ≥ 2).
  std::size_t table_size = 2;
  while (table_size < 2 * keys.size()) {
    table_size *= 2;
    --table_shift_;
  }
  table_.resize(table_size);
  for (const SegmentKey& key : keys) {
    const SpanInfo* info = catalog.adjacent(key);
    if (!info) continue;  // defensive: adjacent_keys only lists catalogued
    Entry e;
    e.key = key;
    const BusRoute& route = catalog.city().route(info->route);
    e.midpoint = route.path().point_at(0.5 * (info->arc_from + info->arc_to));
    e.length_m = info->length_m;
    const std::uint64_t k = packed(key);
    std::size_t i = home_slot(k);
    while (table_[i].ordinal != kNoOrdinal) i = (i + 1) & (table_size - 1);
    table_[i] = {k, static_cast<std::uint32_t>(entries_.size())};
    entries_.push_back(e);
  }
  // CSR binning by midpoint, row-major cells, ordinals ascending per cell.
  const std::size_t cells =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  std::vector<std::uint32_t> counts(cells, 0);
  std::vector<std::size_t> cell_of_entry(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    cell_of_entry[i] = cell_of(entries_[i].midpoint);
    ++counts[cell_of_entry[i]];
  }
  cell_start_.assign(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c + 1] = cell_start_[c] + counts[c];
  }
  cell_items_.resize(entries_.size());
  std::vector<std::uint32_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    cell_items_[fill[cell_of_entry[i]]++] = static_cast<std::uint32_t>(i);
  }
}

std::size_t SegmentGeometry::probe_length(const SegmentKey& key) const {
  const std::uint64_t k = packed(key);
  const std::size_t mask = table_.size() - 1;
  std::size_t reads = 1;
  for (std::size_t i = home_slot(k);
       table_[i].ordinal != kNoOrdinal && table_[i].key != k;
       i = (i + 1) & mask) {
    ++reads;
  }
  return reads;
}

int SegmentGeometry::col_of(double x) const {
  const double w = region_.width();
  const int c = w > 0.0 ? static_cast<int>((x - region_.min.x) / w *
                                           static_cast<double>(cols_))
                        : 0;
  return std::clamp(c, 0, cols_ - 1);
}

int SegmentGeometry::row_of(double y) const {
  const double h = region_.height();
  const int r = h > 0.0 ? static_cast<int>((y - region_.min.y) / h *
                                           static_cast<double>(rows_))
                        : 0;
  return std::clamp(r, 0, rows_ - 1);
}

std::size_t SegmentGeometry::cell_of(Point p) const {
  return static_cast<std::size_t>(row_of(p.y)) *
             static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(col_of(p.x));
}

const std::uint32_t* SegmentGeometry::cell_begin(std::size_t cell) const {
  return cell_items_.data() + cell_start_[cell];
}

const std::uint32_t* SegmentGeometry::cell_end(std::size_t cell) const {
  return cell_items_.data() + cell_start_[cell + 1];
}

// ----------------------------------------------------------- EpochSnapshot

EpochSnapshot::EpochSnapshot(TrafficMap map, const SegmentGeometry& geometry,
                             double max_age_s)
    : max_age_s_(max_age_s), map_(std::move(map)), geometry_(&geometry) {
  const auto& segs = map_.segments();
  live_of_ordinal_.assign(geometry.size(), kNotLive);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto row = static_cast<std::uint32_t>(i);
    if (const auto ord = geometry.ordinal(segs[i].key)) {
      live_of_ordinal_[*ord] = row;
    } else {
      off_geometry_.emplace_back(SegmentGeometry::packed(segs[i].key), row);
    }
  }
  std::sort(off_geometry_.begin(), off_geometry_.end());
  level_histogram_ = map_.level_histogram();
  coverage_ratio_ = map_.coverage_ratio(geometry.catalog());
  mean_speed_kmh_ = map_.mean_speed_kmh();
}

const MapSegment* EpochSnapshot::off_geometry_segment(
    const SegmentKey& key) const {
  const std::uint64_t k = SegmentGeometry::packed(key);
  const auto it = std::lower_bound(off_geometry_.begin(), off_geometry_.end(),
                                   std::pair<std::uint64_t, std::uint32_t>{k, 0});
  if (it == off_geometry_.end() || it->first != k) return nullptr;
  return &map_.segments()[it->second];
}

std::optional<FusedSpeed> EpochSnapshot::fused(const SegmentKey& key) const {
  const MapSegment* seg = segment(key);
  if (!seg) return std::nullopt;
  FusedSpeed f;
  f.mean_kmh = seg->speed_kmh;
  f.variance = 0.0;  // not carried into epochs
  f.updated_at = seg->updated_at;
  f.observation_count = seg->observation_count;
  return f;
}

RegionAggregate EpochSnapshot::region(const BoundingBox& box) const {
  RegionAggregate out;
  out.epoch_id = id_;
  out.epoch_time = map_.time();
  const SegmentGeometry& geo = *geometry_;
  const int c0 = geo.col_of(box.min.x), c1 = geo.col_of(box.max.x);
  const int r0 = geo.row_of(box.min.y), r1 = geo.row_of(box.max.y);
  double weighted = 0.0;
  // Fixed fold order (row-major cells, then ascending ordinals) keeps the
  // float sums deterministic for a given epoch.
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      const std::size_t cell = static_cast<std::size_t>(r) *
                                   static_cast<std::size_t>(geo.cols()) +
                               static_cast<std::size_t>(c);
      for (const std::uint32_t* it = geo.cell_begin(cell);
           it != geo.cell_end(cell); ++it) {
        const SegmentGeometry::Entry& e = geo.entry(*it);
        if (!box.contains(e.midpoint)) continue;
        ++out.segments_total;
        out.total_length_m += e.length_m;
        const std::uint32_t li = live_of_ordinal_[*it];
        if (li == kNotLive) continue;
        const MapSegment& seg = map_.segments()[li];
        ++out.segments_live;
        out.live_length_m += e.length_m;
        weighted += seg.speed_kmh * e.length_m;
        ++out.level_histogram[static_cast<std::size_t>(seg.level)];
      }
    }
  }
  out.mean_speed_kmh =
      out.live_length_m > 0.0 ? weighted / out.live_length_m : 0.0;
  out.coverage_ratio =
      out.total_length_m > 0.0 ? out.live_length_m / out.total_length_m : 0.0;
  return out;
}

std::vector<NearestSegment> EpochSnapshot::k_nearest(Point p,
                                                     std::size_t k) const {
  std::vector<NearestSegment> best;  // kept sorted by (distance, key)
  if (k == 0) return best;
  const SegmentGeometry& geo = *geometry_;
  const auto before = [](const NearestSegment& a, const NearestSegment& b) {
    if (a.distance_m != b.distance_m) return a.distance_m < b.distance_m;
    if (a.segment.key.from != b.segment.key.from) {
      return a.segment.key.from < b.segment.key.from;
    }
    return a.segment.key.to < b.segment.key.to;
  };
  const auto consider = [&](std::uint32_t ordinal) {
    const std::uint32_t li = live_of_ordinal_[ordinal];
    if (li == kNotLive) return;
    const SegmentGeometry::Entry& e = geo.entry(ordinal);
    NearestSegment candidate{map_.segments()[li], e.midpoint,
                             distance(p, e.midpoint)};
    if (best.size() == k && !before(candidate, best.back())) return;
    best.insert(std::upper_bound(best.begin(), best.end(), candidate, before),
                std::move(candidate));
    if (best.size() > k) best.pop_back();
  };

  // Chebyshev rings around the (clamped) cell containing p. Any midpoint
  // in a ring-d cell is at least (d-1)*min_cell from the center cell, and
  // clamping only shrinks per-axis distances, so the bound also holds for
  // query points outside the city box.
  const int cc = geo.col_of(p.x);
  const int cr = geo.row_of(p.y);
  const double cell_w = geo.region().width() / geo.cols();
  const double cell_h = geo.region().height() / geo.rows();
  const double min_cell = std::min(cell_w, cell_h);
  const int max_ring = std::max(
      std::max(cc, geo.cols() - 1 - cc), std::max(cr, geo.rows() - 1 - cr));
  for (int d = 0; d <= max_ring; ++d) {
    if (best.size() == k && min_cell > 0.0 &&
        static_cast<double>(d - 1) * min_cell > best.back().distance_m) {
      break;
    }
    // Visit the ring's cells in row-major order (deterministic ties).
    const int r0 = std::max(0, cr - d), r1 = std::min(geo.rows() - 1, cr + d);
    const int c0 = std::max(0, cc - d), c1 = std::min(geo.cols() - 1, cc + d);
    for (int r = r0; r <= r1; ++r) {
      const bool edge_row = (r == cr - d || r == cr + d);
      for (int c = c0; c <= c1; ++c) {
        if (!edge_row && c != cc - d && c != cc + d) continue;  // interior
        const std::size_t cell = static_cast<std::size_t>(r) *
                                     static_cast<std::size_t>(geo.cols()) +
                                 static_cast<std::size_t>(c);
        for (const std::uint32_t* it = geo.cell_begin(cell);
             it != geo.cell_end(cell); ++it) {
          consider(*it);
        }
      }
    }
  }
  return best;
}

// ----------------------------------------------------------- EpochPublisher

EpochPublisher::EpochPublisher(const SegmentCatalog& catalog,
                               EpochPublisherConfig config)
    : geometry_(catalog, (config.validate(), config.grid_cols),
                config.grid_rows),
      config_(config),
      publisher_id_(g_next_publisher_id.fetch_add(1, std::memory_order_relaxed)),
      slots_(config.max_readers),
      metrics_(std::make_unique<MetricsRegistry>()) {
  if (config_.obs.enabled) {
    inst_.published = &metrics_->counter("epochs.published");
    inst_.retired = &metrics_->counter("epochs.retired");
    inst_.overflow_readers = &metrics_->counter("epochs.overflow_readers");
    inst_.pinned = &metrics_->gauge("epochs.pinned");
    inst_.live = &metrics_->gauge("epochs.live");
    inst_.build_s = &metrics_->histogram("publish.build_s");
  }
}

EpochPublisher::~EpochPublisher() {
  stop();
  // Contract: pins must not outlive the publisher. Spin until the last
  // reader lets go, reclaiming as they do, then free everything.
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(publish_mutex_);
      reclaim_locked();
      if (count_pinned_locked(nullptr) == 0) break;
    }
    std::this_thread::yield();
  }
}

EpochPublisher::LocalPin& EpochPublisher::local_pin() const {
  // Map nodes never move, so the cached pointer stays valid as the map
  // grows; ids start at 1, so the empty cache matches no publisher.
  struct Last {
    std::uint64_t publisher_id = 0;
    LocalPin* pin = nullptr;
  };
  thread_local Last t_last;
  if (t_last.publisher_id == publisher_id_) return *t_last.pin;
  thread_local std::unordered_map<std::uint64_t, LocalPin> t_pins;
  LocalPin& lp = t_pins[publisher_id_];
  t_last = {publisher_id_, &lp};
  return lp;
}

EpochPublisher::Pin EpochPublisher::pin() const {
  LocalPin& lp = local_pin();
  if (lp.depth > 0) {  // re-entrant: same epoch, deeper
    ++lp.depth;
    return Pin(this, &lp, lp.snap);
  }
  if (lp.slot == SIZE_MAX && !lp.overflow) {
    const std::size_t s = next_slot_.fetch_add(1, std::memory_order_relaxed);
    if (s < slots_.size()) {
      lp.slot = s;
    } else {
      lp.overflow = true;
      if (inst_.overflow_readers) inst_.overflow_readers->inc();
    }
  }
  const EpochSnapshot* e = nullptr;
  if (!lp.overflow) {
    // Hazard-pointer handshake: advertise, then re-validate. The epoch is
    // only dereferenced after validation succeeds, at which point the
    // publisher is guaranteed to see the hazard before freeing it (both
    // sides order the store/load pair with seq_cst).
    std::atomic<const EpochSnapshot*>& hazard = slots_[lp.slot].hazard;
    e = current_.load(std::memory_order_acquire);
    for (;;) {
      hazard.store(e, std::memory_order_seq_cst);
      const EpochSnapshot* check = current_.load(std::memory_order_seq_cst);
      if (check == e) break;
      e = check;
    }
    if (e == nullptr) {
      hazard.store(nullptr, std::memory_order_relaxed);
      return Pin();
    }
  } else {
    // Overflow path: the mutex makes load+insert atomic with respect to
    // the publisher's reclaim scan, which takes the same mutex.
    const std::lock_guard<std::mutex> lock(overflow_pins_mutex_);
    e = current_.load(std::memory_order_seq_cst);
    if (e == nullptr) return Pin();
    overflow_pins_.insert(e);
  }
  lp.depth = 1;
  lp.snap = e;
  return Pin(this, &lp, e);
}

void EpochPublisher::unpin(LocalPin& lp) const {
  if (--lp.depth > 0) return;
  if (lp.overflow) {
    const std::lock_guard<std::mutex> lock(overflow_pins_mutex_);
    overflow_pins_.erase(overflow_pins_.find(lp.snap));
  } else {
    // Release order: the publisher acquiring this null observes every read
    // the pin made before letting the epoch be freed.
    slots_[lp.slot].hazard.store(nullptr, std::memory_order_release);
  }
  lp.snap = nullptr;
}

void EpochPublisher::Pin::release() {
  if (pub_ != nullptr) {
    pub_->unpin(*local_);
    pub_ = nullptr;
    local_ = nullptr;
    snap_ = nullptr;
  }
}

std::uint64_t EpochPublisher::publish_map(TrafficMap map) {
  const ScopedTimer timer(inst_.build_s);
  return publish_impl(std::move(map), config_.max_age_s);
}

std::uint64_t EpochPublisher::publish_from(const SpeedFusion& fusion,
                                           SimTime now) {
  return publish_from(fusion, now, config_.max_age_s);
}

std::uint64_t EpochPublisher::publish_from(const SpeedFusion& fusion,
                                           SimTime now, double max_age_s) {
  const ScopedTimer timer(inst_.build_s);
  return publish_impl(
      TrafficMap::snapshot_visiting(fusion, catalog(), now, max_age_s),
      max_age_s);
}

std::uint64_t EpochPublisher::publish_impl(TrafficMap map, double max_age_s) {
  // Snapshot construction (overlay, aggregates) runs outside the
  // publish lock; only the id assignment, swap and reclaim serialize.
  // Not make_unique: the snapshot ctor is private to this friend class.
  std::unique_ptr<EpochSnapshot> snap(
      new EpochSnapshot(std::move(map), geometry_, max_age_s));
  EpochSnapshot* fresh = snap.get();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(publish_mutex_);
    id = next_id_++;
    fresh->id_ = id;
    owned_.push_back(std::move(snap));
    // seq_cst: totally ordered against the readers' hazard handshake.
    const EpochSnapshot* old =
        current_.exchange(fresh, std::memory_order_seq_cst);
    if (old != nullptr) retired_.push_back(old);
    published_.fetch_add(1, std::memory_order_relaxed);
    if (inst_.published) inst_.published->inc();
    reclaim_locked();
  }
  return id;
}

std::size_t EpochPublisher::count_pinned_locked(
    std::vector<const EpochSnapshot*>* hazards) const {
  std::size_t pinned = 0;
  for (const Slot& slot : slots_) {
    // seq_cst pairs with the readers' hazard publication; reading the null
    // a release-unpin wrote synchronizes with that reader's last access.
    const EpochSnapshot* h = slot.hazard.load(std::memory_order_seq_cst);
    if (h != nullptr) {
      ++pinned;
      if (hazards) hazards->push_back(h);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(overflow_pins_mutex_);
    pinned += overflow_pins_.size();
    if (hazards) {
      hazards->insert(hazards->end(), overflow_pins_.begin(),
                      overflow_pins_.end());
    }
  }
  return pinned;
}

std::size_t EpochPublisher::reclaim_locked() {
  std::vector<const EpochSnapshot*> hazards;
  const std::size_t pinned = count_pinned_locked(&hazards);
  std::sort(hazards.begin(), hazards.end());
  std::size_t freed = 0;
  for (std::size_t i = 0; i < retired_.size();) {
    const EpochSnapshot* victim = retired_[i];
    if (std::binary_search(hazards.begin(), hazards.end(), victim)) {
      ++i;  // still pinned: grace period continues
      continue;
    }
    const auto it =
        std::find_if(owned_.begin(), owned_.end(),
                     [victim](const std::unique_ptr<EpochSnapshot>& p) {
                       return p.get() == victim;
                     });
    owned_.erase(it);
    retired_[i] = retired_.back();
    retired_.pop_back();
    ++freed;
  }
  if (freed > 0) {
    retired_freed_.fetch_add(freed, std::memory_order_relaxed);
    if (inst_.retired) inst_.retired->add(freed);
  }
  if (inst_.pinned) inst_.pinned->set(static_cast<double>(pinned));
  if (inst_.live) inst_.live->set(static_cast<double>(owned_.size()));
  return freed;
}

std::size_t EpochPublisher::reclaim() {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return reclaim_locked();
}

std::size_t EpochPublisher::epochs_live() const {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return owned_.size();
}

std::size_t EpochPublisher::pinned_readers() const {
  return count_pinned_locked(nullptr);
}

void EpochPublisher::start(std::function<void(EpochPublisher&)> tick,
                           double period_s) {
  stop();
  {
    const std::lock_guard<std::mutex> lock(ticker_mutex_);
    ticker_stop_ = false;
  }
  ticker_ = std::thread([this, tick = std::move(tick), period_s] {
    std::unique_lock<std::mutex> lock(ticker_mutex_);
    while (!ticker_stop_) {
      lock.unlock();
      tick(*this);
      lock.lock();
      ticker_cv_.wait_for(lock, std::chrono::duration<double>(period_s),
                          [this] { return ticker_stop_; });
    }
  });
}

void EpochPublisher::stop() {
  {
    const std::lock_guard<std::mutex> lock(ticker_mutex_);
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
}

}  // namespace bussense
