#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace bussense {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

namespace metrics_detail {

namespace {

static_assert(kMetricCells <= 32, "cells_held is a 32-bit mask");
constexpr std::uint32_t kAllCells =
    kMetricCells == 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << kMetricCells) - 1;

std::atomic<std::uint32_t> cells_held{0};   ///< bit c: a live thread holds cell c
std::atomic<unsigned> next_shared_cell{0};  ///< round-robin once all are held

/// Returns the thread's cell to the free set when the thread exits.
struct CellLease {
  unsigned cell = kMetricCells;  ///< kMetricCells: a shared cell, not held
  ~CellLease() {
    if (cell < kMetricCells) {
      cells_held.fetch_and(~(std::uint32_t{1} << cell), std::memory_order_relaxed);
    }
  }
};
thread_local CellLease lease;

}  // namespace

unsigned claim_cell() {
  std::uint32_t held = cells_held.load(std::memory_order_relaxed);
  while (held != kAllCells) {
    const auto free = static_cast<unsigned>(std::countr_one(held));
    if (cells_held.compare_exchange_weak(held, held | (std::uint32_t{1} << free),
                                         std::memory_order_relaxed)) {
      lease.cell = free;
      this_thread_cell = free;
      return free;
    }
  }
  const unsigned shared =
      next_shared_cell.fetch_add(1, std::memory_order_relaxed) % kMetricCells;
  this_thread_cell = shared;
  return shared;
}

}  // namespace metrics_detail

std::uint64_t Counter::value() const {
  std::uint64_t sum = 0;
  for (const Cell& cell : cells_) sum += cell.value.load(std::memory_order_relaxed);
  return sum;
}

BucketHistogram::BucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("BucketHistogram: no buckets");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::invalid_argument("BucketHistogram: bounds must strictly increase");
    }
  }
  const std::size_t words = kFirstBucket + bounds_.size() + 1;
  lines_per_cell_ = (words + kWordsPerLine - 1) / kWordsPerLine;
  lines_ = std::make_unique<Line[]>(kMetricCells * lines_per_cell_);
}

std::size_t BucketHistogram::bucket_of(double value) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void BucketHistogram::add(std::size_t bucket, std::uint64_t sum_ns) {
  const unsigned cell = metric_cell();
  word(cell, kFirstBucket + bucket).fetch_add(1, std::memory_order_relaxed);
  word(cell, kSumNs).fetch_add(sum_ns, std::memory_order_relaxed);
}

void BucketHistogram::record(double value) {
  // A negative value wraps; the sum is read back as two's complement.
  add(bucket_of(value), static_cast<std::uint64_t>(std::llround(value * 1e9)));
}

void BucketHistogram::record_ns(std::uint64_t ns) {
  add(bucket_of(static_cast<double>(ns) * 1e-9), ns);
}

std::uint64_t BucketHistogram::fold_cells(std::vector<std::uint64_t>& counts) const {
  counts.assign(bounds_.size() + 1, 0);
  std::uint64_t sum_ns = 0;
  for (unsigned cell = 0; cell < kMetricCells; ++cell) {
    sum_ns += word(cell, kSumNs).load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += word(cell, kFirstBucket + b).load(std::memory_order_relaxed);
    }
  }
  return sum_ns;
}

const std::vector<double>& BucketHistogram::default_latency_bounds_s() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double decade = 1e-6; decade < 20.0; decade *= 10.0) {
      b.push_back(decade);
      b.push_back(2.0 * decade);
      b.push_back(5.0 * decade);
    }
    return b;  // 1 µs, 2 µs, 5 µs, …, 10 s (last bound 50 s trimmed by <20)
  }();
  return bounds;
}

BucketHistogram::Snapshot BucketHistogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  const std::uint64_t sum_ns = fold_cells(s.counts);
  for (const std::uint64_t n : s.counts) s.total += n;
  s.sum = static_cast<double>(static_cast<std::int64_t>(sum_ns)) / 1e9;
  return s;
}

double BucketHistogram::Snapshot::percentile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (static_cast<double>(cumulative + in_bucket) >= rank && in_bucket > 0) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double into = rank - static_cast<double>(cumulative);
      return lo + (hi - lo) * std::clamp(into / static_cast<double>(in_bucket),
                                         0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

void BucketHistogram::merge(const BucketHistogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument("BucketHistogram::merge: bucket bounds differ");
  }
  std::vector<std::uint64_t> counts;
  const std::uint64_t sum_ns = other.fold_cells(counts);
  const unsigned cell = metric_cell();
  for (std::size_t b = 0; b < counts.size(); ++b) {
    word(cell, kFirstBucket + b).fetch_add(counts[b], std::memory_order_relaxed);
  }
  word(cell, kSumNs).fetch_add(sum_ns, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

BucketHistogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::vector<double>& bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<BucketHistogram>(bounds);
  return *slot;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  // Lock ordering: other is read under its own mutex into a snapshot-like
  // copy first, so merge(a, b) and concurrent recording never deadlock.
  std::vector<std::pair<std::string, std::uint64_t>> add_counters;
  std::vector<std::pair<std::string, double>> set_gauges;
  std::vector<std::pair<std::string, const BucketHistogram*>> add_histograms;
  {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto& [name, c] : other.counters_) {
      add_counters.emplace_back(name, c->value());
    }
    for (const auto& [name, g] : other.gauges_) {
      set_gauges.emplace_back(name, g->value());
    }
    for (const auto& [name, h] : other.histograms_) {
      add_histograms.emplace_back(name, h.get());
    }
  }
  // Safe as long as `other` outlives the call (histogram pointers are read
  // outside its lock; instruments are never deleted while a registry lives).
  for (const auto& [name, v] : add_counters) counter(name).add(v);
  for (const auto& [name, v] : set_gauges) gauge(name).set(v);
  for (const auto& [name, h] : add_histograms) {
    histogram(name, h->bounds()).merge(*h);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->snapshot();
  return s;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << v;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": " << num(v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "" : ",") << "\n    \"" << name << "\": {\"count\": "
       << h.total << ", \"sum\": " << num(h.sum) << ", \"mean\": "
       << num(h.mean()) << ", \"p50\": " << num(h.percentile(0.50))
       << ", \"p99\": " << num(h.percentile(0.99)) << ", \"buckets\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      os << (i ? ", " : "") << "[\""
         << (i < h.bounds.size() ? num(h.bounds[i]) : std::string("+inf"))
         << "\", " << h.counts[i] << "]";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

}  // namespace bussense
