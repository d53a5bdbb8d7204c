// Pipeline-wide observability: counters, gauges and fixed-bucket latency
// histograms behind one registry.
//
// Design constraints (DESIGN.md §8):
//
//   * the hot path never takes a lock and writes only its own thread's
//     cache lines — a Counter or BucketHistogram keeps one cache-line-
//     padded cell per thread (kMetricCells of them), a thread picks its
//     cell once, on its first recording, and snapshot/merge sum the
//     cells. Recording stays a relaxed atomic read-modify-write, so a cell
//     that two threads share (more live threads than cells) still counts
//     exactly;
//   * hot per-call paths sample their latency: sample() answers yes to a
//     thread's first call on a histogram and to every kSampleEvery-th
//     after it, and only those calls read the clock. Counters are never
//     sampled — every counter is exact on every call;
//   * instruments never influence results — the pipeline is bit-identical
//     with metrics on or off (property-tested);
//   * snapshots are deterministic — instruments are keyed by name and
//     exported in sorted order, and histogram sums are integer
//     nanoseconds, so two registries fed the same values produce the same
//     JSON regardless of registration, thread or merge order.
//
// The registry mutex guards only registration/lookup (rare, setup-time) and
// snapshotting; concurrent record()/snapshot() is safe — a snapshot is a
// consistent-enough point-in-time read of monotonic counters.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bussense {

/// Cells per Counter and BucketHistogram. A thread holds its cell until it
/// exits; live threads beyond this many share cells round-robin.
inline constexpr unsigned kMetricCells = 16;
inline constexpr std::size_t kCacheLine = 64;

namespace metrics_detail {
/// The calling thread's cell, kMetricCells until it first records.
inline constinit thread_local unsigned this_thread_cell = kMetricCells;
/// Picks the calling thread's cell: a free one, released when the thread
/// exits, or a shared one when every cell is held.
unsigned claim_cell();
}  // namespace metrics_detail

/// Index of the calling thread's cell, in [0, kMetricCells).
inline unsigned metric_cell() {
  const unsigned cell = metrics_detail::this_thread_cell;
  return cell < kMetricCells ? cell : metrics_detail::claim_cell();
}

/// Monotonic event count. Lock-free; exact under any thread count.
class Counter {
 public:
  void add(std::uint64_t n) {
    cells_[metric_cell()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void inc() { add(1); }
  /// Sum of the cells (modulo 2^64).
  std::uint64_t value() const;

 private:
  struct alignas(kCacheLine) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kMetricCells> cells_;
};

/// Last-written instantaneous value (queue depth, worker count). Lock-free.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: immutable upper bounds chosen at registration,
/// one overflow bucket, running count and sum. record() is a binary search
/// over the bounds plus two relaxed atomic adds on the calling thread's
/// cell — lock-free and wait-free on x86. The sum is kept in integer
/// nanoseconds (record() rounds a value to 1e-9 of its unit), so merges
/// and snapshots are exact. Percentiles are linearly interpolated inside
/// the bucket, so their resolution is the bucket ladder's (the default
/// 1-2-5 latency ladder resolves p50/p99 to within a factor ~2 — plenty
/// to tell a 50 µs stage from a 5 ms one).
class BucketHistogram {
 public:
  /// A sampled path times one call in this many per thread.
  static constexpr std::uint64_t kSampleEvery = 64;

  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit BucketHistogram(std::vector<double> upper_bounds);

  void record(double value);
  /// Records a latency measured in nanoseconds (bounds in seconds).
  void record_ns(std::uint64_t ns);

  /// Whether the calling thread should time this call: true on its first
  /// call and then on every kSampleEvery-th. The countdown lives in the
  /// thread's cell, so a fresh histogram always times its first call and
  /// one thread's n calls take ⌈n / kSampleEvery⌉ samples.
  bool sample() {
    std::atomic<std::uint64_t>& countdown = word(metric_cell(), kCountdown);
    const std::uint64_t left = countdown.load(std::memory_order_relaxed);
    countdown.store(left == 0 ? kSampleEvery - 1 : left - 1,
                    std::memory_order_relaxed);
    return left == 0;
  }

  /// 1-2-5 ladder from 1 µs to 10 s — fits every pipeline stage latency.
  static const std::vector<double>& default_latency_bounds_s();

  struct Snapshot {
    std::vector<double> bounds;          ///< finite upper bounds
    std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 (overflow last)
    std::uint64_t total = 0;
    double sum = 0.0;  ///< sum of the values, kept exactly in 1e-9 units

    double mean() const { return total ? sum / static_cast<double>(total) : 0.0; }
    /// Interpolated q-quantile, q in [0, 1]. Values in the overflow bucket
    /// report the last finite bound.
    double percentile(double q) const;
  };
  Snapshot snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

  /// Adds `other`'s buckets into this histogram (bounds must match).
  void merge(const BucketHistogram& other);

 private:
  /// A cell is a run of whole cache lines holding, by word index, the
  /// sampling countdown, the nanosecond sum, then one count per bucket.
  struct alignas(kCacheLine) Line {
    std::atomic<std::uint64_t> word[kCacheLine / sizeof(std::uint64_t)] = {};
  };
  static constexpr std::size_t kWordsPerLine = kCacheLine / sizeof(std::uint64_t);
  static constexpr std::size_t kCountdown = 0;
  static constexpr std::size_t kSumNs = 1;
  static constexpr std::size_t kFirstBucket = 2;

  std::atomic<std::uint64_t>& word(unsigned cell, std::size_t i) const {
    return lines_[cell * lines_per_cell_ + i / kWordsPerLine]
        .word[i % kWordsPerLine];
  }
  std::size_t bucket_of(double value) const;
  void add(std::size_t bucket, std::uint64_t sum_ns);
  /// Sums every cell's bucket counts into `counts` and returns the sum.
  std::uint64_t fold_cells(std::vector<std::uint64_t>& counts) const;

  std::vector<double> bounds_;
  std::size_t lines_per_cell_ = 0;
  std::unique_ptr<Line[]> lines_;
};

/// Deterministic point-in-time view of a registry: name-sorted maps.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, BucketHistogram::Snapshot> histograms;

  /// Stable JSON export: keys sorted, doubles printed with %.17g, histogram
  /// entries carry count/sum/p50/p99 plus the full bucket vector.
  std::string to_json() const;
};

/// Named instruments, created on first use and stable in memory for the
/// registry's lifetime (so cached Counter*/BucketHistogram* handles never move).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Registers (or finds) a histogram; `bounds` applies on first creation.
  BucketHistogram& histogram(
      const std::string& name,
      const std::vector<double>& bounds = BucketHistogram::default_latency_bounds_s());

  /// Folds `other` into this registry: counters, histogram buckets and
  /// sums add; gauges take `other`'s value (last-writer-wins, matching
  /// their instantaneous semantics). Deterministic and exact: merging
  /// per-thread registries in a fixed order yields the same counters,
  /// buckets, sums and percentiles at any shard count.
  void merge(const MetricsRegistry& other);

  MetricsSnapshot snapshot() const;
  std::string to_json() const { return snapshot().to_json(); }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<BucketHistogram>> histograms_;
};

/// Monotonic time in nanoseconds (steady clock) for latency instruments.
inline std::int64_t monotonic_time_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times its scope into a histogram: one clock read at construction and
/// one at destruction. A null histogram makes it a no-op that reads no
/// clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(BucketHistogram* h)
      : h_(h), start_ns_(h ? monotonic_time_ns() : 0) {}
  ~ScopedTimer() {
    if (h_) h_->record_ns(static_cast<std::uint64_t>(monotonic_time_ns() - start_ns_));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  BucketHistogram* h_;
  std::int64_t start_ns_;
};

/// `h` when the calling thread should time this call (see
/// BucketHistogram::sample), null otherwise or when `h` is null.
inline BucketHistogram* sampled(BucketHistogram* h) {
  return h != nullptr && h->sample() ? h : nullptr;
}

}  // namespace bussense
