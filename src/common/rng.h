// Seeded random number generation.
//
// Every stochastic component in the library takes an explicit Rng so that
// simulations, tests and benches are reproducible. Rng couples the
// distributions the simulator needs with Mt19937_64, an engine whose output
// equals std::mt19937_64 for every seed and draw count but which seeds and
// twists its state one word per draw, so a short-lived substream (a rider's
// day plan, a scan key) pays for the words it reads instead of all 624
// seeding and twisting steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>

namespace bussense {

/// SplitMix64 finaliser — cheap, well-mixed 64-bit hash. Shared by every
/// component that derives deterministic values from integer keys (static
/// shadowing, per-scan temporal noise, tower churn, per-trip substreams).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The standard's mt19937_64 (w = 64, n = 312, m = 156, r = 31), evaluated
/// lazily. Draw i of a round twists state word i in place, exactly the
/// order of a whole-table twist: word i + 1 is still the previous round's,
/// word i + m is the previous round's for i < m and this round's after.
/// The first round reads seed words only up to i + m, so the seeding
/// recurrence runs just that far ahead of the draw: d draws from a fresh
/// engine cost min(157 + d, 312) seeding steps and d twists, where
/// std::mt19937_64 pays 312 of each before its first draw.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (seeded_ < kN) seed_through(i_ + kM);
    constexpr result_type kUpper = ~result_type{0} << 31;
    const std::size_t next = i_ + 1 == kN ? 0 : i_ + 1;
    const std::size_t ahead = i_ < kN - kM ? i_ + kM : i_ - (kN - kM);
    const result_type y = (x_[i_] & kUpper) | (x_[next] & ~kUpper);
    x_[i_] = x_[ahead] ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
    result_type z = x_[i_];
    i_ = next;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  void seed_through(std::size_t last) {
    for (; seeded_ <= last; ++seeded_) {
      const result_type prev = x_[seeded_ - 1];
      x_[seeded_] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
    }
  }

  result_type x_[kN]{};  // words at or past seeded_ are not seeded yet
  std::size_t i_ = 0;
  std::size_t seeded_ = 1;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal such that the *result* has the given median and the given
  /// sigma of the underlying normal (median = exp(mu)).
  double lognormal_median(double median, double sigma) {
    return std::lognormal_distribution<double>(std::log(median), sigma)(engine_);
  }

  /// Exponential with the given mean (mean = 1/lambda).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Poisson with the given mean. libstdc++'s large-mean (>= 12) rejection
  /// path calls lgamma(), which writes glibc's process-global `signgam` — a
  /// data race once trips simulate in parallel — so large means are shaved
  /// down by exact Poisson additivity (Pois(a+b) = Pois(a) + Pois(b)) until
  /// the lgamma-free product method handles the remainder. Means below 12
  /// draw exactly as before.
  int poisson(double mean) {
    int n = 0;
    while (mean >= 12.0) {
      n += std::poisson_distribution<int>(8.0)(engine_);
      mean -= 8.0;
    }
    return n + std::poisson_distribution<int>(mean)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// A fresh generator deterministically derived from this one. Used to give
  /// independent substreams to sub-components without sharing state.
  Rng fork() { return Rng(engine_()); }

  /// Order-independent substream derivation: the generator for stream
  /// `index` under `seed` is the same no matter how many other streams were
  /// created before it (unlike sequential fork()). This is what makes
  /// parallel per-trip simulation bit-identical at any thread count.
  static Rng stream(std::uint64_t seed, std::uint64_t index) {
    return Rng(mix64(seed ^ mix64(index + 0x632be59bd9b4e019ULL)));
  }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace bussense
