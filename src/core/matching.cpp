#include "core/matching.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bussense {

namespace {

// Scratch buffers reused across calls. The hot path — StopMatcher scoring a
// sample against many candidate records — used to heap-allocate a fresh DP
// matrix per pair; for ≤7-cell fingerprints that allocation dominated the
// arithmetic. thread_local (not static) because the sharded ingest service
// calls similarity() from many shard consumers at once.
thread_local std::vector<double> t_rows;          ///< 2 rolling rows (double DP)
thread_local std::vector<std::int32_t> t_rows10;  ///< 2 rolling rows (fixed DP)
thread_local std::vector<double> t_matrix;        ///< full H (align only)
thread_local std::vector<std::uint8_t> t_dir;     ///< per-cell direction

// Traceback directions recorded while filling the matrix. Storing the
// argmax as a byte (instead of re-deriving it from float equality on
// accumulated doubles at traceback time) keeps match/mismatch/gap counts
// exact regardless of how the scores were rounded.
enum Dir : std::uint8_t { kStop = 0, kDiag = 1, kUp = 2, kLeft = 3 };

// int16-exact fixed-point variant of the rolling DP below. The rows are kept
// as int32 for convenience — with fixed_point_usable() holding, every cell
// value fits int16, so this computes exactly what the 16-bit SIMD lanes of
// core/matching_simd.cpp compute.
double similarity_fixed(const Fingerprint& upload, const Fingerprint& database,
                        const FixedScores& fs) {
  const std::size_t n = upload.cells.size();
  const std::size_t m = database.cells.size();
  if (t_rows10.size() < 2 * (m + 1)) t_rows10.resize(2 * (m + 1));
  std::int32_t* prev = t_rows10.data();
  std::int32_t* cur = prev + (m + 1);
  std::fill(prev, prev + m + 1, 0);
  cur[0] = 0;
  std::int32_t best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const CellId ai = upload.cells[i - 1];
    for (std::size_t j = 1; j <= m; ++j) {
      const bool eq = ai == database.cells[j - 1];
      const std::int32_t diag = prev[j - 1] + (eq ? fs.match : -fs.mismatch);
      const std::int32_t up = prev[j] - fs.gap;
      const std::int32_t left = cur[j - 1] - fs.gap;
      const std::int32_t v = std::max({0, diag, up, left});
      cur[j] = v;
      if (v > best) best = v;
    }
    std::swap(prev, cur);
  }
  return fixed_to_score(best);
}

}  // namespace

FixedScores quantize_scores(const MatchingConfig& config) {
  FixedScores fs;
  const auto quantize = [](double v, std::int16_t& out) {
    if (!std::isfinite(v) || std::abs(v) > 3276.7) return false;
    const long long deci = std::llround(v * kFixedPointScale);
    // Round-trip check: the parameter must BE an exact multiple of 0.1 (as
    // doubles), or fixed-point scores would diverge from the double DP.
    if (static_cast<double>(deci) / static_cast<double>(kFixedPointScale) != v) {
      return false;
    }
    out = static_cast<std::int16_t>(deci);
    return true;
  };
  fs.exact = quantize(config.match_score, fs.match) &&
             quantize(config.mismatch_penalty, fs.mismatch) &&
             quantize(config.gap_penalty, fs.gap);
  if (!fs.exact) fs = FixedScores{};
  return fs;
}

bool fixed_point_usable(const FixedScores& scores, std::size_t min_len) {
  // Non-negative penalties keep every DP cell in [0, match·min_len] (the
  // max() clamps at 0 and a match adds at most `match` per diagonal step),
  // so int16 lanes cannot overflow when the best attainable score fits.
  return scores.exact && scores.match >= 0 && scores.mismatch >= 0 &&
         scores.gap >= 0 &&
         static_cast<long long>(scores.match) *
                 static_cast<long long>(min_len) <=
             32767;
}

double similarity(const Fingerprint& upload, const Fingerprint& database,
                  const MatchingConfig& config) {
  if (upload.empty() || database.empty()) return 0.0;
  const std::size_t n = upload.cells.size();
  const std::size_t m = database.cells.size();
  const FixedScores fs = quantize_scores(config);
  if (fixed_point_usable(fs, std::min(n, m))) {
    return similarity_fixed(upload, database, fs);
  }
  // Two-row rolling DP: only the previous row is needed for the recurrence,
  // and nothing is read back after the sweep, so the full (n+1)x(m+1)
  // matrix never materialises and warm calls allocate nothing.
  if (t_rows.size() < 2 * (m + 1)) t_rows.resize(2 * (m + 1));
  double* prev = t_rows.data();
  double* cur = prev + (m + 1);
  std::fill(prev, prev + m + 1, 0.0);
  cur[0] = 0.0;  // column 0 stays 0 in both rows for the whole sweep
  double best = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    const CellId ai = upload.cells[i - 1];
    for (std::size_t j = 1; j <= m; ++j) {
      const bool eq = ai == database.cells[j - 1];
      const double diag =
          prev[j - 1] + (eq ? config.match_score : -config.mismatch_penalty);
      const double up = prev[j] - config.gap_penalty;
      const double left = cur[j - 1] - config.gap_penalty;
      const double v = std::max({0.0, diag, up, left});
      cur[j] = v;
      if (v > best) best = v;
    }
    std::swap(prev, cur);
  }
  return best;
}

Alignment align(const Fingerprint& upload, const Fingerprint& database,
                const MatchingConfig& config) {
  Alignment out;
  if (upload.empty() || database.empty()) return out;
  const std::size_t rows = upload.cells.size() + 1;
  const std::size_t cols = database.cells.size() + 1;
  t_matrix.assign(rows * cols, 0.0);
  t_dir.assign(rows * cols, kStop);
  auto H = [&](std::size_t i, std::size_t j) -> double& {
    return t_matrix[i * cols + j];
  };
  auto D = [&](std::size_t i, std::size_t j) -> std::uint8_t& {
    return t_dir[i * cols + j];
  };
  double best = 0.0;
  std::size_t best_i = 0, best_j = 0;
  for (std::size_t i = 1; i < rows; ++i) {
    for (std::size_t j = 1; j < cols; ++j) {
      const bool eq = upload.cells[i - 1] == database.cells[j - 1];
      const double diag =
          H(i - 1, j - 1) + (eq ? config.match_score : -config.mismatch_penalty);
      const double up = H(i - 1, j) - config.gap_penalty;
      const double left = H(i, j - 1) - config.gap_penalty;
      const double v = std::max({0.0, diag, up, left});
      H(i, j) = v;
      // Comparing v against the operands it was just maximised over is
      // exact; tie order (diag, up, left) fixes the reported alignment.
      if (v <= 0.0) {
        D(i, j) = kStop;
      } else if (v == diag) {
        D(i, j) = kDiag;
      } else if (v == up) {
        D(i, j) = kUp;
      } else {
        D(i, j) = kLeft;
      }
      if (v > best) {
        best = v;
        best_i = i;
        best_j = j;
      }
    }
  }
  out.score = best;
  std::size_t i = best_i, j = best_j;
  while (i > 0 && j > 0 && D(i, j) != kStop) {
    switch (D(i, j)) {
      case kDiag:
        (upload.cells[i - 1] == database.cells[j - 1]) ? ++out.matches
                                                       : ++out.mismatches;
        --i;
        --j;
        break;
      case kUp:
        ++out.gaps;
        --i;
        break;
      default:  // kLeft
        ++out.gaps;
        --j;
        break;
    }
  }
  return out;
}

double max_similarity(const Fingerprint& a, const Fingerprint& b,
                      const MatchingConfig& config) {
  return config.match_score *
         static_cast<double>(std::min(a.cells.size(), b.cells.size()));
}

}  // namespace bussense
