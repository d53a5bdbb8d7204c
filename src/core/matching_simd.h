// Runtime-dispatched batch-scoring kernel for the fixed-point matcher DP
// (DESIGN.md §12).
//
// One upload sample is scored against `batch_width()` candidate fingerprints
// at once: each SIMD lane runs one candidate's two-row Smith–Waterman in
// int16 deci-score units (core/matching.h FixedScores), sharing the sweep
// over the upload. Because the arithmetic is exact integer math, every
// kernel — AVX2 (16 lanes), NEON (8 lanes) and the portable scalar batch —
// produces bit-identical scores, and all of them match the scalar
// similarity() fixed-point path. The instruction set is picked at runtime
// (no ISA assumptions are baked into the build): AVX2 code is compiled via
// the `target` function attribute and only entered after a cpuid check.
//
// Candidates are fed as *quantized ranks* (StopDatabase::QuantizedView):
// cell IDs remapped to dense small ints so a lane compare is one 16-bit
// equality instead of a 32-bit id compare, and a vector holds twice as
// many candidates.
//
// Two entries share the DP. score_batch() takes a lane-major transposed
// block and is the reference the tests pin. score_rows() takes one row
// pointer per lane straight into the view's rank blob, so the matcher
// packs nothing: the AVX2 body loads 8 ranks per lane with one 128-bit load
// and transposes 16×8 int16 in registers; classes of up to 8 columns (every
// scanned database: ScannerConfig::max_towers is 7) then run the DP with
// the whole row in registers, longer ones transpose chunk by chunk into
// the memory-row kernel. The scalar batch and NEON gather the rows into a
// thread-local block and call score_batch.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/matching.h"

namespace bussense::simd {

/// Rank sentinels. Database ranks are >= 0; an upload cell the dictionary
/// never saw maps to kUnknownRank and an unused batch lane is padded with
/// kPadRank — the three never compare equal, so unknown cells mismatch
/// everything and pad lanes score 0.
inline constexpr std::int16_t kUnknownRank = -1;
inline constexpr std::int16_t kPadRank = -2;

enum class Kernel : std::uint8_t { kAuto = 0, kScalar = 1, kAvx2 = 2, kNeon = 3 };

/// The kernel kAuto resolves to on this host (never returns kAuto). Decided
/// once per process from compiled-in support + a runtime CPU check.
Kernel active_kernel();

/// True when `kernel` can run on this host/build (kScalar always can).
bool kernel_available(Kernel kernel);

const char* kernel_name(Kernel kernel);

/// Lanes scored per score_batch call: 16 for AVX2, 8 for NEON and the
/// portable scalar batch.
std::size_t batch_width(Kernel kernel = Kernel::kAuto);

/// The largest batch_width() of any kernel.
inline constexpr std::size_t kMaxBatchWidth = 16;

/// Scores one quantized upload (`upload[0..n)`) against batch_width(kernel)
/// candidates of identical length `m`, laid out TRANSPOSED: db_t[j * width +
/// lane] is lane `lane`'s j-th rank. Writes each lane's best local-alignment
/// score in deci-units to scores10[0..width). Preconditions:
/// fixed_point_usable(fs, min(n, m)); `kernel` available on this host.
/// Thread-safe (thread-local scratch), allocation-free on warm calls.
void score_batch(const std::int16_t* upload, std::size_t n,
                 const std::int16_t* db_t, std::size_t m,
                 const FixedScores& fs, std::int16_t* scores10,
                 Kernel kernel = Kernel::kAuto);

/// score_batch over rows[0..batch_width(kernel)): lane `lane` scores the m
/// ranks at rows[lane], read in place. Unused lanes point at a row of
/// kPadRank and score 0. Every row must stay readable for roundup8(m)
/// entries (the 8-wide loads), which the view's pad tail guarantees for
/// rows in its rank blob; the pad row itself is at least that long.
/// Same preconditions, results and thread-safety as score_batch.
void score_rows(const std::int16_t* upload, std::size_t n,
                const std::int16_t* const* rows, std::size_t m,
                const FixedScores& fs, std::int16_t* scores10,
                Kernel kernel = Kernel::kAuto);

}  // namespace bussense::simd
