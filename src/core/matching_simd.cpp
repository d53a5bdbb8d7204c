#include "core/matching_simd.h"

#include <algorithm>
#include <vector>

#if defined(BUSSENSE_SIMD_AVX2)
#include <immintrin.h>
#endif
#if defined(BUSSENSE_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace bussense::simd {

namespace {

// Two rolling DP rows of `width` int16 lanes per column, reused across
// calls; thread_local because ingestion workers batch-score concurrently.
thread_local std::vector<std::int16_t> t_rows;

std::int16_t* rows_scratch(std::size_t m, std::size_t width) {
  const std::size_t need = 2 * (m + 1) * width;
  if (t_rows.size() < need) t_rows.resize(need);
  return t_rows.data();
}

// Transposed block for the kernels that score from memory rows: the
// score_rows entries of the scalar batch and NEON, and the AVX2 classes
// longer than one register chunk.
thread_local std::vector<std::int16_t> t_block;

std::int16_t* block_scratch(std::size_t size) {
  if (t_block.size() < size) t_block.resize(size);
  return t_block.data();
}

// Gathers `width` rows of `m` ranks into the lane-major block score_batch
// reads: block[j * width + lane] = rows[lane][j].
const std::int16_t* gather_rows(const std::int16_t* const* rows, std::size_t m,
                                std::size_t width) {
  std::int16_t* block = block_scratch(m * width);
  for (std::size_t lane = 0; lane < width; ++lane) {
    const std::int16_t* row = rows[lane];
    for (std::size_t j = 0; j < m; ++j) block[j * width + lane] = row[j];
  }
  return block;
}

// Portable scalar batch: the reference semantics every vector kernel must
// reproduce bit-for-bit. Plain int arithmetic over `width` independent
// lanes — with fixed_point_usable() holding, every value fits int16, so the
// narrowing stores are exact.
void score_batch_scalar(const std::int16_t* upload, std::size_t n,
                        const std::int16_t* db_t, std::size_t m,
                        const FixedScores& fs, std::int16_t* scores10,
                        std::size_t width) {
  std::int16_t* prev = rows_scratch(m, width);
  std::int16_t* cur = prev + (m + 1) * width;
  std::fill(prev, prev + (m + 1) * width, std::int16_t{0});
  std::fill(cur, cur + width, std::int16_t{0});  // column 0 stays 0
  std::fill(scores10, scores10 + width, std::int16_t{0});
  for (std::size_t i = 1; i <= n; ++i) {
    const std::int16_t up_rank = upload[i - 1];
    for (std::size_t j = 1; j <= m; ++j) {
      const std::int16_t* db_row = db_t + (j - 1) * width;
      for (std::size_t lane = 0; lane < width; ++lane) {
        const bool eq = up_rank == db_row[lane];
        const int diag =
            prev[(j - 1) * width + lane] + (eq ? fs.match : -fs.mismatch);
        const int up = prev[j * width + lane] - fs.gap;
        const int left = cur[(j - 1) * width + lane] - fs.gap;
        const int v = std::max({0, diag, up, left});
        cur[j * width + lane] = static_cast<std::int16_t>(v);
        if (v > scores10[lane]) scores10[lane] = static_cast<std::int16_t>(v);
      }
    }
    std::swap(prev, cur);
  }
}

#if defined(BUSSENSE_SIMD_AVX2)

// 16 candidates per call, one per int16 lane of a 256-bit register. Compiled
// with the `target` attribute so the TU needs no global -mavx2 (the scalar
// paths stay runnable on any x86-64); entered only after active_kernel()'s
// cpuid check.
__attribute__((target("avx2"))) void score_batch_avx2(
    const std::int16_t* upload, std::size_t n, const std::int16_t* db_t,
    std::size_t m, const FixedScores& fs, std::int16_t* scores10) {
  constexpr std::size_t kW = 16;
  std::int16_t* prev = rows_scratch(m, kW);
  std::int16_t* cur = prev + (m + 1) * kW;
  std::fill(prev, prev + (m + 1) * kW, std::int16_t{0});
  std::fill(cur, cur + kW, std::int16_t{0});
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vmatch = _mm256_set1_epi16(fs.match);
  const __m256i vmismatch =
      _mm256_set1_epi16(static_cast<std::int16_t>(-fs.mismatch));
  const __m256i vgap = _mm256_set1_epi16(fs.gap);
  __m256i vbest = vzero;
  for (std::size_t i = 1; i <= n; ++i) {
    const __m256i vup = _mm256_set1_epi16(upload[i - 1]);
    __m256i vleft = vzero;  // cur[j-1]; column 0 is all zeros
    for (std::size_t j = 1; j <= m; ++j) {
      const __m256i vdb = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(db_t + (j - 1) * kW));
      const __m256i veq = _mm256_cmpeq_epi16(vup, vdb);
      // ±substitution selected per lane: cmpeq lanes are all-ones/all-zero,
      // so the byte-wise blend picks whole int16 values.
      const __m256i vsubst = _mm256_blendv_epi8(vmismatch, vmatch, veq);
      const __m256i vdiag = _mm256_add_epi16(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(prev + (j - 1) * kW)),
          vsubst);
      const __m256i vupward = _mm256_sub_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + j * kW)),
          vgap);
      const __m256i vleftward = _mm256_sub_epi16(vleft, vgap);
      __m256i v = _mm256_max_epi16(vdiag, vupward);
      v = _mm256_max_epi16(v, vleftward);
      v = _mm256_max_epi16(v, vzero);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + j * kW), v);
      vbest = _mm256_max_epi16(vbest, v);
      vleft = v;
    }
    std::swap(prev, cur);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(scores10), vbest);
}

// Loads columns [col, col + 8) of the 16 lanes' rows, one 128-bit load
// per lane (lanes l and l + 8 share a 256-bit register), and transposes the
// 16×8 int16 block in registers: out[j] holds column col + j of lanes
// 0..15 in order. Reads 8 ranks per row whatever the class length, which
// the rank blob's pad tail keeps in bounds.
__attribute__((target("avx2"))) inline void transpose_chunk(
    const std::int16_t* const* rows, std::size_t col, __m256i* out) {
  __m256i a[8];
  for (std::size_t k = 0; k < 8; ++k) {
    const __m128i lo =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[k] + col));
    const __m128i hi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[k + 8] + col));
    a[k] = _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
  }
  // Within each 128-bit half, an 8×8 transpose in three unpack rounds:
  // pairs of rows over int16, then over int32, then over int64.
  __m256i t[8];
  for (std::size_t k = 0; k < 4; ++k) {
    t[2 * k] = _mm256_unpacklo_epi16(a[2 * k], a[2 * k + 1]);      // cols 0-3
    t[2 * k + 1] = _mm256_unpackhi_epi16(a[2 * k], a[2 * k + 1]);  // cols 4-7
  }
  const __m256i u0 = _mm256_unpacklo_epi32(t[0], t[2]);  // cols 0-1, rows 0-3
  const __m256i u1 = _mm256_unpackhi_epi32(t[0], t[2]);  // cols 2-3
  const __m256i u2 = _mm256_unpacklo_epi32(t[1], t[3]);  // cols 4-5
  const __m256i u3 = _mm256_unpackhi_epi32(t[1], t[3]);  // cols 6-7
  const __m256i u4 = _mm256_unpacklo_epi32(t[4], t[6]);  // cols 0-1, rows 4-7
  const __m256i u5 = _mm256_unpackhi_epi32(t[4], t[6]);
  const __m256i u6 = _mm256_unpacklo_epi32(t[5], t[7]);
  const __m256i u7 = _mm256_unpackhi_epi32(t[5], t[7]);
  out[0] = _mm256_unpacklo_epi64(u0, u4);
  out[1] = _mm256_unpackhi_epi64(u0, u4);
  out[2] = _mm256_unpacklo_epi64(u1, u5);
  out[3] = _mm256_unpackhi_epi64(u1, u5);
  out[4] = _mm256_unpacklo_epi64(u2, u6);
  out[5] = _mm256_unpackhi_epi64(u2, u6);
  out[6] = _mm256_unpacklo_epi64(u3, u7);
  out[7] = _mm256_unpackhi_epi64(u3, u7);
}

// The DP of score_batch_avx2 for a class of M <= 8 columns with the whole
// previous row held in registers: h[j] is row i-1's column j + 1 (column 0
// is all zeros), updated in place, so no DP row touches memory.
template <std::size_t M>
__attribute__((target("avx2"))) void score_columns_avx2(
    const std::int16_t* upload, std::size_t n, const __m256i* col,
    const FixedScores& fs, std::int16_t* scores10) {
  const __m256i vzero = _mm256_setzero_si256();
  const __m256i vmatch = _mm256_set1_epi16(fs.match);
  const __m256i vmismatch =
      _mm256_set1_epi16(static_cast<std::int16_t>(-fs.mismatch));
  const __m256i vgap = _mm256_set1_epi16(fs.gap);
  __m256i h[M];
  for (__m256i& v : h) v = vzero;
  __m256i vbest = vzero;
  for (std::size_t i = 0; i < n; ++i) {
    const __m256i vup = _mm256_set1_epi16(upload[i]);
    __m256i vdiag = vzero;  // row i-1, column j
    __m256i vleft = vzero;  // row i, column j
#pragma GCC unroll 8
    for (std::size_t j = 0; j < M; ++j) {
      const __m256i vsubst = _mm256_blendv_epi8(
          vmismatch, vmatch, _mm256_cmpeq_epi16(vup, col[j]));
      __m256i v = _mm256_max_epi16(_mm256_add_epi16(vdiag, vsubst),
                                   _mm256_sub_epi16(h[j], vgap));
      v = _mm256_max_epi16(v, _mm256_sub_epi16(vleft, vgap));
      v = _mm256_max_epi16(v, vzero);
      vdiag = h[j];
      h[j] = v;
      vbest = _mm256_max_epi16(vbest, v);
      vleft = v;
    }
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(scores10), vbest);
}

// score_rows for AVX2: classes of up to 8 columns transpose once and run
// the register DP; longer ones transpose chunk by chunk into the block the
// memory-row kernel reads.
__attribute__((target("avx2"))) void score_rows_avx2(
    const std::int16_t* upload, std::size_t n,
    const std::int16_t* const* rows, std::size_t m, const FixedScores& fs,
    std::int16_t* scores10) {
  constexpr std::size_t kW = 16;
  __m256i col[8];
  if (m > 8) {
    std::int16_t* block = block_scratch((m + 7) / 8 * 8 * kW);
    for (std::size_t c = 0; c < m; c += 8) {
      transpose_chunk(rows, c, col);
      for (std::size_t j = 0; j < 8; ++j) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(block + (c + j) * kW),
                            col[j]);
      }
    }
    score_batch_avx2(upload, n, block, m, fs, scores10);
    return;
  }
  if (m > 0) transpose_chunk(rows, 0, col);
  switch (m) {
    case 1: return score_columns_avx2<1>(upload, n, col, fs, scores10);
    case 2: return score_columns_avx2<2>(upload, n, col, fs, scores10);
    case 3: return score_columns_avx2<3>(upload, n, col, fs, scores10);
    case 4: return score_columns_avx2<4>(upload, n, col, fs, scores10);
    case 5: return score_columns_avx2<5>(upload, n, col, fs, scores10);
    case 6: return score_columns_avx2<6>(upload, n, col, fs, scores10);
    case 7: return score_columns_avx2<7>(upload, n, col, fs, scores10);
    case 8: return score_columns_avx2<8>(upload, n, col, fs, scores10);
    default:  // m == 0: nothing to align
      std::fill(scores10, scores10 + kW, std::int16_t{0});
      return;
  }
}

bool host_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

#endif  // BUSSENSE_SIMD_AVX2

#if defined(BUSSENSE_SIMD_NEON)

// 8 candidates per call, one per int16 lane. NEON is baseline on AArch64,
// so no runtime probe is needed — compiled-in support is enough.
void score_batch_neon(const std::int16_t* upload, std::size_t n,
                      const std::int16_t* db_t, std::size_t m,
                      const FixedScores& fs, std::int16_t* scores10) {
  constexpr std::size_t kW = 8;
  std::int16_t* prev = rows_scratch(m, kW);
  std::int16_t* cur = prev + (m + 1) * kW;
  std::fill(prev, prev + (m + 1) * kW, std::int16_t{0});
  std::fill(cur, cur + kW, std::int16_t{0});
  const int16x8_t vzero = vdupq_n_s16(0);
  const int16x8_t vmatch = vdupq_n_s16(fs.match);
  const int16x8_t vmismatch = vdupq_n_s16(static_cast<std::int16_t>(-fs.mismatch));
  const int16x8_t vgap = vdupq_n_s16(fs.gap);
  int16x8_t vbest = vzero;
  for (std::size_t i = 1; i <= n; ++i) {
    const int16x8_t vup = vdupq_n_s16(upload[i - 1]);
    int16x8_t vleft = vzero;
    for (std::size_t j = 1; j <= m; ++j) {
      const int16x8_t vdb = vld1q_s16(db_t + (j - 1) * kW);
      const uint16x8_t veq = vceqq_s16(vup, vdb);
      const int16x8_t vsubst = vbslq_s16(veq, vmatch, vmismatch);
      const int16x8_t vdiag = vaddq_s16(vld1q_s16(prev + (j - 1) * kW), vsubst);
      const int16x8_t vupward = vsubq_s16(vld1q_s16(prev + j * kW), vgap);
      const int16x8_t vleftward = vsubq_s16(vleft, vgap);
      int16x8_t v = vmaxq_s16(vdiag, vupward);
      v = vmaxq_s16(v, vleftward);
      v = vmaxq_s16(v, vzero);
      vst1q_s16(cur + j * kW, v);
      vbest = vmaxq_s16(vbest, v);
      vleft = v;
    }
    std::swap(prev, cur);
  }
  vst1q_s16(scores10, vbest);
}

#endif  // BUSSENSE_SIMD_NEON

}  // namespace

Kernel active_kernel() {
#if defined(BUSSENSE_SIMD_AVX2)
  if (host_has_avx2()) return Kernel::kAvx2;
#endif
#if defined(BUSSENSE_SIMD_NEON)
  return Kernel::kNeon;
#else
  return Kernel::kScalar;
#endif
}

bool kernel_available(Kernel kernel) {
  switch (kernel) {
    case Kernel::kAuto:
    case Kernel::kScalar:
      return true;
    case Kernel::kAvx2:
#if defined(BUSSENSE_SIMD_AVX2)
      return host_has_avx2();
#else
      return false;
#endif
    case Kernel::kNeon:
#if defined(BUSSENSE_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kAuto:
      return kernel_name(active_kernel());
    case Kernel::kScalar:
      return "scalar-batch";
    case Kernel::kAvx2:
      return "avx2";
    case Kernel::kNeon:
      return "neon";
  }
  return "unknown";
}

std::size_t batch_width(Kernel kernel) {
  if (kernel == Kernel::kAuto) kernel = active_kernel();
  return kernel == Kernel::kAvx2 ? 16 : 8;
}

void score_batch(const std::int16_t* upload, std::size_t n,
                 const std::int16_t* db_t, std::size_t m,
                 const FixedScores& fs, std::int16_t* scores10,
                 Kernel kernel) {
  if (kernel == Kernel::kAuto) kernel = active_kernel();
  switch (kernel) {
#if defined(BUSSENSE_SIMD_AVX2)
    case Kernel::kAvx2:
      score_batch_avx2(upload, n, db_t, m, fs, scores10);
      return;
#endif
#if defined(BUSSENSE_SIMD_NEON)
    case Kernel::kNeon:
      score_batch_neon(upload, n, db_t, m, fs, scores10);
      return;
#endif
    default:
      score_batch_scalar(upload, n, db_t, m, fs, scores10,
                         batch_width(kernel));
      return;
  }
}

void score_rows(const std::int16_t* upload, std::size_t n,
                const std::int16_t* const* rows, std::size_t m,
                const FixedScores& fs, std::int16_t* scores10, Kernel kernel) {
  if (kernel == Kernel::kAuto) kernel = active_kernel();
#if defined(BUSSENSE_SIMD_AVX2)
  if (kernel == Kernel::kAvx2) {
    score_rows_avx2(upload, n, rows, m, fs, scores10);
    return;
  }
#endif
  const std::size_t width = batch_width(kernel);
  score_batch(upload, n, gather_rows(rows, m, width), m, fs, scores10, kernel);
}

}  // namespace bussense::simd
