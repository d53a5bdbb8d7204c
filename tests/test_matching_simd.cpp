// Property suite for the fixed-point batch-scoring kernel and the matcher's
// SIMD path (DESIGN.md §12).
//
// The contract under test: the vectorized path is a *pure optimisation* —
// similarity()/match()/match_all() results (scores, winners, tie-breaks by
// common-cell count, below-γ rejections) are bit-identical across every
// kernel (AVX2 / NEON / scalar batch) and across index on/off × SIMD
// on/off, for randomized fingerprints, degenerate lengths (0/1/max),
// duplicate cell IDs and non-quantizable scoring configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/matching.h"
#include "core/matching_simd.h"
#include "core/stop_database.h"
#include "core/stop_matcher.h"
#include "trafficsim/lod_world.h"
#include "trafficsim/world.h"

namespace bussense {
namespace {

Fingerprint random_fingerprint(Rng& rng, int len, int pool) {
  Fingerprint fp;
  for (int i = 0; i < len; ++i) fp.cells.push_back(rng.uniform_int(1, pool));
  return fp;
}

// ------------------------------------------------- fixed-point quantization

TEST(FixedPoint, DefaultConfigQuantizesExactly) {
  const FixedScores fs = quantize_scores(MatchingConfig{});
  EXPECT_TRUE(fs.exact);
  EXPECT_EQ(fs.match, 10);
  EXPECT_EQ(fs.mismatch, 3);
  EXPECT_EQ(fs.gap, 3);
}

TEST(FixedPoint, NonDeciMultiplesAreRejected) {
  MatchingConfig cfg;
  cfg.mismatch_penalty = 0.25;  // llround→3, but 0.3 != 0.25
  EXPECT_FALSE(quantize_scores(cfg).exact);
  cfg.mismatch_penalty = 0.3;
  cfg.match_score = 1.0 + 1e-12;
  EXPECT_FALSE(quantize_scores(cfg).exact);
  cfg.match_score = 4000.0;  // 40000 deci-units overflow int16
  EXPECT_FALSE(quantize_scores(cfg).exact);
}

TEST(FixedPoint, UsabilityTracksOverflowBound) {
  const FixedScores fs = quantize_scores(MatchingConfig{});
  EXPECT_TRUE(fixed_point_usable(fs, 0));
  EXPECT_TRUE(fixed_point_usable(fs, 7));
  EXPECT_TRUE(fixed_point_usable(fs, 3276));   // 32760 fits int16
  EXPECT_FALSE(fixed_point_usable(fs, 3277));  // 32770 would overflow
  MatchingConfig negative;
  negative.gap_penalty = -0.3;  // growth along gaps breaks the bound proof
  EXPECT_FALSE(fixed_point_usable(quantize_scores(negative), 7));
}

TEST(FixedPoint, ScalarSimilarityMatchesPaperInstanceExactly) {
  // {1,2,3,4,5} vs {1,7,3,5}: 3 matches − 1 gap − 1 mismatch = 24 deci.
  const Fingerprint upload{{1, 2, 3, 4, 5}};
  const Fingerprint database{{1, 7, 3, 5}};
  EXPECT_EQ(similarity(upload, database), fixed_to_score(24));
}

// ----------------------------------------------------------- kernel identity

std::vector<simd::Kernel> available_kernels() {
  std::vector<simd::Kernel> out{simd::Kernel::kScalar};
  if (simd::kernel_available(simd::Kernel::kAvx2)) {
    out.push_back(simd::Kernel::kAvx2);
  }
  if (simd::kernel_available(simd::Kernel::kNeon)) {
    out.push_back(simd::Kernel::kNeon);
  }
  return out;
}

TEST(KernelDispatch, ActiveKernelIsAvailableAndNamed) {
  const simd::Kernel k = simd::active_kernel();
  EXPECT_NE(k, simd::Kernel::kAuto);
  EXPECT_TRUE(simd::kernel_available(k));
  EXPECT_STRNE(simd::kernel_name(k), "unknown");
  EXPECT_EQ(simd::batch_width(k), k == simd::Kernel::kAvx2 ? 16u : 8u);
  EXPECT_EQ(simd::batch_width(simd::Kernel::kAuto), simd::batch_width(k));
}

// Every compiled kernel scores a transposed batch identically to per-pair
// scalar similarity() — the core bit-identity the matcher relies on. Runs
// rank-space batches against cell-ID-space similarity() via an identity
// dictionary (ranks == cell ids), which the quantization argument reduces to.
class KernelIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelIdentity, BatchScoresEqualScalarSimilarity) {
  Rng rng(GetParam());
  const FixedScores fs = quantize_scores(MatchingConfig{});
  for (const simd::Kernel kernel : available_kernels()) {
    const std::size_t width = simd::batch_width(kernel);
    std::vector<std::int16_t> db_t;
    std::vector<std::int16_t> scores10(width);
    for (int trial = 0; trial < 50; ++trial) {
      // Degenerate lengths on purpose: n in 0..8, m in 1..8, small pools
      // force duplicates and unknown-cell mismatches.
      const int n = rng.uniform_int(0, 8);
      const int m = rng.uniform_int(1, 8);
      const int pool = rng.uniform_int(2, 12);
      const Fingerprint upload = random_fingerprint(rng, n, pool);
      std::vector<Fingerprint> lanes;
      const std::size_t used = 1 + rng.uniform_int(0, static_cast<int>(width) - 1);
      for (std::size_t l = 0; l < used; ++l) {
        lanes.push_back(random_fingerprint(rng, m, pool));
      }
      // Identity quantization: cell ids are already small ints.
      std::vector<std::int16_t> up(upload.cells.begin(), upload.cells.end());
      db_t.assign(static_cast<std::size_t>(m) * width, simd::kPadRank);
      for (std::size_t l = 0; l < used; ++l) {
        for (int j = 0; j < m; ++j) {
          db_t[static_cast<std::size_t>(j) * width + l] =
              static_cast<std::int16_t>(lanes[l].cells[j]);
        }
      }
      simd::score_batch(up.data(), up.size(), db_t.data(), m, fs,
                        scores10.data(), kernel);
      for (std::size_t l = 0; l < used; ++l) {
        EXPECT_EQ(fixed_to_score(scores10[l]), similarity(upload, lanes[l]))
            << simd::kernel_name(kernel) << " lane " << l << ": "
            << to_string(upload) << " vs " << to_string(lanes[l]);
      }
      for (std::size_t l = used; l < width; ++l) {
        EXPECT_EQ(scores10[l], 0) << "pad lane " << l << " must score 0";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelIdentity, ::testing::Values(21, 22, 23));

TEST(KernelIdentity, CompiledKernelsAgreeWithEachOther) {
  // Redundant with the scalar comparison above but pins the cross-ISA
  // claim directly on hosts that have a vector unit.
  const auto kernels = available_kernels();
  if (kernels.size() < 2) GTEST_SKIP() << "no vector kernel compiled in";
  Rng rng(99);
  const FixedScores fs = quantize_scores(MatchingConfig{});
  for (int trial = 0; trial < 100; ++trial) {
    const int n = rng.uniform_int(1, 7);
    const int m = rng.uniform_int(1, 7);
    const Fingerprint upload = random_fingerprint(rng, n, 9);
    // Build one batch per kernel width from the same candidates.
    std::vector<Fingerprint> cands;
    for (std::size_t l = 0; l < 8; ++l) {
      cands.push_back(random_fingerprint(rng, m, 9));
    }
    std::vector<std::int16_t> up(upload.cells.begin(), upload.cells.end());
    std::vector<std::vector<std::int16_t>> results;
    for (const simd::Kernel kernel : kernels) {
      const std::size_t width = simd::batch_width(kernel);
      std::vector<std::int16_t> db_t(static_cast<std::size_t>(m) * width,
                                     simd::kPadRank);
      for (std::size_t l = 0; l < cands.size(); ++l) {
        for (int j = 0; j < m; ++j) {
          db_t[static_cast<std::size_t>(j) * width + l] =
              static_cast<std::int16_t>(cands[l].cells[j]);
        }
      }
      std::vector<std::int16_t> scores10(width);
      simd::score_batch(up.data(), up.size(), db_t.data(), m, fs,
                        scores10.data(), kernel);
      scores10.resize(cands.size());
      results.push_back(std::move(scores10));
    }
    for (std::size_t k = 1; k < results.size(); ++k) {
      EXPECT_EQ(results[k], results[0]) << simd::kernel_name(kernels[k]);
    }
  }
}

// score_rows reads each lane's ranks in place from the view's rank blob.
// For every m and n in 1..20 (crossing the 8-column chunk) and every
// live-lane count, it must equal score_batch on the transposed block of the
// same rows and similarity() per lane, and pad lanes must score 0. The lane
// of the highest live index always reads the blob's last record, so the
// 8-wide loads past its end run into the pad tail (and under ASan, into
// nothing else).
TEST(KernelRows, RowsEqualTransposedBatchAndSimilarity) {
  Rng rng(41);
  const FixedScores fs = quantize_scores(MatchingConfig{});
  const auto kernels = available_kernels();
  for (int m = 1; m <= 20; ++m) {
    // Small pools force duplicate ranks inside and across rows.
    const int pool = rng.uniform_int(3, m + 4);
    StopDatabase db;
    for (int r = 0; r < static_cast<int>(simd::kMaxBatchWidth); ++r) {
      db.add(static_cast<StopId>(r + 1), random_fingerprint(rng, m, pool));
    }
    const StopDatabase::QuantizedView& qv = db.quantized();
    const std::uint32_t last = qv.record.back().offset;
    ASSERT_EQ(last + static_cast<std::uint32_t>(m), qv.pad_offset);
    for (int n = 1; n <= 20; ++n) {
      // Cells past the pool are unknown to the dictionary.
      const Fingerprint upload = random_fingerprint(rng, n, pool + 3);
      std::vector<std::int16_t> up;
      for (const CellId c : upload.cells) up.push_back(qv.rank_of(c));
      std::vector<double> expected;
      for (const StopRecord& r : db.records()) {
        expected.push_back(similarity(upload, r.fingerprint));
      }
      // Per live-lane count, the live scores of the first kernel checked.
      std::vector<std::vector<std::int16_t>> first(simd::kMaxBatchWidth + 1);
      for (const simd::Kernel kernel : kernels) {
        const std::size_t width = simd::batch_width(kernel);
        for (std::size_t live = 1; live <= width; ++live) {
          // Lane l reads record (records - live + l): the last lane reads
          // the blob's last record.
          const std::size_t base = db.size() - live;
          std::vector<const std::int16_t*> rows(width, qv.pad_row());
          for (std::size_t l = 0; l < live; ++l) {
            rows[l] = qv.ranks.data() + qv.record[base + l].offset;
          }
          ASSERT_EQ(rows[live - 1], qv.ranks.data() + last);
          std::vector<std::int16_t> db_t(static_cast<std::size_t>(m) * width);
          for (std::size_t l = 0; l < width; ++l) {
            for (int j = 0; j < m; ++j) {
              db_t[static_cast<std::size_t>(j) * width + l] = rows[l][j];
            }
          }
          std::vector<std::int16_t> from_rows(width, -7);
          std::vector<std::int16_t> from_block(width, -7);
          simd::score_rows(up.data(), up.size(), rows.data(), m, fs,
                           from_rows.data(), kernel);
          simd::score_batch(up.data(), up.size(), db_t.data(), m, fs,
                            from_block.data(), kernel);
          ASSERT_EQ(from_rows, from_block)
              << simd::kernel_name(kernel) << " m " << m << " n " << n
              << " live " << live;
          for (std::size_t l = 0; l < live; ++l) {
            EXPECT_EQ(fixed_to_score(from_rows[l]), expected[base + l])
                << simd::kernel_name(kernel) << " m " << m << " n " << n
                << " live " << live << " lane " << l;
          }
          for (std::size_t l = live; l < width; ++l) {
            EXPECT_EQ(from_rows[l], 0) << "pad lane " << l;
          }
          from_rows.resize(live);
          if (first[live].empty()) {
            first[live] = from_rows;
          } else {
            EXPECT_EQ(from_rows, first[live])
                << simd::kernel_name(kernel) << " disagrees, m " << m
                << " n " << n << " live " << live;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------ quantized view

TEST(QuantizedView, DictionaryIsInjectiveAndRanksMirrorRecords) {
  StopDatabase db;
  db.add(1, Fingerprint{{100, 200, 300}});
  db.add(2, Fingerprint{{200, 400}});
  db.add(3, Fingerprint{{100, 100, 500}});  // duplicate cell in one print
  const StopDatabase::QuantizedView& qv = db.quantized();
  ASSERT_TRUE(qv.valid);
  ASSERT_EQ(qv.record.size(), 3u);
  std::size_t total = 0;
  for (std::size_t r = 0; r < db.size(); ++r) {
    const std::vector<CellId>& cells = db.records()[r].fingerprint.cells;
    ASSERT_EQ(qv.record[r].length, cells.size());
    for (std::size_t j = 0; j < cells.size(); ++j) {
      EXPECT_EQ(qv.ranks[qv.record[r].offset + j], qv.rank_of(cells[j]));
      EXPECT_GE(qv.rank_of(cells[j]), 0);
    }
    total += cells.size();
  }
  // The records' ranks end at pad_offset; a kPadRank tail long enough for
  // the longest class's 8-wide loads (roundup8(3) + 8) follows.
  EXPECT_EQ(qv.pad_offset, total);
  EXPECT_GE(qv.ranks.size(), qv.pad_offset + 16u);
  for (std::size_t i = qv.pad_offset; i < qv.ranks.size(); ++i) {
    EXPECT_EQ(qv.ranks[i], simd::kPadRank) << i;
  }
  EXPECT_EQ(qv.cell_count(), 5u);
  EXPECT_EQ(qv.rank_of(999999), simd::kUnknownRank);
  // Injective: distinct cells → distinct ranks.
  EXPECT_NE(qv.rank_of(100), qv.rank_of(200));
  EXPECT_NE(qv.rank_of(200), qv.rank_of(400));
}

TEST(QuantizedView, RanksAreGroupedByLengthClass) {
  StopDatabase db;
  db.add(1, Fingerprint{{1, 2, 3, 4, 5}});
  db.add(2, Fingerprint{{6, 7}});
  db.add(3, Fingerprint{{8, 9, 10, 11, 12}});
  db.add(4, Fingerprint{{13, 14}});
  const StopDatabase::QuantizedView& qv = db.quantized();
  // Offsets ordered by (length, record): both 2-cell records precede both
  // 5-cell records in the rank blob.
  EXPECT_LT(qv.record[1].offset, qv.record[3].offset);
  EXPECT_LT(qv.record[3].offset, qv.record[0].offset);
  EXPECT_LT(qv.record[0].offset, qv.record[2].offset);
}

TEST(QuantizedView, MutationInvalidatesAndRebuilds) {
  StopDatabase db;
  db.add(1, Fingerprint{{1, 2, 3}});
  const std::size_t before = db.quantized().pad_offset;
  EXPECT_EQ(before, 3u);
  db.add(1, Fingerprint{{4, 5, 6, 7}});  // replace
  const StopDatabase::QuantizedView& qv = db.quantized();
  EXPECT_EQ(qv.pad_offset, 4u);
  EXPECT_EQ(qv.record[0].length, 4u);
  EXPECT_EQ(qv.rank_of(7), qv.ranks[qv.record[0].offset + 3]);
  // Copies rebuild their own cache lazily.
  const StopDatabase copy = db;
  EXPECT_EQ(copy.quantized().pad_offset, 4u);
}

// The flat dictionary hands out the same first-encounter ids the layout
// implies: records in (length, record) order, cells in fingerprint order.
std::vector<std::pair<CellId, std::uint32_t>> first_encounter_ids(
    const StopDatabase& db) {
  std::vector<std::uint32_t> order(db.size());
  for (std::uint32_t r = 0; r < db.size(); ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return db.records()[a].fingerprint.size() < db.records()[b].fingerprint.size();
  });
  std::vector<std::pair<CellId, std::uint32_t>> ids;
  for (const std::uint32_t r : order) {
    for (const CellId c : db.records()[r].fingerprint.cells) {
      const bool seen = std::any_of(ids.begin(), ids.end(),
                                    [c](const auto& e) { return e.first == c; });
      if (!seen) ids.emplace_back(c, static_cast<std::uint32_t>(ids.size()));
    }
  }
  return ids;
}

TEST(QuantizedView, FlatDictionaryKeepsFirstEncounterIds) {
  Rng rng(17);
  StopDatabase db;
  // Extreme and negative ids next to ordinary ones, mixed lengths, and
  // cells repeated across records.
  db.add(1, Fingerprint{{INT32_MAX, -5, 0, 12}});
  db.add(2, Fingerprint{{INT32_MIN, -1, INT32_MAX}});
  for (int r = 0; r < 200; ++r) {
    Fingerprint fp;
    const int len = rng.uniform_int(1, 9);
    for (int j = 0; j < len; ++j) {
      fp.cells.push_back(rng.uniform_int(-3000, 3000) * 7919);
    }
    db.add(static_cast<StopId>(r + 3), fp);
  }
  const StopDatabase::QuantizedView& qv = db.quantized();
  const auto ids = first_encounter_ids(db);
  ASSERT_EQ(qv.cell_count(), ids.size());
  for (const auto& [cell, id] : ids) EXPECT_EQ(qv.id_of(cell), id) << cell;
  // At most half full, power-of-two size.
  EXPECT_EQ(qv.dictionary.size() & (qv.dictionary.size() - 1), 0u);
  EXPECT_LE(2 * qv.cell_count(), qv.dictionary.size());
  // Unseen cells come back kNoId, including those whose probe starts on an
  // occupied slot and so walks a chain of known cells.
  std::set<CellId> known;
  for (const auto& e : ids) known.insert(e.first);
  std::size_t on_chains = 0;
  for (CellId c = -20000; c <= 20000; ++c) {
    if (known.count(c) != 0) continue;
    EXPECT_EQ(qv.id_of(c), StopDatabase::QuantizedView::kNoId) << c;
    on_chains += qv.dictionary[qv.home_slot(c)].id !=
                 StopDatabase::QuantizedView::kNoId;
  }
  EXPECT_GT(on_chains, 1000u);
  for (const CellId c : {INT32_MIN + 1, INT32_MAX - 1, -2, 1}) {
    EXPECT_EQ(qv.id_of(c), StopDatabase::QuantizedView::kNoId) << c;
  }
}

TEST(QuantizedView, EmptyDatabaseHasAPadRowAndAnEmptyDictionary) {
  const StopDatabase db;
  const StopDatabase::QuantizedView& qv = db.quantized();
  EXPECT_EQ(qv.cell_count(), 0u);
  EXPECT_EQ(qv.id_of(0), StopDatabase::QuantizedView::kNoId);
  EXPECT_EQ(qv.id_of(INT32_MIN), StopDatabase::QuantizedView::kNoId);
  EXPECT_EQ(qv.pad_offset, 0u);
  ASSERT_GE(qv.ranks.size(), 8u);
  EXPECT_EQ(qv.pad_row()[7], simd::kPadRank);
}

// ----------------------------------------- matcher bit-identity sweep

struct MatcherSet {
  // The four acceleration corners; [0] (index off, simd off) is the
  // reference brute-force scan.
  std::vector<StopMatcher> matchers;
  explicit MatcherSet(const StopDatabase& db, StopMatcherConfig base = {}) {
    for (const bool use_index : {false, true}) {
      for (const bool use_simd : {false, true}) {
        StopMatcherConfig cfg = base;
        cfg.accel.use_index = use_index;
        cfg.accel.use_simd = use_simd;
        matchers.emplace_back(db, cfg);
      }
    }
  }
};

void expect_identical_results(const MatcherSet& set, const Fingerprint& sample) {
  const auto ref = set.matchers[0].match(sample);
  const auto ref_all = set.matchers[0].match_all(sample);
  for (std::size_t i = 1; i < set.matchers.size(); ++i) {
    const StopMatcher& m = set.matchers[i];
    const auto got = m.match(sample);
    ASSERT_EQ(got.has_value(), ref.has_value())
        << "config " << i << " sample " << to_string(sample);
    if (ref) {
      EXPECT_EQ(got->stop, ref->stop) << "config " << i;
      EXPECT_EQ(got->score, ref->score) << "config " << i;  // bit-identical
      EXPECT_EQ(got->common_cells, ref->common_cells) << "config " << i;
    }
    const auto got_all = m.match_all(sample);
    ASSERT_EQ(got_all.size(), ref_all.size()) << "config " << i;
    for (std::size_t j = 0; j < got_all.size(); ++j) {
      EXPECT_EQ(got_all[j].stop, ref_all[j].stop) << "config " << i;
      EXPECT_EQ(got_all[j].score, ref_all[j].score) << "config " << i;
      EXPECT_EQ(got_all[j].common_cells, ref_all[j].common_cells)
          << "config " << i;
    }
  }
}

class SimdMatcherEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdMatcherEquivalence, AllAccelerationCornersMatchBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const int n_records = rng.uniform_int(1, 60);
    const int pool = rng.uniform_int(4, 10 + 4 * n_records);
    StopDatabase db;
    for (int r = 0; r < n_records; ++r) {
      // Mixed length classes incl. degenerate 1-cell prints; small pools
      // force duplicate cell IDs within and across fingerprints.
      db.add(static_cast<StopId>(r + 1),
             random_fingerprint(rng, rng.uniform_int(1, 9), pool));
    }
    const MatcherSet set(db);
    // The batch path engages exactly when a vector kernel is live; either
    // way the identity sweep below must hold.
    EXPECT_EQ(set.matchers[3].simd_active(),
              simd::active_kernel() != simd::Kernel::kScalar);
    for (int q = 0; q < 30; ++q) {
      expect_identical_results(
          set, random_fingerprint(rng, rng.uniform_int(0, 8), pool));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdMatcherEquivalence,
                         ::testing::Values(31, 32, 33));

TEST(SimdMatcher, TieBreaksIdenticallyAcrossCorners) {
  // Three records with the same score against the probe; two share the same
  // common-cell count, so the winner is decided by (score, common, db
  // order) exactly as the scalar scan resolves it.
  StopDatabase db;
  db.add(1, Fingerprint{{1, 2, 9}});   // score 2, common 2
  db.add(2, Fingerprint{{1, 2, 8}});   // score 2, common 2 (db-order loser)
  db.add(3, Fingerprint{{1, 2}});      // score 2, common 2, shorter
  const Fingerprint probe{{1, 2, 7}};
  const MatcherSet set(db);
  const auto ref = set.matchers[0].match(probe);
  ASSERT_TRUE(ref.has_value());
  expect_identical_results(set, probe);
}

TEST(SimdMatcher, NonQuantizableConfigFallsBackScalar) {
  StopDatabase db;
  db.add(1, Fingerprint{{1, 2, 3, 4}});
  db.add(2, Fingerprint{{3, 4, 5, 6}});
  StopMatcherConfig cfg;
  cfg.matching.mismatch_penalty = 0.25;  // not a deci multiple
  const MatcherSet set(db, cfg);
  EXPECT_FALSE(set.matchers[3].simd_active());
  Rng rng(7);
  for (int q = 0; q < 20; ++q) {
    expect_identical_results(set, random_fingerprint(rng, rng.uniform_int(0, 7), 8));
  }
}

TEST(SimdMatcher, OverflowLengthClassFallsBackPerClass) {
  // match_score 3276.7 quantizes to 32767 deci-units: usable for 1-cell
  // prints, overflow for anything longer — the SIMD path must score the
  // long class through scalar similarity() and still agree bitwise.
  StopDatabase db;
  db.add(1, Fingerprint{{1}});
  db.add(2, Fingerprint{{1, 2}});
  db.add(3, Fingerprint{{2, 3}});
  StopMatcherConfig cfg;
  cfg.matching.match_score = 3276.7;
  cfg.accept_threshold = 3276.7;
  const MatcherSet set(db, cfg);
  EXPECT_EQ(set.matchers[3].simd_active(),
            simd::active_kernel() != simd::Kernel::kScalar);
  Rng rng(8);
  for (int q = 0; q < 20; ++q) {
    expect_identical_results(set, random_fingerprint(rng, rng.uniform_int(0, 4), 5));
  }
}

TEST(SimdMatcher, EmptyDatabaseAndEmptySample) {
  StopDatabase empty_db;
  const MatcherSet empty_set(empty_db);
  expect_identical_results(empty_set, Fingerprint{{1, 2, 3}});
  StopDatabase db;
  db.add(1, Fingerprint{{1, 2, 3}});
  const MatcherSet set(db);
  expect_identical_results(set, Fingerprint{});
}

// ------------------------------------------------------- stats accounting

TEST(SimdMatcher, StatsInvariantsHoldOnSimdPath) {
  Rng rng(77);
  StopDatabase db;
  for (int r = 0; r < 40; ++r) {
    db.add(static_cast<StopId>(r + 1), random_fingerprint(rng, 7, 30));
  }
  // Index + simd on; the scalar path shares the incumbent skip, so the
  // invariants (and a firing prescreen) hold whether or not a vector
  // kernel is live on this host.
  const StopMatcher matcher(db);
  std::size_t skipped_total = 0;
  for (int q = 0; q < 60; ++q) {
    MatchStats stats;
    (void)matcher.match(random_fingerprint(rng, 7, 30), &stats);
    EXPECT_EQ(stats.records_considered, db.size());
    EXPECT_LE(stats.gamma_candidates, stats.records_considered);
    EXPECT_LE(stats.records_accepted + stats.records_bound_skipped,
              stats.gamma_candidates);
    EXPECT_EQ(stats.records_pruned,
              stats.records_considered - stats.records_accepted);
    skipped_total += stats.records_bound_skipped;
    // match_all never skips on the incumbent bound.
    MatchStats all_stats;
    (void)matcher.match_all(random_fingerprint(rng, 7, 30), &all_stats);
    EXPECT_EQ(all_stats.records_bound_skipped, 0u);
    EXPECT_EQ(all_stats.records_accepted, all_stats.gamma_candidates);
  }
  // The prescreen must actually fire on a crowded database.
  EXPECT_GT(skipped_total, 0u);
}

TEST(SimdMatcher, BoundSkippedFlowsIntoMetricsRegistry) {
  Rng rng(78);
  StopDatabase db;
  for (int r = 0; r < 40; ++r) {
    db.add(static_cast<StopId>(r + 1), random_fingerprint(rng, 7, 30));
  }
  StopMatcher matcher(db);
  MetricsRegistry registry;
  matcher.bind_metrics(&registry);
  MatchStats total;
  for (int q = 0; q < 60; ++q) {
    MatchStats stats;
    (void)matcher.match(random_fingerprint(rng, 7, 30), &stats);
    total.merge(stats);
  }
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("matcher.calls"), 60u);
  EXPECT_EQ(snap.counters.at("matcher.records_bound_skipped"),
            total.records_bound_skipped);
  EXPECT_EQ(snap.counters.at("matcher.records_accepted"),
            total.records_accepted);
}

// ------------------------------------------------- flat candidate path
//
// The index path (use_index on, SIMD on or off) walks the quantized view's
// CSR postings once, counting per record both the shared-cell occurrences
// (the γ bound) and the distinct common cells (the tie-break), and lists
// candidates in first-touch order. Every case below checks it against the
// brute-force scan on winner, score and common-cell count, and checks its
// γ-candidate count against a brute-force recount.

// Records whose shared-cell occurrence count (sample cell × occurrences in
// the record) lets them reach γ: min(shared, n, m) · match_score >= γ.
std::size_t brute_gamma_candidates(const StopDatabase& db,
                                   const Fingerprint& sample,
                                   const StopMatcherConfig& cfg) {
  std::size_t count = 0;
  for (const StopRecord& r : db.records()) {
    const std::vector<CellId>& cells = r.fingerprint.cells;
    std::size_t shared = 0;
    for (const CellId a : sample.cells) {
      shared +=
          static_cast<std::size_t>(std::count(cells.begin(), cells.end(), a));
    }
    const double bound =
        cfg.matching.match_score *
        static_cast<double>(std::min({shared, sample.size(), cells.size()}));
    if (bound >= cfg.accept_threshold) ++count;
  }
  return count;
}

// Checks both index corners against brute force; returns the SIMD corner's
// stats so callers can assert on the path's shape.
MatchStats expect_flat_path_matches_brute(const StopDatabase& db,
                                          const Fingerprint& sample) {
  StopMatcherConfig brute_cfg;
  brute_cfg.accel.use_index = false;
  brute_cfg.accel.use_simd = false;
  const auto ref = StopMatcher(db, brute_cfg).match(sample);
  const std::size_t gamma = brute_gamma_candidates(db, sample, brute_cfg);
  MatchStats simd_stats;
  for (const bool use_simd : {false, true}) {
    StopMatcherConfig cfg;
    cfg.accel.use_simd = use_simd;
    MatchStats stats;
    const auto got = StopMatcher(db, cfg).match(sample, &stats);
    EXPECT_EQ(got.has_value(), ref.has_value())
        << "simd " << use_simd << " sample " << to_string(sample);
    if (got && ref) {
      EXPECT_EQ(got->stop, ref->stop) << "simd " << use_simd;
      EXPECT_EQ(got->score, ref->score) << "simd " << use_simd;
      EXPECT_EQ(got->common_cells, ref->common_cells) << "simd " << use_simd;
    }
    EXPECT_EQ(stats.gamma_candidates, gamma)
        << "simd " << use_simd << " sample " << to_string(sample);
    if (use_simd) simd_stats = stats;
  }
  return simd_stats;
}

TEST(FlatPath, BitmapWordBoundaries) {
  // 63/64/65/129 records: database sizes on both sides of 64-record
  // blocks; probes copy the first and last record of each block.
  for (const int size : {63, 64, 65, 129}) {
    Rng rng(static_cast<std::uint64_t>(500 + size));
    StopDatabase db;
    for (int r = 0; r < size; ++r) {
      db.add(static_cast<StopId>(r + 1), random_fingerprint(rng, 7, 60));
    }
    for (const int r : {0, 62, 63, 64, size - 1}) {
      if (r >= size) continue;
      expect_flat_path_matches_brute(db, db.records()[r].fingerprint);
    }
    for (int q = 0; q < 40; ++q) {
      expect_flat_path_matches_brute(db, random_fingerprint(rng, 7, 60));
    }
  }
}

TEST(FlatPath, MetropolisShapeRunsSecondBatchAndPrescreen) {
  // One 7-cell length class and 17–28 survivors per sample, as on the
  // metropolis workload: the survivors overflow one 16-lane batch, and the
  // weak tail (2 shared cells, bound 2.0) is prescreened against the exact
  // copy of the probe at record 0 (score 7.0).
  const Fingerprint probe{{1, 2, 3, 4, 5, 6, 7}};
  StopDatabase db;
  db.add(1, probe);
  StopId next = 2;
  for (int r = 0; r < 15; ++r) {  // 3–4 shared cells, scrambled
    db.add(next++, Fingerprint{{4, 100 + r, 1, 200 + r, 7, 300 + r,
                                r % 2 == 0 ? 2 : 400 + r}});
  }
  for (int r = 0; r < 10; ++r) {  // exactly 2 shared cells
    db.add(next++, Fingerprint{{6, 500 + r, 600 + r, 3, 700 + r, 800 + r,
                                900 + r}});
  }
  for (int r = 0; r < 30; ++r) {  // unrelated records
    db.add(next++, Fingerprint{{1000 + 7 * r, 1001 + 7 * r, 1002 + 7 * r,
                                1003 + 7 * r, 1004 + 7 * r, 1005 + 7 * r,
                                1006 + 7 * r}});
  }
  const MatchStats stats = expect_flat_path_matches_brute(db, probe);
  EXPECT_GE(stats.gamma_candidates, 17u);
  EXPECT_LE(stats.gamma_candidates, 28u);
  EXPECT_GT(stats.records_bound_skipped, 0u);

  // Randomized variant: 7-cell records over a pool narrow enough that most
  // samples keep 17–28 survivors.
  Rng rng(601);
  StopDatabase crowded;
  for (int r = 0; r < 80; ++r) {
    crowded.add(static_cast<StopId>(r + 1), random_fingerprint(rng, 7, 70));
  }
  int in_band = 0;
  for (int q = 0; q < 60; ++q) {
    const MatchStats s =
        expect_flat_path_matches_brute(crowded, random_fingerprint(rng, 7, 70));
    in_band += s.gamma_candidates >= 17 && s.gamma_candidates <= 28;
  }
  EXPECT_GT(in_band, 0);
}

TEST(FlatPath, MixedLengthsDuplicatesAndUnknownCells) {
  // Lengths 1–9 in one database, cells drawn with replacement from a small
  // pool (duplicates inside records and samples), samples mixing in cells
  // the database never saw.
  Rng rng(602);
  for (int trial = 0; trial < 10; ++trial) {
    const int pool = rng.uniform_int(6, 20);
    StopDatabase db;
    const int records = rng.uniform_int(20, 90);
    for (int r = 0; r < records; ++r) {
      db.add(static_cast<StopId>(r + 1),
             random_fingerprint(rng, rng.uniform_int(1, 9), pool));
    }
    for (int q = 0; q < 25; ++q) {
      Fingerprint sample = random_fingerprint(rng, rng.uniform_int(0, 8), pool);
      const int unknown = rng.uniform_int(0, 2);
      for (int u = 0; u < unknown; ++u) {
        const int at = rng.uniform_int(0, static_cast<int>(sample.size()));
        sample.cells.insert(sample.cells.begin() + at,
                            pool + rng.uniform_int(1, 50));
      }
      expect_flat_path_matches_brute(db, sample);
    }
  }
  // Explicit duplicates on both sides: the shared count is per occurrence.
  StopDatabase db;
  db.add(1, Fingerprint{{5, 5, 6}});
  db.add(2, Fingerprint{{5, 6, 6, 7}});
  db.add(3, Fingerprint{{8, 5}});
  expect_flat_path_matches_brute(db, Fingerprint{{5, 5, 6, 9999}});
  expect_flat_path_matches_brute(db, Fingerprint{{6, 6, 5, 5}});
}

TEST(FlatPath, ScoreTiesResolveByCommonCountThenRecordOrder) {
  // Four records score exactly 2.0 against the probe (only "1,2" aligns in
  // order), with 2, 3, 4 and 2 common cells. The third wins on its common
  // count, although the first and second reach the tie before it.
  const Fingerprint probe{{1, 2, 3, 4}};
  StopDatabase db;
  db.add(10, Fingerprint{{1, 2}});
  db.add(11, Fingerprint{{1, 2, 7, 7, 7, 7, 4}});
  db.add(12, Fingerprint{{4, 3, 1, 2}});
  db.add(13, Fingerprint{{9, 1, 2}});
  for (const StopRecord& r : db.records()) {
    ASSERT_EQ(similarity(probe, r.fingerprint), 2.0) << r.stop;
  }
  const MatchStats stats = expect_flat_path_matches_brute(db, probe);
  EXPECT_EQ(stats.gamma_candidates, 4u);
  for (const bool use_simd : {false, true}) {
    StopMatcherConfig cfg;
    cfg.accel.use_simd = use_simd;
    const auto got = StopMatcher(db, cfg).match(probe);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->stop, 12);
    EXPECT_EQ(got->common_cells, 4);
  }
  // Equal score and equal common count: the earlier record keeps the win.
  StopDatabase twins;
  twins.add(20, Fingerprint{{1, 2, 8}});
  twins.add(21, Fingerprint{{1, 2, 3}});  // score 3.0, the winner
  twins.add(22, Fingerprint{{9, 1, 2, 3}});
  twins.add(23, Fingerprint{{1, 2, 3, 9}});
  expect_flat_path_matches_brute(twins, probe);
  EXPECT_EQ(StopMatcher(twins).match(probe)->stop, 21);
}

TEST(FlatPath, DuplicateCellsSplitOccurrenceAndCommonCounts) {
  // Record 0 repeats cell 1 and the probe repeats cell 2: they share 5
  // cell occurrences (the γ bound's count) but 3 common cells
  // (common_cell_count, which counts the probe's repeats). Record 1 passes
  // the occurrence bound on cell 1 alone, with 1 common cell, and scores
  // below γ.
  const Fingerprint probe{{1, 2, 2, 7}};
  StopDatabase db;
  db.add(10, Fingerprint{{1, 1, 1, 2}});
  db.add(11, Fingerprint{{1, 1, 1, 8}});
  db.add(12, Fingerprint{{5, 5, 6, 6}});
  ASSERT_EQ(common_cell_count(probe, db.records()[0].fingerprint), 3);
  ASSERT_EQ(common_cell_count(probe, db.records()[1].fingerprint), 1);
  ASSERT_LT(similarity(probe, db.records()[1].fingerprint), 2.0);
  const MatchStats stats = expect_flat_path_matches_brute(db, probe);
  EXPECT_EQ(stats.gamma_candidates, 2u);
  const MatcherSet set(db);
  expect_identical_results(set, probe);
  const auto got = StopMatcher(db).match(probe);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->stop, 10);
  EXPECT_EQ(got->common_cells, 3);

  // Randomized: tiny pools make most records and samples repeat cells.
  Rng rng(604);
  for (int trial = 0; trial < 10; ++trial) {
    StopDatabase dup;
    for (int r = 0; r < 40; ++r) {
      dup.add(static_cast<StopId>(r + 1),
              random_fingerprint(rng, rng.uniform_int(2, 9), 5));
    }
    const MatcherSet dup_set(dup);
    for (int q = 0; q < 20; ++q) {
      const Fingerprint sample = random_fingerprint(rng, rng.uniform_int(1, 8), 5);
      expect_flat_path_matches_brute(dup, sample);
      expect_identical_results(dup_set, sample);
    }
  }
}

TEST(FlatPath, ScoreTieGoesToTheLargerCommonCount) {
  // Both records score 2.0 against the probe. Record 0 is touched first
  // (through cell 7) and has the lower index, but record 1 has more common
  // cells (3 against 2), so record 1 wins.
  const Fingerprint probe{{7, 1, 2, 3}};
  StopDatabase db;
  db.add(30, Fingerprint{{7, 1, 9, 9}});
  db.add(31, Fingerprint{{3, 1, 2, 8}});
  for (const StopRecord& r : db.records()) {
    ASSERT_EQ(similarity(probe, r.fingerprint), 2.0) << r.stop;
  }
  expect_flat_path_matches_brute(db, probe);
  expect_identical_results(MatcherSet(db), probe);
  for (const bool use_simd : {false, true}) {
    StopMatcherConfig cfg;
    cfg.accel.use_simd = use_simd;
    const auto got = StopMatcher(db, cfg).match(probe);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->stop, 31) << "simd " << use_simd;
    EXPECT_EQ(got->common_cells, 3) << "simd " << use_simd;
  }
}

TEST(FlatPath, FullTieGoesToTheLowerRecordEvenWhenTouchedLater) {
  // Both records score 3.0 with 3 common cells. The probe's first cell (7)
  // touches record 1 before any cell touches record 0, so the walk lists
  // record 1 first; the lower record index still wins.
  const Fingerprint probe{{7, 1, 2, 3}};
  StopDatabase db;
  db.add(40, Fingerprint{{1, 2, 3, 8}});
  db.add(41, Fingerprint{{7, 1, 2, 9}});
  for (const StopRecord& r : db.records()) {
    ASSERT_EQ(similarity(probe, r.fingerprint), 3.0) << r.stop;
    ASSERT_EQ(common_cell_count(probe, r.fingerprint), 3) << r.stop;
  }
  expect_flat_path_matches_brute(db, probe);
  const MatcherSet set(db);
  expect_identical_results(set, probe);
  for (const StopMatcher& m : set.matchers) {
    const auto got = m.match(probe);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->stop, 40);
    // match_all breaks the same tie by stop id.
    const auto all = m.match_all(probe);
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].stop, 40);
    EXPECT_EQ(all[1].stop, 41);
  }
}

TEST(FlatPath, IndexServesDatabasesPastTheRankSpace) {
  // 5000 records × 7 distinct cells = 35000 distinct cells: past the int16
  // rank space, so the kernel is off, but the uint32-keyed index still
  // narrows candidates — including for cells whose ids are past 32767.
  StopDatabase db;
  for (int r = 0; r < 5000; ++r) {
    Fingerprint fp;
    for (int j = 0; j < 7; ++j) fp.cells.push_back(100000 + 7 * r + j);
    db.add(static_cast<StopId>(r + 1), fp);
  }
  ASSERT_FALSE(db.quantized().valid);
  ASSERT_GT(db.quantized().cell_count(), 32768u);
  // One 7-cell length class of distinct cells: ids follow record order.
  for (const int r : {0, 4681, 4682, 4999}) {
    for (int j = 0; j < 7; ++j) {
      EXPECT_EQ(db.quantized().id_of(100000 + 7 * r + j),
                static_cast<std::uint32_t>(7 * r + j));
    }
  }
  EXPECT_EQ(db.quantized().id_of(7), StopDatabase::QuantizedView::kNoId);
  EXPECT_FALSE(StopMatcher(db).simd_active());
  for (const int r : {0, 2500, 4700, 4999}) {
    Fingerprint sample = db.records()[r].fingerprint;
    sample.cells[3] = 7;  // unknown cell
    const MatchStats stats = expect_flat_path_matches_brute(db, sample);
    EXPECT_EQ(stats.gamma_candidates, 1u);
    EXPECT_EQ(stats.records_accepted, 1u);
    const auto got = StopMatcher(db).match(sample);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->stop, r + 1);
  }
}

TEST(FlatPath, AddAfterMatchRebuildsTheIndex) {
  Rng rng(603);
  StopDatabase db;
  for (int r = 0; r < 70; ++r) {
    db.add(static_cast<StopId>(r + 1), random_fingerprint(rng, 7, 50));
  }
  const Fingerprint probe{{901, 902, 903, 904, 905}};
  EXPECT_FALSE(StopMatcher(db).match(probe).has_value());
  expect_flat_path_matches_brute(db, probe);
  // A new record carrying cells the index has never seen.
  db.add(500, probe);
  expect_flat_path_matches_brute(db, probe);
  EXPECT_EQ(StopMatcher(db).match(probe)->stop, 500);
  // Replacing a record's fingerprint moves its postings.
  db.add(3, Fingerprint{{901, 902, 903, 904, 905, 906}});
  db.add(500, Fingerprint{{1, 2}});
  expect_flat_path_matches_brute(db, probe);
  EXPECT_EQ(StopMatcher(db).match(probe)->stop, 3);
  for (int q = 0; q < 20; ++q) {
    expect_flat_path_matches_brute(db, random_fingerprint(rng, 7, 50));
  }
}

// ------------------------------------------------- realistic stream digest
//
// The random-fingerprint sweeps above never produce the shape production
// runs: one 7-cell length class and about 13 γ-survivors per sample. This
// case matches every sample of a LodWorld day against the perfbench
// testbed database (default World, survey Rng(2024), 5 runs per stop,
// in-bus on odd runs) and pins an FNV-1a digest of every match() and
// match_all() result. The constants were taken before the kernel read
// candidate rows in place; they hold in the default, sanitizer and
// -DBUSSENSE_SIMD=OFF builds alike.

class Fnv1a {
 public:
  template <typename T>
  void mix(const T& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
  }
  void mix(const MatchResult& r) {
    mix(r.stop);
    mix(std::bit_cast<std::uint64_t>(r.score));
    mix(r.common_cells);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(RealisticStream, MatchDigestIsPinned) {
  const World world;
  Rng survey(2024);
  const StopDatabase db = build_stop_database(
      world.city(),
      [&](StopId stop, int run) {
        return world.scan_stop(stop, survey, run % 2 == 1);
      },
      5);
  LodConfig config;
  config.seed = 701;
  const LodWorld lod(world, 20'000, config);
  const StopMatcher matcher(db);
  Fnv1a best;
  Fnv1a all;
  std::size_t samples = 0;
  for (const LodTrip& trip : lod.simulate_day(0)) {
    for (const CellularSample& s : trip.trip.upload.samples) {
      ++samples;
      const auto m = matcher.match(s.fingerprint);
      best.mix(m.has_value());
      if (m) best.mix(*m);
      const auto list = matcher.match_all(s.fingerprint);
      all.mix(list.size());
      for (const MatchResult& r : list) all.mix(r);
    }
  }
  EXPECT_EQ(samples, 19133u);
  EXPECT_EQ(best.value(), 7558126730761040135ULL);
  EXPECT_EQ(all.value(), 5335822050309181043ULL);
}

// ------------------------------------------------- scratch retention cap

TEST(SimdMatcher, CandidateScratchShrinksAfterHugeDatabase) {
  // A single call against a >2^16-record database grows the thread-local
  // candidate scratch; the next call against a small database must give the
  // memory back (DESIGN.md §12 retention cap).
  constexpr std::size_t kHuge = (std::size_t{1} << 16) + 500;
  StopDatabase huge;
  for (std::size_t r = 0; r < kHuge; ++r) {
    huge.add(static_cast<StopId>(r + 1),
             Fingerprint{{static_cast<CellId>(1 + (r % 97)),
                          static_cast<CellId>(200 + (r % 89))}});
  }
  const StopMatcher big_matcher(huge);
  (void)big_matcher.match(Fingerprint{{5, 205, 7}});
  EXPECT_GE(StopMatcher::thread_scratch_capacity(), kHuge);

  StopDatabase small;
  small.add(1, Fingerprint{{5, 205, 7}});
  const StopMatcher small_matcher(small);
  const auto hit = small_matcher.match(Fingerprint{{5, 205, 7}});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->stop, 1);
  EXPECT_LE(StopMatcher::thread_scratch_capacity(),
            std::size_t{1} << 16);
}

TEST(SimdMatcher, ScratchCapHoldsOnEveryScratchPath) {
  // The scalar index path and the brute-force batch path use the same
  // database-sized scratch as the default path; each must give it back.
  constexpr std::size_t kHuge = (std::size_t{1} << 16) + 500;
  StopDatabase huge;
  for (std::size_t r = 0; r < kHuge; ++r) {
    huge.add(static_cast<StopId>(r + 1),
             Fingerprint{{static_cast<CellId>(1 + (r % 97)),
                          static_cast<CellId>(200 + (r % 89))}});
  }
  StopDatabase small;
  small.add(1, Fingerprint{{5, 205, 7}});
  StopMatcherConfig scalar_index;
  scalar_index.accel.use_simd = false;
  StopMatcherConfig brute_batch;
  brute_batch.accel.use_index = false;
  for (const StopMatcherConfig& cfg : {scalar_index, brute_batch}) {
    (void)StopMatcher(huge, cfg).match(Fingerprint{{5, 205, 7}});
    const auto hit = StopMatcher(small, cfg).match(Fingerprint{{5, 205, 7}});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->stop, 1);
    EXPECT_LE(StopMatcher::thread_scratch_capacity(), std::size_t{1} << 16);
  }
}

}  // namespace
}  // namespace bussense
