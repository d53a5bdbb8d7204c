// Bus stop fingerprint database (paper Sections III-B, IV-A).
//
// Keys are *effective* stop ids: opposite-side twins are aggregated into
// one entry, since their fingerprints are nearly identical and the travel
// direction disambiguates the side when mapping traffic (paper III-A). The
// database is built by surveying each stop several times and storing the
// sample with the highest total similarity to the rest (the medoid) — the
// paper's "the sample with the highest similarity with the rest samples is
// chosen as the fingerprint".
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cellular/fingerprint.h"
#include "citynet/city.h"
#include "core/matching.h"
#include "core/matching_simd.h"

namespace bussense {

struct StopRecord {
  StopId stop = kInvalidStop;  ///< effective stop id
  Fingerprint fingerprint;
};

class StopDatabase {
 public:
  StopDatabase() = default;
  // The quantized-view cache (mutex/atomic/unique_ptr) is per-instance and
  // rebuilt lazily, so copies/moves transfer only the logical state.
  StopDatabase(const StopDatabase& other);
  StopDatabase& operator=(const StopDatabase& other);
  StopDatabase(StopDatabase&& other) noexcept;
  StopDatabase& operator=(StopDatabase&& other) noexcept;

  /// Adds or replaces the fingerprint of an effective stop.
  void add(StopId effective_stop, Fingerprint fingerprint);

  const std::vector<StopRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  const Fingerprint* fingerprint_of(StopId effective_stop) const;

  /// Quantized SoA mirror of records() plus its inverted cell index
  /// (DESIGN.md §12), built lazily in one pass. Every distinct cell ID gets a
  /// dense uint32 id through a DB-owned flat dictionary (first-encounter
  /// order, injective). The id keys a CSR posting list (records carrying the
  /// cell) and, while it fits int16, doubles as the cell's *rank* for the
  /// batch-scoring kernel (core/matching_simd.h). Rank arrays are stored
  /// contiguously grouped by fingerprint-length class and followed by a
  /// tail of kPadRank: the kernel reads each candidate's row in place, the
  /// tail is the row of every unused lane and the margin for its 8-wide
  /// loads past the last record. Equality is preserved exactly, so
  /// rank-space alignment scores equal cell-ID-space scores bitwise.
  struct QuantizedView {
    /// Dense id of a cell the database never saw.
    static constexpr std::uint32_t kNoId = 0xFFFFFFFFu;
    /// Ids below this double as int16 kernel ranks (negatives are the
    /// sentinels in core/matching_simd.h).
    static constexpr std::uint32_t kRankSpace = 32768;

    /// One entry per records() position.
    struct RecordRef {
      std::uint32_t offset = 0;  ///< start of this record's ranks
      std::uint32_t length = 0;  ///< fingerprint length in cells
    };

    /// One slot of the flat dictionary; id kNoId marks it empty.
    struct DictSlot {
      CellId cell = 0;
      std::uint32_t id = kNoId;
    };

    /// False when the dictionary outgrew the rank space (> kRankSpace
    /// distinct cell IDs): the batch kernel must not run, but the dictionary
    /// and the posting lists stay complete. The paper's whole-city
    /// deployments sit 4 orders of magnitude below the cap.
    bool valid = false;
    /// All fingerprints, length-grouped, then at least roundup8(longest
    /// fingerprint) + 8 kPadRank entries from pad_offset on.
    std::vector<std::int16_t> ranks;
    std::uint32_t pad_offset = 0;  ///< start of the kPadRank tail
    std::vector<RecordRef> record;  ///< indexed by record position
    /// Cell → id: open addressing over a power-of-two table at most half
    /// full, multiplicative-hash home slots, linear probing.
    std::vector<DictSlot> dictionary = std::vector<DictSlot>(2);
    unsigned dictionary_shift = 63;  ///< 64 − log2(dictionary.size())
    std::uint32_t cells = 0;         ///< distinct cells (occupied slots)
    /// Posting lists: post_rec[post_off[id] .. post_off[id + 1]) are the
    /// records whose fingerprint contains cell `id`, ascending, one entry
    /// per occurrence (a cell duplicated in a fingerprint posts twice).
    std::vector<std::uint32_t> post_off;
    std::vector<std::uint32_t> post_rec;

    std::size_t cell_count() const { return cells; }
    /// Slot where the probe for `cell` starts.
    std::size_t home_slot(CellId cell) const {
      return static_cast<std::size_t>(
          (std::uint64_t{static_cast<std::uint32_t>(cell)} *
           0x9E3779B97F4A7C15ULL) >>
          dictionary_shift);
    }
    /// Dense id of an upload cell; kNoId when the database never saw it.
    std::uint32_t id_of(CellId cell) const {
      const std::size_t mask = dictionary.size() - 1;
      for (std::size_t i = home_slot(cell);; i = (i + 1) & mask) {
        const DictSlot& slot = dictionary[i];
        if (slot.cell == cell || slot.id == kNoId) return slot.id;
      }
    }
    /// Kernel rank of a dense id: the id itself while it fits int16,
    /// simd::kUnknownRank for kNoId (compares unequal to every stored rank
    /// by design) and for ids past the rank space (only when !valid).
    static std::int16_t rank_of_id(std::uint32_t id) {
      return id < kRankSpace ? static_cast<std::int16_t>(id)
                             : simd::kUnknownRank;
    }
    std::int16_t rank_of(CellId cell) const { return rank_of_id(id_of(cell)); }
    /// The kPadRank row an unused kernel lane reads.
    const std::int16_t* pad_row() const { return ranks.data() + pad_offset; }
  };

  /// The quantized view and index, built lazily on first use. Concurrent
  /// readers are safe (double-checked build under a mutex); add()
  /// invalidates the view and, like all mutation, must not race readers.
  const QuantizedView& quantized() const;

 private:
  void build_quantized(QuantizedView& view) const;

  std::vector<StopRecord> records_;
  std::unordered_map<StopId, std::size_t> index_;

  mutable std::mutex quantized_mutex_;
  mutable std::unique_ptr<QuantizedView> quantized_;
  mutable std::atomic<bool> quantized_ready_{false};
};

/// Medoid selection: the sample with the highest summed similarity to the
/// other samples. Precondition: samples not empty.
Fingerprint select_representative(const std::vector<Fingerprint>& samples,
                                  const MatchingConfig& config = {});

/// Builds a database for every effective stop of `city`. `scan` is invoked
/// `runs_per_stop` times per effective stop (run index passed through) and
/// should return one survey fingerprint — benches wire it to
/// World::scan_stop.
StopDatabase build_stop_database(
    const City& city,
    const std::function<Fingerprint(StopId stop, int run)>& scan,
    int runs_per_stop, const MatchingConfig& config = {});

}  // namespace bussense
