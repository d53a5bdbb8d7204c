// Bounds-checked little-endian reader over a byte span: the decode side of
// the WAL frames (trip_log.cpp) and of checkpoints (checkpoint.cpp).
// Internal to bussense_core; no public header includes it.
//
// Every read returns false when the span runs out or the field is
// malformed, so a decoder rejects torn or bit-flipped input with one check
// per field.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace bussense::wire {

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool u8(std::uint8_t* v) {
    if (size - pos < 1) return false;
    *v = data[pos++];
    return true;
  }
  bool u16(std::uint16_t* v) {
    if (size - pos < 2) return false;
    *v = static_cast<std::uint16_t>(data[pos] |
                                    (static_cast<std::uint16_t>(data[pos + 1])
                                     << 8));
    pos += 2;
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (size - pos < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
            << (8 * i);
    }
    pos += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (size - pos < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
            << (8 * i);
    }
    pos += 8;
    return true;
  }
  bool f64(double* v) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof *v);
    return true;
  }
  /// LEB128: 7 value bits per byte, high bit = continuation; rejects
  /// encodings wider than 32 bits.
  bool varint(std::uint32_t* v) {
    *v = 0;
    for (int shift = 0; shift < 35; shift += 7) {
      if (pos >= size) return false;
      const std::uint8_t byte = data[pos++];
      if (shift == 28 && (byte & ~0x0fu)) return false;  // > 32 bits
      *v |= static_cast<std::uint32_t>(byte & 0x7fu) << shift;
      if (!(byte & 0x80u)) return true;
    }
    return false;
  }
  /// A u32 element count. Guards against bit-flipped counts driving huge
  /// allocations: every element of the counted sequence costs at least
  /// `min_bytes`, so a count the rest of the span cannot hold is rejected.
  bool count(std::uint32_t* v, std::size_t min_bytes) {
    if (!u32(v)) return false;
    return *v <= (size - pos) / std::max<std::size_t>(1, min_bytes);
  }
};

}  // namespace bussense::wire
