// Little-endian encode and bounds-checked decode of the WAL frames
// (trip_log.cpp) and checkpoints (checkpoint.cpp), and the file I/O both
// share. Internal to bussense_core; no public header includes it.
//
// put_* store through a cursor into pre-sized memory (see `grow`) and
// return the cursor past what they wrote. Every Reader read returns false
// when the span runs out or the field is malformed, so a decoder rejects
// torn or bit-flipped input with one check per field.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace bussense::wire {

inline std::uint8_t* put_u16(std::uint8_t* p, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 2;
}

inline std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 4;
}

inline std::uint8_t* put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return p + 8;
}

inline std::uint8_t* put_f64(std::uint8_t* p, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return put_u64(p, bits);
}

// LEB128: 7 value bits per byte, high bit = continuation. Cell ids are
// small integers, so this is 1–2 bytes against a fixed u32 — and WAL bytes
// are what both the buffered write and the fsync dirty-data flush cost.
inline std::size_t varint_size(std::uint32_t v) {
  std::size_t n = 1;
  while (v >= 0x80u) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline std::uint8_t* put_varint(std::uint8_t* p, std::uint32_t v) {
  while (v >= 0x80u) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Grows `out` by `n` bytes and returns the cursor to the first of them.
inline std::uint8_t* grow(std::vector<std::uint8_t>& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

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
  /// LEB128 (see put_varint); rejects encodings wider than 32 bits.
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

/// Writes all `size` bytes, retrying short writes and EINTR. 0 or the
/// errno of the failed call.
inline int write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    written += static_cast<std::size_t>(n);
  }
  return 0;
}

/// The whole file into `out`; false when it cannot be opened (missing).
inline bool read_file(const std::string& path, std::vector<std::uint8_t>* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  out->assign(std::istreambuf_iterator<char>(is),
              std::istreambuf_iterator<char>());
  return true;
}

}  // namespace bussense::wire
