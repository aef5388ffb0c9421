// Little-endian byte codec shared by the WAL and checkpoint formats: the
// integer/rect/cluster-image encoders, a bounds-checked reader, and the
// whole-file read both decoders start from. One copy keeps the two formats
// byte-compatible with each other by construction (a cluster image in a
// WAL batch and in a checkpoint is the same byte sequence).
//
// Internal to src/durability.

#ifndef NELA_DURABILITY_CODEC_H_
#define NELA_DURABILITY_CODEC_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "geo/rect.h"
#include "graph/wpg.h"
#include "util/hash.h"
#include "util/status.h"

namespace nela::durability::codec {

inline void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void PutU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

inline void PutU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

// [4 x u64 coordinate bits]: min_x, min_y, max_x, max_y.
inline void PutRect(std::string* out, const geo::Rect& rect) {
  PutU64(out, util::DoubleBits(rect.min_x()));
  PutU64(out, util::DoubleBits(rect.min_y()));
  PutU64(out, util::DoubleBits(rect.max_x()));
  PutU64(out, util::DoubleBits(rect.max_y()));
}

// [u32 n][n x u32 member][u64 connectivity_bits][u8 valid].
inline constexpr size_t kMinClusterBytes = 4 + 8 + 1;  // zero members
inline void PutCluster(std::string* out,
                       const std::vector<graph::VertexId>& members,
                       double connectivity, bool valid) {
  PutU32(out, static_cast<uint32_t>(members.size()));
  for (graph::VertexId member : members) PutU32(out, member);
  PutU64(out, util::DoubleBits(connectivity));
  PutU8(out, valid ? 1 : 0);
}

// Cursor over a byte buffer; every Take checks the remaining length and
// returns false (consuming nothing useful) when the input is short.
struct Reader {
  const unsigned char* data;
  size_t size;
  size_t pos = 0;

  Reader(const char* bytes, size_t length)
      : data(reinterpret_cast<const unsigned char*>(bytes)), size(length) {}

  size_t remaining() const { return size - pos; }

  bool TakeU8(uint8_t* value) {
    if (pos + 1 > size) return false;
    *value = data[pos++];
    return true;
  }
  bool TakeU32(uint32_t* value) {
    if (pos + 4 > size) return false;
    *value = 0;
    for (int i = 0; i < 4; ++i) {
      *value |= static_cast<uint32_t>(data[pos + static_cast<size_t>(i)])
                << (8 * i);
    }
    pos += 4;
    return true;
  }
  bool TakeU64(uint64_t* value) {
    if (pos + 8 > size) return false;
    *value = 0;
    for (int i = 0; i < 8; ++i) {
      *value |= static_cast<uint64_t>(data[pos + static_cast<size_t>(i)])
                << (8 * i);
    }
    pos += 8;
    return true;
  }
  // Also false for bytes no geo::Rect can hold (min > max, or a NaN
  // coordinate: hence the negated comparisons), so hostile input fails the
  // decode instead of aborting in the constructor's check.
  bool TakeRect(geo::Rect* rect) {
    uint64_t bits[4] = {0, 0, 0, 0};
    if (!TakeU64(&bits[0]) || !TakeU64(&bits[1]) || !TakeU64(&bits[2]) ||
        !TakeU64(&bits[3])) {
      return false;
    }
    const double min_x = util::DoubleFromBits(bits[0]);
    const double min_y = util::DoubleFromBits(bits[1]);
    const double max_x = util::DoubleFromBits(bits[2]);
    const double max_y = util::DoubleFromBits(bits[3]);
    if (!(min_x <= max_x) || !(min_y <= max_y)) return false;
    *rect = geo::Rect(min_x, min_y, max_x, max_y);
    return true;
  }
  // Inverse of PutCluster. The member reservation is capped by the bytes
  // left, so a corrupt count cannot trigger a huge allocation (callers
  // reserving per-cluster slots cap the same way, by kMinClusterBytes).
  bool TakeCluster(std::vector<graph::VertexId>* members,
                   double* connectivity, bool* valid) {
    uint32_t member_count = 0;
    if (!TakeU32(&member_count)) return false;
    members->reserve(std::min<size_t>(member_count, remaining() / 4));
    for (uint32_t i = 0; i < member_count; ++i) {
      uint32_t member = 0;
      if (!TakeU32(&member)) return false;
      members->push_back(member);
    }
    uint64_t connectivity_bits = 0;
    uint8_t valid_byte = 0;
    if (!TakeU64(&connectivity_bits) || !TakeU8(&valid_byte)) return false;
    *connectivity = util::DoubleFromBits(connectivity_bits);
    *valid = valid_byte != 0;
    return true;
  }
};

// Reads all of `path`; kNotFound when it cannot be opened.
inline util::Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return util::NotFoundError("cannot open file: " + path);
  }
  std::string contents;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return util::UnavailableError("read error on file: " + path);
  }
  return contents;
}

}  // namespace nela::durability::codec

#endif  // NELA_DURABILITY_CODEC_H_
