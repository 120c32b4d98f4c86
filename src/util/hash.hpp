// FNV-1a 64 for content hashes of small or one-off byte runs (an encoded
// image's content_hash, digests): a pure byte walk, so the hash is
// identical across SIMD levels, thread counts and hosts by construction —
// the property the content-addressed tile cache's determinism argument
// rests on (DESIGN.md). Pixel tiles, hashed on every frame, use the
// word-at-a-time render::hash_tile instead.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rave::util {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

[[nodiscard]] inline uint64_t fnv1a(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

// Fold a fixed-width integer in little-endian byte order, so the hash does
// not depend on host endianness.
[[nodiscard]] inline uint64_t fnv1a_u32(uint64_t h, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    h ^= static_cast<uint8_t>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

[[nodiscard]] inline uint64_t fnv1a_u64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint8_t>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace rave::util
