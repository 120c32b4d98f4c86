#include "render/compositor.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/hash.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace rave::render {

using util::make_error;
using util::Result;
using util::Status;

namespace {
// Per-pixel "keep the nearer sample" merge, one row at a time through the
// SIMD depth-compare/select kernel. Pure compare + copy, so every lane
// width produces identical bytes; the level is resolved once per composite
// and shared by all bands.
void composite_rows(FrameBuffer& dst, const FrameBuffer& src, int y0, int y1,
                    util::SimdLevel level) {
  const int width = dst.width();
  for (int y = y0; y < y1; ++y) {
    util::simd::depth_select_row(dst.depth_row(y), src.depth_row(y), dst.color_row(y),
                                 src.color_row(y), width, level);
  }
}

// XXH64 (Collet's xxHash, 64-bit variant) for one pixel row: four
// independent 8-byte lanes per 32-byte stripe, so the multiplies pipeline
// instead of forming one dependent chain per byte. Plain scalar code with
// explicit little-endian loads — the value is the same on every host and
// at every RAVE_SIMD level.
constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

uint64_t load_le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

uint64_t load_le32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

uint64_t xx_round(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kXxPrime2, 31) * kXxPrime1;
}

uint64_t xx_merge(uint64_t h, uint64_t lane) {
  return (h ^ xx_round(0, lane)) * kXxPrime1 + kXxPrime4;
}

uint64_t xxh64(const uint8_t* p, size_t n, uint64_t seed) {
  const uint8_t* const end = p + n;
  uint64_t h;
  if (n >= 32) {
    uint64_t v1 = seed + kXxPrime1 + kXxPrime2, v2 = seed + kXxPrime2, v3 = seed,
             v4 = seed - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xx_round(v1, load_le64(p));
      v2 = xx_round(v2, load_le64(p + 8));
      v3 = xx_round(v3, load_le64(p + 16));
      v4 = xx_round(v4, load_le64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
    h = xx_merge(xx_merge(xx_merge(xx_merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kXxPrime5;
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ xx_round(0, load_le64(p)), 27) * kXxPrime1 + kXxPrime4;
  if (end - p >= 4) {
    h = std::rotl(h ^ load_le32(p) * kXxPrime1, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ *p * kXxPrime5, 11) * kXxPrime1;
  h = (h ^ (h >> 33)) * kXxPrime2;
  h = (h ^ (h >> 29)) * kXxPrime3;
  return h ^ (h >> 32);
}
}  // namespace

Status depth_composite(FrameBuffer& dst, const FrameBuffer& src, util::ThreadPool* pool) {
  if (dst.width() != src.width() || dst.height() != src.height())
    return make_error("depth_composite: size mismatch");
  const int height = dst.height();
  const util::SimdLevel level = util::active_simd_level();
  if (pool == nullptr || height < 2) {
    composite_rows(dst, src, 0, height, level);
    return {};
  }
  // Disjoint row bands; per-pixel merges are independent, so banding
  // cannot change the result.
  const int bands = std::min<int>(height, static_cast<int>(pool->size()) * 4);
  pool->parallel_for(static_cast<size_t>(bands), [&](size_t band) {
    const int y0 = height * static_cast<int>(band) / bands;
    const int y1 = height * (static_cast<int>(band) + 1) / bands;
    composite_rows(dst, src, y0, y1, level);
  });
  return {};
}

Result<FrameBuffer> depth_composite_all(std::vector<FrameBuffer> buffers,
                                        util::ThreadPool* pool) {
  if (buffers.empty()) return make_error("depth_composite_all: no buffers");
  FrameBuffer out = std::move(buffers.front());
  for (size_t i = 1; i < buffers.size(); ++i) {
    const Status st = depth_composite(out, buffers[i], pool);
    if (!st.ok()) return make_error(st.error());
  }
  return out;
}

Status assemble_tiles(FrameBuffer& dst, const std::vector<TileResult>& tiles) {
  for (const TileResult& t : tiles) {
    if (t.buffer.width() != t.tile.width || t.buffer.height() != t.tile.height)
      return make_error("assemble_tiles: tile buffer size mismatch");
    dst.insert(t.tile, t.buffer);
  }
  return {};
}

Status blend_ordered(Image& dst, std::vector<BlendLayer> layers) {
  for (const BlendLayer& l : layers) {
    if (l.color.width != dst.width || l.color.height != dst.height ||
        l.alpha.size() != static_cast<size_t>(dst.width) * dst.height)
      return make_error("blend_ordered: layer size mismatch");
  }
  std::sort(layers.begin(), layers.end(), [](const BlendLayer& a, const BlendLayer& b) {
    return a.view_distance > b.view_distance;  // farthest first
  });
  for (const BlendLayer& l : layers) {
    for (size_t p = 0; p < l.alpha.size(); ++p) {
      const float a = std::clamp(l.alpha[p], 0.0f, 1.0f);
      if (a <= 0.0f) continue;
      for (int c = 0; c < 3; ++c) {
        const float src = static_cast<float>(l.color.rgb[p * 3 + static_cast<size_t>(c)]);
        const float old = static_cast<float>(dst.rgb[p * 3 + static_cast<size_t>(c)]);
        dst.rgb[p * 3 + static_cast<size_t>(c)] =
            static_cast<uint8_t>(std::clamp(src * a + old * (1.0f - a), 0.0f, 255.0f));
      }
    }
  }
  return {};
}

uint64_t hash_tile(const Image& image, const Tile& tile) {
  uint64_t h = util::kFnvOffsetBasis;
  h = util::fnv1a_u32(h, static_cast<uint32_t>(tile.width));
  h = util::fnv1a_u32(h, static_cast<uint32_t>(tile.height));
  for (int y = tile.y; y < tile.bottom(); ++y)
    h = xxh64(image.pixel(tile.x, y), static_cast<size_t>(tile.width) * 3, h);
  return h;
}

std::vector<uint64_t> hash_tiles(const Image& image, const std::vector<Tile>& tiles) {
  std::vector<uint64_t> hashes;
  hashes.reserve(tiles.size());
  for (const Tile& tile : tiles) hashes.push_back(hash_tile(image, tile));
  return hashes;
}

uint64_t hash_image(const Image& image) {
  return hash_tile(image, Tile{0, 0, image.width, image.height});
}

}  // namespace rave::render
