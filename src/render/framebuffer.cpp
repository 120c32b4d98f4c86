#include "render/framebuffer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "util/serial.hpp"
#include "util/simd.hpp"

namespace rave::render {

using util::make_error;
using util::Result;
using util::Status;

std::vector<Tile> split_tiles(int width, int height, int count) {
  std::vector<Tile> tiles;
  if (count <= 0 || width <= 0 || height <= 0) return tiles;
  // Near-square grid: cols * rows >= count, aspect-aware.
  int cols = std::max(1, static_cast<int>(std::round(
                             std::sqrt(static_cast<double>(count) * width / height))));
  cols = std::min(cols, count);
  const int rows = (count + cols - 1) / cols;
  // Distribute; the last row may have fewer tiles.
  int made = 0;
  for (int r = 0; r < rows && made < count; ++r) {
    const int row_tiles = std::min(cols, count - made);
    const int y0 = height * r / rows;
    const int y1 = height * (r + 1) / rows;
    for (int c = 0; c < row_tiles; ++c) {
      const int x0 = width * c / row_tiles;
      const int x1 = width * (c + 1) / row_tiles;
      tiles.push_back({x0, y0, x1 - x0, y1 - y0});
      ++made;
    }
  }
  return tiles;
}

std::vector<Tile> split_tiles_weighted(int width, int height,
                                       const std::vector<double>& weights) {
  std::vector<Tile> tiles;
  double total = 0;
  for (double w : weights) total += std::max(w, 0.0);
  if (total <= 0 || weights.empty()) return split_tiles(width, height, 1);
  double acc = 0;
  int y_prev = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += std::max(weights[i], 0.0);
    const int y_next =
        i + 1 == weights.size() ? height : static_cast<int>(std::round(height * acc / total));
    tiles.push_back({0, y_prev, width, std::max(0, y_next - y_prev)});
    y_prev = y_next;
  }
  return tiles;
}

std::vector<Tile> tile_grid(int width, int height, int tile_size) {
  std::vector<Tile> tiles;
  if (width <= 0 || height <= 0) return tiles;
  if (tile_size <= 0) tile_size = std::max(width, height);
  for (int y = 0; y < height; y += tile_size) {
    const int h = std::min(tile_size, height - y);
    for (int x = 0; x < width; x += tile_size) {
      tiles.push_back({x, y, std::min(tile_size, width - x), h});
    }
  }
  return tiles;
}

Image Image::extract(const Tile& tile) const {
  Image out(tile.width, tile.height);
  for (int y = 0; y < tile.height; ++y) {
    const int sy = tile.y + y;
    if (sy < 0 || sy >= height) continue;
    const int x0 = std::max(0, -tile.x);
    const int x1 = std::min(tile.width, width - tile.x);
    if (x1 <= x0) continue;
    std::memcpy(&out.rgb[(static_cast<size_t>(y) * tile.width + x0) * 3],
                &rgb[(static_cast<size_t>(sy) * width + tile.x + x0) * 3],
                static_cast<size_t>(x1 - x0) * 3);
  }
  return out;
}

void Image::insert(const Tile& tile, const Image& src) {
  for (int y = 0; y < tile.height && y < src.height; ++y) {
    const int dy = tile.y + y;
    if (dy < 0 || dy >= height) continue;
    const int x0 = std::max(0, -tile.x);
    const int x1 = std::min({tile.width, src.width, width - tile.x});
    if (x1 <= x0) continue;
    std::memcpy(&rgb[(static_cast<size_t>(dy) * width + tile.x + x0) * 3],
                &src.rgb[(static_cast<size_t>(y) * src.width + x0) * 3],
                static_cast<size_t>(x1 - x0) * 3);
  }
}

uint64_t Image::diff_pixels(const Image& other) const {
  if (width != other.width || height != other.height)
    return static_cast<uint64_t>(width) * height;  // dimension mismatch: all differ
  uint64_t diff = 0;
  for (size_t i = 0; i + 2 < rgb.size(); i += 3) {
    if (rgb[i] != other.rgb[i] || rgb[i + 1] != other.rgb[i + 1] || rgb[i + 2] != other.rgb[i + 2])
      ++diff;
  }
  return diff;
}

FrameBuffer::FrameBuffer(int width, int height)
    : width_(width),
      height_(height),
      color_(static_cast<size_t>(width) * height * 3, 0),
      depth_(static_cast<size_t>(width) * height, 1.0f) {}

void FrameBuffer::clear(const util::Vec3& color) {
  const auto to_byte = [](float v) {
    return static_cast<uint8_t>(std::clamp(v, 0.0f, 1.0f) * 255.0f + 0.5f);
  };
  const util::SimdLevel level = util::active_simd_level();
  util::simd::fill_rgb(color_.data(), static_cast<size_t>(width_) * height_,
                       to_byte(color.x), to_byte(color.y), to_byte(color.z), level);
  util::simd::fill_f32(depth_.data(), depth_.size(), 1.0f, level);
}

void FrameBuffer::fill_color_row(int x, int y, int count, uint8_t r, uint8_t g, uint8_t b) {
  if (count <= 0) return;
  util::simd::fill_rgb(color_row(y) + static_cast<size_t>(x) * 3,
                       static_cast<size_t>(count), r, g, b, util::active_simd_level());
}

void FrameBuffer::fill_depth_row(int x, int y, int count, float d) {
  if (count <= 0) return;
  util::simd::fill_f32(depth_row(y) + x, static_cast<size_t>(count), d,
                       util::active_simd_level());
}

Image FrameBuffer::to_image() const {
  Image img(width_, height_);
  img.rgb = color_;
  return img;
}

FrameBuffer FrameBuffer::extract(const Tile& tile) const {
  FrameBuffer out(tile.width, tile.height);
  for (int y = 0; y < tile.height; ++y) {
    const int sy = tile.y + y;
    if (sy < 0 || sy >= height_) continue;
    const int x0 = std::max(0, -tile.x);
    const int x1 = std::min(tile.width, width_ - tile.x);
    if (x1 <= x0) continue;
    std::memcpy(&out.color_[(static_cast<size_t>(y) * tile.width + x0) * 3],
                &color_[(static_cast<size_t>(sy) * width_ + tile.x + x0) * 3],
                static_cast<size_t>(x1 - x0) * 3);
    std::memcpy(&out.depth_[static_cast<size_t>(y) * tile.width + x0],
                &depth_[static_cast<size_t>(sy) * width_ + tile.x + x0],
                static_cast<size_t>(x1 - x0) * sizeof(float));
  }
  return out;
}

void FrameBuffer::insert(const Tile& tile, const FrameBuffer& src) {
  for (int y = 0; y < tile.height && y < src.height_; ++y) {
    const int dy = tile.y + y;
    if (dy < 0 || dy >= height_) continue;
    const int x0 = std::max(0, -tile.x);
    const int x1 = std::min({tile.width, src.width_, width_ - tile.x});
    if (x1 <= x0) continue;
    std::memcpy(&color_[(static_cast<size_t>(dy) * width_ + tile.x + x0) * 3],
                &src.color_[(static_cast<size_t>(y) * src.width_ + x0) * 3],
                static_cast<size_t>(x1 - x0) * 3);
    std::memcpy(&depth_[static_cast<size_t>(dy) * width_ + tile.x + x0],
                &src.depth_[static_cast<size_t>(y) * src.width_ + x0],
                static_cast<size_t>(x1 - x0) * sizeof(float));
  }
}

std::vector<uint8_t> FrameBuffer::serialize() const {
  util::ByteWriter w;
  w.i32(width_);
  w.i32(height_);
  w.bytes(color_);
  w.f32_span(depth_);
  return w.take();
}

Result<FrameBuffer> FrameBuffer::deserialize(std::span<const uint8_t> data) {
  util::ByteReader r(data);
  const int w = r.i32();
  const int h = r.i32();
  if (!r.ok() || w < 0 || h < 0 || static_cast<int64_t>(w) * h > (1 << 26))
    return make_error("framebuffer: bad dimensions");
  // The header comes from a peer: check that the payload holds both planes
  // (a u32 length and 3 bytes per pixel, a u32 length and 4 bytes per
  // pixel) before allocating anything for them.
  const size_t pixels = static_cast<size_t>(w) * h;
  if (r.remaining() < 8 + pixels * 7) return make_error("framebuffer: truncated planes");
  FrameBuffer fb(0, 0);
  fb.width_ = w;
  fb.height_ = h;
  fb.color_ = r.bytes();
  fb.depth_ = r.f32_span();
  if (!r.ok() || fb.color_.size() != pixels * 3 || fb.depth_.size() != pixels)
    return make_error("framebuffer: truncated planes");
  return fb;
}

Image scale_nearest(const Image& src, int width, int height) {
  Image out(width, height);
  if (src.width <= 0 || src.height <= 0) return out;
  for (int y = 0; y < height; ++y) {
    const int sy = std::min(src.height - 1, y * src.height / height);
    for (int x = 0; x < width; ++x) {
      const int sx = std::min(src.width - 1, x * src.width / width);
      const uint8_t* p = src.pixel(sx, sy);
      out.set_pixel(x, y, p[0], p[1], p[2]);
    }
  }
  return out;
}

Image scale_bilinear(const Image& src, int width, int height) {
  Image out(width, height);
  if (src.width <= 0 || src.height <= 0) return out;
  for (int y = 0; y < height; ++y) {
    const float fy = (static_cast<float>(y) + 0.5f) * src.height / height - 0.5f;
    const int y0 = std::clamp(static_cast<int>(std::floor(fy)), 0, src.height - 1);
    const int y1 = std::min(y0 + 1, src.height - 1);
    const float ty = std::clamp(fy - static_cast<float>(y0), 0.0f, 1.0f);
    for (int x = 0; x < width; ++x) {
      const float fx = (static_cast<float>(x) + 0.5f) * src.width / width - 0.5f;
      const int x0 = std::clamp(static_cast<int>(std::floor(fx)), 0, src.width - 1);
      const int x1 = std::min(x0 + 1, src.width - 1);
      const float tx = std::clamp(fx - static_cast<float>(x0), 0.0f, 1.0f);
      for (int c = 0; c < 3; ++c) {
        const float top = static_cast<float>(src.pixel(x0, y0)[c]) * (1 - tx) +
                          static_cast<float>(src.pixel(x1, y0)[c]) * tx;
        const float bottom = static_cast<float>(src.pixel(x0, y1)[c]) * (1 - tx) +
                             static_cast<float>(src.pixel(x1, y1)[c]) * tx;
        out.pixel(x, y)[c] =
            static_cast<uint8_t>(std::clamp(top * (1 - ty) + bottom * ty, 0.0f, 255.0f));
      }
    }
  }
  return out;
}

Status write_ppm(const Image& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return make_error("write_ppm: cannot open " + path);
  out << "P6\n" << image.width << ' ' << image.height << "\n255\n";
  out.write(reinterpret_cast<const char*>(image.rgb.data()),
            static_cast<std::streamsize>(image.rgb.size()));
  if (!out) return make_error("write_ppm: write failed");
  return {};
}

Result<Image> read_ppm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return make_error("read_ppm: cannot open " + path);
  std::string magic;
  int w = 0, h = 0, maxv = 0;
  in >> magic >> w >> h >> maxv;
  if (magic != "P6" || maxv != 255 || w <= 0 || h <= 0)
    return make_error("read_ppm: unsupported header");
  in.get();  // single whitespace after header
  Image img(w, h);
  in.read(reinterpret_cast<char*>(img.rgb.data()), static_cast<std::streamsize>(img.rgb.size()));
  if (!in) return make_error("read_ppm: truncated pixel data");
  return img;
}

}  // namespace rave::render
