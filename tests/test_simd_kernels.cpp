// Property tests for the SIMD layer (DESIGN.md "SIMD dispatch &
// determinism"): every vectorized kernel must be byte-identical to its
// scalar twin on randomized inputs, including ragged sizes that do not
// divide the lane width, and the renderer/codec paths built on them must
// produce identical bytes at every SIMD level (and, for the pooled depth
// compositor, every thread count). Carries the `simd` and `tsan` ctest
// labels so sanitizer builds exercise the lane tails and the pool × lanes
// combination.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "mesh/primitives.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace rave {
namespace {

using render::FrameBuffer;
using render::Image;
using util::SimdLevel;

// Every level the host can actually execute (set_simd_level clamps
// unsupported requests to Scalar, so probe by round-trip). Scalar is
// always first — it is the reference twin.
std::vector<SimdLevel> supported_levels() {
  const SimdLevel before = util::active_simd_level();
  std::vector<SimdLevel> out{SimdLevel::Scalar};
  for (const SimdLevel l :
       {SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon}) {
    util::set_simd_level(l);
    if (util::active_simd_level() == l) out.push_back(l);
  }
  util::set_simd_level(before);
  return out;
}

// Restores the pre-test level even when an assertion fails mid-test.
struct LevelGuard {
  SimdLevel saved = util::active_simd_level();
  ~LevelGuard() { util::set_simd_level(saved); }
};

// Sizes straddling every lane-width boundary (4/8 floats, 16/32/48 bytes)
// plus ragged odd values and a large bulk size.
const std::vector<size_t> kRaggedSizes = {0,  1,  2,  3,  5,  7,   15,  16,  17,
                                          23, 31, 32, 33, 47, 48,  49,  63,  64,
                                          65, 95, 96, 97, 255, 257, 1000, 4097};

std::vector<uint8_t> random_bytes(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<int> d(0, 255);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(d(rng));
  return v;
}

TEST(SimdKernels, MismatchMatchesScalarAtEverySizeAndOffset) {
  std::mt19937 rng(11);
  for (const SimdLevel level : supported_levels()) {
    for (const size_t n : kRaggedSizes) {
      std::vector<uint8_t> a = random_bytes(rng, n);
      std::vector<uint8_t> b = a;  // identical → mismatch == n
      EXPECT_EQ(util::simd::mismatch(a.data(), b.data(), n, level), n)
          << util::simd_level_name(level) << " n=" << n;
      if (n == 0) continue;
      // Plant a single differing byte at a random position (and at both
      // ends) — the kernel must report exactly that index.
      std::uniform_int_distribution<size_t> pos(0, n - 1);
      for (const size_t p : {size_t{0}, n - 1, pos(rng)}) {
        b = a;
        b[p] ^= 0x5A;
        EXPECT_EQ(util::simd::mismatch(a.data(), b.data(), n, level), p)
            << util::simd_level_name(level) << " n=" << n << " p=" << p;
      }
    }
  }
}

TEST(SimdKernels, MismatchSelfOverlapScansRuns) {
  // The codecs call mismatch with b = a + stride to measure run lengths;
  // the overlapping ranges must behave like the scalar chain compare.
  std::mt19937 rng(13);
  for (const SimdLevel level : supported_levels()) {
    for (int trial = 0; trial < 50; ++trial) {
      std::uniform_int_distribution<size_t> run_d(1, 90);
      const size_t run = run_d(rng);  // pixels with identical RGB
      std::vector<uint8_t> rgb;
      for (size_t i = 0; i < run; ++i) {
        rgb.push_back(10);
        rgb.push_back(20);
        rgb.push_back(30);
      }
      rgb.push_back(99);  // break the run
      rgb.push_back(20);
      rgb.push_back(30);
      const size_t cap = rgb.size() / 3;
      const size_t got =
          util::simd::mismatch(rgb.data(), rgb.data() + 3, (cap - 1) * 3, level) / 3 + 1;
      EXPECT_EQ(got, run) << util::simd_level_name(level);
    }
  }
}

TEST(SimdKernels, ByteSubAddMatchScalarAndRoundTrip) {
  std::mt19937 rng(17);
  for (const SimdLevel level : supported_levels()) {
    for (const size_t n : kRaggedSizes) {
      const std::vector<uint8_t> a = random_bytes(rng, n);
      const std::vector<uint8_t> b = random_bytes(rng, n);
      std::vector<uint8_t> diff_scalar(n), diff(n);
      util::simd::byte_sub(diff_scalar.data(), a.data(), b.data(), n, SimdLevel::Scalar);
      util::simd::byte_sub(diff.data(), a.data(), b.data(), n, level);
      EXPECT_EQ(diff, diff_scalar) << util::simd_level_name(level) << " n=" << n;
      std::vector<uint8_t> back(n);
      util::simd::byte_add(back.data(), b.data(), diff.data(), n, level);
      EXPECT_EQ(back, a) << util::simd_level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, FillRgbMatchesScalarAtEveryCount) {
  for (const SimdLevel level : supported_levels()) {
    for (size_t pixels = 0; pixels <= 70; ++pixels) {
      std::vector<uint8_t> ref(pixels * 3, 0xCC), got(pixels * 3, 0xCC);
      util::simd::fill_rgb(ref.data(), pixels, 17, 203, 99, SimdLevel::Scalar);
      util::simd::fill_rgb(got.data(), pixels, 17, 203, 99, level);
      EXPECT_EQ(got, ref) << util::simd_level_name(level) << " pixels=" << pixels;
      for (size_t p = 0; p < pixels; ++p) {
        ASSERT_EQ(got[p * 3 + 0], 17);
        ASSERT_EQ(got[p * 3 + 1], 203);
        ASSERT_EQ(got[p * 3 + 2], 99);
      }
    }
  }
}

TEST(SimdKernels, FillF32MatchesScalar) {
  for (const SimdLevel level : supported_levels()) {
    for (const size_t n : kRaggedSizes) {
      std::vector<float> ref(n, -7.0f), got(n, -7.0f);
      util::simd::fill_f32(ref.data(), n, 0.625f, SimdLevel::Scalar);
      util::simd::fill_f32(got.data(), n, 0.625f, level);
      EXPECT_EQ(got, ref) << util::simd_level_name(level) << " n=" << n;
    }
  }
}

TEST(SimdKernels, PackRgb565MatchesScalar) {
  std::mt19937 rng(23);
  for (const SimdLevel level : supported_levels()) {
    for (const size_t pixels : kRaggedSizes) {
      const std::vector<uint8_t> rgb = random_bytes(rng, pixels * 3);
      std::vector<uint16_t> ref(pixels, 0xFFFF), got(pixels, 0xFFFF);
      util::simd::pack_rgb565(rgb.data(), ref.data(), pixels, SimdLevel::Scalar);
      util::simd::pack_rgb565(rgb.data(), got.data(), pixels, level);
      EXPECT_EQ(got, ref) << util::simd_level_name(level) << " pixels=" << pixels;
      for (size_t p = 0; p < pixels; ++p) {
        const uint16_t want = static_cast<uint16_t>(((rgb[p * 3] & 0xF8) << 8) |
                                                    ((rgb[p * 3 + 1] & 0xFC) << 3) |
                                                    (rgb[p * 3 + 2] >> 3));
        ASSERT_EQ(got[p], want) << "pixel " << p;
      }
    }
  }
}

TEST(SimdKernels, DepthSelectRowMatchesScalarOnRaggedWidths) {
  std::mt19937 rng(29);
  std::uniform_real_distribution<float> depth_d(0.0f, 1.0f);
  std::vector<int> widths;
  for (int w = 1; w <= 40; ++w) widths.push_back(w);
  widths.push_back(641);
  for (const SimdLevel level : supported_levels()) {
    for (const int width : widths) {
      const size_t n = static_cast<size_t>(width);
      std::vector<float> dst_depth(n), src_depth(n);
      for (size_t i = 0; i < n; ++i) {
        dst_depth[i] = depth_d(rng);
        // A third of the lanes tie exactly: ties must keep dst.
        src_depth[i] = (i % 3 == 0) ? dst_depth[i] : depth_d(rng);
      }
      const std::vector<uint8_t> dst_rgb0 = random_bytes(rng, n * 3);
      const std::vector<uint8_t> src_rgb = random_bytes(rng, n * 3);

      std::vector<float> ref_depth = dst_depth, got_depth = dst_depth;
      std::vector<uint8_t> ref_rgb = dst_rgb0, got_rgb = dst_rgb0;
      util::simd::depth_select_row(ref_depth.data(), src_depth.data(), ref_rgb.data(),
                                   src_rgb.data(), width, SimdLevel::Scalar);
      util::simd::depth_select_row(got_depth.data(), src_depth.data(), got_rgb.data(),
                                   src_rgb.data(), width, level);
      EXPECT_EQ(got_depth, ref_depth) << util::simd_level_name(level) << " w=" << width;
      EXPECT_EQ(got_rgb, ref_rgb) << util::simd_level_name(level) << " w=" << width;
    }
  }
}

TEST(SimdKernels, FrameBufferClearIdenticalAcrossLevels) {
  LevelGuard guard;
  // Ragged width so the row tail exercises the partial-lane path.
  util::set_simd_level(SimdLevel::Scalar);
  FrameBuffer ref(101, 37);
  ref.clear({0.3f, 0.62f, 0.11f});
  for (const SimdLevel level : supported_levels()) {
    util::set_simd_level(level);
    FrameBuffer fb(101, 37);
    fb.clear({0.3f, 0.62f, 0.11f});
    EXPECT_EQ(fb.color(), ref.color()) << util::simd_level_name(level);
    EXPECT_EQ(fb.depth(), ref.depth()) << util::simd_level_name(level);
  }
}

// --- renderer and compositor on top of the kernels -------------------------

scene::SceneTree random_scene(std::mt19937& rng) {
  std::uniform_real_distribution<float> pos(-1.3f, 1.3f);
  std::uniform_real_distribution<float> col(0.0f, 1.0f);
  scene::SceneTree tree;
  scene::MeshData mesh = mesh::make_uv_sphere(0.8f, 20, 14);
  mesh.base_color = {0.8f, 0.3f, 0.2f};
  tree.add_child(scene::kRootNode, "ball", std::move(mesh));
  // A soup of random triangles: skinny, degenerate-ish, overlapping in
  // depth, many partially off-screen — the hard cases for lane tails.
  scene::MeshData soup;
  for (int i = 0; i < 120; ++i) {
    for (int v = 0; v < 3; ++v) {
      soup.positions.push_back({pos(rng), pos(rng), pos(rng)});
      soup.colors.push_back({col(rng), col(rng), col(rng)});
      soup.indices.push_back(static_cast<uint32_t>(soup.positions.size() - 1));
    }
  }
  soup.compute_normals();
  tree.add_child(scene::kRootNode, "soup", std::move(soup));
  return tree;
}

scene::Camera test_camera() {
  scene::Camera cam;
  cam.eye = {0, 0, 3.5f};
  cam.target = {0, 0, 0};
  return cam;
}

TEST(SimdKernels, RasterizerByteIdenticalAcrossLevels) {
  LevelGuard guard;
  std::mt19937 rng(31);
  const scene::SceneTree tree = random_scene(rng);
  const scene::Camera cam = test_camera();
  // Ragged frame width: 163 is not a multiple of 4 or 8.
  util::set_simd_level(SimdLevel::Scalar);
  const FrameBuffer ref = render::render_tree(tree, cam, 163, 117);
  for (const SimdLevel level : supported_levels()) {
    util::set_simd_level(level);
    const FrameBuffer frame = render::render_tree(tree, cam, 163, 117);
    EXPECT_EQ(frame.color(), ref.color()) << util::simd_level_name(level) << " color";
    EXPECT_EQ(frame.depth(), ref.depth()) << util::simd_level_name(level) << " depth";
  }
}

TEST(SimdKernels, DepthCompositeIdenticalAcrossLevelsAndThreads) {
  LevelGuard guard;
  std::mt19937 rng(37);
  const scene::SceneTree tree = random_scene(rng);
  scene::Camera cam_a = test_camera();
  scene::Camera cam_b = test_camera();
  cam_b.eye = {0.4f, -0.2f, 3.3f};
  util::set_simd_level(SimdLevel::Scalar);
  const FrameBuffer a = render::render_tree(tree, cam_a, 163, 117);
  const FrameBuffer b = render::render_tree(tree, cam_b, 163, 117);
  FrameBuffer ref = a;
  ASSERT_TRUE(render::depth_composite(ref, b).ok());
  for (const SimdLevel level : supported_levels()) {
    util::set_simd_level(level);
    FrameBuffer serial = a;
    ASSERT_TRUE(render::depth_composite(serial, b).ok());
    EXPECT_EQ(serial.color(), ref.color()) << util::simd_level_name(level);
    EXPECT_EQ(serial.depth(), ref.depth()) << util::simd_level_name(level);
    util::ThreadPool pool(4);
    FrameBuffer pooled = a;
    ASSERT_TRUE(render::depth_composite(pooled, b, &pool).ok());
    EXPECT_EQ(pooled.color(), ref.color()) << util::simd_level_name(level) << " pooled";
    EXPECT_EQ(pooled.depth(), ref.depth()) << util::simd_level_name(level) << " pooled";
  }
}

// --- codecs on top of the kernels ------------------------------------------

Image blocky_image(std::mt19937& rng, int width, int height) {
  // Runs of random length (the RLE-friendly case) mixed with noise.
  std::uniform_int_distribution<int> byte_d(0, 255);
  std::uniform_int_distribution<int> run_d(1, 400);
  Image img(width, height);
  size_t p = 0;
  const size_t pixels = static_cast<size_t>(width) * height;
  while (p < pixels) {
    const size_t run = std::min<size_t>(static_cast<size_t>(run_d(rng)), pixels - p);
    const uint8_t r = static_cast<uint8_t>(byte_d(rng));
    const uint8_t g = static_cast<uint8_t>(byte_d(rng));
    const uint8_t b = static_cast<uint8_t>(byte_d(rng));
    for (size_t i = 0; i < run; ++i, ++p) {
      img.rgb[p * 3] = r;
      img.rgb[p * 3 + 1] = g;
      img.rgb[p * 3 + 2] = b;
    }
  }
  for (size_t i = 0; i < pixels / 10; ++i) {  // salt with single-pixel noise
    std::uniform_int_distribution<size_t> pos(0, pixels - 1);
    const size_t q = pos(rng);
    img.rgb[q * 3] = static_cast<uint8_t>(byte_d(rng));
  }
  return img;
}

TEST(SimdKernels, CodecsByteIdenticalAcrossLevels) {
  LevelGuard guard;
  std::mt19937 rng(41);
  // 151 is odd and coprime to every lane count.
  const Image frame = blocky_image(rng, 151, 53);
  const Image previous = blocky_image(rng, 151, 53);
  for (const compress::CodecKind kind :
       {compress::CodecKind::Raw, compress::CodecKind::Rle, compress::CodecKind::Delta,
        compress::CodecKind::Quantize}) {
    const auto codec = compress::make_codec(kind);
    util::set_simd_level(SimdLevel::Scalar);
    const compress::EncodedImage ref_enc = codec->encode(frame, &previous);
    auto ref_dec = codec->decode(ref_enc, &previous);
    ASSERT_TRUE(ref_dec.ok()) << codec_name(kind);
    const Image ref_img = std::move(ref_dec).take();
    if (kind != compress::CodecKind::Quantize) {
      EXPECT_EQ(ref_img.rgb, frame.rgb) << codec_name(kind) << " lossless roundtrip";
    }
    for (const SimdLevel level : supported_levels()) {
      util::set_simd_level(level);
      const compress::EncodedImage enc = codec->encode(frame, &previous);
      EXPECT_EQ(enc.data, ref_enc.data)
          << codec_name(kind) << " encode differs at " << util::simd_level_name(level);
      EXPECT_EQ(enc.keyframe, ref_enc.keyframe);
      auto dec = codec->decode(enc, &previous);
      ASSERT_TRUE(dec.ok()) << codec_name(kind) << " " << util::simd_level_name(level);
      EXPECT_EQ(std::move(dec).take().rgb, ref_img.rgb)
          << codec_name(kind) << " decode differs at " << util::simd_level_name(level);
    }
  }
}

TEST(SimdKernels, EncodedImageByteSizeEqualsSerializedSize) {
  std::mt19937 rng(43);
  const Image frame = blocky_image(rng, 64, 48);
  const Image previous = blocky_image(rng, 64, 48);
  for (const compress::CodecKind kind :
       {compress::CodecKind::Raw, compress::CodecKind::Rle, compress::CodecKind::Delta,
        compress::CodecKind::Quantize}) {
    const auto codec = compress::make_codec(kind);
    const compress::EncodedImage enc = codec->encode(frame, &previous);
    // byte_size() feeds the adaptive encoder's transfer-time predictions;
    // it must equal the real wire size without allocating it.
    EXPECT_EQ(enc.byte_size(), enc.serialize().size()) << codec_name(kind);
    // And an empty payload (degenerate but legal) still agrees.
    compress::EncodedImage empty;
    EXPECT_EQ(empty.byte_size(), empty.serialize().size());
  }
}

TEST(SimdKernels, LevelParsingAndClamping) {
  LevelGuard guard;
  SimdLevel l = SimdLevel::Avx2;
  EXPECT_TRUE(util::parse_simd_level("scalar", l));
  EXPECT_EQ(l, SimdLevel::Scalar);
  EXPECT_TRUE(util::parse_simd_level("sse2", l));
  EXPECT_EQ(l, SimdLevel::Sse2);
  EXPECT_TRUE(util::parse_simd_level("avx2", l));
  EXPECT_EQ(l, SimdLevel::Avx2);
  EXPECT_TRUE(util::parse_simd_level("neon", l));
  EXPECT_EQ(l, SimdLevel::Neon);
  EXPECT_FALSE(util::parse_simd_level("avx512", l));
  EXPECT_FALSE(util::parse_simd_level("", l));

  // Forcing scalar always sticks; the wrong ISA family degrades to scalar
  // rather than faulting.
  util::set_simd_level(SimdLevel::Scalar);
  EXPECT_EQ(util::active_simd_level(), SimdLevel::Scalar);
#if defined(__x86_64__)
  util::set_simd_level(SimdLevel::Neon);
  EXPECT_EQ(util::active_simd_level(), SimdLevel::Scalar);
#elif defined(__aarch64__)
  util::set_simd_level(SimdLevel::Avx2);
  EXPECT_EQ(util::active_simd_level(), SimdLevel::Scalar);
#endif
}

}  // namespace
}  // namespace rave
