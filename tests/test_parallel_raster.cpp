// Tile determinism of the rasterizer: a render restricted to a region must
// produce byte-identical color *and* depth planes to that window of a
// full-frame render, for every payload kind and every SIMD level — that
// bit-exactness is what lets the paper's render services split a frame by
// tile and composite the pieces (DESIGN.md "Rasterizer determinism"). The
// depth compositor's pooled path is checked against its serial one. These
// tests carry the `tsan` ctest label so a -DRAVE_SANITIZE=thread build
// can run them instrumented.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "mesh/generators.hpp"
#include "mesh/primitives.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace rave::render {
namespace {

using mesh::make_box;
using mesh::make_uv_sphere;
using scene::Camera;
using scene::SceneTree;
using util::ThreadPool;
using util::Vec3;

// Mesh + point-cloud + avatar payloads, overlapping in depth so the
// z-pass order actually matters.
SceneTree payload_scene() {
  SceneTree tree;
  scene::MeshData ball = make_uv_sphere(0.9f, 24, 16);
  ball.base_color = {0.8f, 0.2f, 0.2f};
  tree.add_child(scene::kRootNode, "ball", std::move(ball),
                 util::Mat4::translate({-0.4f, 0.0f, 0.0f}));

  scene::MeshData slab = make_box({1.2f, 0.8f, 0.05f}, 1);
  slab.base_color = {0.2f, 0.4f, 0.9f};
  tree.add_child(scene::kRootNode, "slab", std::move(slab),
                 util::Mat4::translate({0.3f, 0.1f, -0.5f}));

  scene::PointCloudData cloud;
  cloud.point_size = 5.0f;
  for (int i = 0; i < 200; ++i) {
    const float t = static_cast<float>(i) * 0.031f;
    cloud.positions.push_back({1.2f * std::sin(t * 7.0f), 1.2f * std::cos(t * 5.0f),
                               0.8f * std::sin(t * 3.0f)});
    cloud.colors.push_back({0.5f + 0.5f * std::sin(t), 0.7f, 0.5f + 0.5f * std::cos(t)});
  }
  tree.add_child(scene::kRootNode, "cloud", std::move(cloud));

  scene::AvatarData avatar;
  avatar.user_name = "collab@host";
  avatar.size = 0.6f;
  tree.add_child(scene::kRootNode, "avatar", avatar,
                 util::Mat4::translate({0.2f, -0.6f, 0.7f}));
  return tree;
}

Camera front_camera() {
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  return cam;
}

void expect_identical(const FrameBuffer& a, const FrameBuffer& b, const std::string& what) {
  EXPECT_EQ(a.color(), b.color()) << what << ": color plane differs";
  EXPECT_EQ(a.depth(), b.depth()) << what << ": depth plane differs";
}

TEST(ParallelRaster, PartialRegionMatchesSerialAndFullFrame) {
  const SceneTree tree = payload_scene();
  const Camera cam = front_camera();
  // Deliberately not aligned to any power-of-two grid.
  const Tile region{17, 9, 111, 93};
  RenderOptions opts;
  opts.region = region;
  Rasterizer partial(160, 120);
  partial.clear(opts);
  partial.draw_tree(tree, cam, opts);

  // Inside the region the render must match the full-frame render
  // bit-exactly (tile alignment, paper §3.1.2).
  const FrameBuffer full = render_tree(tree, cam, 160, 120);
  expect_identical(full.extract(region), partial.framebuffer().extract(region),
                   "region vs full frame");
}

TEST(ParallelRaster, ElleTilesMatchTheFullFrameAtEveryLevel) {
  // A tile draw skips triangles whose pixel bbox misses its region. That
  // may change no pixel inside the region, and every counter keeps its
  // per-call meaning: submitted and rasterized count the whole mesh,
  // pixels_shaded the z-pass writes inside the region.
  SceneTree tree;
  const scene::NodeId node = tree.add_child(scene::kRootNode, "elle", mesh::make_elle());
  const scene::MeshData& elle = std::get<scene::MeshData>(tree.find(node)->payload);
  const Camera cam = Camera::framing(tree.world_bounds());
  constexpr int kW = 640, kH = 480;
  const std::vector<Tile> tiles = split_tiles(kW, kH, 4);
  ASSERT_EQ(tiles.size(), 4u);

  const util::SimdLevel saved = util::active_simd_level();
  util::set_simd_level(util::SimdLevel::Scalar);
  Rasterizer reference(kW, kH);
  reference.clear();
  reference.draw_mesh(elle, util::Mat4::identity(), cam);
  const RenderStats& full = reference.stats();
  ASSERT_GT(full.pixels_shaded, 0u);

  for (const util::SimdLevel level : {util::SimdLevel::Scalar, util::SimdLevel::Sse2,
                                      util::SimdLevel::Avx2, util::SimdLevel::Neon}) {
    util::set_simd_level(level);
    if (util::active_simd_level() != level) continue;  // not available here
    uint64_t tile_pixels = 0;
    for (const Tile& tile : tiles) {
      const std::string what = std::string(util::simd_level_name(level)) + ", tile at " +
                               std::to_string(tile.x) + "," + std::to_string(tile.y);
      RenderOptions opts;
      opts.region = tile;
      Rasterizer part(kW, kH);
      part.clear(opts);
      part.draw_mesh(elle, util::Mat4::identity(), cam, opts);

      expect_identical(reference.framebuffer().extract(tile), part.framebuffer().extract(tile),
                       what);
      EXPECT_EQ(part.stats().triangles_submitted, full.triangles_submitted) << what;
      EXPECT_EQ(part.stats().triangles_rasterized, full.triangles_rasterized) << what;
      tile_pixels += part.stats().pixels_shaded;
    }
    // The tiles partition the frame, so their z-pass writes add up to
    // the full frame's.
    EXPECT_EQ(tile_pixels, full.pixels_shaded) << util::simd_level_name(level);
  }
  util::set_simd_level(saved);
}

TEST(ParallelRaster, DepthCompositeWithPoolMatchesSerial) {
  const SceneTree tree = payload_scene();
  const Camera cam = front_camera();
  const FrameBuffer a = render_tree(tree, cam, 96, 96);
  Camera other = cam;
  other.eye = {0.3f, 0.1f, 3.8f};
  const FrameBuffer b = render_tree(tree, other, 96, 96);

  FrameBuffer serial = a;
  ASSERT_TRUE(depth_composite(serial, b).ok());
  ThreadPool pool(4);
  FrameBuffer parallel = a;
  ASSERT_TRUE(depth_composite(parallel, b, &pool).ok());
  expect_identical(serial, parallel, "depth composite");
}

TEST(RenderStats, MergeAccumulatesEveryField) {
  RenderStats a;
  a.triangles_submitted = 10;
  a.triangles_rasterized = 7;
  a.pixels_shaded = 1000;
  a.points_submitted = 3;
  a.nodes_culled = 2;
  RenderStats b;
  b.triangles_submitted = 5;
  b.triangles_rasterized = 4;
  b.pixels_shaded = 500;
  b.points_submitted = 8;
  b.nodes_culled = 1;
  a += b;
  EXPECT_EQ(a.triangles_submitted, 15u);
  EXPECT_EQ(a.triangles_rasterized, 11u);
  EXPECT_EQ(a.pixels_shaded, 1500u);
  EXPECT_EQ(a.points_submitted, 11u);
  EXPECT_EQ(a.nodes_culled, 3u);
  // Merging an empty stats object is the identity.
  RenderStats before = a;
  a += RenderStats{};
  EXPECT_EQ(a.pixels_shaded, before.pixels_shaded);
  EXPECT_EQ(a.triangles_submitted, before.triangles_submitted);
}

}  // namespace
}  // namespace rave::render
