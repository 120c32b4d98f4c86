// Property suite for the fast volume path (DESIGN.md "Fast volume path"):
// the macro-cell–skipping, SIMD-packet ray marcher must be byte-identical
// to the brute-force scalar march across {serial, pooled} × {scalar, every
// supported SIMD level} × {brick-skipped, brute} × {culled, unculled}, the
// depth plane must record thin volumes so later geometry composites behind
// them, and the measured rays/s cost model must survive the wire and show
// up in migration explains. Carries the `raycast` and `tsan` ctest labels
// so sanitizer builds exercise the pooled marcher.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/migration.hpp"
#include "core/protocol.hpp"
#include "mesh/fields.hpp"
#include "mesh/primitives.hpp"
#include "render/rasterizer.hpp"
#include "render/raycast.hpp"
#include "render/render_list.hpp"
#include "scene/bricks.hpp"
#include "scene/camera.hpp"
#include "scene/update.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace rave {
namespace {

using render::FrameBuffer;
using render::Rasterizer;
using render::RaycastOptions;
using render::RenderStats;
using scene::Camera;
using scene::SceneTree;
using scene::VoxelGridData;
using util::SimdLevel;
using util::Vec3;

// --- fixtures ---------------------------------------------------------------

Camera front_camera() {
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  return cam;
}

VoxelGridData ball_grid(uint32_t n, const Vec3& center = {0.2f, 0, 0}, float radius = 0.9f) {
  scene::Aabb bounds;
  bounds.extend({-1, -1, -1});
  bounds.extend({1, 1, 1});
  VoxelGridData grid = mesh::rasterize_field(mesh::ball_field(center, radius), bounds, n, n, n);
  grid.iso_low = 0.05f;
  grid.opacity_scale = 3.0f;
  return grid;
}

// Mostly-empty volume: a small off-centre ball in a 32^3 grid, so whole
// bricks are transparent — the empty-space-skipping headline case.
VoxelGridData sparse_grid() { return ball_grid(32, {0.55f, 0.55f, 0.55f}, 0.35f); }

VoxelGridData empty_grid(uint32_t n) {
  VoxelGridData grid;
  grid.nx = grid.ny = grid.nz = n;
  grid.origin = {-1, -1, -1};
  const float s = 2.0f / static_cast<float>(n - 1);
  grid.spacing = {s, s, s};
  grid.values.assign(grid.voxel_count(), 0.0f);
  grid.iso_low = 0.05f;
  grid.opacity_scale = 3.0f;
  return grid;
}

// Hot voxels sitting exactly on 8^3 brick boundaries: the support-expanded
// min/max must keep the bricks on *both* sides of the seam opaque.
VoxelGridData brick_boundary_grid() {
  VoxelGridData grid = empty_grid(32);
  grid.at(7, 7, 7) = 1.0f;
  grid.at(8, 8, 8) = 1.0f;
  grid.at(16, 7, 16) = 1.0f;
  grid.at(31, 31, 31) = 1.0f;  // grid corner = brick corner
  grid.at(0, 16, 0) = 1.0f;
  return grid;
}

VoxelGridData random_grid(uint32_t n, uint32_t seed) {
  VoxelGridData grid = empty_grid(n);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dense(0.0f, 1.0f);
  for (float& v : grid.values) {
    const float u = dense(rng);
    // ~70% of voxels below iso_low, the rest spread up to full density.
    v = u < 0.7f ? u * 0.05f : (u - 0.7f) * 3.0f;
  }
  return grid;
}

std::pair<FrameBuffer, RenderStats> render_volume(const VoxelGridData& grid,
                                                  const RaycastOptions& options,
                                                  const Camera& cam = front_camera()) {
  FrameBuffer fb(96, 72);
  fb.clear({0, 0, 0});
  RenderStats st = render::raycast_volume(fb, grid, util::Mat4::identity(), cam, options);
  return {std::move(fb), st};
}

void expect_identical(const FrameBuffer& a, const FrameBuffer& b, const std::string& what) {
  EXPECT_EQ(a.color(), b.color()) << what << ": color plane differs";
  EXPECT_EQ(a.depth(), b.depth()) << what << ": depth plane differs";
}

std::vector<SimdLevel> supported_levels() {
  const SimdLevel before = util::active_simd_level();
  std::vector<SimdLevel> out{SimdLevel::Scalar};
  for (const SimdLevel l : {SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon}) {
    util::set_simd_level(l);
    if (util::active_simd_level() == l) out.push_back(l);
  }
  util::set_simd_level(before);
  return out;
}

struct LevelGuard {
  SimdLevel saved = util::active_simd_level();
  ~LevelGuard() { util::set_simd_level(saved); }
};

// --- brick skipping ---------------------------------------------------------

TEST(RaycastSkip, BruteVsSkipByteIdentical) {
  struct Case {
    std::string name;
    VoxelGridData grid;
  };
  const std::vector<Case> cases = {
      {"sparse", sparse_grid()},
      {"dense-ball", ball_grid(24)},
      {"ragged-20", ball_grid(20, {-0.3f, 0.4f, 0.1f}, 0.5f)},  // not a multiple of 8
      {"brick-boundary", brick_boundary_grid()},
      {"random", random_grid(32, 1234)},
      {"tiny-5", ball_grid(5)},  // smaller than one brick
  };
  for (const Case& c : cases) {
    RaycastOptions brute;
    brute.empty_skip = false;
    RaycastOptions skip;
    skip.empty_skip = true;
    const auto [fb_brute, st_brute] = render_volume(c.grid, brute);
    const auto [fb_skip, st_skip] = render_volume(c.grid, skip);
    expect_identical(fb_brute, fb_skip, c.name);
    // Skipping may only remove transparent samples, never shaded ones.
    EXPECT_EQ(st_brute.volume_samples, st_skip.volume_samples) << c.name;
    EXPECT_EQ(st_brute.rays_cast, st_skip.rays_cast) << c.name;
    EXPECT_EQ(st_brute.bricks_skipped, 0u) << c.name;
  }
}

TEST(RaycastSkip, SparseVolumeActuallySkips) {
  RaycastOptions skip;
  skip.empty_skip = true;
  const auto [fb, st] = render_volume(sparse_grid(), skip);
  EXPECT_GT(st.rays_cast, 0u);
  EXPECT_GT(st.bricks_skipped, 0u);
  EXPECT_GT(st.volume_samples, 0u);  // the ball still shades
}

TEST(RaycastSkip, MacroCellsCachedAndInvalidated) {
  VoxelGridData grid = empty_grid(16);
  const auto cells = grid.macro_cells();
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells.get(), grid.macro_cells().get());  // cached, not rebuilt
  for (float m : cells->max_v) EXPECT_LT(m, 0.05f);

  // Direct mutation + explicit invalidation rebuilds with the new bounds.
  grid.at(0, 0, 0) = 1.0f;
  grid.invalidate_macro_cells();
  const auto rebuilt = grid.macro_cells();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), cells.get());
  EXPECT_GT(rebuilt->max_v[0], 0.9f);
}

TEST(RaycastSkip, SetPayloadDropsStaleMacroCells) {
  SceneTree tree;
  const scene::NodeId vol = tree.add_child(scene::kRootNode, "volume", empty_grid(16));
  const auto* before = std::get_if<VoxelGridData>(&tree.find(vol)->payload);
  ASSERT_NE(before, nullptr);
  const auto stale = before->macro_cells();
  for (float m : stale->max_v) EXPECT_LT(m, 0.05f);

  // The scene/update path replaces the payload wholesale; the replacement
  // carries no cache, so the next render sees the hot voxel.
  VoxelGridData hot = empty_grid(16);
  hot.at(8, 8, 8) = 1.0f;
  ASSERT_TRUE(scene::SceneUpdate::set_payload(vol, hot).apply(tree).ok());
  const auto* after = std::get_if<VoxelGridData>(&tree.find(vol)->payload);
  ASSERT_NE(after, nullptr);
  const auto fresh = after->macro_cells();
  EXPECT_NE(fresh.get(), stale.get());
  float max_seen = 0;
  for (float m : fresh->max_v) max_seen = std::max(max_seen, m);
  EXPECT_GT(max_seen, 0.9f);
}

// --- SIMD packets × thread pool ---------------------------------------------

TEST(RaycastSimd, ScalarVsSimdSerialPooledByteIdentical) {
  const std::vector<VoxelGridData> grids = {ball_grid(24), sparse_grid(), random_grid(20, 77)};
  const auto levels = supported_levels();
  util::ThreadPool pool(4);
  LevelGuard guard;
  for (size_t gi = 0; gi < grids.size(); ++gi) {
    // Reference: scalar, serial, brute march.
    util::set_simd_level(SimdLevel::Scalar);
    RaycastOptions ref_opts;
    ref_opts.empty_skip = false;
    const auto [reference, ref_stats] = render_volume(grids[gi], ref_opts);
    ASSERT_GT(ref_stats.rays_cast, 0u);
    for (const SimdLevel level : levels) {
      util::set_simd_level(level);
      for (const bool pooled : {false, true}) {
        for (const bool skip : {false, true}) {
          RaycastOptions opts;
          opts.empty_skip = skip;
          opts.pool = pooled ? &pool : nullptr;
          const auto [fb, st] = render_volume(grids[gi], opts);
          const std::string what = "grid " + std::to_string(gi) + " level " +
                                   std::string(util::simd_level_name(level)) +
                                   (pooled ? " pooled" : " serial") +
                                   (skip ? " skip" : " brute");
          expect_identical(reference, fb, what);
          // Shaded-sample and ray counts are part of the contract: they
          // feed the rays/s cost model, so they must not drift with the
          // packet width or the thread count.
          EXPECT_EQ(st.volume_samples, ref_stats.volume_samples) << what;
          EXPECT_EQ(st.rays_cast, ref_stats.rays_cast) << what;
        }
      }
    }
  }
}

// --- screen-footprint ray cull ----------------------------------------------
//
// The skip path leaves a ray unmarched when its pixel misses the projected
// footprint of every occupied 2^3 fine cell. Each case below renders the
// brute march (scalar, serial) as the reference and requires the skip path
// to match it byte for byte, with the same ray and shaded-sample counts.

// The end-to-end benchmark's volume: a 48^3 body phantom, 852 voxels at or
// above iso_low.
VoxelGridData body_grid() {
  scene::Aabb bounds;
  bounds.extend({-1.2f, -1.3f, -0.8f});
  bounds.extend({1.2f, 1.3f, 0.8f});
  VoxelGridData grid = mesh::rasterize_field(mesh::body_field(), bounds, 48, 48, 48);
  grid.iso_low = 0.25f;
  grid.opacity_scale = 3.5f;
  return grid;
}

// Hot voxels only on the grid's faces, edges and corners, so every
// occupied fine cell is a border cell whose clamped samples reach the box.
VoxelGridData border_grid(uint32_t n) {
  VoxelGridData grid = empty_grid(n);
  const uint32_t m = n / 2, e = n - 1;
  grid.at(0, m, m) = 1.0f;
  grid.at(e, m, 1) = 1.0f;
  grid.at(m, 0, e) = 1.0f;
  grid.at(0, 0, 0) = 1.0f;
  grid.at(e, e, e) = 1.0f;
  grid.at(m, e, 0) = 1.0f;
  return grid;
}

Camera orbit_camera(std::mt19937& rng, float min_dist, float max_dist) {
  std::uniform_real_distribution<float> angle(0.0f, 6.28318f);
  std::uniform_real_distribution<float> pitch(-1.2f, 1.2f);
  std::uniform_real_distribution<float> dist(min_dist, max_dist);
  std::uniform_real_distribution<float> jitter(-0.4f, 0.4f);
  Camera cam;
  const float yaw = angle(rng), p = pitch(rng), r = dist(rng);
  cam.eye = {r * std::cos(p) * std::sin(yaw), r * std::sin(p), r * std::cos(p) * std::cos(yaw)};
  cam.target = {jitter(rng), jitter(rng), jitter(rng)};
  return cam;
}

struct CullView {
  util::Mat4 model = util::Mat4::identity();
  Camera camera;
  int width = 128, height = 96;
};

FrameBuffer blank(const CullView& view) {
  FrameBuffer fb(view.width, view.height);
  fb.clear({0.1f, 0.2f, 0.3f});
  return fb;
}

// Skip path over `regions` (whole frame when empty) vs the scalar serial
// brute march; returns the skip path's summed stats.
RenderStats expect_cull_matches_brute(const VoxelGridData& grid, const CullView& view,
                                      const std::string& what,
                                      const std::vector<render::Tile>& regions = {},
                                      util::ThreadPool* pool = nullptr) {
  RenderStats brute_stats, skip_stats;
  FrameBuffer brute = blank(view), skip = blank(view);
  {
    LevelGuard guard;
    util::set_simd_level(SimdLevel::Scalar);
    RaycastOptions opts;
    opts.empty_skip = false;
    brute_stats = render::raycast_volume(brute, grid, view.model, view.camera, opts);
  }
  RaycastOptions opts;
  opts.pool = pool;
  for (const render::Tile& region : regions.empty() ? std::vector<render::Tile>{{}} : regions) {
    opts.region = region;
    skip_stats += render::raycast_volume(skip, grid, view.model, view.camera, opts);
  }
  expect_identical(brute, skip, what);
  EXPECT_EQ(brute_stats.rays_cast, skip_stats.rays_cast) << what;
  EXPECT_EQ(brute_stats.volume_samples, skip_stats.volume_samples) << what;
  EXPECT_EQ(brute_stats.rays_culled, 0u) << what << ": the brute march culled";
  return skip_stats;
}

TEST(RaycastFootprint, MatchesBruteOnRandomOrbitCameras) {
  struct Case {
    std::string name;
    VoxelGridData grid;
    bool must_cull;
  };
  const std::vector<Case> cases = {
      {"sparse", sparse_grid(), true},
      {"body", body_grid(), true},
      {"brick-boundary", brick_boundary_grid(), false},
      {"border-12", border_grid(12), false},
      {"random", random_grid(20, 4321), false},
      {"empty", empty_grid(16), false},
  };
  std::mt19937 rng(2024);
  for (const Case& c : cases) {
    uint64_t culled = 0;
    for (int trial = 0; trial < 10; ++trial) {
      CullView view;
      view.camera = orbit_camera(rng, 2.2f, 6.0f);
      culled += expect_cull_matches_brute(c.grid, view, c.name + " trial " + std::to_string(trial))
                    .rays_culled;
    }
    if (c.must_cull) EXPECT_GT(culled, 0u) << c.name << ": the footprint culled nothing";
  }
}

TEST(RaycastFootprint, MatchesBruteWithTheEyeInsideTheGrid) {
  // A camera inside the volume sees occupied cells that straddle its eye
  // plane; those must cover the whole frame. A few isolated hot voxels
  // leave most of the frame to cull, so a cell projected through w <= 0
  // corners would drop rays that do shade.
  VoxelGridData few = empty_grid(16);
  few.at(8, 8, 8) = 1.0f;
  few.at(3, 11, 6) = 1.0f;
  few.at(12, 4, 10) = 1.0f;
  const std::vector<std::pair<std::string, VoxelGridData>> grids = {
      {"few-hot", few}, {"sparse", sparse_grid()}, {"dense-ball", ball_grid(24)}};
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> inside(-0.9f, 0.9f);
  std::uniform_real_distribution<float> offset(-0.15f, 0.15f);
  for (const auto& [name, grid] : grids) {
    for (int trial = 0; trial < 16; ++trial) {
      CullView view;
      // Half the eyes sit right next to a hot voxel of `few` (grid-local
      // position -1 + 2i/15), the rest anywhere inside the box.
      if (trial % 2 == 0) {
        view.camera.eye = {-1.0f + 16.0f / 15.0f + offset(rng), -1.0f + 16.0f / 15.0f + offset(rng),
                           -1.0f + 16.0f / 15.0f + offset(rng)};
      } else {
        view.camera.eye = {inside(rng), inside(rng), inside(rng)};
      }
      view.camera.target = view.camera.eye + Vec3{inside(rng), inside(rng), inside(rng)};
      view.camera.znear = 0.01f;
      expect_cull_matches_brute(grid, view, name + " inside trial " + std::to_string(trial));
    }
  }
  // An eye on the axis of a hot rod, looking across it with a wide field
  // of view. The fine cell holding the eye straddles the eye plane: the
  // rod's near samples reach the top and bottom rows, far outside the
  // rectangle that the cells' corners (projected through w <= 0) would span.
  VoxelGridData rod = empty_grid(16);
  for (uint32_t x = 9; x < 16; ++x) rod.at(x, 9, 9) = 1.0f;
  const float centre = -1.0f + 9.5f * rod.spacing.x;  // voxel 9's sample position
  for (const float fov : {90.0f, 120.0f}) {
    for (const Vec3& look : {Vec3{0, 0, -1}, Vec3{0, 0, 1}, Vec3{0.3f, 0, -1}}) {
      CullView view;
      view.camera.eye = {centre, centre, centre};
      view.camera.target = view.camera.eye + look;
      view.camera.fov_y_deg = fov;
      view.camera.znear = 0.01f;
      expect_cull_matches_brute(rod, view, "rod, fov " + std::to_string(fov));
    }
  }
}

TEST(RaycastFootprint, MatchesBruteWhenTheNearPlaneCutsOccupiedCells) {
  for (const auto& [name, grid] :
       std::vector<std::pair<std::string, VoxelGridData>>{{"sparse", sparse_grid()},
                                                          {"dense-ball", ball_grid(24)},
                                                          {"body", body_grid()}}) {
    for (const float znear : {0.8f, 1.6f, 2.4f}) {
      CullView view;
      view.camera.eye = {0.3f, 0.4f, 2.6f};
      view.camera.target = {0.2f, 0.3f, 0.0f};
      view.camera.znear = znear;
      expect_cull_matches_brute(grid, view, name + " znear " + std::to_string(znear));
    }
  }
}

TEST(RaycastFootprint, MatchesBruteForRaysGrazingTheBoxFaces) {
  // Eyes placed exactly in the planes of the grid box's faces: rays near
  // the frame centre travel along a face, where every sample is clamped
  // into a border cell half a voxel outside its base-voxel range.
  for (const uint32_t n : {6u, 12u}) {
    const VoxelGridData grid = border_grid(n);
    const scene::Aabb box = grid.bounds();
    const std::vector<std::pair<Vec3, Vec3>> eyes_targets = {
        {{box.lo.x, 0.1f, 4.0f}, {box.lo.x, 0.1f, 0.0f}},
        {{box.hi.x, -0.2f, -4.0f}, {box.hi.x, -0.2f, 0.0f}},
        {{0.3f, box.lo.y, 4.0f}, {0.3f, box.lo.y, 0.0f}},
        {{4.0f, box.hi.y, 0.2f}, {0.0f, box.hi.y, 0.2f}},
        {{-0.1f, 4.0f, box.lo.z}, {-0.1f, 0.0f, box.lo.z}},
        {{box.lo.x, box.lo.y, 5.0f}, {box.lo.x, box.lo.y, 0.0f}},  // along an edge
        {{-4.0f, 0.0f, box.hi.z}, {0.0f, 0.0f, box.hi.z}},
    };
    for (size_t i = 0; i < eyes_targets.size(); ++i) {
      CullView view;
      view.camera.eye = eyes_targets[i].first;
      view.camera.target = eyes_targets[i].second;
      if (std::fabs(view.camera.eye.y - view.camera.target.y) > 1.0f) view.camera.up = {1, 0, 0};
      view.width = 160;
      view.height = 120;
      expect_cull_matches_brute(grid, view,
                                "border-" + std::to_string(n) + " face view " + std::to_string(i));
    }
  }
}

TEST(RaycastFootprint, MatchesBruteUnderRotatedScaledModelAndAnisotropicSpacing) {
  VoxelGridData grid = sparse_grid();
  grid.spacing = {grid.spacing.x, grid.spacing.y * 1.7f, grid.spacing.z * 0.6f};
  VoxelGridData body = body_grid();
  body.spacing = {body.spacing.x * 0.8f, body.spacing.y, body.spacing.z * 1.5f};
  const util::Mat4 model = util::Mat4::translate({0.2f, -0.1f, 0.3f}) *
                           util::Mat4::rotate_y(0.7f) * util::Mat4::rotate_x(-0.4f) *
                           util::Mat4::scale({1.3f, 0.6f, 0.9f});
  std::mt19937 rng(55);
  uint64_t culled = 0;
  for (int trial = 0; trial < 8; ++trial) {
    CullView view;
    view.model = model;
    view.camera = orbit_camera(rng, 2.5f, 5.0f);
    culled += expect_cull_matches_brute(grid, view, "sparse trial " + std::to_string(trial))
                  .rays_culled;
    culled +=
        expect_cull_matches_brute(body, view, "body trial " + std::to_string(trial)).rays_culled;
  }
  EXPECT_GT(culled, 0u);
}

TEST(RaycastFootprint, MatchesBruteOnGridsSmallerThanOneBrick) {
  VoxelGridData ragged = empty_grid(3);
  ragged.nx = 3;
  ragged.ny = 2;
  ragged.nz = 7;
  ragged.values.assign(ragged.voxel_count(), 0.0f);
  ragged.at(2, 1, 6) = 1.0f;
  ragged.at(0, 0, 3) = 0.6f;
  std::mt19937 rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    CullView view;
    view.camera = orbit_camera(rng, 2.0f, 5.0f);
    expect_cull_matches_brute(ball_grid(5), view, "tiny-5 trial " + std::to_string(trial));
    expect_cull_matches_brute(ragged, view, "3x2x7 trial " + std::to_string(trial));
  }
}

TEST(RaycastFootprint, MatchesBruteOnEveryTileOfAFourWaySplit) {
  const VoxelGridData grid = body_grid();
  const std::vector<render::Tile> tiles = render::split_tiles(640, 480, 4);
  std::mt19937 rng(3);
  for (int trial = 0; trial < 2; ++trial) {
    CullView view;
    view.camera = orbit_camera(rng, 2.5f, 3.5f);
    view.width = 640;
    view.height = 480;
    const RenderStats st =
        expect_cull_matches_brute(grid, view, "tiles trial " + std::to_string(trial), tiles);
    EXPECT_GT(st.rays_culled, 0u);
  }
}

TEST(RaycastFootprint, MatchesBruteAtEveryThreadCountAndSimdLevel) {
  const std::vector<std::pair<std::string, VoxelGridData>> grids = {{"sparse", sparse_grid()},
                                                                    {"body", body_grid()}};
  LevelGuard guard;
  std::mt19937 rng(19);
  std::vector<CullView> views(2);
  for (CullView& view : views) view.camera = orbit_camera(rng, 2.5f, 4.5f);
  for (const SimdLevel level : supported_levels()) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      util::ThreadPool pool(threads);
      for (const auto& [name, grid] : grids) {
        for (size_t v = 0; v < views.size(); ++v) {
          util::set_simd_level(level);
          const std::string what = name + " view " + std::to_string(v) + " level " +
                                   std::string(util::simd_level_name(level)) + " " +
                                   std::to_string(threads) + " threads";
          EXPECT_GT(expect_cull_matches_brute(grid, views[v], what, {}, &pool).rays_culled, 0u)
              << what;
        }
      }
    }
  }
}

// --- lane ray setup ----------------------------------------------------------
//
// Full blocks of consecutive pixels in a row set up their rays in SIMD
// lanes (8 under AVX2); the row tail and the other levels go through the
// scalar twin. Every case renders at each supported level, brute and skipped, and
// requires the scalar level's pixels, depth, rays_cast, rays_culled and
// shaded samples. Returns the scalar level's skip-path stats.
RenderStats expect_levels_match_scalar(const VoxelGridData& grid, const CullView& view,
                                       const std::string& what, const render::Tile& region = {}) {
  LevelGuard guard;
  RenderStats skip_stats;
  for (const bool skip : {false, true}) {
    RaycastOptions opts;
    opts.empty_skip = skip;
    opts.region = region;
    util::set_simd_level(SimdLevel::Scalar);
    FrameBuffer reference = blank(view);
    const RenderStats ref_stats =
        render::raycast_volume(reference, grid, view.model, view.camera, opts);
    if (skip) skip_stats = ref_stats;
    for (const SimdLevel level : supported_levels()) {
      util::set_simd_level(level);
      FrameBuffer fb = blank(view);
      const RenderStats st = render::raycast_volume(fb, grid, view.model, view.camera, opts);
      const std::string tag = what + " level " + util::simd_level_name(level) +
                              (skip ? " skip" : " brute");
      expect_identical(reference, fb, tag);
      EXPECT_EQ(st.rays_cast, ref_stats.rays_cast) << tag;
      EXPECT_EQ(st.rays_culled, ref_stats.rays_culled) << tag;
      EXPECT_EQ(st.volume_samples, ref_stats.volume_samples) << tag;
    }
  }
  return skip_stats;
}

TEST(RaycastLanes, PartialBlocksMatchScalar) {
  // Widths below, between and just past the 4- and 8-lane block sizes, at
  // an odd column, so every region ends in a partial block.
  const std::vector<std::pair<std::string, VoxelGridData>> grids = {
      {"dense-ball", ball_grid(24)}, {"body", body_grid()}};
  CullView view;
  view.camera.eye = {0.4f, 0.3f, 3.0f};
  for (const auto& [name, grid] : grids) {
    for (const int width : {1, 7, 9, 13}) {
      const render::Tile region{57, 41, width, 9};
      const RenderStats st = expect_levels_match_scalar(
          grid, view, name + " width " + std::to_string(width), region);
      EXPECT_GT(st.rays_cast, 0u) << name << " width " << width;
    }
    // A whole-height region from an odd column to the frame's edge.
    expect_levels_match_scalar(grid, view, name + " from column 3",
                               {3, 0, view.width - 3, view.height});
  }
}

TEST(RaycastLanes, AxisAlignedRaysMatchScalar) {
  // An odd frame size puts the centre column's and centre row's pixel
  // centres at NDC exactly 0, so an axis-aligned view gives those rays a
  // direction component of exactly 0: the slab test's parallel branch.
  // The eye sits inside that slab, on its face, or outside it (where the
  // parallel rays miss the box).
  const VoxelGridData grid = ball_grid(24);
  const scene::Aabb box = grid.bounds();
  const std::vector<std::pair<std::string, Vec3>> eyes = {
      {"inside", {0.3f, -0.2f, 4.0f}},
      {"on the face", {box.lo.x, box.hi.y, 4.0f}},
      {"outside", {box.hi.x + 0.3f, box.lo.y - 0.2f, 4.0f}},
      {"inside x, outside y", {-0.1f, box.hi.y + 0.5f, 4.0f}}};
  for (const auto& [name, eye] : eyes) {
    CullView view;
    view.width = 101;
    view.height = 75;
    view.camera.eye = eye;
    view.camera.target = {eye.x, eye.y, 0.0f};
    view.camera.fov_y_deg = 70.0f;
    const RenderStats st = expect_levels_match_scalar(grid, view, "eye " + name);
    EXPECT_GT(st.rays_cast, 0u) << name;
  }
  // Looking down the y axis: the zero components move to x and z.
  CullView down;
  down.width = 75;
  down.height = 101;
  down.camera.eye = {0.2f, 4.0f, -0.3f};
  down.camera.target = {0.2f, 0.0f, -0.3f};
  down.camera.up = {0, 0, -1};
  EXPECT_GT(expect_levels_match_scalar(grid, down, "down the y axis").rays_cast, 0u);
}

TEST(RaycastLanes, EyeInsideAndNearPlaneClipMatchScalar) {
  const VoxelGridData grid = ball_grid(24);
  CullView inside;
  inside.camera.eye = {0.1f, 0.2f, 0.3f};
  inside.camera.target = {-0.4f, 0.1f, -0.5f};
  inside.camera.znear = 0.01f;
  EXPECT_GT(expect_levels_match_scalar(grid, inside, "eye inside the grid").rays_cast, 0u);

  // A near plane past the box's near face clips some intervals away
  // (fn < 0), and one past its far corner clips them all. A non-uniform
  // model scale makes the grid-space direction length differ from 1.
  for (const bool scaled : {false, true}) {
    CullView view;
    view.camera.eye = {0.1f, -0.1f, 1.8f};
    view.camera.target = {0.0f, 0.0f, 0.0f};
    if (scaled) view.model = util::Mat4::scale({1.3f, 0.6f, 0.9f});
    const std::string tag = scaled ? "scaled " : "";
    view.camera.znear = 0.05f;
    const uint64_t all = expect_levels_match_scalar(grid, view, tag + "znear 0.05").rays_cast;
    view.camera.znear = 2.2f;
    const uint64_t some = expect_levels_match_scalar(grid, view, tag + "znear 2.2").rays_cast;
    view.camera.znear = 6.0f;
    const uint64_t none = expect_levels_match_scalar(grid, view, tag + "znear 6").rays_cast;
    EXPECT_GT(some, 0u) << tag;
    EXPECT_LT(some, all) << tag;
    EXPECT_EQ(none, 0u) << tag;
  }
}

TEST(RaycastFootprint, FineCellsBoundTheBricks) {
  const VoxelGridData grid = random_grid(21, 5);
  const auto cells = grid.macro_cells();
  ASSERT_EQ(cells->fx, 11u);
  ASSERT_EQ(cells->bx, 3u);
  // Every fine cell's support max is the max over voxels [2c, 2c+2] per
  // axis, and each brick's max is the max over its 4^3 fine cells.
  for (uint32_t z = 0; z < cells->fz; ++z)
    for (uint32_t y = 0; y < cells->fy; ++y)
      for (uint32_t x = 0; x < cells->fx; ++x) {
        float expect = -1.0f;
        for (uint32_t k = 2 * z; k <= std::min(2 * z + 2, grid.nz - 1); ++k)
          for (uint32_t j = 2 * y; j <= std::min(2 * y + 2, grid.ny - 1); ++j)
            for (uint32_t i = 2 * x; i <= std::min(2 * x + 2, grid.nx - 1); ++i)
              expect = std::max(expect, grid.at(i, j, k));
        ASSERT_EQ(cells->fine_max[cells->fine_index(x, y, z)], expect) << x << "," << y << "," << z;
      }
  for (uint32_t z = 0; z < cells->bz; ++z)
    for (uint32_t y = 0; y < cells->by; ++y)
      for (uint32_t x = 0; x < cells->bx; ++x) {
        float expect = -1.0f;
        for (uint32_t k = 8 * z; k <= std::min(8 * z + 8, grid.nz - 1); ++k)
          for (uint32_t j = 8 * y; j <= std::min(8 * y + 8, grid.ny - 1); ++j)
            for (uint32_t i = 8 * x; i <= std::min(8 * x + 8, grid.nx - 1); ++i)
              expect = std::max(expect, grid.at(i, j, k));
        ASSERT_EQ(cells->max_v[cells->index(x, y, z)], expect) << x << "," << y << "," << z;
      }
}

// --- frustum-culled render lists --------------------------------------------

SceneTree mixed_scene() {
  SceneTree tree;
  scene::MeshData ball = mesh::make_uv_sphere(0.7f, 20, 12);
  ball.base_color = {0.8f, 0.2f, 0.2f};
  tree.add_child(scene::kRootNode, "ball", std::move(ball),
                 util::Mat4::translate({-0.6f, 0.0f, 0.0f}));
  scene::MeshData slab = mesh::make_box({1.0f, 0.7f, 0.05f}, 1);
  slab.base_color = {0.2f, 0.4f, 0.9f};
  tree.add_child(scene::kRootNode, "slab", std::move(slab),
                 util::Mat4::translate({0.4f, 0.1f, -0.6f}));
  scene::PointCloudData cloud;
  cloud.point_size = 3.0f;
  for (int i = 0; i < 120; ++i) {
    const float t = static_cast<float>(i) * 0.051f;
    cloud.positions.push_back(
        {1.4f * std::sin(t * 7.0f), 1.4f * std::cos(t * 5.0f), 0.9f * std::sin(t * 3.0f)});
  }
  tree.add_child(scene::kRootNode, "cloud", std::move(cloud));
  tree.add_child(scene::kRootNode, "volume", ball_grid(16, {0.0f, 0.3f, 0.2f}, 0.6f),
                 util::Mat4::translate({1.1f, -0.2f, 0.3f}));
  // A far-flung satellite pair that most cameras cull.
  scene::MeshData moon = mesh::make_uv_sphere(0.4f, 12, 8);
  tree.add_child(scene::kRootNode, "moon", std::move(moon),
                 util::Mat4::translate({9.0f, 7.0f, -6.0f}));
  tree.add_child(scene::kRootNode, "far-volume", ball_grid(12), util::Mat4::translate({-8, 6, 5}));
  return tree;
}

void render_via_list(Rasterizer& raster, const SceneTree& tree, const Camera& cam, bool cull,
                     RenderStats* volume_stats = nullptr) {
  const float aspect = static_cast<float>(raster.framebuffer().width()) /
                       static_cast<float>(raster.framebuffer().height());
  render::RenderListOptions lo;
  lo.frustum_cull = cull;
  const render::RenderList list = render::build_render_list(tree, cam, aspect, lo);
  raster.clear();
  raster.draw_list(list, cam, {});
  const RenderStats vs = render::raycast_list(raster.framebuffer(), list, cam, {});
  if (volume_stats != nullptr) *volume_stats = vs;
}

TEST(RenderListCull, CulledMatchesUnculledForRandomCameras) {
  const SceneTree tree = mixed_scene();
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> angle(0.0f, 6.28318f);
  std::uniform_real_distribution<float> dist(3.0f, 7.0f);
  std::uniform_real_distribution<float> jitter(-0.5f, 0.5f);
  bool culled_something = false;
  for (int trial = 0; trial < 8; ++trial) {
    Camera cam;
    const float yaw = angle(rng);
    const float pitch = jitter(rng);
    const float r = dist(rng);
    cam.eye = {r * std::sin(yaw), r * pitch, r * std::cos(yaw)};
    cam.target = {jitter(rng), jitter(rng), jitter(rng)};
    Rasterizer culled(128, 96), unculled(128, 96);
    render_via_list(culled, tree, cam, /*cull=*/true);
    render_via_list(unculled, tree, cam, /*cull=*/false);
    expect_identical(culled.framebuffer(), unculled.framebuffer(),
                     "trial " + std::to_string(trial));
    if (culled.stats().nodes_culled > 0) culled_something = true;
  }
  EXPECT_TRUE(culled_something) << "no camera culled anything; the property is vacuous";
}

TEST(RenderListCull, DrawListMatchesDrawTree) {
  const SceneTree tree = mixed_scene();
  const Camera cam = front_camera();
  Rasterizer via_tree(160, 120), via_list(160, 120);
  via_tree.clear();
  via_tree.draw_tree(tree, cam, {});
  render::raycast_tree_volumes(via_tree.framebuffer(), tree, cam);

  render_via_list(via_list, tree, cam, /*cull=*/true);
  expect_identical(via_tree.framebuffer(), via_list.framebuffer(), "draw_tree vs draw_list");
}

TEST(RenderListCull, OutOfFrustumVolumeCastsNoRays) {
  SceneTree tree;
  tree.add_child(scene::kRootNode, "behind", ball_grid(16),
                 util::Mat4::translate({0, 0, 50}));  // behind the eye at z=4
  const Camera cam = front_camera();
  const render::RenderList list = render::build_render_list(tree, cam, 4.0f / 3.0f, {});
  EXPECT_TRUE(list.volumes.empty());
  EXPECT_EQ(list.nodes_culled, 1u);

  FrameBuffer fb(64, 48);
  fb.clear({0, 0, 0});
  const RenderStats st = render::raycast_list(fb, list, cam, {});
  EXPECT_EQ(st.rays_cast, 0u);
}

// --- depth semantics ---------------------------------------------------------

TEST(RaycastDepth, ThinVolumeOccludesGeometryDrawnAfter) {
  // A thin, unsaturated volume (never reaches the opacity cutoff) must
  // still write depth once its accumulated alpha is visible, so geometry
  // rasterized afterwards composites *behind* it instead of punching
  // through.
  VoxelGridData thin = ball_grid(16);
  thin.opacity_scale = 0.4f;  // visible but far below the 0.97 cutoff
  const Camera cam = front_camera();

  Rasterizer raster(96, 72);
  raster.clear();
  const RenderStats st =
      render::raycast_volume(raster.framebuffer(), thin, util::Mat4::identity(), cam, {});
  ASSERT_GT(st.volume_samples, 0u);
  const int cx = 48, cy = 36;
  ASSERT_LT(raster.framebuffer().depth_at(cx, cy), 1.0f)
      << "thin volume wrote no depth at the centre";
  const std::vector<uint8_t> before = raster.framebuffer().color();

  // A frame-filling slab well behind the ball (z=-5 vs the ball around the
  // origin).
  scene::MeshData slab = mesh::make_box({12.0f, 12.0f, 0.05f}, 1);
  slab.base_color = {0.0f, 1.0f, 0.0f};
  raster.draw_mesh(slab, util::Mat4::translate({0, 0, -5}), cam, {});

  const std::vector<uint8_t>& after = raster.framebuffer().color();
  const size_t centre = (static_cast<size_t>(cy) * 96 + cx) * 3;
  EXPECT_EQ(before[centre], after[centre]) << "slab punched through the thin volume";
  EXPECT_EQ(before[centre + 1], after[centre + 1]);
  EXPECT_EQ(before[centre + 2], after[centre + 2]);
  // Control: away from the volume (left edge, mid-height) the slab did
  // rasterize.
  const size_t edge = (static_cast<size_t>(cy) * 96 + 4) * 3;
  EXPECT_NE(before[edge + 1], after[edge + 1]) << "slab rendered nowhere — vacuous test";
}

// --- rays/s cost model --------------------------------------------------------

TEST(CostModel, WorkUnitsPreferMeasuredRayWork) {
  core::NodeCost cost;
  cost.node = 7;
  cost.voxels = 1'000'000;
  EXPECT_DOUBLE_EQ(cost.work_units(), 0.01 * 1e6);  // static fallback
  cost.measured_rays = 40'000;
  cost.ray_work = 90'000.0;
  EXPECT_DOUBLE_EQ(cost.work_units(), 90'000.0);  // measured model wins
}

TEST(CostModel, MigrationExplainShowsRaysPerSecModel) {
  core::ServiceLoadView view;
  view.subscriber_id = 3;
  view.capacity.polygons_per_sec = 1e6;
  view.capacity.rays_per_sec = 1e5;  // the measured marcher rate
  core::NodeCost vol;
  vol.node = 42;
  vol.voxels = 500'000;
  vol.measured_rays = 30'000;
  vol.ray_work = static_cast<double>(vol.measured_rays) *
                 (view.capacity.polygons_per_sec / view.capacity.rays_per_sec);
  view.assigned.push_back(vol);

  core::MigrationExplain explain;
  core::plan_migration({view}, {.target_fps = 15.0}, &explain);
  const std::string summary = explain.summary();
  EXPECT_NE(summary.find("(rays/s model)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("volume node 42"), std::string::npos) << summary;
  EXPECT_NE(summary.find("30000 rays"), std::string::npos) << summary;
}

TEST(CostModel, LoadReportCarriesRayMeasurements) {
  core::LoadReportMsg m;
  m.session = "demo";
  m.fps = 24.5;
  m.frame_seconds = 0.041;
  m.assigned_triangles = 1234;
  m.volume_rays = 56789;
  m.volume_seconds = 0.0123;
  m.node_rays = {{7, 1000}, {42, 55789}};

  const auto decoded = core::decode_load_report(core::encode(m));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().session, m.session);
  EXPECT_DOUBLE_EQ(decoded.value().fps, m.fps);
  EXPECT_EQ(decoded.value().assigned_triangles, m.assigned_triangles);
  EXPECT_EQ(decoded.value().volume_rays, m.volume_rays);
  EXPECT_DOUBLE_EQ(decoded.value().volume_seconds, m.volume_seconds);
  EXPECT_EQ(decoded.value().node_rays, m.node_rays);
}

}  // namespace
}  // namespace rave
