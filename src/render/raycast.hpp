// Volume ray-caster for VoxelGrid nodes — the voxel rendering path the
// paper lists as an extension (§6). Front-to-back alpha compositing along
// view rays; writes color into the framebuffer and depth once a ray's
// accumulated opacity crosses a small threshold, so volumes composite
// correctly against rasterized geometry and against volume sub-blocks
// rendered by other services ("Subset blocks of the volume can be blended
// ... by considering their relative distance from the view in the order of
// blending").
//
// The marcher is a two-level DDA with position-anchored stepping: sample k
// of a ray sits at t0 + k*step, a function of the ray and the absolute
// sample index alone, never of accumulated additions. The grid carries
// cached three-level max bounds (scene/bricks.hpp): 16^3 coarse cells and
// 8^3 bricks whose support-expanded max is below the transfer function's
// iso_low are skipped whole — provably without touching any sample the
// brute-force march would shade — and rays retire early at the opacity
// cutoff. Before the march, the screen footprint of the occupied 2^3 fine
// cells is projected once per call; a ray whose pixel it misses is counted
// (rays_cast, rays_culled) but not marched. Sample evaluation runs 4/8-wide
// (SSE2/AVX2/NEON, picked by util::active_simd_level) with a scalar twin
// performing the identical float op sequence, so output is byte-identical
// across {scalar, SIMD} × {serial, pooled} × {brute, skipped and culled} —
// see DESIGN.md "Fast volume path" and tests/test_raycast.
//
// Ray setup — pixel centre to grid-space unit ray, then the box slab
// test — runs for 8 consecutive pixels of a row at once under AVX2; the
// row tail and other levels use the scalar setup. Each lane performs the
// scalar op sequence exactly: the same products and left-to-right sums of
// transform_dir (its w = 0 terms included), normalize's FLT_MIN case, the
// slab test's parallel branch, and max_ps(a, t0) / min_ps(b, t1), which
// resolve ties and NaN like std::max(t0, a) / std::min(t1, b). Division
// and square root are correctly rounded in both forms, so every ray —
// and with it every pixel and counter — is bit-equal to the scalar one.
#pragma once

#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera.hpp"
#include "scene/node.hpp"
#include "scene/tree.hpp"
#include "util/thread_pool.hpp"

namespace rave::render {

struct RenderList;  // render/render_list.hpp

struct RaycastOptions {
  // Samples per voxel edge; >1 oversamples, <1 skips.
  float sampling_rate = 1.0f;
  // Terminate rays once accumulated opacity exceeds this.
  float opacity_cutoff = 0.97f;
  // Write depth at the first sample where accumulated opacity crosses this
  // threshold. A visibly-contributing-but-unsaturated volume therefore
  // still occludes geometry rasterized after it (previously depth was only
  // written at the full opacity_cutoff, and thin volumes were punched
  // through).
  float depth_alpha = 0.05f;
  // Macro-cell empty-space skipping and the footprint ray cull. False = the
  // brute-force march (every sample evaluated) — the byte-identical twin
  // the property tests and the BENCH_raycast baseline compare against.
  bool empty_skip = true;
  Tile region{};
  // Parallelise over scanline rows on this pool (rays are independent, so
  // the result is bit-identical to the serial path). Null = serial.
  util::ThreadPool* pool = nullptr;
};

// Cast the grid under `model` into `fb` (which must already hold the
// rasterized opaque scene so depth occlusion works both ways). Returns the
// per-call marcher stats (rays cast and culled, samples shaded, bricks
// skipped).
RenderStats raycast_volume(FrameBuffer& fb, const scene::VoxelGridData& grid,
                           const util::Mat4& model, const scene::Camera& camera,
                           const RaycastOptions& options = {});

// Ray-cast every VoxelGrid node in the tree.
RenderStats raycast_tree_volumes(FrameBuffer& fb, const scene::SceneTree& tree,
                                 const scene::Camera& camera,
                                 const RaycastOptions& options = {});

// Ray-cast the volume blocks of a culled render list (render_list.hpp) in
// list order. When `per_volume` is non-null it is filled with one stats
// entry per list volume (aligned with list.volumes) — the per-node ray
// counts feed the rays/s cost model in core/capacity.
RenderStats raycast_list(FrameBuffer& fb, const RenderList& list, const scene::Camera& camera,
                         const RaycastOptions& options = {},
                         std::vector<RenderStats>* per_volume = nullptr);

}  // namespace rave::render
