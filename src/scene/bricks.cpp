#include "scene/bricks.hpp"

#include <algorithm>
#include <limits>

#include "scene/node.hpp"

namespace rave::scene {

namespace {

// Support-expanded max along one axis of an (inner, n, outer) array, x
// fastest: output slice c is the max over input slices [2c, 2c+2] (clamped
// to n-1) — every voxel a trilinear sample with base voxel 2c or 2c+1
// reads along this axis. Applied once per axis it yields the fine level.
std::vector<float> support_max_axis(const std::vector<float>& in, size_t inner, uint32_t n,
                                    size_t outer) {
  const uint32_t m = (n + 1) / 2;
  std::vector<float> out(inner * m * outer);
  for (size_t o = 0; o < outer; ++o)
    for (uint32_t c = 0; c < m; ++c) {
      float* dst = &out[(o * m + c) * inner];
      const float* first = &in[(o * n + 2 * c) * inner];
      std::copy(first, first + inner, dst);
      for (uint32_t i = 2 * c + 1; i <= std::min(2 * c + 2, n - 1); ++i) {
        const float* src = &in[(o * n + i) * inner];
        for (size_t j = 0; j < inner; ++j) dst[j] = std::max(dst[j], src[j]);
      }
    }
  return out;
}

// Fold an (sx, sy, sz) max table into its parents, 2^shift children per
// axis. Children partition their parent's base voxels and their support
// ranges chain end to end, so each parent max bounds every sample whose
// base voxel lies in the parent.
std::vector<float> fold_max(const std::vector<float>& child, uint32_t sx, uint32_t sy,
                            uint32_t sz, uint32_t shift, uint32_t& px, uint32_t& py,
                            uint32_t& pz) {
  const uint32_t round = (1u << shift) - 1;
  px = (sx + round) >> shift;
  py = (sy + round) >> shift;
  pz = (sz + round) >> shift;
  std::vector<float> parent(static_cast<size_t>(px) * py * pz,
                            std::numeric_limits<float>::lowest());
  size_t i = 0;
  for (uint32_t z = 0; z < sz; ++z)
    for (uint32_t y = 0; y < sy; ++y)
      for (uint32_t x = 0; x < sx; ++x, ++i) {
        float& p = parent[(static_cast<size_t>(z >> shift) * py + (y >> shift)) * px +
                          (x >> shift)];
        p = std::max(p, child[i]);
      }
  return parent;
}

}  // namespace

std::shared_ptr<const MacroCells> build_macro_cells(const VoxelGridData& grid) {
  auto cells = std::make_shared<MacroCells>();
  if (grid.voxel_count() == 0 || grid.values.size() < grid.voxel_count()) return cells;
  cells->fx = (grid.nx + 1) / 2;
  cells->fy = (grid.ny + 1) / 2;
  cells->fz = (grid.nz + 1) / 2;
  // Fine cell c covers base voxels [2c, 2c+1] and, because trilinear
  // interpolation reads one voxel past the base, support [2c, 2c+2].
  const std::vector<float> along_x = support_max_axis(
      grid.values, 1, grid.nx, static_cast<size_t>(grid.ny) * grid.nz);
  const std::vector<float> along_y = support_max_axis(along_x, cells->fx, grid.ny, grid.nz);
  cells->fine_max =
      support_max_axis(along_y, static_cast<size_t>(cells->fx) * cells->fy, grid.nz, 1);
  // Brick b covers fine cells [4b, 4b+3]: their supports [8b, 8b+2], ...,
  // [8b+6, 8b+8] chain into the brick's support [8b, 8b+8]. Coarse cells
  // fold 2x2x2 bricks the same way.
  constexpr uint32_t kFineToBrickShift = MacroCells::kBrickShift - MacroCells::kFineShift;
  cells->max_v = fold_max(cells->fine_max, cells->fx, cells->fy, cells->fz, kFineToBrickShift,
                          cells->bx, cells->by, cells->bz);
  cells->coarse_max = fold_max(cells->max_v, cells->bx, cells->by, cells->bz,
                               MacroCells::kCoarseShift - MacroCells::kBrickShift, cells->cx,
                               cells->cy, cells->cz);
  return cells;
}

std::shared_ptr<const MacroCells> VoxelGridData::macro_cells() const {
  if (!macro_cells_cache_) macro_cells_cache_ = build_macro_cells(*this);
  return macro_cells_cache_;
}

}  // namespace rave::scene
