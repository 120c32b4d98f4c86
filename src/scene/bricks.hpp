// Max macro-cells over a VoxelGridData — the empty-space acceleration
// structure for the volume ray-caster, in three levels: 2^3-voxel fine
// cells, 8^3-voxel bricks and 16^3-voxel coarse cells. Every cell stores
// the max density over a *support-expanded* voxel range (one voxel beyond
// the cell on the high side), so the max bounds every trilinear sample
// whose base voxel falls inside the cell. A cell whose support max is
// strictly below the transfer function's iso_low is provably transparent:
// every sample the brute-force marcher would take inside it is a convex
// combination of densities < iso_low and hits the marcher's
// `density < iso_low` skip — which is what makes brick skipping and the
// fine-cell footprint cull byte-identical to the brute march (DESIGN.md
// "Fast volume path"). Bricks and coarse cells drive the per-ray skip
// walk; fine cells bound the screen footprint of occupied space.
//
// The cells are cached on the VoxelGridData (see node.hpp). The cache is
// invalidated automatically by the scene/update path (SetPayload replaces
// the payload wholesale, and a freshly decoded grid carries no cache);
// direct mutation through at() must call invalidate_macro_cells().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace rave::scene {

struct VoxelGridData;

struct MacroCells {
  // Fine level: 2^3 voxels, the granularity of the screen-footprint cull.
  static constexpr uint32_t kFineShift = 1;
  // Brick edge in voxels. 8^3 balances skip granularity against the cost
  // of the per-brick max table (1/512 of the volume).
  static constexpr uint32_t kBrickShift = 3;
  // Coarse level: 2x2x2 bricks (16^3 voxels). Large empty regions skip in
  // coarse cells, halving the per-brick jump count along a ray.
  static constexpr uint32_t kCoarseShift = kBrickShift + 1;

  uint32_t fx = 0, fy = 0, fz = 0;  // fine-cell counts per axis
  std::vector<float> fine_max;      // fx*fy*fz, x fastest
  uint32_t bx = 0, by = 0, bz = 0;  // brick counts per axis
  std::vector<float> max_v;         // bx*by*bz, x fastest
  uint32_t cx = 0, cy = 0, cz = 0;  // coarse-cell counts per axis
  std::vector<float> coarse_max;    // cx*cy*cz, x fastest

  [[nodiscard]] size_t index(uint32_t ix, uint32_t iy, uint32_t iz) const {
    return (static_cast<size_t>(iz) * by + iy) * bx + ix;
  }
  // True when every trilinear sample with its base voxel in this brick is
  // strictly below `iso_low` (the marcher skips such samples unshaded).
  [[nodiscard]] bool transparent(uint32_t ix, uint32_t iy, uint32_t iz,
                                 float iso_low) const {
    return max_v[index(ix, iy, iz)] < iso_low;
  }

  [[nodiscard]] size_t coarse_index(uint32_t ix, uint32_t iy, uint32_t iz) const {
    return (static_cast<size_t>(iz) * cy + iy) * cx + ix;
  }
  // Same contract as transparent(), one level up: the coarse max is the
  // max over its constituent bricks' support-expanded maxes, so it bounds
  // every sample whose base voxel lies in the 16^3 cell.
  [[nodiscard]] bool coarse_transparent(uint32_t ix, uint32_t iy, uint32_t iz,
                                        float iso_low) const {
    return coarse_max[coarse_index(ix, iy, iz)] < iso_low;
  }

  [[nodiscard]] size_t fine_index(uint32_t ix, uint32_t iy, uint32_t iz) const {
    return (static_cast<size_t>(iz) * fy + iy) * fx + ix;
  }
  // Same contract one level down, for base voxels [2i, 2i+1] per axis.
  [[nodiscard]] bool fine_transparent(uint32_t ix, uint32_t iy, uint32_t iz,
                                      float iso_low) const {
    return fine_max[fine_index(ix, iy, iz)] < iso_low;
  }
};

// One full pass over the grid. O(voxels), run once per volume edit.
std::shared_ptr<const MacroCells> build_macro_cells(const VoxelGridData& grid);

}  // namespace rave::scene
