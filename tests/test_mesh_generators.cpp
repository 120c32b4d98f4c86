// Generator, isosurface and decimation tests — the provenance pipeline for
// the paper's benchmark models (Table 1).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mesh/decimate.hpp"
#include "mesh/fields.hpp"
#include "mesh/generators.hpp"
#include "mesh/marching_cubes.hpp"
#include "mesh/primitives.hpp"

namespace rave::mesh {
namespace {

void expect_valid_mesh(const MeshData& mesh) {
  ASSERT_FALSE(mesh.positions.empty());
  ASSERT_FALSE(mesh.indices.empty());
  EXPECT_EQ(mesh.indices.size() % 3, 0u);
  for (uint32_t idx : mesh.indices) ASSERT_LT(idx, mesh.positions.size());
  EXPECT_EQ(mesh.normals.size(), mesh.positions.size());
}

TEST(Primitives, SphereTriangleCountFormula) {
  const int slices = 12, stacks = 9;
  const MeshData sphere = make_uv_sphere(1.0f, slices, stacks);
  expect_valid_mesh(sphere);
  EXPECT_EQ(sphere.triangle_count(), static_cast<size_t>(2 * slices * (stacks - 1)));
  // All vertices on the unit sphere.
  for (const auto& p : sphere.positions) EXPECT_NEAR(p.length(), 1.0f, 1e-4f);
}

TEST(Primitives, BoxIsClosedUnderSubdivision) {
  const MeshData box = make_box({1, 1, 1}, 3);
  expect_valid_mesh(box);
  EXPECT_EQ(box.triangle_count(), static_cast<size_t>(12 * 3 * 3));
  const scene::Aabb bounds = box.bounds();
  EXPECT_NEAR(bounds.lo.x, -1.0f, 1e-5f);
  EXPECT_NEAR(bounds.hi.z, 1.0f, 1e-5f);
}

TEST(Primitives, TorusIsWatertight) {
  const MeshData torus = make_torus(2.0f, 0.5f, 16, 12);
  expect_valid_mesh(torus);
  // Closed 2-manifold: every directed edge has exactly one opposite.
  std::map<std::pair<uint32_t, uint32_t>, int> edges;
  for (size_t i = 0; i + 2 < torus.indices.size(); i += 3) {
    const uint32_t v[3] = {torus.indices[i], torus.indices[i + 1], torus.indices[i + 2]};
    for (int e = 0; e < 3; ++e) edges[{v[e], v[(e + 1) % 3]}]++;
  }
  for (const auto& [edge, count] : edges) {
    EXPECT_EQ(count, 1);
    EXPECT_EQ(edges.count({edge.second, edge.first}), 1u);
  }
}

TEST(Primitives, TubeFollowsPath) {
  std::vector<scene::Vec3> path{{0, 0, 0}, {1, 0, 0}, {2, 1, 0}, {3, 1, 1}};
  const MeshData tube = make_tube(path, 0.1f, 8);
  expect_valid_mesh(tube);
  EXPECT_EQ(tube.triangle_count(), static_cast<size_t>(2 * 3 * 8));
  // All vertices within radius of the path's bounding box (loose check).
  scene::Aabb box;
  for (const auto& p : path) box.extend(p);
  box.lo -= scene::Vec3{0.2f, 0.2f, 0.2f};
  box.hi += scene::Vec3{0.2f, 0.2f, 0.2f};
  for (const auto& p : tube.positions) EXPECT_TRUE(box.contains(p));
}

TEST(Primitives, AppendMeshTransformsAndOffsets) {
  MeshData base = make_cone(1.0f, 2.0f, 8);
  const size_t base_verts = base.positions.size();
  const MeshData extra = make_cone(1.0f, 2.0f, 8);
  append_mesh(base, extra, util::Mat4::translate({10, 0, 0}));
  EXPECT_EQ(base.positions.size(), 2 * base_verts);
  for (uint32_t idx : base.indices) ASSERT_LT(idx, base.positions.size());
  EXPECT_GT(base.bounds().hi.x, 9.0f);
}

struct TargetCase {
  const char* name;
  size_t target;
  double tolerance;
};

// Without this gtest names each case by the raw bytes of the struct, which
// include the `name` pointer and so change from one process to the next.
// The model name is already the case suffix.
void PrintTo(const TargetCase& tc, std::ostream* os) {
  *os << tc.target << " tris, tol " << tc.tolerance;
}

class GeneratorTargetTest : public testing::TestWithParam<TargetCase> {};

TEST_P(GeneratorTargetTest, HitsTriangleBudget) {
  const TargetCase& tc = GetParam();
  const MeshData mesh = make_model(tc.name, tc.target);
  expect_valid_mesh(mesh);
  const double ratio =
      static_cast<double>(mesh.triangle_count()) / static_cast<double>(tc.target);
  EXPECT_GT(ratio, 1.0 - tc.tolerance) << mesh.triangle_count();
  EXPECT_LT(ratio, 1.0 + tc.tolerance) << mesh.triangle_count();
  // Normalized to the unit cube for predictable camera framing.
  const scene::Aabb bounds = mesh.bounds();
  EXPECT_LE(bounds.extent().x, 2.01f);
  EXPECT_LE(bounds.extent().y, 2.01f);
}

INSTANTIATE_TEST_SUITE_P(Models, GeneratorTargetTest,
                         testing::Values(TargetCase{"Skeletal Hand", 40'000, 0.25},
                                         TargetCase{"Skeleton", 60'000, 0.25},
                                         TargetCase{"Galleon", 5'500, 0.35},
                                         TargetCase{"Elle", 25'000, 0.25}),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (char& c : name)
                             if (c == ' ') c = '_';
                           return name;
                         });

TEST(Generators, CatalogMatchesPaperTable1) {
  const auto& catalog = model_catalog();
  ASSERT_EQ(catalog.size(), 4u);
  EXPECT_EQ(catalog[0].name, "Skeletal Hand");
  EXPECT_EQ(catalog[0].paper_triangles, 830'000u);
  EXPECT_EQ(catalog[1].name, "Skeleton");
  EXPECT_EQ(catalog[1].paper_triangles, 2'800'000u);
}

TEST(Fields, BallFieldFallsOffWithDistance) {
  const ScalarField field = ball_field({0, 0, 0}, 2.0f);
  EXPECT_NEAR(field({0, 0, 0}), 1.0f, 1e-5f);
  EXPECT_GT(field({1, 0, 0}), field({1.5f, 0, 0}));
  EXPECT_FLOAT_EQ(field({3, 0, 0}), 0.0f);
}

TEST(Fields, UnionTakesMaximum) {
  const ScalarField field =
      union_field({ball_field({0, 0, 0}, 1.0f), ball_field({2, 0, 0}, 1.0f)});
  EXPECT_NEAR(field({2, 0, 0}), 1.0f, 1e-5f);
  EXPECT_NEAR(field({0, 0, 0}), 1.0f, 1e-5f);
}

TEST(Isosurface, SphereFieldProducesSphericalMesh) {
  scene::Aabb bounds;
  bounds.extend({-2, -2, -2});
  bounds.extend({2, 2, 2});
  const auto grid = rasterize_field(ball_field({0, 0, 0}, 2.0f), bounds, 32, 32, 32);
  const MeshData mesh = extract_isosurface(grid, {.iso_value = 0.5f});
  expect_valid_mesh(mesh);
  // iso=0.5 of a linear falloff with radius 2 is the r=1 sphere.
  for (const auto& p : mesh.positions) EXPECT_NEAR(p.length(), 1.0f, 0.15f);
}

TEST(Isosurface, OutputIsWatertight) {
  scene::Aabb bounds;
  bounds.extend({-1.5f, -1.5f, -1.5f});
  bounds.extend({1.5f, 1.5f, 1.5f});
  const auto grid = rasterize_field(ball_field({0, 0, 0}, 1.2f), bounds, 24, 24, 24);
  const MeshData mesh = extract_isosurface(grid, {.iso_value = 0.5f});
  // Watertightness: every edge appears exactly twice (once per direction).
  std::map<std::pair<uint32_t, uint32_t>, int> edges;
  for (size_t i = 0; i + 2 < mesh.indices.size(); i += 3) {
    const uint32_t v[3] = {mesh.indices[i], mesh.indices[i + 1], mesh.indices[i + 2]};
    for (int e = 0; e < 3; ++e) {
      const uint32_t a = v[e], b = v[(e + 1) % 3];
      edges[{std::min(a, b), std::max(a, b)}]++;
    }
  }
  for (const auto& [edge, count] : edges) EXPECT_EQ(count, 2) << edge.first << "-" << edge.second;
}

TEST(Isosurface, NormalsPointOutwards) {
  scene::Aabb bounds;
  bounds.extend({-2, -2, -2});
  bounds.extend({2, 2, 2});
  const auto grid = rasterize_field(ball_field({0, 0, 0}, 2.0f), bounds, 24, 24, 24);
  const MeshData mesh = extract_isosurface(grid, {.iso_value = 0.5f});
  size_t outward = 0;
  for (size_t i = 0; i < mesh.positions.size(); ++i)
    if (util::dot(mesh.normals[i], util::normalize(mesh.positions[i])) > 0) ++outward;
  // Virtually all normals should face away from the ball center.
  EXPECT_GT(static_cast<double>(outward) / mesh.positions.size(), 0.95);
}

TEST(Decimate, ReducesTriangleCountAndKeepsShape) {
  const MeshData dense = make_uv_sphere(1.0f, 48, 32);
  const MeshData coarse = decimate_clustering(dense, {.grid_resolution = 8});
  expect_valid_mesh(coarse);
  EXPECT_LT(coarse.triangle_count(), dense.triangle_count() / 4);
  for (const auto& p : coarse.positions) EXPECT_NEAR(p.length(), 1.0f, 0.2f);
}

TEST(Decimate, ToTargetMeetsBudget) {
  const MeshData dense = make_uv_sphere(1.0f, 64, 48);
  const MeshData out = decimate_to_target(dense, 500);
  EXPECT_LE(out.triangle_count(), 500u);
  EXPECT_GT(out.triangle_count(), 20u);
}

TEST(Decimate, WeldMergesCoincidentVertices) {
  MeshData two_tris;
  two_tris.positions = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
  two_tris.indices = {0, 1, 2, 3, 5, 4};
  two_tris.compute_normals();
  const MeshData welded = weld_vertices(two_tris, 1e-5f);
  EXPECT_EQ(welded.positions.size(), 4u);
  EXPECT_EQ(welded.triangle_count(), 2u);
}

TEST(Provenance, SkeletonFromVolumePipeline) {
  // marching cubes + decimation, as the paper's skeleton model was made.
  const MeshData skeleton = make_skeleton_from_volume(40, 20'000);
  expect_valid_mesh(skeleton);
  EXPECT_LE(skeleton.triangle_count(), 20'000u);
  EXPECT_GT(skeleton.triangle_count(), 1'000u);
}

}  // namespace
}  // namespace rave::mesh
