#include "render/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "render/render_list.hpp"
#include "scene/bricks.hpp"
#include "util/simd.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace rave::render {

using scene::Camera;
using scene::MacroCells;
using scene::VoxelGridData;
using util::Mat4;
using util::Vec3;

namespace {

uint8_t to_byte(float v) { return static_cast<uint8_t>(std::clamp(v, 0.0f, 1.0f) * 255.0f + 0.5f); }

bool intersect_aabb(const Vec3& origin, const Vec3& dir, const scene::Aabb& box, float& t0,
                    float& t1) {
  t0 = 0.0f;
  t1 = std::numeric_limits<float>::max();
  const float o[3] = {origin.x, origin.y, origin.z};
  const float d[3] = {dir.x, dir.y, dir.z};
  const float lo[3] = {box.lo.x, box.lo.y, box.lo.z};
  const float hi[3] = {box.hi.x, box.hi.y, box.hi.z};
  for (int i = 0; i < 3; ++i) {
    if (std::fabs(d[i]) < 1e-12f) {
      if (o[i] < lo[i] || o[i] > hi[i]) return false;
      continue;
    }
    const float inv_d = 1.0f / d[i];  // |d| >= 1e-12, so inv_d is finite
    float a = (lo[i] - o[i]) * inv_d;
    float b = (hi[i] - o[i]) * inv_d;
    if (a > b) std::swap(a, b);
    t0 = std::max(t0, a);
    t1 = std::min(t1, b);
  }
  return t0 <= t1;
}

// Per-call constants hoisted out of the march. All transfer-function math
// uses precomputed reciprocals so the scalar and vector paths share the
// identical multiply sequence.
struct GridConsts {
  const float* values = nullptr;
  uint32_t nx = 0, ny = 0, nz = 0;
  float nxm1 = 0, nym1 = 0, nzm1 = 0;  // (n-1) as float, for float-domain clamps
  float gox = 0, goy = 0, goz = 0;     // grid origin
  float inv_sx = 0, inv_sy = 0, inv_sz = 0;
  float iso_low = 0;
  float inv_iso_range = 0;  // 1 / max(iso_high - iso_low, 1e-6)
  float clo_r = 0, clo_g = 0, clo_b = 0;           // color_low
  float cdelta_r = 0, cdelta_g = 0, cdelta_b = 0;  // color_high - color_low
  float ops = 0;                                   // opacity per step
  const MacroCells* cells = nullptr;               // null = brute-force march
};

// One ray in grid-local space. Sample k sits at t0 + (float)k * step —
// a function of the ray and the absolute sample index alone (never of
// accumulated additions), so brick skips and packet widths land on the
// exact same positions the brute scalar march visits.
struct RayLocal {
  float ox = 0, oy = 0, oz = 0;
  float dx = 0, dy = 0, dz = 0;  // normalized
  float t0 = 0;
  float step = 0;
  // Per-ray brick-slab constants, hoisted out of the per-jump exit
  // estimate: voxel-index-space motion f(t) = fa + fb*t per axis, the
  // reciprocals of fb (±inf when fb is ±0 — never dereferenced, the exit
  // estimate branches on fb's sign first), and 1/step. These only feed the
  // skip *estimate*; every skip is still verified with base_brick's exact
  // float sequence, so estimate rounding cannot change pixels.
  float fax = 0, fay = 0, faz = 0;
  float fbx = 0, fby = 0, fbz = 0;
  float ibx = 0, iby = 0, ibz = 0;
  float inv_step = 0;
};

constexpr int kMaxWave = 8;

// Lane outputs of one wave of consecutive samples along a ray.
struct SampleWave {
  float density[kMaxWave];
  float r[kMaxWave];
  float g[kMaxWave];
  float b[kMaxWave];
  float alpha[kMaxWave];
};

// The canonical per-sample evaluation. Every vector kernel below performs
// this exact float sequence lane-wise (same operand order for every
// min/max/mul/add; the build disables FMA contraction globally), which is
// what makes scalar and SIMD output byte-identical. Base voxels are
// clamped in the float domain — integral floats convert exactly, and
// float min/max is expressible at the SSE2 baseline where integer min is
// not.
inline void eval_sample(const GridConsts& g, const RayLocal& r, int k, SampleWave& w, int lane) {
  const float t = r.t0 + static_cast<float>(k) * r.step;
  const float px = r.ox + r.dx * t;
  const float py = r.oy + r.dy * t;
  const float pz = r.oz + r.dz * t;
  const float fx = (px - g.gox) * g.inv_sx - 0.5f;
  const float fy = (py - g.goy) * g.inv_sy - 0.5f;
  const float fz = (pz - g.goz) * g.inv_sz - 0.5f;
  const float flx = std::floor(fx);
  const float fly = std::floor(fy);
  const float flz = std::floor(fz);
  const float x0 = std::min(std::max(flx, 0.0f), g.nxm1);
  const float y0 = std::min(std::max(fly, 0.0f), g.nym1);
  const float z0 = std::min(std::max(flz, 0.0f), g.nzm1);
  const float x1 = std::min(x0 + 1.0f, g.nxm1);
  const float y1 = std::min(y0 + 1.0f, g.nym1);
  const float z1 = std::min(z0 + 1.0f, g.nzm1);
  const float tx = std::min(std::max(fx - flx, 0.0f), 1.0f);
  const float ty = std::min(std::max(fy - fly, 0.0f), 1.0f);
  const float tz = std::min(std::max(fz - flz, 0.0f), 1.0f);

  const size_t x0i = static_cast<size_t>(x0), x1i = static_cast<size_t>(x1);
  const size_t y0i = static_cast<size_t>(y0), y1i = static_cast<size_t>(y1);
  const size_t z0i = static_cast<size_t>(z0), z1i = static_cast<size_t>(z1);
  const size_t r00 = (z0i * g.ny + y0i) * g.nx;
  const size_t r10 = (z0i * g.ny + y1i) * g.nx;
  const size_t r01 = (z1i * g.ny + y0i) * g.nx;
  const size_t r11 = (z1i * g.ny + y1i) * g.nx;
  const float v000 = g.values[r00 + x0i], v100 = g.values[r00 + x1i];
  const float v010 = g.values[r10 + x0i], v110 = g.values[r10 + x1i];
  const float v001 = g.values[r01 + x0i], v101 = g.values[r01 + x1i];
  const float v011 = g.values[r11 + x0i], v111 = g.values[r11 + x1i];

  const float omx = 1.0f - tx;
  const float c00 = v000 * omx + v100 * tx;
  const float c10 = v010 * omx + v110 * tx;
  const float c01 = v001 * omx + v101 * tx;
  const float c11 = v011 * omx + v111 * tx;
  const float omy = 1.0f - ty;
  const float c0 = c00 * omy + c10 * ty;
  const float c1 = c01 * omy + c11 * ty;
  const float omz = 1.0f - tz;
  const float d = c0 * omz + c1 * tz;

  const float u = std::min(std::max((d - g.iso_low) * g.inv_iso_range, 0.0f), 1.0f);
  w.density[lane] = d;
  w.r[lane] = g.clo_r + g.cdelta_r * u;
  w.g[lane] = g.clo_g + g.cdelta_g * u;
  w.b[lane] = g.clo_b + g.cdelta_b * u;
  w.alpha[lane] = g.ops * (0.3f + 0.7f * u);
}

void wave_scalar(const GridConsts& g, const RayLocal& r, int k, int count, SampleWave& w) {
  for (int i = 0; i < count; ++i) eval_sample(g, r, k + i, w, i);
}

#if defined(__x86_64__)

// floor() at the SSE2 baseline (_mm_floor_ps is SSE4.1): truncate, then
// subtract one where truncation rounded up. Exact for |v| < 2^31, which
// box-clipped sample coordinates satisfy.
inline __m128 floor_ps_sse2(__m128 v) {
  const __m128 t = _mm_cvtepi32_ps(_mm_cvttps_epi32(v));
  return _mm_sub_ps(t, _mm_and_ps(_mm_cmpgt_ps(t, v), _mm_set1_ps(1.0f)));
}

void wave_sse2(const GridConsts& g, const RayLocal& r, int k, int /*count*/, SampleWave& w) {
  const __m128 zero = _mm_setzero_ps();
  const __m128 one = _mm_set1_ps(1.0f);
  // (float)(k+i) per lane — the same int→float conversion the scalar twin
  // performs, not a float add of k and i.
  const __m128 kf = _mm_setr_ps(static_cast<float>(k), static_cast<float>(k + 1),
                                static_cast<float>(k + 2), static_cast<float>(k + 3));
  const __m128 t = _mm_add_ps(_mm_set1_ps(r.t0), _mm_mul_ps(kf, _mm_set1_ps(r.step)));
  const __m128 px = _mm_add_ps(_mm_set1_ps(r.ox), _mm_mul_ps(_mm_set1_ps(r.dx), t));
  const __m128 py = _mm_add_ps(_mm_set1_ps(r.oy), _mm_mul_ps(_mm_set1_ps(r.dy), t));
  const __m128 pz = _mm_add_ps(_mm_set1_ps(r.oz), _mm_mul_ps(_mm_set1_ps(r.dz), t));
  const __m128 fx = _mm_sub_ps(_mm_mul_ps(_mm_sub_ps(px, _mm_set1_ps(g.gox)),
                                          _mm_set1_ps(g.inv_sx)),
                               _mm_set1_ps(0.5f));
  const __m128 fy = _mm_sub_ps(_mm_mul_ps(_mm_sub_ps(py, _mm_set1_ps(g.goy)),
                                          _mm_set1_ps(g.inv_sy)),
                               _mm_set1_ps(0.5f));
  const __m128 fz = _mm_sub_ps(_mm_mul_ps(_mm_sub_ps(pz, _mm_set1_ps(g.goz)),
                                          _mm_set1_ps(g.inv_sz)),
                               _mm_set1_ps(0.5f));
  const __m128 flx = floor_ps_sse2(fx), fly = floor_ps_sse2(fy), flz = floor_ps_sse2(fz);
  const __m128 nxm1 = _mm_set1_ps(g.nxm1), nym1 = _mm_set1_ps(g.nym1), nzm1 = _mm_set1_ps(g.nzm1);
  const __m128 x0 = _mm_min_ps(_mm_max_ps(flx, zero), nxm1);
  const __m128 y0 = _mm_min_ps(_mm_max_ps(fly, zero), nym1);
  const __m128 z0 = _mm_min_ps(_mm_max_ps(flz, zero), nzm1);
  const __m128 x1 = _mm_min_ps(_mm_add_ps(x0, one), nxm1);
  const __m128 y1 = _mm_min_ps(_mm_add_ps(y0, one), nym1);
  const __m128 z1 = _mm_min_ps(_mm_add_ps(z0, one), nzm1);
  const __m128 tx = _mm_min_ps(_mm_max_ps(_mm_sub_ps(fx, flx), zero), one);
  const __m128 ty = _mm_min_ps(_mm_max_ps(_mm_sub_ps(fy, fly), zero), one);
  const __m128 tz = _mm_min_ps(_mm_max_ps(_mm_sub_ps(fz, flz), zero), one);

  // Corner fetch stays scalar at the SSE2 tier (no gather instruction);
  // the coordinate math above and the blend below are the vector win.
  alignas(16) float xf0[4], xf1[4], yf0[4], yf1[4], zf0[4], zf1[4];
  _mm_store_ps(xf0, x0);
  _mm_store_ps(xf1, x1);
  _mm_store_ps(yf0, y0);
  _mm_store_ps(yf1, y1);
  _mm_store_ps(zf0, z0);
  _mm_store_ps(zf1, z1);
  alignas(16) float c[8][4];
  for (int i = 0; i < 4; ++i) {
    const size_t x0i = static_cast<size_t>(xf0[i]), x1i = static_cast<size_t>(xf1[i]);
    const size_t y0i = static_cast<size_t>(yf0[i]), y1i = static_cast<size_t>(yf1[i]);
    const size_t z0i = static_cast<size_t>(zf0[i]), z1i = static_cast<size_t>(zf1[i]);
    const size_t r00 = (z0i * g.ny + y0i) * g.nx;
    const size_t r10 = (z0i * g.ny + y1i) * g.nx;
    const size_t r01 = (z1i * g.ny + y0i) * g.nx;
    const size_t r11 = (z1i * g.ny + y1i) * g.nx;
    c[0][i] = g.values[r00 + x0i];
    c[1][i] = g.values[r00 + x1i];
    c[2][i] = g.values[r10 + x0i];
    c[3][i] = g.values[r10 + x1i];
    c[4][i] = g.values[r01 + x0i];
    c[5][i] = g.values[r01 + x1i];
    c[6][i] = g.values[r11 + x0i];
    c[7][i] = g.values[r11 + x1i];
  }
  const __m128 v000 = _mm_load_ps(c[0]), v100 = _mm_load_ps(c[1]);
  const __m128 v010 = _mm_load_ps(c[2]), v110 = _mm_load_ps(c[3]);
  const __m128 v001 = _mm_load_ps(c[4]), v101 = _mm_load_ps(c[5]);
  const __m128 v011 = _mm_load_ps(c[6]), v111 = _mm_load_ps(c[7]);

  const __m128 omx = _mm_sub_ps(one, tx);
  const __m128 c00 = _mm_add_ps(_mm_mul_ps(v000, omx), _mm_mul_ps(v100, tx));
  const __m128 c10 = _mm_add_ps(_mm_mul_ps(v010, omx), _mm_mul_ps(v110, tx));
  const __m128 c01 = _mm_add_ps(_mm_mul_ps(v001, omx), _mm_mul_ps(v101, tx));
  const __m128 c11 = _mm_add_ps(_mm_mul_ps(v011, omx), _mm_mul_ps(v111, tx));
  const __m128 omy = _mm_sub_ps(one, ty);
  const __m128 c0 = _mm_add_ps(_mm_mul_ps(c00, omy), _mm_mul_ps(c10, ty));
  const __m128 c1 = _mm_add_ps(_mm_mul_ps(c01, omy), _mm_mul_ps(c11, ty));
  const __m128 omz = _mm_sub_ps(one, tz);
  const __m128 d = _mm_add_ps(_mm_mul_ps(c0, omz), _mm_mul_ps(c1, tz));

  const __m128 u = _mm_min_ps(
      _mm_max_ps(_mm_mul_ps(_mm_sub_ps(d, _mm_set1_ps(g.iso_low)), _mm_set1_ps(g.inv_iso_range)),
                 zero),
      one);
  _mm_storeu_ps(w.density, d);
  _mm_storeu_ps(w.r, _mm_add_ps(_mm_set1_ps(g.clo_r), _mm_mul_ps(_mm_set1_ps(g.cdelta_r), u)));
  _mm_storeu_ps(w.g, _mm_add_ps(_mm_set1_ps(g.clo_g), _mm_mul_ps(_mm_set1_ps(g.cdelta_g), u)));
  _mm_storeu_ps(w.b, _mm_add_ps(_mm_set1_ps(g.clo_b), _mm_mul_ps(_mm_set1_ps(g.cdelta_b), u)));
  _mm_storeu_ps(w.alpha,
                _mm_mul_ps(_mm_set1_ps(g.ops),
                           _mm_add_ps(_mm_set1_ps(0.3f), _mm_mul_ps(_mm_set1_ps(0.7f), u))));
}

// Hoisted out of wave_avx2 because GCC lambdas do not inherit the
// enclosing function's target attribute.
__attribute__((target("avx2"), always_inline)) static inline __m256 avx2_lerp(__m256 a, __m256 b,
                                                                              __m256 om, __m256 t) {
  return _mm256_add_ps(_mm256_mul_ps(a, om), _mm256_mul_ps(b, t));
}

__attribute__((target("avx2"))) void wave_avx2(const GridConsts& g, const RayLocal& r, int k,
                                               int /*count*/, SampleWave& w) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 kf = _mm256_setr_ps(
      static_cast<float>(k), static_cast<float>(k + 1), static_cast<float>(k + 2),
      static_cast<float>(k + 3), static_cast<float>(k + 4), static_cast<float>(k + 5),
      static_cast<float>(k + 6), static_cast<float>(k + 7));
  const __m256 t = _mm256_add_ps(_mm256_set1_ps(r.t0), _mm256_mul_ps(kf, _mm256_set1_ps(r.step)));
  const __m256 px = _mm256_add_ps(_mm256_set1_ps(r.ox), _mm256_mul_ps(_mm256_set1_ps(r.dx), t));
  const __m256 py = _mm256_add_ps(_mm256_set1_ps(r.oy), _mm256_mul_ps(_mm256_set1_ps(r.dy), t));
  const __m256 pz = _mm256_add_ps(_mm256_set1_ps(r.oz), _mm256_mul_ps(_mm256_set1_ps(r.dz), t));
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 fx =
      _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(px, _mm256_set1_ps(g.gox)),
                                  _mm256_set1_ps(g.inv_sx)),
                    half);
  const __m256 fy =
      _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(py, _mm256_set1_ps(g.goy)),
                                  _mm256_set1_ps(g.inv_sy)),
                    half);
  const __m256 fz =
      _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(pz, _mm256_set1_ps(g.goz)),
                                  _mm256_set1_ps(g.inv_sz)),
                    half);
  const __m256 flx = _mm256_floor_ps(fx), fly = _mm256_floor_ps(fy), flz = _mm256_floor_ps(fz);
  const __m256 nxm1 = _mm256_set1_ps(g.nxm1), nym1 = _mm256_set1_ps(g.nym1),
               nzm1 = _mm256_set1_ps(g.nzm1);
  const __m256 x0 = _mm256_min_ps(_mm256_max_ps(flx, zero), nxm1);
  const __m256 y0 = _mm256_min_ps(_mm256_max_ps(fly, zero), nym1);
  const __m256 z0 = _mm256_min_ps(_mm256_max_ps(flz, zero), nzm1);
  const __m256 x1 = _mm256_min_ps(_mm256_add_ps(x0, one), nxm1);
  const __m256 y1 = _mm256_min_ps(_mm256_add_ps(y0, one), nym1);
  const __m256 z1 = _mm256_min_ps(_mm256_add_ps(z0, one), nzm1);
  const __m256 tx = _mm256_min_ps(_mm256_max_ps(_mm256_sub_ps(fx, flx), zero), one);
  const __m256 ty = _mm256_min_ps(_mm256_max_ps(_mm256_sub_ps(fy, fly), zero), one);
  const __m256 tz = _mm256_min_ps(_mm256_max_ps(_mm256_sub_ps(fz, flz), zero), one);

  // Integer corner indices + hardware gathers. Base voxels are integral
  // floats, so cvttps is exact; 32-bit index math bounds the grid at 2^31
  // voxels (8 GiB of floats — far beyond anything the services ship).
  const __m256i x0i = _mm256_cvttps_epi32(x0), x1i = _mm256_cvttps_epi32(x1);
  const __m256i y0i = _mm256_cvttps_epi32(y0), y1i = _mm256_cvttps_epi32(y1);
  const __m256i z0i = _mm256_cvttps_epi32(z0), z1i = _mm256_cvttps_epi32(z1);
  const __m256i nxv = _mm256_set1_epi32(static_cast<int>(g.nx));
  const __m256i nyv = _mm256_set1_epi32(static_cast<int>(g.ny));
  const __m256i r00 =
      _mm256_mullo_epi32(_mm256_add_epi32(_mm256_mullo_epi32(z0i, nyv), y0i), nxv);
  const __m256i r10 =
      _mm256_mullo_epi32(_mm256_add_epi32(_mm256_mullo_epi32(z0i, nyv), y1i), nxv);
  const __m256i r01 =
      _mm256_mullo_epi32(_mm256_add_epi32(_mm256_mullo_epi32(z1i, nyv), y0i), nxv);
  const __m256i r11 =
      _mm256_mullo_epi32(_mm256_add_epi32(_mm256_mullo_epi32(z1i, nyv), y1i), nxv);
  const float* vals = g.values;
  const __m256 v000 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r00, x0i), 4);
  const __m256 v100 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r00, x1i), 4);
  const __m256 v010 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r10, x0i), 4);
  const __m256 v110 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r10, x1i), 4);
  const __m256 v001 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r01, x0i), 4);
  const __m256 v101 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r01, x1i), 4);
  const __m256 v011 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r11, x0i), 4);
  const __m256 v111 = _mm256_i32gather_ps(vals, _mm256_add_epi32(r11, x1i), 4);

  const __m256 omx = _mm256_sub_ps(one, tx);
  const __m256 c00 = avx2_lerp(v000, v100, omx, tx);
  const __m256 c10 = avx2_lerp(v010, v110, omx, tx);
  const __m256 c01 = avx2_lerp(v001, v101, omx, tx);
  const __m256 c11 = avx2_lerp(v011, v111, omx, tx);
  const __m256 omy = _mm256_sub_ps(one, ty);
  const __m256 c0 = avx2_lerp(c00, c10, omy, ty);
  const __m256 c1 = avx2_lerp(c01, c11, omy, ty);
  const __m256 omz = _mm256_sub_ps(one, tz);
  const __m256 d = avx2_lerp(c0, c1, omz, tz);

  const __m256 u = _mm256_min_ps(
      _mm256_max_ps(_mm256_mul_ps(_mm256_sub_ps(d, _mm256_set1_ps(g.iso_low)),
                                  _mm256_set1_ps(g.inv_iso_range)),
                    zero),
      one);
  _mm256_storeu_ps(w.density, d);
  _mm256_storeu_ps(w.r, _mm256_add_ps(_mm256_set1_ps(g.clo_r),
                                      _mm256_mul_ps(_mm256_set1_ps(g.cdelta_r), u)));
  _mm256_storeu_ps(w.g, _mm256_add_ps(_mm256_set1_ps(g.clo_g),
                                      _mm256_mul_ps(_mm256_set1_ps(g.cdelta_g), u)));
  _mm256_storeu_ps(w.b, _mm256_add_ps(_mm256_set1_ps(g.clo_b),
                                      _mm256_mul_ps(_mm256_set1_ps(g.cdelta_b), u)));
  _mm256_storeu_ps(
      w.alpha,
      _mm256_mul_ps(_mm256_set1_ps(g.ops),
                    _mm256_add_ps(_mm256_set1_ps(0.3f),
                                  _mm256_mul_ps(_mm256_set1_ps(0.7f), u))));
}

#elif defined(__aarch64__)

void wave_neon(const GridConsts& g, const RayLocal& r, int k, int /*count*/, SampleWave& w) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t kf = {static_cast<float>(k), static_cast<float>(k + 1),
                          static_cast<float>(k + 2), static_cast<float>(k + 3)};
  const float32x4_t t = vaddq_f32(vdupq_n_f32(r.t0), vmulq_f32(kf, vdupq_n_f32(r.step)));
  const float32x4_t px = vaddq_f32(vdupq_n_f32(r.ox), vmulq_f32(vdupq_n_f32(r.dx), t));
  const float32x4_t py = vaddq_f32(vdupq_n_f32(r.oy), vmulq_f32(vdupq_n_f32(r.dy), t));
  const float32x4_t pz = vaddq_f32(vdupq_n_f32(r.oz), vmulq_f32(vdupq_n_f32(r.dz), t));
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t fx =
      vsubq_f32(vmulq_f32(vsubq_f32(px, vdupq_n_f32(g.gox)), vdupq_n_f32(g.inv_sx)), half);
  const float32x4_t fy =
      vsubq_f32(vmulq_f32(vsubq_f32(py, vdupq_n_f32(g.goy)), vdupq_n_f32(g.inv_sy)), half);
  const float32x4_t fz =
      vsubq_f32(vmulq_f32(vsubq_f32(pz, vdupq_n_f32(g.goz)), vdupq_n_f32(g.inv_sz)), half);
  const float32x4_t flx = vrndmq_f32(fx), fly = vrndmq_f32(fy), flz = vrndmq_f32(fz);
  const float32x4_t nxm1 = vdupq_n_f32(g.nxm1), nym1 = vdupq_n_f32(g.nym1),
                    nzm1 = vdupq_n_f32(g.nzm1);
  const float32x4_t x0 = vminq_f32(vmaxq_f32(flx, zero), nxm1);
  const float32x4_t y0 = vminq_f32(vmaxq_f32(fly, zero), nym1);
  const float32x4_t z0 = vminq_f32(vmaxq_f32(flz, zero), nzm1);
  const float32x4_t x1 = vminq_f32(vaddq_f32(x0, one), nxm1);
  const float32x4_t y1 = vminq_f32(vaddq_f32(y0, one), nym1);
  const float32x4_t z1 = vminq_f32(vaddq_f32(z0, one), nzm1);
  const float32x4_t tx = vminq_f32(vmaxq_f32(vsubq_f32(fx, flx), zero), one);
  const float32x4_t ty = vminq_f32(vmaxq_f32(vsubq_f32(fy, fly), zero), one);
  const float32x4_t tz = vminq_f32(vmaxq_f32(vsubq_f32(fz, flz), zero), one);

  alignas(16) float xf0[4], xf1[4], yf0[4], yf1[4], zf0[4], zf1[4];
  vst1q_f32(xf0, x0);
  vst1q_f32(xf1, x1);
  vst1q_f32(yf0, y0);
  vst1q_f32(yf1, y1);
  vst1q_f32(zf0, z0);
  vst1q_f32(zf1, z1);
  alignas(16) float c[8][4];
  for (int i = 0; i < 4; ++i) {
    const size_t x0i = static_cast<size_t>(xf0[i]), x1i = static_cast<size_t>(xf1[i]);
    const size_t y0i = static_cast<size_t>(yf0[i]), y1i = static_cast<size_t>(yf1[i]);
    const size_t z0i = static_cast<size_t>(zf0[i]), z1i = static_cast<size_t>(zf1[i]);
    const size_t r00 = (z0i * g.ny + y0i) * g.nx;
    const size_t r10 = (z0i * g.ny + y1i) * g.nx;
    const size_t r01 = (z1i * g.ny + y0i) * g.nx;
    const size_t r11 = (z1i * g.ny + y1i) * g.nx;
    c[0][i] = g.values[r00 + x0i];
    c[1][i] = g.values[r00 + x1i];
    c[2][i] = g.values[r10 + x0i];
    c[3][i] = g.values[r10 + x1i];
    c[4][i] = g.values[r01 + x0i];
    c[5][i] = g.values[r01 + x1i];
    c[6][i] = g.values[r11 + x0i];
    c[7][i] = g.values[r11 + x1i];
  }
  const float32x4_t v000 = vld1q_f32(c[0]), v100 = vld1q_f32(c[1]);
  const float32x4_t v010 = vld1q_f32(c[2]), v110 = vld1q_f32(c[3]);
  const float32x4_t v001 = vld1q_f32(c[4]), v101 = vld1q_f32(c[5]);
  const float32x4_t v011 = vld1q_f32(c[6]), v111 = vld1q_f32(c[7]);

  const float32x4_t omx = vsubq_f32(one, tx);
  const float32x4_t c00 = vaddq_f32(vmulq_f32(v000, omx), vmulq_f32(v100, tx));
  const float32x4_t c10 = vaddq_f32(vmulq_f32(v010, omx), vmulq_f32(v110, tx));
  const float32x4_t c01 = vaddq_f32(vmulq_f32(v001, omx), vmulq_f32(v101, tx));
  const float32x4_t c11 = vaddq_f32(vmulq_f32(v011, omx), vmulq_f32(v111, tx));
  const float32x4_t omy = vsubq_f32(one, ty);
  const float32x4_t c0 = vaddq_f32(vmulq_f32(c00, omy), vmulq_f32(c10, ty));
  const float32x4_t c1 = vaddq_f32(vmulq_f32(c01, omy), vmulq_f32(c11, ty));
  const float32x4_t omz = vsubq_f32(one, tz);
  const float32x4_t d = vaddq_f32(vmulq_f32(c0, omz), vmulq_f32(c1, tz));

  const float32x4_t u = vminq_f32(
      vmaxq_f32(vmulq_f32(vsubq_f32(d, vdupq_n_f32(g.iso_low)), vdupq_n_f32(g.inv_iso_range)),
                zero),
      one);
  vst1q_f32(w.density, d);
  vst1q_f32(w.r, vaddq_f32(vdupq_n_f32(g.clo_r), vmulq_f32(vdupq_n_f32(g.cdelta_r), u)));
  vst1q_f32(w.g, vaddq_f32(vdupq_n_f32(g.clo_g), vmulq_f32(vdupq_n_f32(g.cdelta_g), u)));
  vst1q_f32(w.b, vaddq_f32(vdupq_n_f32(g.clo_b), vmulq_f32(vdupq_n_f32(g.cdelta_b), u)));
  vst1q_f32(w.alpha, vmulq_f32(vdupq_n_f32(g.ops),
                               vaddq_f32(vdupq_n_f32(0.3f), vmulq_f32(vdupq_n_f32(0.7f), u))));
}

#endif

using WaveFn = void (*)(const GridConsts&, const RayLocal&, int, int, SampleWave&);

WaveFn pick_wave(int& group) {
  switch (util::active_simd_level()) {
#if defined(__x86_64__)
    case util::SimdLevel::Avx2:
      group = 8;
      return wave_avx2;
    case util::SimdLevel::Sse2:
      group = 4;
      return wave_sse2;
#elif defined(__aarch64__)
    case util::SimdLevel::Neon:
      group = 4;
      return wave_neon;
#endif
    default:
      group = 1;
      return wave_scalar;
  }
}

// Per-call constants of the ray setup: everything a pixel's ray depends on
// besides its column and row.
struct RaySetup {
  Mat4 inv_view;
  Mat4 inv_model;
  Vec3 origin;  // the eye in grid space
  scene::Aabb box;
  float fb_w = 0, fb_h = 0;  // frame size as float
  float tan_half_fov = 0, aspect = 0;
};

constexpr int kMaxLanes = 8;

// Rays of a block of consecutive pixels in one row, one lane per pixel.
// Lanes whose bit in `hit` is clear miss the box (or have no direction);
// their other fields are unspecified.
struct RayLanes {
  float dx[kMaxLanes], dy[kMaxLanes], dz[kMaxLanes];  // grid-space unit direction
  float len[kMaxLanes];  // grid-space length of the unit world direction
  float t0[kMaxLanes], t1[kMaxLanes];
  uint32_t hit = 0;
};

// The canonical per-pixel ray setup: pixel centre → camera-space ray →
// world → grid space, normalized, then clipped to the grid box. The lane
// kernels below perform this exact float sequence lane-wise.
inline void setup_ray(const RaySetup& s, int px, int py, RayLanes& out, int lane) {
  const float ndc_x = (2.0f * (static_cast<float>(px) + 0.5f) / s.fb_w - 1.0f);
  const float ndc_y = (1.0f - 2.0f * (static_cast<float>(py) + 0.5f) / s.fb_h);
  const Vec3 dir_cam{ndc_x * s.tan_half_fov * s.aspect, ndc_y * s.tan_half_fov, -1.0f};
  const Vec3 dir_world = util::normalize(s.inv_view.transform_dir(dir_cam));
  const Vec3 dir = s.inv_model.transform_dir(dir_world);
  const float dir_len = dir.length();
  if (dir_len < 1e-12f) return;
  const Vec3 ndir = dir / dir_len;
  float t0, t1;
  if (!intersect_aabb(s.origin, ndir, s.box, t0, t1)) return;
  out.dx[lane] = ndir.x;
  out.dy[lane] = ndir.y;
  out.dz[lane] = ndir.z;
  out.len[lane] = dir_len;
  out.t0[lane] = t0;
  out.t1[lane] = t1;
  out.hit |= 1u << lane;
}

// Row constants shared by the lane kernels, each computed with the scalar
// twin's own float ops: the camera-space y, and the products of
// transform_dir that do not depend on the column (its y, z and w = 0
// terms; the w terms are ±0 or NaN and change the sign of a zero sum).
struct RowConsts {
  float view_y[3], view_z[3], view_w[3], model_w[3];
};

inline RowConsts row_consts(const RaySetup& s, int py) {
  const float ndc_y = (1.0f - 2.0f * (static_cast<float>(py) + 0.5f) / s.fb_h);
  const float cam_y = ndc_y * s.tan_half_fov;
  RowConsts r;
  for (int i = 0; i < 3; ++i) {
    r.view_y[i] = s.inv_view.m[4 + i] * cam_y;
    r.view_z[i] = s.inv_view.m[8 + i] * -1.0f;
    r.view_w[i] = s.inv_view.m[12 + i] * 0.0f;
    r.model_w[i] = s.inv_model.m[12 + i] * 0.0f;
  }
  return r;
}

#if defined(__x86_64__)

// setup_ray for pixels px..px+7 of the row `rc` was built for. In the
// slab test, std::max(t0, a) is (t0 < a) ? a : t0, which is max_ps(a, t0);
// std::min(t1, b) is min_ps(b, t1); the swap is min_ps(b, a) and
// max_ps(a, b). Division and square root are correctly rounded in both
// forms.
__attribute__((target("avx2"))) void setup_avx2(const RaySetup& s, const RowConsts& rc, int px,
                                                RayLanes& out) {
  const float* v = s.inv_view.m.data();
  const float* m = s.inv_model.m.data();
  const __m256 col = _mm256_cvtepi32_ps(
      _mm256_add_epi32(_mm256_set1_epi32(px), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
  const __m256 ndc_x = _mm256_sub_ps(
      _mm256_div_ps(_mm256_mul_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(col, _mm256_set1_ps(0.5f))),
                    _mm256_set1_ps(s.fb_w)),
      _mm256_set1_ps(1.0f));
  const __m256 cam_x =
      _mm256_mul_ps(_mm256_mul_ps(ndc_x, _mm256_set1_ps(s.tan_half_fov)), _mm256_set1_ps(s.aspect));
  __m256 w[3];
  for (int i = 0; i < 3; ++i)
    w[i] = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(v[i]), cam_x),
                                                     _mm256_set1_ps(rc.view_y[i])),
                                       _mm256_set1_ps(rc.view_z[i])),
                         _mm256_set1_ps(rc.view_w[i]));
  // normalize: a length at or below FLT_MIN gives the zero vector.
  const __m256 wlen = _mm256_sqrt_ps(_mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(w[0], w[0]), _mm256_mul_ps(w[1], w[1])),
      _mm256_mul_ps(w[2], w[2])));
  const __m256 degenerate =
      _mm256_cmp_ps(wlen, _mm256_set1_ps(std::numeric_limits<float>::min()), _CMP_LE_OQ);
  __m256 n[3];
  for (int i = 0; i < 3; ++i) n[i] = _mm256_andnot_ps(degenerate, _mm256_div_ps(w[i], wlen));
  __m256 d[3];
  for (int i = 0; i < 3; ++i)
    d[i] = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(m[i]), n[0]),
                                    _mm256_mul_ps(_mm256_set1_ps(m[4 + i]), n[1])),
                      _mm256_mul_ps(_mm256_set1_ps(m[8 + i]), n[2])),
        _mm256_set1_ps(rc.model_w[i]));
  const __m256 len = _mm256_sqrt_ps(_mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(d[0], d[0]), _mm256_mul_ps(d[1], d[1])),
      _mm256_mul_ps(d[2], d[2])));
  __m256 ok = _mm256_cmp_ps(len, _mm256_set1_ps(1e-12f), _CMP_NLT_UQ);
  for (int i = 0; i < 3; ++i) d[i] = _mm256_div_ps(d[i], len);

  const float o[3] = {s.origin.x, s.origin.y, s.origin.z};
  const float lo[3] = {s.box.lo.x, s.box.lo.y, s.box.lo.z};
  const float hi[3] = {s.box.hi.x, s.box.hi.y, s.box.hi.z};
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 t0 = _mm256_setzero_ps();
  __m256 t1 = _mm256_set1_ps(std::numeric_limits<float>::max());
  for (int i = 0; i < 3; ++i) {
    const __m256 parallel =
        _mm256_cmp_ps(_mm256_and_ps(d[i], abs_mask), _mm256_set1_ps(1e-12f), _CMP_LT_OQ);
    if (o[i] < lo[i] || o[i] > hi[i]) ok = _mm256_andnot_ps(parallel, ok);
    const __m256 inv_d = _mm256_div_ps(_mm256_set1_ps(1.0f), d[i]);
    const __m256 a = _mm256_mul_ps(_mm256_set1_ps(lo[i] - o[i]), inv_d);
    const __m256 b = _mm256_mul_ps(_mm256_set1_ps(hi[i] - o[i]), inv_d);
    const __m256 near = _mm256_max_ps(_mm256_min_ps(b, a), t0);
    const __m256 far = _mm256_min_ps(_mm256_max_ps(a, b), t1);
    t0 = _mm256_blendv_ps(near, t0, parallel);
    t1 = _mm256_blendv_ps(far, t1, parallel);
  }
  ok = _mm256_and_ps(ok, _mm256_cmp_ps(t0, t1, _CMP_LE_OQ));
  _mm256_storeu_ps(out.dx, d[0]);
  _mm256_storeu_ps(out.dy, d[1]);
  _mm256_storeu_ps(out.dz, d[2]);
  _mm256_storeu_ps(out.len, len);
  _mm256_storeu_ps(out.t0, t0);
  _mm256_storeu_ps(out.t1, t1);
  out.hit = static_cast<uint32_t>(_mm256_movemask_ps(ok));
}

#endif

using SetupFn = void (*)(const RaySetup&, const RowConsts&, int, RayLanes&);

// Null (with lanes == 1) = no lane kernel at this level: every pixel goes
// through setup_ray.
SetupFn pick_setup(int& lanes) {
  switch (util::active_simd_level()) {
#if defined(__x86_64__)
    case util::SimdLevel::Avx2:
      lanes = 8;
      return setup_avx2;
#endif
    default:
      lanes = 1;
      return nullptr;
  }
}

struct CellPos {
  uint32_t x = 0, y = 0, z = 0;
  bool operator==(const CellPos& o) const { return x == o.x && y == o.y && z == o.z; }
};

// Cell (brick or coarse, by `shift`) holding sample k's base voxel,
// computed with the exact float sequence eval_sample uses — so "this cell
// is transparent" speaks about precisely the samples the fold would see.
inline CellPos base_cell(const GridConsts& g, const RayLocal& r, int k, uint32_t shift) {
  const float t = r.t0 + static_cast<float>(k) * r.step;
  const float px = r.ox + r.dx * t;
  const float py = r.oy + r.dy * t;
  const float pz = r.oz + r.dz * t;
  const float fx = (px - g.gox) * g.inv_sx - 0.5f;
  const float fy = (py - g.goy) * g.inv_sy - 0.5f;
  const float fz = (pz - g.goz) * g.inv_sz - 0.5f;
  const float x0 = std::min(std::max(std::floor(fx), 0.0f), g.nxm1);
  const float y0 = std::min(std::max(std::floor(fy), 0.0f), g.nym1);
  const float z0 = std::min(std::max(std::floor(fz), 0.0f), g.nzm1);
  CellPos b;
  b.x = static_cast<uint32_t>(x0) >> shift;
  b.y = static_cast<uint32_t>(y0) >> shift;
  b.z = static_cast<uint32_t>(z0) >> shift;
  return b;
}

// Estimated index of the first sample outside cell `cp` (entered at
// sample k), from the per-axis linear motion in voxel-index space
// (f(t) = fa + fb*t), clamped to [k+1, n+1]. Pure estimate: reciprocal
// rounding can land it a sample early or late either way; callers that
// *skip* to it must verify. Border cells absorb clamped out-of-grid
// positions, so their slabs extend to infinity.
inline int cell_exit_estimate(const GridConsts& g, const RayLocal& r, int k, int n,
                              const CellPos& cp, uint32_t shift, uint32_t ncx, uint32_t ncy,
                              uint32_t ncz) {
  const float inf = std::numeric_limits<float>::infinity();
  const auto axis_exit = [&](float a, float b, float ib, uint32_t cell,
                             uint32_t ncells) -> float {
    const float blo = (cell == 0) ? -inf : static_cast<float>(cell << shift);
    const float bhi =
        (cell + 1 >= ncells) ? inf : static_cast<float>((cell + 1) << shift);
    if (b > 0) return (bhi - a) * ib;
    if (b < 0) return (blo - a) * ib;
    return inf;
  };
  const float t_exit = std::min({axis_exit(r.fax, r.fbx, r.ibx, cp.x, ncx),
                                 axis_exit(r.fay, r.fby, r.iby, cp.y, ncy),
                                 axis_exit(r.faz, r.fbz, r.ibz, cp.z, ncz)});
  int kj;
  const float rel = (t_exit - r.t0) * r.inv_step;
  if (!(rel < static_cast<float>(n + 1))) {  // also catches inf/NaN
    kj = n + 1;
  } else {
    kj = std::max(k + 1, static_cast<int>(std::floor(rel)) + 1);
    if (kj > n + 1) kj = n + 1;
  }
  return kj;
}

// First sample index after leaving transparent cell `cp`, entered at
// sample k: the slab-exit estimate, verified backwards with the exact
// per-sample cell test until its last sample provably sits in `cp`
// itself. Samples k..result-1 then all lie in `cp` (per-axis index
// coordinates are monotone in t and cell slabs are axis-aligned
// intervals), so every one of them is a sample the brute march would skip
// unshaded — FP error in the estimate can only cost extra verification
// steps, never a wrong pixel.
inline int skip_cell(const GridConsts& g, const RayLocal& r, int k, int n, const CellPos& cp,
                     uint32_t shift, uint32_t ncx, uint32_t ncy, uint32_t ncz) {
  int kj = cell_exit_estimate(g, r, k, n, cp, shift, ncx, ncy, ncz);
  while (kj > k + 1 && !(base_cell(g, r, kj - 1, shift) == cp)) --kj;
  return kj;
}

// Per-pass deltas into the global registry (counters are process-wide and
// monotonic; RenderStats stays the per-call view).
void account_raycast(const RenderStats& st) {
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& rays = reg.counter("rave_raycast_rays_total");
  static obs::Counter& samples = reg.counter("rave_raycast_samples_total");
  static obs::Counter& skipped = reg.counter("rave_raycast_bricks_skipped_total");
  static obs::Counter& culled = reg.counter("rave_raycast_rays_culled_total");
  rays.inc(st.rays_cast);
  samples.inc(st.volume_samples);
  skipped.inc(st.bricks_skipped);
  culled.inc(st.rays_culled);
}

// An inclusive fine-cell index range per axis.
struct CellBox {
  uint32_t lo[3];
  uint32_t hi[3];
};

// Occupied space as fine-cell boxes, at most kMaxBoxesPerBrick per brick: a
// brick with more occupied fine cells than that goes as one box around
// them (a dense brick projects once, not 64 times); otherwise each
// occupied fine cell is its own box.
constexpr size_t kMaxBoxesPerBrick = 16;

std::vector<CellBox> occupied_boxes(const MacroCells& cells, float iso_low) {
  constexpr uint32_t kSpan = 1u << (MacroCells::kBrickShift - MacroCells::kFineShift);
  const uint32_t nf[3] = {cells.fx, cells.fy, cells.fz};
  std::vector<CellBox> boxes;
  for (uint32_t bz = 0; bz < cells.bz; ++bz)
    for (uint32_t by = 0; by < cells.by; ++by)
      for (uint32_t bx = 0; bx < cells.bx; ++bx) {
        if (cells.transparent(bx, by, bz, iso_low)) continue;
        const uint32_t b[3] = {bx, by, bz};
        uint32_t lo[3], hi[3];
        for (int a = 0; a < 3; ++a) {
          lo[a] = b[a] * kSpan;
          hi[a] = std::min(lo[a] + kSpan, nf[a]) - 1;
        }
        CellBox around{{hi[0], hi[1], hi[2]}, {lo[0], lo[1], lo[2]}};
        const size_t first = boxes.size();
        for (uint32_t z = lo[2]; z <= hi[2]; ++z)
          for (uint32_t y = lo[1]; y <= hi[1]; ++y)
            for (uint32_t x = lo[0]; x <= hi[0]; ++x) {
              if (cells.fine_transparent(x, y, z, iso_low)) continue;
              const uint32_t c[3] = {x, y, z};
              for (int a = 0; a < 3; ++a) {
                around.lo[a] = std::min(around.lo[a], c[a]);
                around.hi[a] = std::max(around.hi[a], c[a]);
              }
              boxes.push_back({{x, y, z}, {x, y, z}});
            }
        if (boxes.size() - first > kMaxBoxesPerBrick) {
          boxes.resize(first);
          boxes.push_back(around);
        }
      }
  return boxes;
}

// Screen footprint of occupied space over `region`, as per-row coverage
// deltas (region.height rows of region.width + 1 entries; a running sum
// along a row is the number of footprint rectangles covering the pixel).
// A ray through a pixel the footprint misses can only take samples in
// transparent fine cells, so marching it cannot change a pixel. Empty
// result = cull nothing.
//
// Each occupied box is made conservative before it is projected:
//  - its sample-position box — base voxel in [2lo, 2hi+1], i.e. voxel
//    coordinates [2lo + 0.5, 2hi + 2.5] — widens by a margin covering the
//    float error of the marcher's sample positions;
//  - a box on the grid's low border widens half a voxel further, out to
//    the grid box, where clamped samples of box-clipped rays land (the
//    high border's range already reaches past the grid box);
//  - its rectangle spans the pixel centres its eight projected corners
//    enclose, plus one pixel (a perspective map keeps a box in front of
//    the eye convex, and a ray's samples project onto its pixel centre);
//  - a box with any corner at clip.w <= epsilon reaches the eye plane and
//    covers the whole region, and so does a non-finite projection.
std::vector<int32_t> occupied_footprint(const VoxelGridData& grid, const MacroCells& cells,
                                        const Mat4& local_to_clip, const Vec3& eye_local,
                                        const Tile& region, int fb_width, int fb_height) {
  const std::vector<CellBox> boxes = occupied_boxes(cells, grid.iso_low);
  const size_t stride = static_cast<size_t>(region.width) + 1;
  const size_t pixels = static_cast<size_t>(region.width) * static_cast<size_t>(region.height);
  // Dense volumes: more boxes to project than rays the mask could save.
  if (boxes.size() * 8 > pixels) return {};
  std::vector<int32_t> delta(stride * static_cast<size_t>(region.height), 0);

  const Vec3 s = grid.spacing;
  const Vec3 extent{s.x * static_cast<float>(grid.nx), s.y * static_cast<float>(grid.ny),
                    s.z * static_cast<float>(grid.nz)};
  const float min_spacing = std::min({std::fabs(s.x), std::fabs(s.y), std::fabs(s.z)});
  // Sample positions are float sums of eye, direction * t and the grid
  // origin, each off by a few ulps of the largest magnitude involved.
  const float scale = eye_local.length() + grid.origin.length() + extent.length();
  const float margin =
      0.0625f + 64.0f * std::numeric_limits<float>::epsilon() * scale / min_spacing;
  const float half_w = 0.5f * static_cast<float>(fb_width);
  const float half_h = 0.5f * static_cast<float>(fb_height);
  const float rx0 = static_cast<float>(region.x);
  const float rx1 = static_cast<float>(region.x + region.width - 1);
  const float ry0 = static_cast<float>(region.y);
  const float ry1 = static_cast<float>(region.y + region.height - 1);
  // The grid-local point origin + spacing * u maps to clip space affinely:
  // base + sum over axes of u[a] * axis[a].
  const util::Vec4 base = local_to_clip * util::Vec4(grid.origin, 1.0f);
  const util::Vec4 axis[3] = {local_to_clip * util::Vec4(s.x, 0, 0, 0),
                              local_to_clip * util::Vec4(0, s.y, 0, 0),
                              local_to_clip * util::Vec4(0, 0, s.z, 0)};

  for (const CellBox& box : boxes) {
    util::Vec4 lo[3], hi[3];
    for (int a = 0; a < 3; ++a) {
      const float u0 =
          (box.lo[a] == 0 ? 0.0f : 2.0f * static_cast<float>(box.lo[a]) + 0.5f) - margin;
      const float u1 = 2.0f * static_cast<float>(box.hi[a]) + 2.5f + margin;
      lo[a] = axis[a] * u0;
      hi[a] = axis[a] * u1;
    }
    float sx0 = std::numeric_limits<float>::max(), sx1 = std::numeric_limits<float>::lowest();
    float sy0 = sx0, sy1 = sx1;
    for (int c = 0; c < 8; ++c) {
      const util::Vec4 clip =
          base + ((c & 1) ? hi[0] : lo[0]) + ((c & 2) ? hi[1] : lo[1]) + ((c & 4) ? hi[2] : lo[2]);
      if (!(clip.w > 1e-6f)) return {};
      // Pixel-centre coordinates: the marcher's pixel px looks through
      // NDC x = 2(px + 0.5)/width - 1, so centre px sits at sx = px.
      const float inv_w = 1.0f / clip.w;
      const float sx = (clip.x * inv_w + 1.0f) * half_w - 0.5f;
      const float sy = (1.0f - clip.y * inv_w) * half_h - 0.5f;
      if (!std::isfinite(sx) || !std::isfinite(sy)) return {};
      sx0 = std::min(sx0, sx);
      sx1 = std::max(sx1, sx);
      sy0 = std::min(sy0, sy);
      sy1 = std::max(sy1, sy);
    }
    // One pixel of margin, clamped to the region before any int conversion.
    const float x0 = std::max(std::floor(sx0) - 1.0f, rx0);
    const float x1 = std::min(std::ceil(sx1) + 1.0f, rx1);
    const float y0 = std::max(std::floor(sy0) - 1.0f, ry0);
    const float y1 = std::min(std::ceil(sy1) + 1.0f, ry1);
    if (x0 > x1 || y0 > y1) continue;
    const size_t col0 = static_cast<size_t>(x0 - rx0);
    const size_t col1 = static_cast<size_t>(x1 - rx0) + 1;
    for (size_t row = static_cast<size_t>(y0 - ry0); row <= static_cast<size_t>(y1 - ry0);
         ++row) {
      ++delta[row * stride + col0];
      --delta[row * stride + col1];
    }
  }
  return delta;
}

}  // namespace

RenderStats raycast_volume(FrameBuffer& fb, const VoxelGridData& grid, const Mat4& model,
                           const Camera& camera, const RaycastOptions& options) {
  RenderStats st;
  if (grid.voxel_count() == 0) return st;
  Tile region = options.region;
  if (region.width <= 0 || region.height <= 0) region = Tile{0, 0, fb.width(), fb.height()};
  region.x = std::max(0, region.x);
  region.y = std::max(0, region.y);
  region.width = std::min(region.width, fb.width() - region.x);
  region.height = std::min(region.height, fb.height() - region.y);
  if (region.width <= 0 || region.height <= 0) return st;

  const float aspect = static_cast<float>(fb.width()) / static_cast<float>(fb.height());
  const Mat4 view = camera.view();
  const Mat4 proj = camera.projection(aspect);
  const Mat4 view_proj = proj * view;
  const Mat4 inv_model = model.inverse();
  const Mat4 inv_view = view.inverse();
  const Vec3 eye_world = inv_view.transform_point({0, 0, 0});
  const float tan_half_fov = std::tan(util::deg_to_rad(camera.fov_y_deg) * 0.5f);

  const scene::Aabb box = grid.bounds();
  const float min_spacing = std::min({grid.spacing.x, grid.spacing.y, grid.spacing.z});
  const float step = min_spacing / std::max(options.sampling_rate, 0.05f);
  if (!(step > 0.0f)) return st;
  // Reciprocal for the sample-count and skip estimates only; the anchored
  // sample positions themselves always multiply by `step`.
  const float inv_step = 1.0f / step;

  GridConsts g;
  g.values = grid.values.data();
  g.nx = grid.nx;
  g.ny = grid.ny;
  g.nz = grid.nz;
  g.nxm1 = static_cast<float>(grid.nx - 1);
  g.nym1 = static_cast<float>(grid.ny - 1);
  g.nzm1 = static_cast<float>(grid.nz - 1);
  g.gox = grid.origin.x;
  g.goy = grid.origin.y;
  g.goz = grid.origin.z;
  g.inv_sx = 1.0f / grid.spacing.x;
  g.inv_sy = 1.0f / grid.spacing.y;
  g.inv_sz = 1.0f / grid.spacing.z;
  g.iso_low = grid.iso_low;
  g.inv_iso_range = 1.0f / std::max(grid.iso_high - grid.iso_low, 1e-6f);
  g.clo_r = grid.color_low.x;
  g.clo_g = grid.color_low.y;
  g.clo_b = grid.color_low.z;
  g.cdelta_r = grid.color_high.x - grid.color_low.x;
  g.cdelta_g = grid.color_high.y - grid.color_low.y;
  g.cdelta_b = grid.color_high.z - grid.color_low.z;
  g.ops = std::min(1.0f, grid.opacity_scale * step / min_spacing * 0.25f);

  // The eye is invariant across rays; map it into grid space once.
  const Vec3 origin = inv_model.transform_point(eye_world);

  // Build (or fetch) the macro-cells and the footprint of occupied space
  // before fanning rows out to the pool — the lazy cache is not
  // synchronized.
  std::shared_ptr<const MacroCells> cells;
  std::vector<int32_t> footprint;
  if (options.empty_skip) {
    cells = grid.macro_cells();
    g.cells = cells.get();
    footprint = occupied_footprint(grid, *cells, view_proj * model, origin, region, fb.width(),
                                   fb.height());
  }
  const size_t footprint_stride = static_cast<size_t>(region.width) + 1;

  int group = 1;
  const WaveFn wave = pick_wave(group);

  RaySetup setup;
  setup.inv_view = inv_view;
  setup.inv_model = inv_model;
  setup.origin = origin;
  setup.box = box;
  setup.fb_w = static_cast<float>(fb.width());
  setup.fb_h = static_cast<float>(fb.height());
  setup.tan_half_fov = tan_half_fov;
  setup.aspect = aspect;
  int lanes = 1;
  const SetupFn setup_lanes = pick_setup(lanes);

  const auto cast_row = [&](int py, RenderStats& rst) {
    SampleWave w;
    // A running sum turns this row's coverage deltas into per-pixel
    // counts in place; each row belongs to one task.
    int32_t* cover = nullptr;
    if (!footprint.empty()) {
      cover = footprint.data() + static_cast<size_t>(py - region.y) * footprint_stride;
      for (int i = 1; i < region.width; ++i) cover[i] += cover[i - 1];
    }
    RowConsts rc{};
    if (setup_lanes != nullptr) rc = row_consts(setup, py);
    RayLanes rays;
    const int row_end = region.x + region.width;
    for (int px = region.x; px < row_end; ++px) {
      // Each block of `lanes` pixels sets up its rays at its first pixel:
      // full blocks in SIMD lanes, the row tail (and a level without a
      // lane kernel) through the scalar twin. lanes is a power of two.
      const int lane = (px - region.x) & (lanes - 1);
      if (lane == 0) {
        const int in_block = std::min(lanes, row_end - px);
        if (in_block == lanes && setup_lanes != nullptr) {
          setup_lanes(setup, rc, px, rays);
        } else {
          rays.hit = 0;
          for (int i = 0; i < in_block; ++i) setup_ray(setup, px + i, py, rays, i);
        }
      }
      if ((rays.hit >> lane & 1u) == 0) continue;
      const Vec3 ndir{rays.dx[lane], rays.dy[lane], rays.dz[lane]};
      const float dir_len = rays.len[lane];
      const float t0 = std::max(rays.t0[lane], camera.znear * dir_len);
      const float t1 = rays.t1[lane];

      // Anchored sample count: the largest n with t0 + n*step <= t1,
      // FP-corrected in both directions.
      // fn < 0 means the near plane clipped the interval away entirely.
      const float fn = std::floor((t1 - t0) * inv_step);
      if (fn < 0.0f) continue;
      constexpr int kMaxSteps = 1 << 24;
      int n;
      if (fn >= static_cast<float>(kMaxSteps)) {
        n = kMaxSteps;  // pathological spacing/sampling rate; bound the march
      } else {
        n = static_cast<int>(fn);
        while (n > 0 && t0 + static_cast<float>(n) * step > t1) --n;
        while (t0 + static_cast<float>(n + 1) * step <= t1) ++n;
      }
      ++rst.rays_cast;
      // Outside the footprint every sample is transparent: the march would
      // leave the pixel, its depth and the sample count untouched.
      if (cover != nullptr && cover[px - region.x] == 0) {
        ++rst.rays_culled;
        continue;
      }

      RayLocal ray;
      ray.ox = origin.x;
      ray.oy = origin.y;
      ray.oz = origin.z;
      ray.dx = ndir.x;
      ray.dy = ndir.y;
      ray.dz = ndir.z;
      ray.t0 = t0;
      ray.step = step;
      if (g.cells != nullptr) {
        ray.fax = (ray.ox - g.gox) * g.inv_sx - 0.5f;
        ray.fay = (ray.oy - g.goy) * g.inv_sy - 0.5f;
        ray.faz = (ray.oz - g.goz) * g.inv_sz - 0.5f;
        ray.fbx = ray.dx * g.inv_sx;
        ray.fby = ray.dy * g.inv_sy;
        ray.fbz = ray.dz * g.inv_sz;
        ray.ibx = 1.0f / ray.fbx;
        ray.iby = 1.0f / ray.fby;
        ray.ibz = 1.0f / ray.fbz;
        ray.inv_step = inv_step;
      }

      Vec3 acc_color{0, 0, 0};
      float acc_alpha = 0.0f;
      float first_hit_t = -1.0f;
      float depth_t = -1.0f;
      bool retired = false;
      int k = 0;
      // Defer re-testing while inside a known-occupied brick: check_k is
      // the estimated first sample past it. Testing late only forfeits a
      // skip opportunity (those samples are evaluated exactly as the brute
      // march would), testing early just repeats a cheap lookup — pixels
      // are unaffected either way.
      int check_k = 0;
      while (k <= n && !retired) {
        if (g.cells != nullptr && k >= check_k) {
          const CellPos bp = base_cell(g, ray, k, MacroCells::kBrickShift);
          // Coarse first: a transparent 16^3 cell clears the ray in one
          // jump where brick-level skipping would take up to eight.
          const CellPos cp{bp.x >> 1, bp.y >> 1, bp.z >> 1};
          if (g.cells->coarse_transparent(cp.x, cp.y, cp.z, g.iso_low)) {
            ++rst.bricks_skipped;
            k = skip_cell(g, ray, k, n, cp, MacroCells::kCoarseShift, g.cells->cx, g.cells->cy,
                          g.cells->cz);
            continue;
          }
          if (g.cells->transparent(bp.x, bp.y, bp.z, g.iso_low)) {
            ++rst.bricks_skipped;
            k = skip_cell(g, ray, k, n, bp, MacroCells::kBrickShift, g.cells->bx, g.cells->by,
                          g.cells->bz);
            continue;
          }
          check_k = cell_exit_estimate(g, ray, k, n, bp, MacroCells::kBrickShift, g.cells->bx,
                                       g.cells->by, g.cells->bz);
        }
        const int count = std::min(group, n - k + 1);
        // group == 1 resolves the indirect wave call to the inlined scalar
        // sample — one virtual-call-sized saving per sample on the twin
        // the SIMD levels are byte-compared against.
        if (group == 1)
          eval_sample(g, ray, k, w, 0);
        else
          wave(g, ray, k, count, w);
        // Sequential scalar fold over the lanes: compositing order and the
        // early-termination decision are identical for every lane width.
        for (int i = 0; i < count; ++i) {
          const float density = w.density[i];
          if (density < g.iso_low) continue;
          ++rst.volume_samples;
          const float contrib = w.alpha[i] * (1.0f - acc_alpha);
          acc_color.x += w.r[i] * contrib;
          acc_color.y += w.g[i] * contrib;
          acc_color.z += w.b[i] * contrib;
          acc_alpha += contrib;
          const float t = ray.t0 + static_cast<float>(k + i) * ray.step;
          if (first_hit_t < 0.0f) first_hit_t = t;
          if (depth_t < 0.0f && acc_alpha >= options.depth_alpha) depth_t = t;
          if (acc_alpha >= options.opacity_cutoff) {
            retired = true;
            break;
          }
        }
        k += count;
      }
      if (acc_alpha <= 0.003f) continue;

      // Depth of the first hit, in the same normalized space the
      // rasterizer uses, for cross-occlusion.
      const auto project_depth = [&](float t, float& out) {
        const Vec3 hit_local = origin + ndir * t;
        const Vec3 hit_world = model.transform_point(hit_local);
        const util::Vec4 clip = view_proj * util::Vec4(hit_world, 1.0f);
        if (clip.w <= 1e-6f) return false;
        out = clip.z / clip.w * 0.5f + 0.5f;
        return true;
      };
      float depth;
      if (!project_depth(first_hit_t, depth)) continue;
      const float existing = fb.depth_at(px, py);
      if (depth >= existing) continue;  // opaque geometry in front

      const uint8_t* back = fb.pixel(px, py);
      const Vec3 back_color{static_cast<float>(back[0]) / 255.0f,
                            static_cast<float>(back[1]) / 255.0f,
                            static_cast<float>(back[2]) / 255.0f};
      const Vec3 out = acc_color + back_color * (1.0f - acc_alpha);
      fb.set_pixel(px, py, to_byte(out.x), to_byte(out.y), to_byte(out.z));
      // Write depth at the sample where accumulated opacity crossed
      // depth_alpha, so a visibly-contributing volume occludes geometry
      // rasterized after it (not only fully-saturated rays, which punched
      // thin volumes through).
      float depth_write;
      if (depth_t >= 0.0f && project_depth(depth_t, depth_write) && depth_write < existing)
        fb.set_depth(px, py, depth_write);
    }
  };

  // Rays are independent and each row writes disjoint pixels, so the
  // parallel path is bit-identical to the serial one. Stats are gathered
  // per row and merged in row order.
  if (options.pool != nullptr && region.height > 1) {
    std::vector<RenderStats> row_stats(static_cast<size_t>(region.height));
    options.pool->parallel_for(static_cast<size_t>(region.height), [&](size_t row) {
      cast_row(region.y + static_cast<int>(row), row_stats[row]);
    });
    for (const RenderStats& rs : row_stats) st += rs;
  } else {
    for (int py = region.y; py < region.y + region.height; ++py) cast_row(py, st);
  }
  account_raycast(st);
  return st;
}

RenderStats raycast_tree_volumes(FrameBuffer& fb, const scene::SceneTree& tree,
                                 const Camera& camera, const RaycastOptions& options) {
  RenderStats st;
  tree.traverse([&](const scene::SceneNode& node, const Mat4& world) {
    if (const auto* grid = std::get_if<VoxelGridData>(&node.payload))
      st += raycast_volume(fb, *grid, world, camera, options);
  });
  return st;
}

RenderStats raycast_list(FrameBuffer& fb, const RenderList& list, const Camera& camera,
                         const RaycastOptions& options, std::vector<RenderStats>* per_volume) {
  RenderStats st;
  if (per_volume != nullptr) {
    per_volume->clear();
    per_volume->reserve(list.volumes.size());
  }
  for (const RenderList::VolumeItem& item : list.volumes) {
    const RenderStats s = raycast_volume(fb, *item.grid, item.world, camera, options);
    st += s;
    if (per_volume != nullptr) per_volume->push_back(s);
  }
  return st;
}

}  // namespace rave::render
