// Render-service capacity and load tracking. The data service
// "interrogates the render service for its capacity (available polygons
// per second, texture memory, support for hardware assisted volume
// rendering, etc.)" (paper §3.2.5) and migration triggers on rendering
// rate crossing thresholds, smoothed "to smooth out spikes of usage"
// (§3.2.7). NodeCost is the per-node demand metric used to select
// fine-grained sets of nodes to move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scene/node.hpp"
#include "scene/tree.hpp"
#include "sim/machine.hpp"
#include "util/serial.hpp"

namespace rave::core {

struct RenderCapacity {
  std::string host;
  double polygons_per_sec = 0;
  double points_per_sec = 0;
  double voxels_per_sec = 0;
  // Volume marcher throughput. Seeded from the machine profile, then
  // replaced by the measured rate (volume_rays / volume_seconds) reported
  // with each load report — the paper's interrogate-then-measure loop.
  double rays_per_sec = 0;
  uint64_t texture_mem_bytes = 0;
  bool hw_volume_rendering = false;

  // Per-frame polygon budget at the target interactive rate.
  [[nodiscard]] double polygon_budget(double target_fps) const {
    return target_fps > 0 ? polygons_per_sec / target_fps : 0;
  }

  static RenderCapacity from_profile(const sim::MachineProfile& profile);
};

void write_capacity(util::ByteWriter& w, const RenderCapacity& c);
RenderCapacity read_capacity(util::ByteReader& r);

// Demand of one scene node (or a set), in the same units as capacity.
struct NodeCost {
  scene::NodeId node = scene::kInvalidNode;
  uint64_t triangles = 0;
  uint64_t points = 0;
  uint64_t voxels = 0;
  uint64_t texture_bytes = 0;
  // Measured volume demand: rays the marcher cast into this node last
  // frame, and that demand converted into polygon-equivalent work units
  // (rays * polygons_per_sec / rays_per_sec — see assigned_costs in
  // core/data_service). Zero until a render service reports measurements.
  uint64_t measured_rays = 0;
  double ray_work = 0;

  // Scalar "work units": triangles dominate; points are weighted by their
  // relative rasterization cost. Volumes use the measured rays/s model
  // when a render service has priced this node, and fall back to the
  // static voxel-count heuristic until then.
  [[nodiscard]] double work_units() const {
    const double volume_work =
        ray_work > 0 ? ray_work : 0.01 * static_cast<double>(voxels);
    return static_cast<double>(triangles) + 0.35 * static_cast<double>(points) + volume_work;
  }
};

NodeCost node_cost(const scene::SceneTree& tree, scene::NodeId id);
std::vector<NodeCost> payload_costs(const scene::SceneTree& tree);

// Smoothed frame-rate tracker with hysteresis. A service is overloaded
// when its EWMA fps stays below `low_fps` for `sustain_seconds`, and
// underloaded when above `high_fps` for the same duration ("for a given
// amount of time, to smooth out spikes of usage").
struct LoadThresholds {
  double low_fps = 10.0;
  double high_fps = 30.0;
  double sustain_seconds = 1.0;
  double ewma_alpha = 0.3;
};

class LoadTracker {
 public:
  using Thresholds = LoadThresholds;

  explicit LoadTracker(Thresholds thresholds = Thresholds{}) : thresholds_(thresholds) {}

  void record_frame(double frame_seconds, double now);

  [[nodiscard]] double fps() const { return ewma_fps_; }
  [[nodiscard]] bool overloaded(double now) const;
  [[nodiscard]] bool underloaded(double now) const;
  [[nodiscard]] const Thresholds& thresholds() const { return thresholds_; }

 private:
  Thresholds thresholds_;
  double ewma_fps_ = 0;
  bool have_sample_ = false;
  // Time the fps first crossed into the over/under band (-1 = not in band).
  double over_since_ = -1;
  double under_since_ = -1;
};

}  // namespace rave::core
