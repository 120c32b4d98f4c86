// The benchmark's three workloads. Constructing one generates its inputs
// from the seed (meshes, volume, edit stream) — untimed; deploy() stands
// up a fresh live grid on them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace e2e {

class Workload {
 public:
  virtual ~Workload() = default;
  // Grid construction → every subscriber subscribed (first frame not yet
  // published). Fills the deployment's set-up timestamps.
  virtual util::Result<std::unique_ptr<Deployment>> deploy() = 0;
};

const std::vector<std::string>& workload_names();
// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed);

}  // namespace e2e
