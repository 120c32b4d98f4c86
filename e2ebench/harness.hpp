// The e2e_frame harness: one closed-loop deployment (a workload's live
// grid), the cycle runner that drives it only through public service
// APIs, and the span ledger that charges a traced frame to the repo's
// layers. Workloads (workloads.cpp) build deployments; main.cpp runs the
// phases and writes the result JSON.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compress/tile_cache.hpp"
#include "core/data_service.hpp"
#include "core/render_service.hpp"
#include "core/thin_client.hpp"
#include "obs/trace.hpp"
#include "scene/camera.hpp"
#include "scene/update.hpp"
#include "util/clock.hpp"

namespace e2e {

using namespace rave;

// Seconds on the tracer's steady clock: bench timestamps and program
// spans share one time base, so the ledger can nest them.
double wall_now();
// Process CPU seconds, all threads (getrusage).
double cpu_seconds();
double peak_rss_mb();

// SplitMix64: the seeded input generator (portable across standard
// libraries, unlike the <random> distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  double uniform(double lo, double hi);
  size_t index(size_t n) { return static_cast<size_t>(next() % n); }

 private:
  uint64_t state_;
};

struct Subscriber {
  std::unique_ptr<core::ThinClient> client;
  compress::QualityClass quality = compress::QualityClass::Workstation;
};

struct Edit {
  size_t subscriber = 0;
  scene::SceneUpdate update;
};

// One live grid of a workload. The workload fills the public members
// during set-up; the runner drives cycles through them.
class Deployment {
 public:
  virtual ~Deployment() = default;

  // One pump round over every service (spanned per service where the
  // harness calls services directly). Returns messages handled.
  virtual size_t pump_services() = 0;
  // Nothing was handled: let in-flight messages mature (virtual time).
  virtual void idle() {}
  // A frame has been waited for longer than frame_timeout of wall time:
  // make the receiver's own deadline pass (virtual-time watchdog).
  virtual void expire() {}
  // This cycle's seeded scene edits and camera.
  virtual std::vector<Edit> edits(uint64_t cycle) = 0;
  virtual scene::Camera camera(uint64_t cycle) = 0;

  std::string session;
  bool over_tcp = false;  // subscriber links are reactor TCP channels
  int width = 0, height = 0;
  double frame_timeout = 5.0;  // seconds of wall time per subscriber frame
  util::Clock* clock = nullptr;
  core::DataService* data = nullptr;
  core::RenderService* publisher = nullptr;
  std::vector<core::RenderService*> renders;  // publisher first
  std::vector<Subscriber> subscribers;
  // Set-up marks (wall_now seconds) and the discovery + recruitment time.
  double started_at = 0;      // grid construction begins
  double subscribing_at = 0;  // first thin client dials
  double recruit_s = 0;
};

// Cumulative public stats of a deployment; deltas over a window of
// cycles give the exact counters.
struct Snapshot {
  uint64_t tiles_ref = 0, tiles_data = 0;
  uint64_t encode_hits = 0, encode_misses = 0, miss_replies = 0;
  uint64_t ws_bytes = 0, pda_bytes = 0;  // stream bytes received, per class
  uint64_t egress_bytes = 0;             // publisher → subscriber links
  uint64_t volume_rays = 0, bricks_skipped = 0;
  uint64_t stale_tiles = 0, remote_tiles = 0, locally_covered = 0;
  uint64_t updates_applied = 0;  // summed over every replica
  uint64_t updates_committed = 0;
  uint64_t sheds = 0, queue_peak = 0;
  double queue_wait_s = 0;
};
Snapshot snapshot(const Deployment& d);

// Per-cycle measurements (seconds unless named otherwise).
struct CycleRecord {
  double frame_s = 0;          // publish call → last subscriber assembled
  double edit_to_frame_s = 0;  // first send_update → last subscriber assembled
  double commit_s = -1;        // last send_update → committed_updates reaches target
  double apply_wait_s = -1;    // commit → every replica applied
  double pump_s = 0;           // time inside bench pump rounds
  double recv_wait_s = 0;      // next_stream_frame time minus its nested pumps
  uint64_t pump_calls = 0, idle_pumps = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t digest = 0;  // this cycle's delivered frames
  std::string error;    // first failure of the cycle, if any
  // Traced cycles only.
  std::map<std::string, double> layer_s;  // ledger: frame root subtree
  std::map<std::string, double> span_s;   // self time by span name, whole cycle
  double traced_frame_s = 0;              // the frame root span's duration
  uint64_t spans_dropped = 0;             // Tracer::dropped() at collection
  double encode_s = 0;                    // off-path re-encode of changed tiles
  uint64_t raw_bytes = 0, encoded_bytes = 0;
  std::vector<obs::SpanRecord> spans;     // as recorded, for the span dump
};

class Runner {
 public:
  explicit Runner(Deployment& d) : d_(d) {}

  // First frame at every subscriber (part of set-up). False on failure.
  bool bootstrap_frame(std::string& error);
  // One closed-loop cycle. `traced` collects and charges this cycle's spans.
  CycleRecord cycle(uint64_t index, bool traced);

 private:
  size_t pump();
  void watch_progress();
  // next_stream_frame on every subscriber in order; a subscriber whose
  // frame failed keeps an empty image in `frames`.
  bool receive_all(uint64_t cycle, bool published, CycleRecord* rec,
                   std::vector<render::Image>& frames, std::string& error);
  void charge(CycleRecord& rec);
  void reencode(CycleRecord& rec, const render::Image& source);

  Deployment& d_;
  CycleRecord* cur_ = nullptr;
  bool in_receive_ = false;
  double receive_started_ = 0;
  double nested_pump_s_ = 0;
  // Progress watermarks of the cycle in flight.
  uint64_t commit_target_ = 0;
  std::vector<uint64_t> apply_targets_;
  double last_send_ = 0, committed_at_ = -1, applied_at_ = -1;
  std::vector<uint64_t> prev_tile_hashes_;
};

// Layer of a charged span name (the ledger's map; "bench" is the
// harness's own code between calls, "other" any span the map does not
// name).
std::string layer_of(const std::string& span_name);
// The ledger's layers, in report order.
const std::vector<std::string>& ledger_layers();

// FNV-1a fold of a frame into a running digest.
uint64_t fold_frame(uint64_t digest, uint64_t cycle, size_t subscriber, const render::Image& image);

}  // namespace e2e
