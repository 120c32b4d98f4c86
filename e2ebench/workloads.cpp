#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <mutex>

#include "core/fabric.hpp"
#include "core/grid.hpp"
#include "mesh/fields.hpp"
#include "mesh/generators.hpp"
#include "mesh/primitives.hpp"
#include "net/simlink.hpp"
#include "sim/machine.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

using util::make_error;
using util::Result;
using util::Status;

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kOrbitZoom = 0.6;
// Camera orbit and marker path advance by just under 1/20 of a turn per
// cycle: a 20-cycle counter window sees the whole loop whatever the
// seeded phase, and the golden-ratio remainder keeps any viewpoint or
// marker position from repeating within a run.
constexpr double kLoopStep = 2.0 * kPi / 20.618033988749895;

// Per-cycle input stream: the same (seed, cycle) always draws the same
// edits, whatever ran before.
Rng cycle_rng(uint64_t seed, uint64_t cycle) {
  Rng mix(seed ^ (0xA0761D6478BD642Full * (cycle + 1)));
  return Rng(mix.next());
}

// Workstation subscribers run on a desktop profile; PDA subscribers on the
// paper's Zaurus, whose modelled pixel unpack sleeps on the deployment
// clock after every assembled frame (virtual time under SimClock, wall
// time on the TCP workload).
std::unique_ptr<core::ThinClient> make_client(util::Clock& clock, core::Fabric& fabric,
                                              compress::QualityClass quality, size_t index) {
  sim::MachineProfile profile =
      quality == compress::QualityClass::Pda ? sim::zaurus_pda() : sim::xeon_desktop();
  profile.name += "-" + std::to_string(index);
  return std::make_unique<core::ThinClient>(clock, fabric, profile);
}

// A point inside `box`, uniformly drawn.
util::Vec3 point_in(Rng& rng, const util::Aabb& box) {
  return {static_cast<float>(rng.uniform(box.lo.x, box.hi.x)),
          static_cast<float>(rng.uniform(box.lo.y, box.hi.y)),
          static_cast<float>(rng.uniform(box.lo.z, box.hi.z))};
}

// Steady state must not migrate work mid-run: no automatic rebalancing.
core::DataService::Options data_options() {
  core::DataService::Options options;
  options.auto_rebalance = false;
  return options;
}

core::RenderService::Options render_options(util::ThreadPool* pool) {
  core::RenderService::Options options;
  options.profile = sim::xeon_desktop();
  options.pool = pool;
  return options;
}

// Subscribe `count` thin clients (alternating Workstation, PDA) to the
// publisher's stream. `before_dial(quality)` runs ahead of each dial.
Status subscribe_clients(Deployment& d, core::Fabric& fabric, size_t count,
                         const std::function<void(compress::QualityClass)>& before_dial = {}) {
  for (size_t i = 0; i < count; ++i) {
    const auto quality =
        i % 2 == 0 ? compress::QualityClass::Workstation : compress::QualityClass::Pda;
    if (before_dial) before_dial(quality);
    Subscriber sub{make_client(*d.clock, fabric, quality, i), quality};
    if (auto st = sub.client->connect(d.publisher->client_access_point(), d.session); !st.ok())
      return st;
    if (auto st = sub.client->subscribe_stream(quality); !st.ok()) return st;
    d.subscribers.push_back(std::move(sub));
  }
  return {};
}

// Pump `d` until `done()` or `seconds` of wall time pass.
bool pump_until(Deployment& d, double seconds, const std::function<bool()>& done) {
  const double deadline = wall_now() + seconds;
  while (!done()) {
    if (wall_now() > deadline) return false;
    if (d.pump_services() == 0) d.idle();
  }
  return true;
}

Status wait_subscribed(Deployment& d) {
  const bool ok = pump_until(d, 10.0, [&] {
    return d.publisher->stream_totals().subscribers == d.subscribers.size();
  });
  return ok ? Status{} : make_error("stream subscriptions did not all land");
}

// --- in-process grids on SimClock ------------------------------------------------

class GridDeployment : public Deployment {
 public:
  GridDeployment(net::LinkProfile link, unsigned pool_workers) {
    started_at = wall_now();
    if (pool_workers > 0) pool_ = std::make_unique<util::ThreadPool>(pool_workers);
    grid_ = std::make_unique<core::RaveGrid>(sim_, std::move(link));
    clock = &sim_;
  }
  ~GridDeployment() override { subscribers.clear(); }

  size_t pump_services() override { return grid_->pump_all(); }
  void idle() override { sim_.sleep_for(0.0005); }
  void expire() override { sim_.advance(frame_timeout * 2); }
  core::InProcFabric& fabric() { return grid_->fabric(); }
  void settle() { grid_->pump_until_idle(); }

  // A data service holding `tree`, and `render_count` render services it
  // recruits through UDDI discovery (paper §3.2.7); render0 publishes.
  Status stand_up(scene::SceneTree tree, size_t render_count) {
    data = &grid_->add_data_service("datahost", data_options());
    if (auto created = data->create_session(session, std::move(tree)); !created.ok())
      return make_error(created.error());
    for (size_t i = 0; i < render_count; ++i)
      grid_->add_render_service("render" + std::to_string(i), render_options(pool_.get()));
    const double t0 = wall_now();
    grid_->advertise_all();
    const size_t recruited = grid_->recruit("datahost", session);
    recruit_s = wall_now() - t0;
    if (recruited != render_count)
      return make_error("recruited " + std::to_string(recruited) + " of " +
                        std::to_string(render_count) + " render services");
    for (size_t i = 0; i < render_count; ++i) {
      core::RenderService* render = grid_->render_service("render" + std::to_string(i));
      if (!render->bootstrapped(session)) return make_error("render service not bootstrapped");
      renders.push_back(render);
    }
    publisher = renders.front();
    return {};
  }

 protected:
  util::SimClock sim_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<core::RaveGrid> grid_;
};

// collab_view: 48 subscribers of a static Galleon view on 8 recruited
// render services over plain in-process channels; one marker edit per
// cycle. The fan-out cache and the poll loops do most of the work.
class CollabView final : public Workload {
 public:
  explicit CollabView(uint64_t seed) : seed_(seed) {
    tree_.add_child(scene::kRootNode, "ship", mesh::make_galleon());
    bounds_ = tree_.world_bounds();
    const util::Vec3 extent = bounds_.extent();
    const float radius = 0.03f * std::max({extent.x, extent.y, extent.z});
    marker_ = tree_.add_child(scene::kRootNode, "marker", mesh::make_uv_sphere(radius, 12, 8),
                              util::Mat4::translate(bounds_.center()));
    camera_ = scene::Camera::framing(tree_.world_bounds());
    phase_ = Rng(seed).uniform(0.0, 2.0 * kPi);
  }

  Result<std::unique_ptr<Deployment>> deploy() override {
    scene::SceneTree tree = tree_;  // input copy, made before the clock starts
    auto live = std::make_unique<Live>(*this);
    live->session = "collab";
    live->width = 200;
    live->height = 150;
    if (auto st = live->stand_up(std::move(tree), 8); !st.ok()) return make_error(st.error());
    live->subscribing_at = wall_now();
    if (auto st = subscribe_clients(*live, live->fabric(), 48); !st.ok())
      return make_error(st.error());
    if (auto st = wait_subscribed(*live); !st.ok()) return make_error(st.error());
    return std::unique_ptr<Deployment>(std::move(live));
  }

 private:
  class Live final : public GridDeployment {
   public:
    explicit Live(const CollabView& w) : GridDeployment(net::LinkProfile{}, 0), w_(w) {}
    std::vector<Edit> edits(uint64_t cycle) override {
      // A seeded subscriber moves the marker along an ellipse just in
      // front of the ship (the camera looks down -z), from a seeded phase.
      Rng rng = cycle_rng(w_.seed_, cycle);
      const size_t who = rng.index(subscribers.size());
      const double angle = w_.phase_ + static_cast<double>(cycle) * kLoopStep;
      const util::Vec3 c = w_.bounds_.center(), e = w_.bounds_.extent();
      const util::Vec3 at{c.x + 0.35f * e.x * static_cast<float>(std::cos(angle)),
                          c.y + 0.35f * e.y * static_cast<float>(std::sin(angle)),
                          w_.bounds_.hi.z};
      return {Edit{who, scene::SceneUpdate::set_transform(w_.marker_, util::Mat4::translate(at))}};
    }
    scene::Camera camera(uint64_t) override { return w_.camera_; }

   private:
    const CollabView& w_;
  };

  uint64_t seed_;
  scene::SceneTree tree_;
  util::Aabb bounds_;
  scene::NodeId marker_ = 0;
  scene::Camera camera_;
  double phase_ = 0;
};

// orbit_render: Elle plus a 48^3 body volume at 640x480 under a
// continuous orbit that never repeats a viewpoint, on a publisher with 3
// tile assistants and a 2-worker pool, over the paper's links (100 Mbit
// ethernet; the PDA dials over 11 Mbit wireless). Rendering, compositing
// and per-tile encode do most of the work; memo hits are bypassed.
class OrbitRender final : public Workload {
 public:
  explicit OrbitRender(uint64_t seed) : seed_(seed) {
    tree_.add_child(scene::kRootNode, "elle", mesh::make_elle());
    const util::Aabb elle = tree_.world_bounds();
    scene::Aabb grid_bounds;
    grid_bounds.extend({-1.2f, -1.3f, -0.8f});
    grid_bounds.extend({1.2f, 1.3f, 0.8f});
    scene::VoxelGridData volume =
        mesh::rasterize_field(mesh::body_field(), grid_bounds, 48, 48, 48);
    volume.iso_low = 0.25f;
    volume.opacity_scale = 3.5f;
    volume.color_low = {0.25f, 0.25f, 0.85f};
    volume.color_high = {1.0f, 0.95f, 0.85f};
    const float scale = elle.extent().y / 2.6f;
    const util::Vec3 at{elle.hi.x + 1.3f * scale, elle.center().y, elle.center().z};
    tree_.add_child(scene::kRootNode, "body", std::move(volume),
                    util::Mat4::translate(at) * util::Mat4::scale({scale, scale, scale}));
    bounds_ = tree_.world_bounds();
    const util::Vec3 extent = bounds_.extent();
    marker_ = tree_.add_child(scene::kRootNode, "marker",
                              mesh::make_uv_sphere(0.02f * std::max({extent.x, extent.y, extent.z}),
                                                   12, 8),
                              util::Mat4::translate(bounds_.center()));
    base_ = scene::Camera::framing(bounds_);
    phase_ = Rng(seed).uniform(0.0, 2.0 * kPi);
  }

  Result<std::unique_ptr<Deployment>> deploy() override {
    scene::SceneTree tree = tree_;
    auto live = std::make_unique<Live>(*this);
    live->session = "orbit";
    live->width = 640;
    live->height = 480;
    if (auto st = live->stand_up(std::move(tree), 4); !st.ok()) return make_error(st.error());
    // Framebuffer distribution: the data service grants the publisher
    // three assistants from the session's render services.
    const double t0 = wall_now();
    if (auto st = live->publisher->request_tile_assist(live->session, 3); !st.ok())
      return make_error(st.error());
    live->settle();
    live->recruit_s += wall_now() - t0;
    live->subscribing_at = wall_now();
    // Thin clients dial the publisher's client endpoint: the Workstation
    // over the default ethernet link, the PDA over wireless.
    const std::string endpoint = live->publisher->client_access_point().substr(7);  // "inproc:"
    auto on_dial = [&](compress::QualityClass quality) {
      live->fabric().set_link(endpoint, quality == compress::QualityClass::Pda
                                            ? net::wireless_11mbit()
                                            : net::ethernet_100mbit());
    };
    if (auto st = subscribe_clients(*live, live->fabric(), 2, on_dial); !st.ok())
      return make_error(st.error());
    if (auto st = wait_subscribed(*live); !st.ok()) return make_error(st.error());
    return std::unique_ptr<Deployment>(std::move(live));
  }

 private:
  class Live final : public GridDeployment {
   public:
    explicit Live(const OrbitRender& w) : GridDeployment(net::ethernet_100mbit(), 2), w_(w) {}
    std::vector<Edit> edits(uint64_t cycle) override {
      Rng rng = cycle_rng(w_.seed_, cycle);
      const size_t who = rng.index(subscribers.size());
      return {Edit{who, scene::SceneUpdate::set_transform(
                            w_.marker_, util::Mat4::translate(point_in(rng, w_.bounds_)))}};
    }
    scene::Camera camera(uint64_t cycle) override {
      scene::Camera cam = w_.base_;
      const util::Vec3 c = w_.bounds_.center();
      const util::Vec3 d = cam.eye - c;
      // Closer than framing distance, so the models fill the frame and
      // almost every tile changes as the view turns.
      const double radius =
          kOrbitZoom * std::sqrt(static_cast<double>(d.x) * d.x + static_cast<double>(d.z) * d.z);
      const double angle = w_.phase_ + static_cast<double>(cycle) * kLoopStep;
      cam.eye = {c.x + static_cast<float>(radius * std::sin(angle)), cam.eye.y,
                 c.z + static_cast<float>(radius * std::cos(angle))};
      cam.target = c;
      return cam;
    }

   private:
    const OrbitRender& w_;
  };

  uint64_t seed_;
  scene::SceneTree tree_;
  util::Aabb bounds_;
  scene::NodeId marker_ = 0;
  scene::Camera base_;
  double phase_ = 0;
};

// --- real loopback TCP on the epoll reactor ------------------------------------

// TcpFabric runs accept callbacks on the reactor thread, while the
// services append accepted channels to lists their pump() walks on the
// pumping thread. This harness pumps inline from its own thread, so it
// defers every accept to that thread: accepted channels wait here and are
// handed to their listener at the start of the next pump round.
class InlineAcceptFabric final : public core::Fabric {
 public:
  Result<std::string> listen(const std::string& name, AcceptFn on_accept) override {
    auto listener = std::make_shared<AcceptFn>(std::move(on_accept));
    return tcp_.listen(name, [this, listener](net::ChannelPtr channel) {
      std::lock_guard lock(mu_);
      accepted_.emplace_back(listener, std::move(channel));
    });
  }
  void unlisten(const std::string& name) override { tcp_.unlisten(name); }
  Result<net::ChannelPtr> dial(const std::string& access_point) override {
    return tcp_.dial(access_point);
  }

  // Hand queued channels to their listeners; returns how many.
  size_t deliver() {
    std::vector<std::pair<std::shared_ptr<AcceptFn>, net::ChannelPtr>> ready;
    {
      std::lock_guard lock(mu_);
      ready.swap(accepted_);
    }
    for (auto& [listener, channel] : ready) (*listener)(std::move(channel));
    return ready.size();
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<std::shared_ptr<AcceptFn>, net::ChannelPtr>> accepted_;
  core::TcpFabric tcp_;  // last: its reactor callbacks use mu_ and accepted_
};

// tcp_edit: a data service and two render services (publisher + replica)
// on TcpFabric, pumped inline from the generator thread; 4 TCP thin
// clients each send 8 set_transform edits per cycle to seeded boxes among
// 64 next to the Galleon. Commit, audit, broadcast and replica apply do
// most of the work; the reactor carries both edits and tiles.
class TcpEdit final : public Workload {
 public:
  static constexpr size_t kBoxes = 64;
  static constexpr size_t kEditsPerClient = 8;

  explicit TcpEdit(uint64_t seed) : seed_(seed) {
    tree_.add_child(scene::kRootNode, "ship", mesh::make_galleon());
    const util::Aabb ship = tree_.world_bounds();
    spacing_ = ship.extent().y / 8.0f;
    const float half = 0.3f * spacing_;
    for (size_t i = 0; i < kBoxes; ++i) {
      const util::Vec3 home{ship.hi.x + spacing_ * (1.0f + static_cast<float>(i % 8)),
                            ship.lo.y + spacing_ * (0.5f + static_cast<float>(i / 8)),
                            ship.center().z};
      homes_.push_back(home);
      boxes_.push_back(tree_.add_child(scene::kRootNode, "box" + std::to_string(i),
                                       mesh::make_box({half, half, half}),
                                       util::Mat4::translate(home)));
    }
    camera_ = scene::Camera::framing(tree_.world_bounds());
  }

  Result<std::unique_ptr<Deployment>> deploy() override {
    scene::SceneTree tree = tree_;
    auto live = std::make_unique<Live>(*this);
    if (auto st = live->stand_up(std::move(tree)); !st.ok()) return make_error(st.error());
    live->subscribing_at = wall_now();
    if (auto st = subscribe_clients(*live, live->fabric_, 4); !st.ok())
      return make_error(st.error());
    if (auto st = wait_subscribed(*live); !st.ok()) return make_error(st.error());
    return std::unique_ptr<Deployment>(std::move(live));
  }

 private:
  class Live final : public Deployment {
   public:
    explicit Live(const TcpEdit& w) : w_(w) {
      started_at = wall_now();
      clock = &clock_;
      over_tcp = true;
      session = "edit";
      width = 320;
      height = 240;
    }
    ~Live() override { subscribers.clear(); }

    Status stand_up(scene::SceneTree tree) {
      data_ = std::make_unique<core::DataService>(clock_, data_options());
      data = data_.get();
      if (auto created = data_->create_session(session, std::move(tree)); !created.ok())
        return make_error(created.error());
      auto data_ap =
          fabric_.listen("data", [this](net::ChannelPtr ch) { data_->accept(std::move(ch)); });
      if (!data_ap.ok()) return make_error(data_ap.error());
      const double t0 = wall_now();
      for (const char* name : {"render0", "render1"}) {
        core::RenderService::Options options = render_options(nullptr);
        options.profile.name = name;
        auto& render = renders_.emplace_back(
            std::make_unique<core::RenderService>(clock_, fabric_, options));
        if (auto ap = render->listen_clients(std::string(name) + "-clients"); !ap.ok())
          return make_error(ap.error());
        if (auto joined = render->connect_session(data_ap.value(), session); !joined.ok())
          return make_error(joined.error());
        renders.push_back(render.get());
      }
      publisher = renders.front();
      if (!pump_until(*this, 10.0, [this] {
            return renders[0]->bootstrapped(session) && renders[1]->bootstrapped(session);
          }))
        return make_error("render services did not bootstrap over TCP");
      recruit_s = wall_now() - t0;
      return {};
    }

    size_t pump_services() override {
      size_t handled = fabric_.deliver();
      {
        obs::ScopedSpan span("pump", "datahost");
        handled += data_->pump();
      }
      for (core::RenderService* render : renders) {
        obs::ScopedSpan span("pump", render->options().profile.name);
        handled += render->pump();
      }
      return handled;
    }

    // Each client edits only its own boxes (every 4th one). Edits to one
    // box from two clients would commit in TCP arrival order, so the frame
    // would depend on timing; with disjoint targets it depends on the seed
    // alone and the digest check holds.
    std::vector<Edit> edits(uint64_t cycle) override {
      Rng rng = cycle_rng(w_.seed_, cycle);
      std::vector<Edit> out;
      const float reach = 0.3f * w_.spacing_;
      const size_t clients = subscribers.size();
      for (size_t client = 0; client < clients; ++client)
        for (size_t k = 0; k < kEditsPerClient; ++k) {
          const size_t box = client + clients * rng.index(kBoxes / clients);
          const util::Vec3 jitter{static_cast<float>(rng.uniform(-reach, reach)),
                                  static_cast<float>(rng.uniform(-reach, reach)), 0.0f};
          out.push_back(Edit{client, scene::SceneUpdate::set_transform(
                                         w_.boxes_[box],
                                         util::Mat4::translate(w_.homes_[box] + jitter))});
        }
      return out;
    }
    scene::Camera camera(uint64_t) override { return w_.camera_; }

    util::RealClock clock_;
    InlineAcceptFabric fabric_;

   private:
    const TcpEdit& w_;
    std::unique_ptr<core::DataService> data_;
    std::vector<std::unique_ptr<core::RenderService>> renders_;
  };

  uint64_t seed_;
  scene::SceneTree tree_;
  float spacing_ = 0;
  std::vector<util::Vec3> homes_;
  std::vector<scene::NodeId> boxes_;
  scene::Camera camera_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"collab_view", "orbit_render", "tcp_edit"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed) {
  if (name == "collab_view") return std::make_unique<CollabView>(seed);
  if (name == "orbit_render") return std::make_unique<OrbitRender>(seed);
  if (name == "tcp_edit") return std::make_unique<TcpEdit>(seed);
  return nullptr;
}

}  // namespace e2e
