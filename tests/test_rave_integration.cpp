// End-to-end integration tests: data service ↔ render services ↔ thin
// clients over the in-process fabric — subscription/bootstrap, update
// fan-out, collaboration avatars, dataset and tile distribution,
// migration, refusal, and session persistence.
#include <gtest/gtest.h>

#include <climits>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/render_service.hpp"
#include "core/thin_client.hpp"
#include "mesh/fields.hpp"
#include "mesh/primitives.hpp"
#include "render/raycast.hpp"
#include "render/render_list.hpp"
#include "scene/serialize.hpp"
#include "sim/fault.hpp"

namespace rave::core {
namespace {

using scene::Camera;
using scene::kRootNode;
using scene::SceneTree;

scene::MeshData colored_sphere(const util::Vec3& color, int detail = 16) {
  scene::MeshData mesh = mesh::make_uv_sphere(0.8f, detail, detail * 3 / 4);
  mesh.base_color = color;
  return mesh;
}

// A voxel volume that fills the view of fog_camera(): every pixel's ray
// enters it, so a render's ray count measures the pixels it covered.
SceneTree fog_tree() {
  SceneTree tree;
  scene::Aabb bounds;
  bounds.extend({-1.5f, -1.5f, -1.5f});
  bounds.extend({1.5f, 1.5f, 1.5f});
  tree.add_child(kRootNode, "fog",
                 mesh::rasterize_field(mesh::ball_field({0, 0, 0}, 1.4f), bounds, 16, 16, 16));
  return tree;
}

Camera fog_camera() {
  Camera cam;
  cam.eye = {0, 0.3f, 2.5f};
  return cam;
}

// Rays a render of `region` casts into `tree`'s volumes.
uint64_t rays_in(const SceneTree& tree, const Camera& cam, int width, int height,
                 const render::Tile& region) {
  render::FrameBuffer fb(width, height);
  const render::RenderList list =
      render::build_render_list(tree, cam, static_cast<float>(width) / static_cast<float>(height));
  render::RaycastOptions options;
  options.region = region;
  return render::raycast_list(fb, list, cam, options).rays_cast;
}

class RaveFixture : public testing::Test {
 protected:
  RaveFixture() : fabric_(clock_), data_(clock_, data_options()) {
    data_ap_ = fabric_.listen("datahost/data",
                              [this](net::ChannelPtr ch) { data_.accept(std::move(ch)); })
                   .value();
  }

  static DataService::Options data_options() {
    DataService::Options options;
    options.auto_rebalance = false;
    return options;
  }

  RenderService& add_render(const std::string& host, double polys_per_sec = 10e6) {
    RenderService::Options options;
    options.profile = sim::centrino_laptop();
    options.profile.name = host;
    options.profile.tri_rate = polys_per_sec;
    auto service = std::make_unique<RenderService>(clock_, fabric_, options);
    (void)service->listen_clients(host + "/clients");
    (void)service->listen_peer(host + "/peer");
    renders_.push_back(std::move(service));
    return *renders_.back();
  }

  void pump_all(int rounds = 50) {
    for (int i = 0; i < rounds; ++i) {
      size_t handled = data_.pump();
      for (auto& r : renders_) handled += r->pump();
      if (handled == 0) return;
    }
  }

  std::function<void()> pump_fn() {
    return [this] { pump_all(5); };
  }

  util::SimClock clock_;
  InProcFabric fabric_;
  DataService data_;
  std::string data_ap_;
  std::vector<std::unique_ptr<RenderService>> renders_;
};

TEST_F(RaveFixture, SubscribeBootstrapsSnapshot) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({1, 0, 0}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());

  RenderService& render = add_render("laptop");
  ASSERT_TRUE(render.connect_session(data_ap_, "demo").ok());
  pump_all();
  ASSERT_TRUE(render.bootstrapped("demo"));
  EXPECT_EQ(render.replica("demo")->node_count(), 2u);
  EXPECT_EQ(data_.subscribers("demo").size(), 1u);
}

TEST_F(RaveFixture, SubscribeToMissingSessionRefused) {
  RenderService& render = add_render("laptop");
  ASSERT_TRUE(render.connect_session(data_ap_, "ghost").ok());
  pump_all();
  EXPECT_FALSE(render.bootstrapped("ghost"));
  EXPECT_TRUE(data_.subscribers("ghost").empty());
}

TEST_F(RaveFixture, UpdatesFanOutToAllSubscribers) {
  SceneTree tree;
  const scene::NodeId ball = tree.add_child(kRootNode, "ball", colored_sphere({1, 0, 0}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());

  RenderService& a = add_render("a");
  RenderService& b = add_render("b");
  ASSERT_TRUE(a.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(b.connect_session(data_ap_, "demo").ok());
  pump_all();

  // a moves the ball; both replicas and the master converge.
  const util::Mat4 moved = util::Mat4::translate({5, 0, 0});
  ASSERT_TRUE(a.submit_update("demo", scene::SceneUpdate::set_transform(ball, moved)).ok());
  pump_all();
  EXPECT_EQ(data_.session_tree("demo")->find(ball)->transform, moved);
  EXPECT_EQ(a.replica("demo")->find(ball)->transform, moved);
  EXPECT_EQ(b.replica("demo")->find(ball)->transform, moved);
  EXPECT_EQ(data_.committed_updates("demo"), 1u);
}

TEST_F(RaveFixture, ThinClientReceivesFrames) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({1, 0.2f, 0.2f}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& render = add_render("laptop");
  ASSERT_TRUE(render.connect_session(data_ap_, "demo").ok());
  pump_all();

  ThinClient pda(clock_, fabric_);
  ASSERT_TRUE(pda.connect(render.client_access_point(), "demo").ok());
  Camera cam;
  cam.eye = {0, 0, 3};
  auto frame = pda.request_frame(cam, 200, 200, 5.0, pump_fn());
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().width, 200);
  // The sphere is visible: center differs from the corner background.
  const auto* center = frame.value().pixel(100, 100);
  const auto* corner = frame.value().pixel(2, 2);
  EXPECT_NE(center[0], corner[0]);
  EXPECT_GT(pda.last_stats().total_latency, 0.0);
  EXPECT_GT(pda.last_stats().image_bytes, 0u);
}

TEST_F(RaveFixture, ThinClientAvatarCollaboration) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({0.5f, 0.5f, 1.0f}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& render = add_render("laptop");
  RenderService& other = add_render("desktop");
  ASSERT_TRUE(render.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(other.connect_session(data_ap_, "demo").ok());
  pump_all();

  ThinClient pda(clock_, fabric_);
  ASSERT_TRUE(pda.connect(render.client_access_point(), "demo").ok());
  auto avatar = pda.create_avatar("alice", 5.0, pump_fn());
  ASSERT_TRUE(avatar.ok()) << avatar.error();

  // The avatar is visible in every replica — the fig. 3 collaboration.
  EXPECT_TRUE(other.replica("demo")->contains(avatar.value()));
  EXPECT_TRUE(data_.session_tree("demo")->find(avatar.value())->is_avatar());

  // Moving the camera moves the avatar everywhere.
  Camera cam;
  cam.eye = {4, 2, 4};
  ASSERT_TRUE(pda.move_avatar(avatar.value(), cam).ok());
  pump_all();
  const util::Vec3 pos =
      other.replica("demo")->find(avatar.value())->transform.transform_point({0, 0, 0});
  EXPECT_NEAR(pos.x, 4.0f, 1e-4f);
  EXPECT_NEAR(pos.y, 2.0f, 1e-4f);
}

TEST_F(RaveFixture, DatasetDistributionAssignsSubsets) {
  SceneTree tree;
  for (int i = 0; i < 6; ++i)
    tree.add_child(kRootNode, "part" + std::to_string(i), colored_sphere({1, 1, 1}, 24));
  ASSERT_TRUE(data_.create_session("big", std::move(tree)).ok());

  // Each service can only hold half the scene at the target rate.
  const auto costs = payload_costs(*data_.session_tree("big"));
  double total = 0;
  for (const auto& c : costs) total += c.work_units();
  const double per_service_budget = total * 0.6;
  RenderService& a = add_render("a", per_service_budget * 15.0);
  RenderService& b = add_render("b", per_service_budget * 15.0);
  ASSERT_TRUE(a.connect_session(data_ap_, "big").ok());
  ASSERT_TRUE(b.connect_session(data_ap_, "big").ok());
  pump_all();

  ASSERT_TRUE(data_.distribute("big").ok());
  pump_all();
  const auto views = data_.subscribers("big");
  ASSERT_EQ(views.size(), 2u);
  EXPECT_FALSE(views[0].whole_tree);
  EXPECT_FALSE(views[1].whole_tree);
  EXPECT_FALSE(views[0].interest.empty());
  EXPECT_FALSE(views[1].interest.empty());
  // Disjoint interest sets covering all six parts.
  std::set<scene::NodeId> all;
  for (const auto& v : views)
    for (scene::NodeId id : v.interest) EXPECT_TRUE(all.insert(id).second);
  EXPECT_EQ(all.size(), 6u);
}

TEST_F(RaveFixture, DistributionRefusesWhenTooSmall) {
  SceneTree tree;
  tree.add_child(kRootNode, "huge", colored_sphere({1, 1, 1}, 64));
  ASSERT_TRUE(data_.create_session("big", std::move(tree)).ok());
  RenderService& tiny = add_render("tiny", 1'000.0);  // ~67 tris per frame
  ASSERT_TRUE(tiny.connect_session(data_ap_, "big").ok());
  pump_all();
  const util::Status st = data_.distribute("big");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().find("insufficient rendering capacity"), std::string::npos);
}

TEST_F(RaveFixture, SubsetCompositingMatchesMonolithic) {
  // Two subset holders + compositor reproduce the single-replica image.
  SceneTree tree;
  tree.add_child(kRootNode, "left", colored_sphere({1, 0, 0}),
                 util::Mat4::translate({-0.7f, 0, 0.4f}));
  tree.add_child(kRootNode, "right", colored_sphere({0, 0, 1}),
                 util::Mat4::translate({0.7f, 0, -0.4f}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());

  RenderService& a = add_render("a");
  RenderService& b = add_render("b");
  for (auto* r : {&a, &b}) ASSERT_TRUE(r->connect_session(data_ap_, "demo").ok());
  pump_all();

  Camera cam;
  cam.eye = {0, 0, 4};
  // Reference: a monolithic render of the master scene.
  const render::FrameBuffer reference =
      render::render_tree(*data_.session_tree("demo"), cam, 96, 96);
  ASSERT_LT(reference.depth_at(28, 48), 1.0f);

  // Distribute the two spheres across a and b.
  ASSERT_TRUE(data_.distribute("demo").ok());
  pump_all();
  // a composites: its own subset plus b's subset frame.
  ASSERT_TRUE(a.enable_subset_compositing("demo", {b.peer_access_point()}).ok());
  // First call kicks requests; pump; second call composites fresh frames.
  (void)a.render_distributed("demo", cam, 96, 96);
  pump_all();
  auto composite = a.render_distributed("demo", cam, 96, 96);
  ASSERT_TRUE(composite.ok());
  // Both spheres must be present in the composite (center columns of each
  // half are non-background).
  const render::FrameBuffer& fb = composite.value();
  EXPECT_LT(fb.depth_at(28, 48), 1.0f);  // left sphere
  EXPECT_LT(fb.depth_at(68, 48), 1.0f);  // right sphere
  EXPECT_GT(a.stats().remote_tiles_used, 0u);
}

TEST_F(RaveFixture, TileAssistViaDataService) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({0.9f, 0.6f, 0.1f}, 24));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& main = add_render("main");
  RenderService& helper = add_render("helper", 40e6);
  ASSERT_TRUE(main.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(helper.connect_session(data_ap_, "demo").ok());
  pump_all();

  // The data service forwards the assist request to the strongest peer.
  ASSERT_TRUE(main.request_tile_assist("demo", 1).ok());
  pump_all();

  Camera cam;
  cam.eye = {0, 0, 3};
  (void)main.render_distributed("demo", cam, 64, 64);
  pump_all();
  auto frame = main.render_distributed("demo", cam, 64, 64);
  ASSERT_TRUE(frame.ok());
  EXPECT_GT(main.stats().remote_tiles_used, 0u);
  EXPECT_GT(helper.stats().peer_tiles_rendered, 0u);

  // Tiled output equals a monolithic render of the same replica.
  auto reference = main.render_console("demo", cam, 64, 64);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(frame.value().color(), reference.value().color());
}

TEST_F(RaveFixture, OversizedFrameRequestIsRefusedNotRendered) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({1, 0.2f, 0.2f}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& render = add_render("laptop");
  ASSERT_TRUE(render.connect_session(data_ap_, "demo").ok());
  pump_all();

  ThinClient client(clock_, fabric_);
  ASSERT_TRUE(client.connect(render.client_access_point(), "demo").ok());
  Camera cam;
  cam.eye = {0, 0, 3};
  // A full framebuffer at 65536x65536 would be about 30 GB.
  for (const auto& [w, h] : std::vector<std::pair<int, int>>{
           {65536, 65536}, {kMaxFrameSide + 1, 16}, {16, -1}, {0, 16}}) {
    auto frame = client.request_frame(cam, w, h, 5.0, pump_fn());
    ASSERT_FALSE(frame.ok()) << w << "x" << h;
    EXPECT_NE(frame.error().find("frame request size"), std::string::npos) << frame.error();
  }
  EXPECT_EQ(render.stats().frames_rendered, 0u);

  // The largest allowed side still renders.
  auto frame = client.request_frame(cam, kMaxFrameSide, 2, 5.0, pump_fn());
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(render.stats().frames_rendered, 1u);
}

TEST_F(RaveFixture, HostileTileAssignIsDropped) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({0.9f, 0.6f, 0.1f}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& helper = add_render("helper");
  ASSERT_TRUE(helper.connect_session(data_ap_, "demo").ok());
  pump_all();
  auto peer = fabric_.dial(helper.peer_access_point());
  ASSERT_TRUE(peer.ok()) << peer.error();

  TileAssignMsg assign;
  assign.session = "demo";
  assign.camera.eye = {0, 0, 3};
  const auto send = [&](render::Tile tile, int frame_w, int frame_h) {
    assign.tile = tile;
    assign.frame_width = frame_w;
    assign.frame_height = frame_h;
    ASSERT_TRUE(peer.value()->send(encode(assign)).ok());
    pump_all();
  };
  send({0, 0, 64, 64}, 1 << 20, 1 << 20);  // a 1M x 1M frame
  send({40, 0, 32, 32}, 64, 64);           // tile past the frame's right edge
  send({0, -8, 32, 32}, 64, 64);           // negative origin
  send({0, 0, 0, 32}, 64, 64);             // empty tile
  EXPECT_EQ(helper.stats().peer_tiles_rendered, 0u);
  EXPECT_FALSE(peer.value()->try_receive().has_value());

  send({32, 32, 32, 32}, 64, 64);  // control: a tile inside its frame renders
  EXPECT_EQ(helper.stats().peer_tiles_rendered, 1u);
  auto reply = peer.value()->try_receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, kMsgTileResult);
}

TEST_F(RaveFixture, TileAssistRendersOnlyUncoveredSlotsLocally) {
  ASSERT_TRUE(data_.create_session("demo", fog_tree()).ok());
  RenderService& main = add_render("main");
  RenderService& helper = add_render("helper");
  ASSERT_TRUE(main.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(helper.connect_session(data_ap_, "demo").ok());
  pump_all();
  ASSERT_TRUE(main.enable_tile_assist("demo", {helper.peer_access_point()}).ok());

  constexpr int kW = 64, kH = 48;
  const Camera cam = fog_camera();
  const SceneTree& replica = *main.replica("demo");
  const render::Tile own = render::split_tiles(kW, kH, 2)[0];
  const uint64_t full_rays = rays_in(replica, cam, kW, kH, {0, 0, kW, kH});
  const uint64_t own_rays = rays_in(replica, cam, kW, kH, own);
  ASSERT_GT(own_rays, 0u);
  ASSERT_LT(own_rays, full_rays);

  // No result cached yet: the local pass covers the assistant's slot too.
  uint64_t rays = main.stats().volume_rays;
  ASSERT_TRUE(main.render_distributed("demo", cam, kW, kH).ok());
  EXPECT_EQ(main.stats().volume_rays - rays, full_rays);
  EXPECT_EQ(main.stats().locally_covered_tiles, 1u);

  // The assistant's tile now sits at its slot: only slot 0 is cast locally.
  pump_all();
  rays = main.stats().volume_rays;
  auto frame = main.render_distributed("demo", cam, kW, kH);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(main.stats().volume_rays - rays, own_rays);
  EXPECT_EQ(main.stats().locally_covered_tiles, 1u);
  EXPECT_EQ(main.stats().remote_tiles_used, 1u);

  auto reference = main.render_console("demo", cam, kW, kH);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(frame.value().color(), reference.value().color());
  EXPECT_EQ(frame.value().depth(), reference.value().depth());
  // A frame request's size is client input; an empty one has no slots.
  EXPECT_FALSE(main.render_distributed("demo", cam, 0, kH).ok());
  EXPECT_FALSE(main.render_distributed("demo", cam, kW, -1).ok());
}

TEST_F(RaveFixture, TileFromAnEarlierSplitDoesNotCoverANewSlot) {
  ASSERT_TRUE(data_.create_session("demo", fog_tree()).ok());
  RenderService& main = add_render("main");
  RenderService& keeper = add_render("keeper");
  RenderService& victim = add_render("victim");
  for (RenderService* r : {&main, &keeper, &victim})
    ASSERT_TRUE(r->connect_session(data_ap_, "demo").ok());
  pump_all();
  // Main's tile channel to the victim runs through a kill switch.
  auto ks = std::make_shared<sim::KillSwitch>();
  fabric_.set_fault("victim/peer", [ks](net::ChannelPtr channel) {
    return sim::wrap_faulty(std::move(channel), ks);
  });
  ASSERT_TRUE(main.enable_tile_assist(
                      "demo", {keeper.peer_access_point(), victim.peer_access_point()})
                  .ok());

  constexpr int kW = 96, kH = 64;
  const Camera cam = fog_camera();
  const SceneTree& replica = *main.replica("demo");
  const auto three = render::split_tiles(kW, kH, 3);
  const auto two = render::split_tiles(kW, kH, 2);
  // The keeper's slot moves when the split shrinks, and its old tile
  // covers only part of the new one.
  ASSERT_FALSE(three[1] == two[1]);
  auto reference = main.render_console("demo", cam, kW, kH);
  ASSERT_TRUE(reference.ok());

  (void)main.render_distributed("demo", cam, kW, kH);
  pump_all();
  uint64_t rays = main.stats().volume_rays;
  auto whole = main.render_distributed("demo", cam, kW, kH);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(main.stats().volume_rays - rays, rays_in(replica, cam, kW, kH, three[0]));
  EXPECT_EQ(whole.value().color(), reference.value().color());

  // The victim dies; the split shrinks to two. The keeper's cached tile
  // is valid but from the old split, so the local pass covers slots 0
  // and 1 — the whole frame here.
  ks->kill();
  rays = main.stats().volume_rays;
  auto after_kill = main.render_distributed("demo", cam, kW, kH);
  ASSERT_TRUE(after_kill.ok());
  EXPECT_EQ(main.stats().peer_failures, 1u);
  EXPECT_EQ(main.stats().volume_rays - rays, rays_in(replica, cam, kW, kH, {0, 0, kW, kH}));
  EXPECT_EQ(after_kill.value().color(), reference.value().color());

  // The keeper's next result is at its new slot.
  pump_all();
  rays = main.stats().volume_rays;
  auto settled = main.render_distributed("demo", cam, kW, kH);
  ASSERT_TRUE(settled.ok());
  EXPECT_EQ(main.stats().volume_rays - rays, rays_in(replica, cam, kW, kH, two[0]));
  EXPECT_EQ(settled.value().color(), reference.value().color());
}

TEST_F(RaveFixture, AssistantResultIsCompositedOnlyAtItsAssignedSlot) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({0.3f, 0.8f, 0.4f}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& main = add_render("main");
  ASSERT_TRUE(main.connect_session(data_ap_, "demo").ok());
  pump_all();
  // The assistant is a bare channel that answers with whatever it likes.
  net::ChannelPtr hostile;
  auto hostile_ap =
      fabric_.listen("hostile/peer", [&](net::ChannelPtr ch) { hostile = std::move(ch); });
  ASSERT_TRUE(hostile_ap.ok()) << hostile_ap.error();
  ASSERT_TRUE(main.enable_tile_assist("demo", {hostile_ap.value()}).ok());
  ASSERT_NE(hostile, nullptr);

  constexpr int kW = 64, kH = 48;
  Camera cam;
  cam.eye = {0, 0, 3};
  const std::vector<render::Tile> slots = render::split_tiles(kW, kH, 2);
  auto reference = main.render_console("demo", cam, kW, kH);
  ASSERT_TRUE(reference.ok());
  render::FrameBuffer white(slots[0].width, slots[0].height);
  white.clear({1, 1, 1});
  for (float& d : white.depth()) d = 0.0f;

  // Answer the pending assignment with `tile` and `buffer`, then render
  // the next frame: it must equal the monolithic render.
  const auto answer_then_render = [&](const render::Tile& tile,
                                      const render::FrameBuffer& buffer) {
    auto assign_msg = hostile->try_receive();
    ASSERT_TRUE(assign_msg.has_value());
    auto assign = decode_tile_assign(*assign_msg);
    ASSERT_TRUE(assign.ok()) << assign.error();
    ASSERT_TRUE(assign.value().tile == slots[1]);
    TileResultMsg result;
    result.tile = tile;
    result.generation = assign.value().generation;
    result.framebuffer = buffer.serialize();
    ASSERT_TRUE(hostile->send(encode(result)).ok());
    pump_all();
    auto frame = main.render_distributed("demo", cam, kW, kH);
    ASSERT_TRUE(frame.ok()) << frame.error();
    EXPECT_EQ(frame.value().color(), reference.value().color());
    EXPECT_EQ(frame.value().depth(), reference.value().depth());
  };

  ASSERT_TRUE(main.render_distributed("demo", cam, kW, kH).ok());
  EXPECT_EQ(main.stats().locally_covered_tiles, 1u);
  // A white tile claiming the publisher's own slot.
  answer_then_render(slots[0], white);
  EXPECT_EQ(main.stats().locally_covered_tiles, 2u);
  // The assigned slot, but a 1x1 buffer that cannot fill it.
  answer_then_render(slots[1], render::FrameBuffer(1, 1));
  EXPECT_EQ(main.stats().locally_covered_tiles, 3u);
  // A tile whose origin would overflow the paste arithmetic.
  answer_then_render({INT_MIN, 0, 8, 8}, render::FrameBuffer(8, 8));
  EXPECT_EQ(main.stats().locally_covered_tiles, 4u);
  EXPECT_EQ(main.stats().remote_tiles_used, 0u);

  // Control: the right pixels at the assigned slot are used.
  answer_then_render(slots[1], reference.value().extract(slots[1]));
  EXPECT_EQ(main.stats().locally_covered_tiles, 4u);
  EXPECT_EQ(main.stats().remote_tiles_used, 1u);
}

TEST_F(RaveFixture, StalledAssistantProducesStaleTiles) {
  // Fig. 5: artificially stalling the remote render service yields tiles
  // from an older generation — the tearing artifact.
  SceneTree tree;
  const scene::NodeId ball =
      tree.add_child(kRootNode, "ball", colored_sphere({0.9f, 0.2f, 0.2f}, 20));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& main = add_render("main");
  RenderService& helper = add_render("helper");
  ASSERT_TRUE(main.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(helper.connect_session(data_ap_, "demo").ok());
  pump_all();
  ASSERT_TRUE(main.enable_tile_assist("demo", {helper.peer_access_point()}).ok());
  helper.set_assist_stall(10.0);  // results arrive 10 virtual seconds late

  Camera cam;
  cam.eye = {0, 0, 3};
  (void)main.render_distributed("demo", cam, 64, 64);
  pump_all();
  // Scene changes while the assistant's reply is still in flight.
  ASSERT_TRUE(main.submit_update("demo", scene::SceneUpdate::set_transform(
                                             ball, util::Mat4::translate({2, 0, 0}))).ok());
  clock_.advance(11.0);  // stalled reply becomes deliverable
  pump_all();
  (void)main.render_distributed("demo", cam, 64, 64);
  EXPECT_GT(main.stats().stale_tiles_used, 0u);  // tearing observed
}

TEST_F(RaveFixture, MigrationMovesWorkFromOverloaded) {
  SceneTree tree;
  for (int i = 0; i < 4; ++i)
    tree.add_child(kRootNode, "part" + std::to_string(i), colored_sphere({1, 1, 1}, 24));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  const auto costs = payload_costs(*data_.session_tree("demo"));
  double total = 0;
  for (const auto& c : costs) total += c.work_units();

  RenderService& weak = add_render("weak", total * 0.6 * 15.0);
  RenderService& strong = add_render("strong", total * 2.0 * 15.0);
  ASSERT_TRUE(weak.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(strong.connect_session(data_ap_, "demo").ok());
  pump_all();
  // Everything starts on `weak` (manual assignment through migration API).
  ASSERT_TRUE(data_.distribute("demo").ok());
  pump_all();

  // Report sustained overload from `weak`.
  auto views = data_.subscribers("demo");
  const auto weak_view = std::find_if(views.begin(), views.end(), [](const auto& v) {
    return v.host == "weak";
  });
  ASSERT_NE(weak_view, views.end());
  // Feed the tracker with slow frames through the real pipeline: render a
  // few console frames on `weak` (simulate_timing is off, so we push load
  // reports directly instead).
  Camera cam;
  cam.eye = {0, 0, 4};
  for (int i = 0; i < 30; ++i) {
    clock_.advance(0.2);
    (void)weak.render_console("demo", cam, 32, 32);
    pump_all();
  }
  // LoadTracker on the data side now has samples; force a rebalance round.
  const auto actions = data_.rebalance("demo");
  ASSERT_TRUE(actions.ok()) << actions.error();
  // Whether moves trigger depends on measured fps; at minimum the call is
  // safe and leaves a consistent system.
  pump_all();
  const auto after = data_.subscribers("demo");
  std::set<scene::NodeId> seen;
  size_t with_interest = 0;
  for (const auto& v : after) {
    if (!v.whole_tree) ++with_interest;
    for (auto id : v.interest) seen.insert(id);
  }
  EXPECT_EQ(with_interest, after.size());
  EXPECT_EQ(seen.size(), 4u);  // every part still owned by someone
}

TEST_F(RaveFixture, SessionSaveAndResume) {
  SceneTree tree;
  const scene::NodeId ball = tree.add_child(kRootNode, "ball", colored_sphere({1, 0, 0}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& render = add_render("laptop");
  ASSERT_TRUE(render.connect_session(data_ap_, "demo").ok());
  pump_all();
  ASSERT_TRUE(render
                  .submit_update("demo", scene::SceneUpdate::set_transform(
                                             ball, util::Mat4::translate({1, 2, 3})))
                  .ok());
  pump_all();

  const std::string path = testing::TempDir() + "/rave_session.bin";
  ASSERT_TRUE(data_.save_session("demo", path).ok());

  // A later data service resumes the session: asynchronous collaboration.
  DataService resumed(clock_);
  ASSERT_TRUE(resumed.load_session("demo", path).ok());
  const scene::SceneTree* resumed_tree = resumed.session_tree("demo");
  ASSERT_NE(resumed_tree, nullptr);
  EXPECT_EQ(resumed_tree->find(ball)->transform.transform_point({0, 0, 0}),
            (util::Vec3{1, 2, 3}));
  EXPECT_EQ(resumed.committed_updates("demo"), 1u);
  std::remove(path.c_str());
}

TEST_F(RaveFixture, DisconnectRemovesSubscriberAndAvatar) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({1, 1, 1}));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());
  RenderService& render = add_render("laptop");
  RenderService& watcher = add_render("watcher");
  ASSERT_TRUE(render.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(watcher.connect_session(data_ap_, "demo").ok());
  pump_all();

  ThinClient pda(clock_, fabric_);
  ASSERT_TRUE(pda.connect(render.client_access_point(), "demo").ok());
  auto avatar = pda.create_avatar("bob", 5.0, pump_fn());
  ASSERT_TRUE(avatar.ok());
  ASSERT_TRUE(watcher.replica("demo")->contains(avatar.value()));

  // The render service (the avatar's author from the data service's view)
  // disconnecting retires the avatar for everyone else.
  const auto before = data_.subscribers("demo").size();
  // Find render's channel by closing its replica connection: simulate by
  // destroying the service object's session — here we close via disconnect
  // of the whole service (drop it from pumping and close channels).
  // Simplest: close the thin client, then the render service's data
  // channel by destroying the service.
  pda.disconnect();
  renders_.erase(renders_.begin());  // destroys `render`, closing channels
  pump_all();
  EXPECT_LT(data_.subscribers("demo").size(), before);
  EXPECT_FALSE(data_.session_tree("demo")->contains(avatar.value()));
  EXPECT_FALSE(watcher.replica("demo")->contains(avatar.value()));
}

}  // namespace
}  // namespace rave::core
