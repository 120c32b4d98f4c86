// RaveGrid assembly tests: discovery through the UDDI registry, SOAP
// control plane, recruitment, the fig. 4 registry browser, and the grid's
// per-host advisor reaching its data services.
#include <gtest/gtest.h>

#include "core/grid.hpp"
#include "mesh/primitives.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace rave::core {
namespace {

using scene::kRootNode;
using scene::SceneTree;

SceneTree ball_scene(int detail = 16) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", mesh::make_uv_sphere(0.8f, detail, detail));
  return tree;
}

TEST(Grid, HostsAndAccessPoints) {
  util::SimClock clock;
  RaveGrid grid(clock);
  grid.add_data_service("adrenochrome");
  RenderService::Options options;
  options.profile = sim::xeon_desktop();
  grid.add_render_service("tower", options);

  EXPECT_NE(grid.data_access_point("adrenochrome"), "");
  EXPECT_NE(grid.soap_access_point("tower"), "");
  EXPECT_EQ(grid.data_access_point("nowhere"), "");
  EXPECT_NE(grid.data_service("adrenochrome"), nullptr);
  EXPECT_NE(grid.render_service("tower"), nullptr);
  EXPECT_EQ(grid.render_service("adrenochrome"), nullptr);
}

TEST(Grid, JoinBootstrapsReplica) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  ASSERT_TRUE(data.create_session("Skull", ball_scene()).ok());
  grid.add_render_service("tower");
  ASSERT_TRUE(grid.join("tower", "datahost", "Skull").ok());
  EXPECT_TRUE(grid.render_service("tower")->bootstrapped("Skull"));
}

TEST(Grid, SoapControlPlane) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  ASSERT_TRUE(data.create_session("Skull", ball_scene()).ok());
  grid.add_render_service("tower");
  ASSERT_TRUE(grid.join("tower", "datahost", "Skull").ok());

  // Query the data service via SOAP, as a remote client browser would.
  auto proxy = grid.soap_proxy("datahost", "data");
  ASSERT_TRUE(proxy.ok());
  // Drive the call single-threaded: container pumps happen in pump_all, so
  // use the threaded container path instead.
  grid.container("datahost")->start();
  auto sessions = proxy.value().call("listSessions", {}, 2.0);
  grid.container("datahost")->stop();
  ASSERT_TRUE(sessions.ok()) << sessions.error();
  ASSERT_NE(sessions.value().as_list(), nullptr);
  ASSERT_EQ(sessions.value().as_list()->size(), 1u);
  EXPECT_EQ(sessions.value().as_list()->front().as_string(), "Skull");
}

TEST(Grid, AdvertiseAndRegistryListing) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("adrenochrome");
  ASSERT_TRUE(data.create_session("Skull", ball_scene()).ok());
  grid.add_render_service("tower");
  ASSERT_TRUE(grid.join("tower", "adrenochrome", "Skull").ok());
  grid.advertise_all();

  // Both tModels registered, both businesses present.
  EXPECT_TRUE(grid.registry().find_tmodel_by_name("RaveDataService").has_value());
  EXPECT_TRUE(grid.registry().find_tmodel_by_name("RaveRenderService").has_value());
  const std::string listing = grid.registry_listing();
  EXPECT_NE(listing.find("adrenochrome"), std::string::npos);
  EXPECT_NE(listing.find("tower"), std::string::npos);
  EXPECT_NE(listing.find("data:Skull"), std::string::npos);
  EXPECT_NE(listing.find("render:Skull"), std::string::npos);
  EXPECT_NE(listing.find("Create new instance"), std::string::npos);
}

TEST(Grid, RecruitmentPullsIdleServicesIntoSession) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  ASSERT_TRUE(data.create_session("Skull", ball_scene()).ok());
  grid.add_render_service("laptop");
  RenderService::Options strong;
  strong.profile = sim::xeon_desktop();
  grid.add_render_service("tower", strong);
  ASSERT_TRUE(grid.join("laptop", "datahost", "Skull").ok());
  grid.advertise_all();  // tower advertises as idle

  // tower is not in the session yet.
  EXPECT_EQ(data.subscribers("Skull").size(), 1u);
  const size_t recruited = grid.recruit("datahost", "Skull");
  EXPECT_EQ(recruited, 1u);
  grid.pump_until_idle();
  EXPECT_EQ(data.subscribers("Skull").size(), 2u);
  EXPECT_TRUE(grid.render_service("tower")->bootstrapped("Skull"));
  // Recruiting again is a no-op: everyone is already a member.
  EXPECT_EQ(grid.recruit("datahost", "Skull"), 0u);
}

TEST(Grid, EndToEndThinClientThroughDiscovery) {
  // The full paper flow: discover the render service via UDDI, get its
  // client endpoint over SOAP, connect, and pull a frame.
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  ASSERT_TRUE(data.create_session("Skull", ball_scene()).ok());
  grid.add_render_service("laptop");
  ASSERT_TRUE(grid.join("laptop", "datahost", "Skull").ok());
  grid.advertise_all();

  // Discovery: find render services via the registry (the UDDI scan).
  const auto tmodel = grid.registry().find_tmodel_by_name("RaveRenderService");
  ASSERT_TRUE(tmodel.has_value());
  const auto bindings = grid.registry().access_points(tmodel->key);
  ASSERT_FALSE(bindings.empty());

  // Control plane: ask the advertised host for its client endpoint.
  grid.container("laptop")->start();
  auto proxy = grid.soap_proxy("laptop", "render");
  ASSERT_TRUE(proxy.ok());
  auto endpoint = proxy.value().call("connectThinClient", {services::SoapValue{"Skull"}}, 2.0);
  grid.container("laptop")->stop();
  ASSERT_TRUE(endpoint.ok()) << endpoint.error();

  // Data plane: binary frames.
  ThinClient pda(clock, grid.fabric());
  ASSERT_TRUE(pda.connect(endpoint.value().as_string(), "Skull").ok());
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  auto frame = pda.request_frame(cam, 100, 100, 5.0, [&grid] { grid.pump_all(); });
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().width, 100);
}

TEST(Grid, MigrationRecruitsThroughRegistry) {
  // End-to-end §3.2.7: an overloaded lone service triggers recruitment of
  // an advertised idle service via the data service's recruiter hook.
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService::Options data_options;
  data_options.target_fps = 15.0;
  DataService& data = grid.add_data_service("datahost", data_options);

  SceneTree tree;
  for (int i = 0; i < 4; ++i)
    tree.add_child(kRootNode, "part" + std::to_string(i),
                   mesh::make_uv_sphere(0.6f, 24, 18));
  ASSERT_TRUE(data.create_session("big", std::move(tree)).ok());
  const auto costs = payload_costs(*data.session_tree("big"));
  double total = 0;
  for (const auto& c : costs) total += c.work_units();

  RenderService::Options weak_options;
  weak_options.profile.tri_rate = total * 0.5 * 15.0;  // holds half the scene
  grid.add_render_service("weak", weak_options);
  RenderService::Options strong_options;
  strong_options.profile = sim::xeon_desktop();
  grid.add_render_service("strong", strong_options);

  ASSERT_TRUE(grid.join("weak", "datahost", "big").ok());
  grid.advertise_all();
  EXPECT_EQ(data.subscribers("big").size(), 1u);

  // Force the weak service into the overloaded band with slow reports,
  // then rebalance: no in-session spare capacity → recruit via UDDI.
  scene::Camera cam;
  cam.eye = {0, 0, 4};
  for (int i = 0; i < 30; ++i) {
    clock.advance(0.2);
    (void)grid.render_service("weak")->render_console("big", cam, 32, 32);
    grid.pump_until_idle();
  }
  (void)data.rebalance("big");
  grid.pump_until_idle();
  // The strong host has been recruited into the session.
  EXPECT_EQ(data.subscribers("big").size(), 2u);
  EXPECT_TRUE(grid.render_service("strong")->bootstrapped("big"));
}

// Both planes advise through the one per-host advisor, whichever was set
// up first: the data service or the planes. The telemetry half is a real
// SLO engine with an fps objective no host can meet (so the laptop burns
// as soon as two scrapes of its frame count exist); the health half is a
// real canary whose laptop probes never see a frame.
void expect_advice_reaches_data_service(bool planes_first) {
  obs::MetricsRegistry::global().reset_values();
  obs::FlightRecorder::global().clear();
  util::SimClock clock;
  obs::set_clock(&clock);
  {
    RaveGrid grid(clock, net::ethernet_100mbit());
    const auto enable_planes = [&grid] {
      obs::SloSpec fps;
      fps.name = "fps";
      fps.metric = "rave_frame_seconds_count";
      fps.labels = "{host=\"laptop\"}";
      fps.kind = obs::SloSpec::Kind::RateAtLeast;
      fps.threshold = 1e6;
      grid.enable_telemetry({fps});
      obs::Canary::Options canary;
      canary.frame_timeout = 0.25;
      canary.unhealthy_after = 2;
      canary.qualities = {compress::QualityClass::Workstation};
      grid.enable_health_plane(canary);
    };
    if (planes_first) enable_planes();
    DataService::Options options;
    options.lease_seconds = 60;
    DataService& data = grid.add_data_service("datahost", options);
    if (!planes_first) enable_planes();

    SceneTree tree;
    tree.add_child(kRootNode, "a", mesh::make_uv_sphere(0.5f, 24, 18));
    tree.add_child(kRootNode, "b", mesh::make_uv_sphere(0.4f, 20, 16));
    tree.add_child(kRootNode, "c", mesh::make_uv_sphere(0.3f, 16, 12));
    ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
    RenderService::Options equal;
    equal.profile = sim::centrino_laptop();
    grid.add_render_service("laptop", equal);
    grid.add_render_service("helper", equal);
    ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());
    ASSERT_TRUE(grid.join("helper", "datahost", "demo").ok());
    ASSERT_TRUE(data.distribute("demo").ok());
    grid.pump_until_idle();

    // Telemetry: the laptop renders, the collector scrapes once a second,
    // the engine flags the burn and the data service plans on it.
    scene::Camera cam;
    cam.eye = {0, 0, 4};
    for (int i = 0; i < 8 && data.last_plan_summary("demo").find("slo-burn") == std::string::npos;
         ++i) {
      (void)grid.render_service("laptop")->render_console("demo", cam, 32, 32);
      clock.advance(1.0);
      grid.pump_all();
      grid.pump_all();
    }
    EXPECT_NE(data.last_plan_summary("demo").find("slo-burn"), std::string::npos)
        << data.last_plan_summary("demo");

    // Health: the helper's stream publishes, the laptop's stays quiet for
    // two probe rounds, so only the laptop turns Unhealthy and is evicted
    // on the next pump, long before its 60 s lease.
    grid.watch_streams("demo");
    const auto pump = [&grid] { grid.pump_all(); };
    (void)grid.canary()->probe_all(pump);
    (void)grid.render_service("helper")->publish_stream_frame("demo", cam, 64, 48);
    grid.pump_all();
    (void)grid.canary()->probe_all(pump);
    ASSERT_EQ(grid.canary()->verdict("laptop").state, obs::HealthState::Unhealthy);
    ASSERT_EQ(grid.canary()->verdict("helper").state, obs::HealthState::Healthy);
    grid.pump_all();
    EXPECT_EQ(data.stats().canary_evictions, 1u);
    EXPECT_EQ(data.stats().lease_expiries, 0u);
    const auto views = data.subscribers("demo");
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views[0].host, "helper");
  }
  obs::set_clock(nullptr);
}

TEST(Grid, AdvisorReachesDataServicesAddedBeforeAndAfterEitherPlane) {
  {
    SCOPED_TRACE("data service added before the planes");
    expect_advice_reaches_data_service(/*planes_first=*/false);
  }
  {
    SCOPED_TRACE("data service added after the planes");
    expect_advice_reaches_data_service(/*planes_first=*/true);
  }
}

}  // namespace
}  // namespace rave::core
