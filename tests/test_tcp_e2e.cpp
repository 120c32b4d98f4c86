// End-to-end over real TCP sockets: data service, render service and thin
// client on loopback — the §4.3 socket data plane without any simulation.
// The test thread pumps both services itself (as a deployment's service
// loop does), so the only other thread is the epoll reactor. Kept small
// so CI stays fast.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <set>
#include <thread>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/render_service.hpp"
#include "core/thin_client.hpp"
#include "mesh/primitives.hpp"
#include "obs/trace.hpp"

namespace rave::core {
namespace {

size_t pump(DataService& data, RenderService& render) { return data.pump() + render.pump(); }

// Pump both services from the calling thread until `done` holds or 10 s
// pass; sleeps briefly only when a round handled nothing.
bool pump_until(DataService& data, RenderService& render, const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline)
    if (pump(data, render) == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  return done();
}

TEST(TcpEndToEnd, BootstrapFrameAndEdit) {
  util::RealClock clock;
  TcpFabric fabric;

  DataService data(clock);
  scene::SceneTree tree;
  const scene::NodeId ball =
      tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 16, 12));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  auto data_ap = fabric.listen("data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); });
  ASSERT_TRUE(data_ap.ok()) << data_ap.error();

  RenderService render(clock, fabric);
  auto client_ap = render.listen_clients("clients");
  ASSERT_TRUE(client_ap.ok());
  ASSERT_EQ(client_ap.value().rfind("tcp:", 0), 0u);

  ASSERT_TRUE(render.connect_session(data_ap.value(), "demo").ok());
  ASSERT_TRUE(pump_until(data, render, [&] { return render.bootstrapped("demo"); }));

  ThinClient client(clock, fabric);
  ASSERT_TRUE(client.connect(client_ap.value(), "demo").ok());
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  auto frame = client.request_frame(cam, 64, 64, 5.0, [&] { pump(data, render); });
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().width, 64);
  EXPECT_LT(frame.value().pixel(32, 32)[2], 250);  // something rendered

  // A collaborative edit over the same sockets commits at the data service.
  ASSERT_TRUE(
      client.send_update(scene::SceneUpdate::set_transform(ball, util::Mat4::rotate_y(0.4f)))
          .ok());
  EXPECT_TRUE(pump_until(data, render, [&] { return data.committed_updates("demo") != 0; }));
  EXPECT_EQ(data.committed_updates("demo"), 1u);
}

// The trace context crosses a real socket: the client's root span and the
// render service's serving spans land in one trace, stitched into a single
// frame timeline.
TEST(TcpEndToEnd, TracePropagatesAcrossSockets) {
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(true);

  util::RealClock clock;
  TcpFabric fabric;

  DataService data(clock);
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 16, 12));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  auto data_ap = fabric.listen("data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); });
  ASSERT_TRUE(data_ap.ok()) << data_ap.error();

  RenderService render(clock, fabric);
  auto client_ap = render.listen_clients("clients");
  ASSERT_TRUE(client_ap.ok());

  ASSERT_TRUE(render.connect_session(data_ap.value(), "demo").ok());
  ASSERT_TRUE(pump_until(data, render, [&] { return render.bootstrapped("demo"); }));

  ThinClient client(clock, fabric);
  ASSERT_TRUE(client.connect(client_ap.value(), "demo").ok());
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  auto frame = client.request_frame(cam, 64, 64, 5.0, [&] { pump(data, render); });
  ASSERT_TRUE(frame.ok()) << frame.error();
  obs::Tracer::global().set_enabled(false);

  const auto spans = obs::Tracer::global().spans();
  const auto ids = obs::trace_ids(spans);
  ASSERT_EQ(ids.size(), 1u) << "client and service spans must share one trace";

  std::set<std::string> names;
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, ids[0]);
    names.insert(span.name);
  }
  // Both sides of the socket contributed: the client's root + decode, the
  // service's serving pipeline with the rasterizer stages inside it.
  for (const char* expected : {"frame", "decode", "serve_frame", "encode", "shade", "raster"})
    EXPECT_TRUE(names.count(expected) != 0) << "missing span: " << expected;

  const std::string timeline = obs::stitch_trace(spans, ids[0]);
  EXPECT_NE(timeline.find("frame"), std::string::npos);
  EXPECT_NE(timeline.find("serve_frame"), std::string::npos);
}

}  // namespace
}  // namespace rave::core
