// Figure 5 reproduction: "Tearing artifact from 2 tiles" — the frame is
// split between a local and a remote render service; the remote service is
// artificially stalled (exactly how the paper produced the figure), so its
// tile shows the scene *before* a camera-visible object moved, while the
// local tile is current. The torn frame is written as a PPM and the seam
// quantified.
#include <cstdio>

#include "bench_util.hpp"
#include "core/grid.hpp"
#include "mesh/generators.hpp"
#include "render/framebuffer.hpp"

int main() {
  using namespace rave;
  bench::print_header("Figure 5: tearing across a 2-tile seam",
                      "Grimstead et al., SC2004, Figure 5 / §5.5");

  util::SimClock clock;
  core::RaveGrid grid(clock);
  core::DataService& data = grid.add_data_service("datahost");

  scene::SceneTree tree;
  const scene::NodeId ship =
      tree.add_child(scene::kRootNode, "galleon", mesh::make_galleon(5'500));
  if (!data.create_session("galleon", std::move(tree)).ok()) return 1;

  grid.add_render_service("main");
  grid.add_render_service("helper");
  if (!grid.join("main", "datahost", "galleon").ok()) return 1;
  if (!grid.join("helper", "datahost", "galleon").ok()) return 1;

  core::RenderService& main_svc = *grid.render_service("main");
  core::RenderService& helper = *grid.render_service("helper");
  if (!main_svc.enable_tile_assist("galleon", {helper.peer_access_point()}).ok()) return 1;

  scene::Camera cam;
  cam.eye = {0, 0.4f, 3.0f};

  // Warm-up: both tiles rendered and delivered; frame is seamless.
  (void)main_svc.render_distributed("galleon", cam, 320, 320);
  grid.pump_until_idle();
  auto clean = main_svc.render_distributed("galleon", cam, 320, 320);
  if (!clean.ok()) return 1;
  // What the clean frame should look like: a monolithic render of the
  // same replica at the same camera, taken before anything moves.
  auto clean_reference = main_svc.render_console("galleon", cam, 320, 320);
  if (!clean_reference.ok()) return 1;
  const std::string dir = bench::output_dir();
  (void)render::write_ppm(clean.value().to_image(), dir + "/fig5_clean.ppm");

  // Stall the helper, move the galleon, and render again: the helper's
  // tile still shows the old position — the tear.
  helper.set_assist_stall(30.0);
  (void)data.session_tree("galleon");
  (void)main_svc.submit_update(
      "galleon", scene::SceneUpdate::set_transform(ship, util::Mat4::translate({0.6f, 0, 0})));
  grid.pump_until_idle();
  auto torn = main_svc.render_distributed("galleon", cam, 320, 320);
  if (!torn.ok()) return 1;
  (void)render::write_ppm(torn.value().to_image(), dir + "/fig5_torn.ppm");

  // Reference: what the frame *should* look like after the move.
  auto reference = main_svc.render_console("galleon", cam, 320, 320);
  if (!reference.ok()) return 1;
  (void)render::write_ppm(reference.value().to_image(), dir + "/fig5_reference.ppm");

  const uint64_t torn_diff = torn.value().to_image().diff_pixels(reference.value().to_image());
  const uint64_t clean_diff =
      clean.value().to_image().diff_pixels(clean_reference.value().to_image());
  std::printf("  clean frame      -> %s/fig5_clean.ppm\n", dir.c_str());
  std::printf("  torn frame       -> %s/fig5_torn.ppm (%llu pixels stale vs reference)\n",
              dir.c_str(), static_cast<unsigned long long>(torn_diff));
  std::printf("  reference frame  -> %s/fig5_reference.ppm\n", dir.c_str());
  std::printf("  stale tiles used : %llu (tearing events counted by the service)\n",
              static_cast<unsigned long long>(main_svc.stats().stale_tiles_used));
  std::printf("  self-check       : clean-vs-monolithic diff %llu (must be 0)\n",
              static_cast<unsigned long long>(clean_diff));

  // Paper §5.5 latency model: galleon tile delay ~0.05 s, hand ~0.3 s.
  std::printf("\nTile-update latency model (render + tile transfer on 100 Mbit):\n");
  const net::LinkProfile ethernet = net::ethernet_100mbit();
  const sim::MachineProfile m = sim::centrino_laptop();
  const uint64_t tile_px = 320ull * 160ull;
  const double galleon_delay = sim::offscreen_sequential_seconds(m, 5'500, tile_px) +
                               ethernet.delivery_seconds(tile_px * 7);
  const double hand_delay = sim::offscreen_sequential_seconds(m, 830'000, tile_px) +
                            ethernet.delivery_seconds(tile_px * 7);
  std::printf("  galleon: paper ~0.05 s, model %.3f s\n", galleon_delay);
  std::printf("  hand   : paper ~0.3 s,  model %.3f s\n", hand_delay);
  return torn_diff > 0 && clean_diff == 0 ? 0 : 1;
}
