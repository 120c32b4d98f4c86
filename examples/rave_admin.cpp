// Operator console: the command-line equivalent of the paper's registry
// browser plus status interrogation. Stands up a demo deployment, then
// executes admin commands — `registry`, `status`, `timeline`,
// `describe <session>`, `create <host> <session>` — against it through
// the same SOAP surface a
// remote operator would use. With no arguments, runs a scripted tour.
#include <cstdio>
#include <cstring>

#include "core/grid.hpp"
#include "mesh/generators.hpp"
#include "obs/event.hpp"
#include "obs/hlc.hpp"
#include "services/ldap.hpp"

using namespace rave;

namespace {
void cmd_registry(core::RaveGrid& grid) { std::printf("%s\n", grid.registry_listing().c_str()); }

void cmd_status(core::RaveGrid& grid) { std::printf("%s\n", grid.status_dashboard().c_str()); }

// Mirror the UDDI registrations into the LDAP alternative (§4.3 offers
// both) and run the discovery scan against it.
void cmd_ldap(core::RaveGrid& grid) {
  services::LdapDirectory directory;
  for (const services::Business& business : grid.registry().all_businesses()) {
    for (const services::BusinessService& service : business.services) {
      for (const services::BindingTemplate& binding : service.bindings) {
        const auto tmodel = grid.registry().get_tmodel(binding.tmodel_key);
        (void)services::ldap_advertise(directory, business.name, service.name,
                                       binding.access_point,
                                       tmodel ? tmodel->name : "unknown",
                                       binding.instance_info);
      }
    }
  }
  std::printf("LDAP mirror of the registry (%zu entries under %s):\n", directory.size(),
              directory.suffix().c_str());
  for (const services::LdapEntry& entry :
       directory.search(directory.suffix(), services::LdapScope::Subtree, "labeledURI", "*")) {
    std::printf("  %-46s -> %s [%s]\n", entry.dn.c_str(), entry.first("labeledURI").c_str(),
                entry.first("objectClass").c_str());
  }
  std::printf("render services via LDAP scan: %zu\n",
              services::ldap_find_services(directory, "RaveRenderService").size());
}

// Pull the merged causally-ordered grid timeline: enable the health
// plane (the central collector pulls each host's metrics and flight
// recorder over SOAP in one visit), run the demo session across both
// render hosts for a few virtual seconds so the balancer has real load
// reports to decide (and record) with, then poll every host and print
// the merge.
void cmd_timeline(util::SimClock& clock, core::RaveGrid& grid, core::DataService& data) {
  obs::set_clock(&clock);               // virtual-time stamps: reproducible output
  obs::Hlc::global().set_enabled(true);  // stamp events for the causal merge
  grid.enable_health_plane();
  (void)grid.join("tower", "adrenochrome", "Skull");
  grid.pump_until_idle();
  (void)data.distribute("Skull");
  grid.pump_until_idle();
  scene::Camera cam;
  for (int i = 0; i < 5; ++i) {
    clock.advance(1.0);
    (void)grid.render_service("adrenochrome")->render_console("Skull", cam, 64, 64);
    (void)grid.render_service("tower")->render_console("Skull", cam, 64, 64);
    grid.pump_until_idle();
  }
  (void)grid.collector()->poll_now();
  std::printf("%s", grid.timeline_text().c_str());
}

void cmd_describe(core::RaveGrid& grid, const char* session) {
  auto proxy = grid.soap_proxy("adrenochrome", "data");
  if (!proxy.ok()) return;
  grid.container("adrenochrome")->start();
  auto described = proxy.value().call("describeSession", {services::SoapValue{session}}, 2.0);
  grid.container("adrenochrome")->stop();
  if (!described.ok()) {
    std::printf("describe failed: %s\n", described.error().c_str());
    return;
  }
  std::printf("session '%s': %lld nodes, %lld triangles, %lld updates, %lld subscriber(s)\n",
              session, static_cast<long long>(described.value().field("nodes").as_int()),
              static_cast<long long>(described.value().field("triangles").as_int()),
              static_cast<long long>(described.value().field("updates").as_int()),
              static_cast<long long>(described.value().field("subscribers").as_int()));
}

void cmd_create(core::RaveGrid& grid, const char* host, const char* session) {
  auto proxy = grid.soap_proxy(host, "render");
  if (!proxy.ok()) {
    std::printf("no render service on %s\n", host);
    return;
  }
  grid.container(host)->start();
  auto created = proxy.value().call(
      "createInstance",
      {services::SoapValue{grid.data_access_point("adrenochrome")},
       services::SoapValue{session}},
      5.0);
  grid.container(host)->stop();
  grid.pump_until_idle();
  std::printf("createInstance on %s: %s\n", host,
              created.ok() ? "ok" : created.error().c_str());
}
}  // namespace

int main(int argc, char** argv) {
  util::SimClock clock;
  core::RaveGrid grid(clock);

  // Demo deployment (matching the paper's fig. 4 hosts).
  core::DataService& data = grid.add_data_service("adrenochrome");
  scene::SceneTree skull;
  skull.add_child(scene::kRootNode, "skull", mesh::make_elle(15'000));
  (void)data.create_session("Skull", std::move(skull));
  core::RenderService::Options local;
  local.profile = sim::athlon_desktop();
  grid.add_render_service("adrenochrome", local);
  core::RenderService::Options tower;
  tower.profile = sim::xeon_desktop();
  grid.add_render_service("tower", tower);
  (void)grid.join("adrenochrome", "adrenochrome", "Skull");
  grid.advertise_all();

  if (argc >= 2) {
    if (std::strcmp(argv[1], "registry") == 0) {
      cmd_registry(grid);
    } else if (std::strcmp(argv[1], "status") == 0) {
      cmd_status(grid);
    } else if (std::strcmp(argv[1], "ldap") == 0) {
      cmd_ldap(grid);
    } else if (std::strcmp(argv[1], "timeline") == 0) {
      cmd_timeline(clock, grid, data);
    } else if (std::strcmp(argv[1], "describe") == 0 && argc >= 3) {
      cmd_describe(grid, argv[2]);
    } else if (std::strcmp(argv[1], "create") == 0 && argc >= 4) {
      cmd_create(grid, argv[2], argv[3]);
      cmd_status(grid);
    } else {
      std::printf("usage: rave_admin [registry | status | ldap | timeline | "
                  "describe <session> | create <host> <session>]\n");
      return 2;
    }
    return 0;
  }

  // Scripted tour.
  std::printf("--- registry ---\n");
  cmd_registry(grid);
  std::printf("--- describe Skull ---\n");
  cmd_describe(grid, "Skull");
  std::printf("\n--- create a render instance on tower ---\n");
  cmd_create(grid, "tower", "Skull");
  std::printf("\n--- status ---\n");
  cmd_status(grid);
  std::printf("--- ldap mirror ---\n");
  cmd_ldap(grid);
  return 0;
}
