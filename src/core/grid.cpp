#include "core/grid.hpp"

#include <algorithm>
#include <sstream>

#include "obs/timeline.hpp"
#include "util/log.hpp"

namespace rave::core {

using util::make_error;
using util::Result;
using util::Status;

namespace {
// Reachability gate of each collector visit: one retry after 50 ms.
constexpr RetryPolicy kScrapeRetry{.max_attempts = 2, .initial_backoff = 0.05};
}  // namespace

RaveGrid::RaveGrid(util::Clock& clock, net::LinkProfile default_link)
    : clock_(&clock), fabric_(clock, std::move(default_link)) {
  // The registry itself is a SOAP service ("jUDDI on the local network").
  registry_container_.register_method(
      "uddi", "dispatch",
      [this](const services::SoapList& args) -> Result<services::SoapValue> {
        if (args.empty()) return make_error("uddi.dispatch: need method name");
        services::SoapList rest(args.begin() + 1, args.end());
        return registry_.dispatch(args[0].as_string(), rest);
      });
  // Also expose each registry method directly.
  for (const char* method :
       {"registerBusiness", "registerService", "registerBinding", "removeBinding",
        "heartbeat", "pruneExpired", "findBusiness", "findTModelByName",
        "findServicesByTModel", "accessPoints"}) {
    registry_container_.register_method(
        "uddi", method,
        [this, method = std::string(method)](
            const services::SoapList& args) -> Result<services::SoapValue> {
          return registry_.dispatch(method, args);
        });
  }
  auto access = fabric_.listen("registry/soap", [this](net::ChannelPtr channel) {
    registry_container_.bind_channel(std::move(channel));
  });
  registry_access_point_ = access.ok() ? access.value() : "";
}

RaveGrid::Host& RaveGrid::host_slot(const std::string& name) {
  auto it = hosts_.find(name);
  if (it != hosts_.end()) return it->second;
  Host host;
  host.name = name;
  host.container = std::make_unique<services::ServiceContainer>();
  auto access = fabric_.listen(name + "/soap", [container = host.container.get()](
                                                   net::ChannelPtr channel) {
    container->bind_channel(std::move(channel));
  });
  host.soap_access_point = access.ok() ? access.value() : "";
  Host& slot = hosts_.emplace(name, std::move(host)).first->second;
  if (collector_) add_scrape_target(slot);  // hosts added after either plane
  return slot;
}

DataService& RaveGrid::add_data_service(const std::string& host_name,
                                        DataService::Options options) {
  Host& host = host_slot(host_name);
  if (!host.data) {
    options.host_name = host_name;
    host.data = std::make_unique<DataService>(*clock_, options);
    auto access = fabric_.listen(host_name + "/data", [data = host.data.get()](
                                                          net::ChannelPtr channel) {
      data->accept(std::move(channel));
    });
    host.data_access_point = access.ok() ? access.value() : "";
    host.data->register_soap(*host.container);
    host.data->set_recruiter([this, host_name](const std::string& session) {
      return recruit(host_name, session);
    });
    host.data->set_advisor(advisor());
    register_status_endpoint(*host.container, host_name, host.data.get(), host.render.get(),
                             advisor());
  }
  return *host.data;
}

RenderService& RaveGrid::add_render_service(const std::string& host_name,
                                            RenderService::Options options) {
  Host& host = host_slot(host_name);
  if (!host.render) {
    if (options.profile.name != host_name) options.profile.name = host_name;
    host.render = std::make_unique<RenderService>(*clock_, fabric_, options);
    (void)host.render->listen_clients(host_name + "/clients");
    if (!options.active_client_only) (void)host.render->listen_peer(host_name + "/peer");
    host.render->register_soap(*host.container);
    register_status_endpoint(*host.container, host_name, host.data.get(), host.render.get(),
                             advisor());
  }
  return *host.render;
}

DataService* RaveGrid::data_service(const std::string& host) {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? nullptr : it->second.data.get();
}

RenderService* RaveGrid::render_service(const std::string& host) {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? nullptr : it->second.render.get();
}

services::ServiceContainer* RaveGrid::container(const std::string& host) {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? nullptr : it->second.container.get();
}

std::string RaveGrid::data_access_point(const std::string& host) const {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? "" : it->second.data_access_point;
}

std::string RaveGrid::soap_access_point(const std::string& host) const {
  if (host == "registry") return registry_access_point_;
  auto it = hosts_.find(host);
  return it == hosts_.end() ? "" : it->second.soap_access_point;
}

Status RaveGrid::join(const std::string& render_host, const std::string& data_host,
                      const std::string& session) {
  RenderService* render = render_service(render_host);
  if (render == nullptr) return make_error("grid: no render service on " + render_host);
  const std::string data_ap = data_access_point(data_host);
  if (data_ap.empty()) return make_error("grid: no data service on " + data_host);
  auto joined = render->connect_session(data_ap, session);
  if (!joined.ok()) return make_error(joined.error());
  pump_until_idle();
  if (!render->bootstrapped(session))
    return make_error("grid: bootstrap of " + session + " on " + render_host + " failed");
  return {};
}

void RaveGrid::advertise_all() {
  for (auto& [name, host] : hosts_) {
    if (host.data) (void)host.data->advertise(registry_, host.soap_access_point);
    if (host.render) (void)host.render->advertise(registry_, host.soap_access_point);
  }
}

Result<services::ServiceProxy> RaveGrid::soap_proxy(const std::string& host,
                                                    const std::string& endpoint) {
  const std::string access = soap_access_point(host);
  if (access.empty()) return make_error("grid: no SOAP endpoint on " + host);
  auto channel = fabric_.dial(access);
  if (!channel.ok()) return make_error(channel.error());
  return services::ServiceProxy(std::move(channel).take(), endpoint);
}

size_t RaveGrid::recruit(const std::string& data_host, const std::string& session) {
  DataService* data = data_service(data_host);
  if (data == nullptr) return 0;
  // Hosts already serving the session.
  std::vector<std::string> member_hosts;
  for (const auto& view : data->subscribers(session)) member_hosts.push_back(view.host);

  // Paper §3.2.7: "the data server uses UDDI to discover additional render
  // services that are not connected to the data service."
  const auto tmodel = registry_.find_tmodel_by_name("RaveRenderService");
  if (!tmodel.has_value()) return 0;
  size_t recruited = 0;
  for (const services::BindingTemplate& binding : registry_.access_points(tmodel->key)) {
    // Map the SOAP access point back to a host name for membership check.
    std::string owner;
    for (const auto& [name, host] : hosts_)
      if (host.soap_access_point == binding.access_point) owner = name;
    if (owner.empty()) continue;
    if (std::find(member_hosts.begin(), member_hosts.end(), owner) != member_hosts.end())
      continue;
    auto proxy = soap_proxy(owner, "render");
    if (!proxy.ok()) continue;
    // The SOAP call needs the target container pumped; run the call on a
    // worker while pumping.
    auto& container = *hosts_.at(owner).container;
    // Single-threaded deterministic call: send, pump, receive.
    services::SoapCall call;
    call.service = "render";
    call.method = "createInstance";
    call.call_id = 1;
    call.args = {services::SoapValue{data_access_point(data_host)},
                 services::SoapValue{session}};
    const services::SoapResponse response = container.dispatch(call);
    if (response.is_fault) {
      util::log_warn("grid") << "recruitment of " << owner
                             << " failed: " << response.fault_message;
      continue;
    }
    member_hosts.push_back(owner);
    ++recruited;
    pump_until_idle();
  }
  return recruited;
}

size_t RaveGrid::pump_all() {
  size_t handled = registry_container_.pump();
  for (auto& [name, host] : hosts_) {
    handled += host.container->pump();
    if (host.data) handled += host.data->pump();
    if (host.render) handled += host.render->pump();
  }
  // Telemetry rides the pump loop but never counts as progress: scrape
  // attempts happen at most once per interval per target, and counting
  // them would keep pump_until_idle from ever seeing the grid quiesce.
  if (collector_ && collector_->tick() > 0 && slo_)
    slo_->evaluate(collector_->store(), clock_->now());
  return handled;
}

void RaveGrid::pump_until_idle(int max_rounds) {
  // Simulated links hold messages in flight; an idle round advances the
  // clock (virtual or real) so pending deliveries mature. Give up after
  // enough consecutive idle rounds that nothing can still be in transit.
  int consecutive_idle = 0;
  for (int i = 0; i < max_rounds; ++i) {
    if (pump_all() > 0) {
      consecutive_idle = 0;
      continue;
    }
    if (++consecutive_idle > 120) return;
    clock_->sleep_for(0.005);
  }
}

std::vector<HostStatus> RaveGrid::collect_status() {
  std::vector<HostStatus> out;
  for (auto& [name, host] : hosts_) {
    services::SoapCall call;
    call.service = "status";
    call.method = "report";
    call.call_id = 1;
    const services::SoapResponse response = host.container->dispatch(call);
    if (response.is_fault) continue;
    auto status = parse_host_status(response.result);
    if (status.ok()) out.push_back(std::move(status).take());
  }
  return out;
}

std::string RaveGrid::status_dashboard() { return format_dashboard(collect_status()); }

void RaveGrid::ensure_collector() {
  if (collector_) return;
  collector_ = std::make_unique<obs::Collector>(*clock_);
  for (auto& [name, host] : hosts_) add_scrape_target(host);
}

void RaveGrid::enable_telemetry(std::vector<obs::SloSpec> slos) {
  if (slo_) return;  // idempotent: one telemetry plane per grid
  ensure_collector();
  slo_ = std::make_unique<obs::SloEngine>();
  for (obs::SloSpec& spec : slos) slo_->add(std::move(spec));
}

void RaveGrid::add_scrape_target(Host& host) {
  const std::string name = host.name;
  collector_->add_target({name, [this, name]() -> util::Result<obs::HostSnapshot> {
    auto it = hosts_.find(name);
    if (it == hosts_.end()) return make_error("scrape: unknown host " + name);
    // Reachability gate: the dial goes through the fabric (and any
    // injected faults or dropped listeners), with the same bounded retry
    // schedule the rest of the grid uses — so a killed host fails here
    // and records a gap. Both texts are then dispatched directly on the
    // container, single-threaded and deterministic.
    auto probe = fabric_.dial_retry(it->second.soap_access_point, kScrapeRetry, *clock_);
    if (!probe.ok()) return make_error(probe.error());
    probe.value()->close();
    const auto fetch = [&](const char* method) -> util::Result<std::string> {
      services::SoapCall call;
      call.service = "status";
      call.method = method;
      call.call_id = 1;
      const services::SoapResponse response = it->second.container->dispatch(call);
      if (response.is_fault) return make_error(response.fault_message);
      return response.result.as_string();
    };
    auto metrics = fetch("metrics");
    if (!metrics.ok()) return make_error(metrics.error());
    auto flight = fetch("flight");
    if (!flight.ok()) return make_error(flight.error());
    return obs::HostSnapshot{std::move(metrics).take(), std::move(flight).take()};
  }});
}

void RaveGrid::enable_health_plane(obs::Canary::Options canary_options) {
  if (canary_) return;  // idempotent: one health plane per grid
  ensure_collector();
  canary_ = std::make_unique<obs::Canary>(*clock_, fabric_, canary_options);
}

void RaveGrid::watch_streams(const std::string& session) {
  if (!canary_) return;
  for (auto& [name, host] : hosts_) {
    if (!host.render) continue;
    const auto sessions = host.render->session_names();
    if (std::find(sessions.begin(), sessions.end(), session) == sessions.end()) continue;
    canary_->watch(name, host.render->client_access_point(), session);
  }
}

std::string RaveGrid::timeline_text() {
  if (!collector_) return "";
  return obs::format_timeline(collector_->merged());
}

obs::AdvisorFn RaveGrid::advisor() {
  return [this](const std::string& host) {
    obs::HostAdvisory advice;
    if (slo_) advice.trend = slo_->advisory(host);
    if (canary_) advice.health = canary_->verdict(host);
    return advice;
  };
}

std::string RaveGrid::telemetry_dashboard() {
  if (!collector_ || !slo_) return status_dashboard();
  return format_telemetry_dashboard(collect_status(), *collector_, *slo_, clock_->now(),
                                    obs::Tracer::global().spans());
}

std::string RaveGrid::registry_listing() const {
  // The fig. 4 browser: businesses (hosts) → service instances, with the
  // "Create new instance" affordance at the end of each listing.
  std::ostringstream out;
  out << "UDDI Registry (" << registry_access_point_ << ")\n";
  for (const services::Business& business : registry_.all_businesses()) {
    out << "[-] " << business.name << "\n";
    for (const services::BusinessService& service : business.services) {
      out << "    [-] " << service.name << "\n";
      for (const services::BindingTemplate& binding : service.bindings) {
        out << "        instance: "
            << (binding.instance_info.empty() ? "(idle)" : binding.instance_info) << "  @ "
            << binding.access_point << "\n";
      }
      out << "        <Create new instance>\n";
    }
  }
  return out.str();
}

}  // namespace rave::core
