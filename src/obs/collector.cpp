#include "obs/collector.hpp"

#include <algorithm>
#include <tuple>

#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace rave::obs {

Collector::Collector(util::Clock& clock) : clock_(&clock), store_(kRingCapacity) {}

void Collector::add_target(ScrapeTarget target) {
  for (Target& existing : targets_) {
    if (existing.spec.host != target.host) continue;
    existing.spec = std::move(target);  // re-register keeps the history
    return;
  }
  Target entry;
  entry.health.host = target.host;
  entry.spec = std::move(target);
  entry.next_due = clock_->now();  // first tick scrapes immediately
  targets_.push_back(std::move(entry));
}

void Collector::remove_target(const std::string& host) {
  for (size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].spec.host != host) continue;
    targets_.erase(targets_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
}

void Collector::scrape_target(Target& target, double now) {
  target.health.last_attempt = now;
  util::Result<HostSnapshot> snapshot = target.spec.scrape
                                            ? target.spec.scrape()
                                            : util::make_error("collector: no scrape fn");
  if (!snapshot.ok()) {
    // A gap, not a failure: count it, log it, keep the target subscribed.
    // The previous successful scrape's flight events stay in the merge.
    ++target.health.gaps;
    target.health.last_error = snapshot.error();
    MetricsRegistry::global()
        .counter("rave_collector_gaps_total", {{"host", target.spec.host}})
        .inc();
    log_event(util::LogLevel::Warn, "collector", "scrape_gap",
              target.spec.host + ": " + snapshot.error());
    // The gap itself becomes history, so SLOs and dashboards can see
    // collection trouble as a trend.
    store_.append({target.spec.host, "rave_collector_gaps_total", ""}, now,
                  static_cast<double>(target.health.gaps));
    return;
  }
  ++target.health.scrapes;
  target.health.last_success = now;
  target.health.last_error.clear();
  store_.ingest(target.spec.host, parse_prometheus(snapshot.value().metrics), now);
  target.events = decode_flight_events(snapshot.value().flight);
}

size_t Collector::tick() {
  const double now = clock_->now();
  size_t attempted = 0;
  for (Target& target : targets_) {
    if (now < target.next_due) continue;
    scrape_target(target, now);
    // Schedule from the nominal due time so a late tick doesn't drift the
    // cadence (and virtual-time runs stay aligned to the interval grid).
    target.next_due += kInterval;
    if (target.next_due <= now) target.next_due = now + kInterval;
    ++attempted;
  }
  return attempted;
}

size_t Collector::poll_now() {
  const double now = clock_->now();
  for (Target& target : targets_) {
    scrape_target(target, now);
    target.next_due = now + kInterval;
  }
  return targets_.size();
}

namespace {
// Full-field ordering key: HLC first (causal), then recorder time (the
// fallback when stamps are absent), then every remaining field so the
// sort — and therefore the rendered timeline — is byte-stable no matter
// what order targets were scraped in.
auto order_key(const TimelineEvent& e) {
  return std::make_tuple(e.event.hlc.wall, e.event.hlc.logical, e.event.time,
                         static_cast<unsigned>(e.event.kind), std::cref(e.event.component),
                         std::cref(e.event.text), e.event.trace_id, std::cref(e.host));
}
// Dedup key: everything but the host. In-process grids share one flight
// ring, so every host's scrape returns the same events; the merge keeps
// the first supplying host for each.
auto dedup_key(const TimelineEvent& e) {
  return std::make_tuple(e.event.hlc.wall, e.event.hlc.logical, e.event.time,
                         static_cast<unsigned>(e.event.kind), std::cref(e.event.component),
                         std::cref(e.event.text), e.event.trace_id);
}
}  // namespace

std::vector<TimelineEvent> Collector::merged() const {
  std::vector<TimelineEvent> out;
  for (const Target& target : targets_) {
    for (const FlightEvent& event : target.events) out.push_back({target.spec.host, event});
  }
  std::stable_sort(out.begin(), out.end(), [](const TimelineEvent& a, const TimelineEvent& b) {
    return order_key(a) < order_key(b);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const TimelineEvent& a, const TimelineEvent& b) {
                          return dedup_key(a) == dedup_key(b);
                        }),
            out.end());
  return out;
}

std::vector<Collector::TargetHealth> Collector::health() const {
  std::vector<TargetHealth> out;
  out.reserve(targets_.size());
  for (const Target& target : targets_) out.push_back(target.health);
  return out;
}

}  // namespace rave::obs
