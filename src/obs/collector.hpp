// Central collector — the pull half of the telemetry and health planes.
// A grid-level component (hosted next to the data service) visits every
// subscribed host once per interval and pulls one snapshot of its status
// surface: the Prometheus text exposition (status "metrics" SOAP method)
// and the flight-recorder export (status "flight"). The samples are
// appended into a TimeSeriesStore tagged by host; the decoded flight
// events are kept per host and merged into the causally-ordered grid
// timeline. Transport is injected as a per-target ScrapeFn so the same
// collector runs over the in-process fabric, TCP, or a synthetic
// generator in tests; retry/backoff lives inside the wiring (the grid
// uses Fabric::dial_retry with its RetryPolicy).
//
// Failure semantics: a failed scrape is a collection *gap*, never a
// service failure — the target stays subscribed, the gap is counted and
// logged (rave_collector_gaps_total), the host's last pulled flight
// events stay in the merge, and the next tick retries. Dead hosts must
// never stall collection of healthy ones, so targets are polled
// independently in deterministic (insertion) order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"

namespace rave::obs {

// One visit's pull from a host.
struct HostSnapshot {
  std::string metrics;  // Prometheus text exposition
  std::string flight;   // FlightRecorder::export_events() text
};

struct ScrapeTarget {
  std::string host;
  // Fetch the host's current snapshot. Errors mean a gap for this tick
  // only.
  std::function<util::Result<HostSnapshot>()> scrape;
};

class Collector {
 public:
  static constexpr double kInterval = 1.0;      // seconds between polls of each target
  static constexpr size_t kRingCapacity = 512;  // per-series history depth

  explicit Collector(util::Clock& clock);

  void add_target(ScrapeTarget target);
  void remove_target(const std::string& host);
  [[nodiscard]] size_t target_count() const { return targets_.size(); }

  // Scrape every target whose interval has elapsed; returns the number of
  // scrape attempts made (successes and gaps both count).
  size_t tick();
  // Scrape every target now, regardless of the interval.
  size_t poll_now();

  [[nodiscard]] const TimeSeriesStore& store() const { return store_; }
  [[nodiscard]] TimeSeriesStore& store() { return store_; }

  // The merged grid timeline: every host's last pulled flight events,
  // deduplicated (two hosts sharing one process share one flight ring —
  // identical events keep the first supplying host) and sorted causally —
  // by HLC stamp when stamped, falling back to recorder time, with every
  // remaining field as a deterministic tie-breaker so the merge is
  // byte-stable.
  [[nodiscard]] std::vector<TimelineEvent> merged() const;

  // Per-target collection health: successes, gaps, and when each last
  // happened (-1 = never).
  struct TargetHealth {
    std::string host;
    uint64_t scrapes = 0;       // successful scrapes
    uint64_t gaps = 0;          // failed scrape attempts
    double last_success = -1;
    double last_attempt = -1;
    std::string last_error;     // empty unless the last attempt failed
  };
  [[nodiscard]] std::vector<TargetHealth> health() const;

  // Deterministic JSONL of the whole store (delegates to the store).
  [[nodiscard]] std::string export_jsonl() const { return store_.export_jsonl(); }

 private:
  struct Target {
    ScrapeTarget spec;
    TargetHealth health;
    std::vector<FlightEvent> events;  // latest successful scrape's flight ring
    double next_due = 0;              // poll when now >= next_due
  };

  void scrape_target(Target& target, double now);

  util::Clock* clock_;
  TimeSeriesStore store_;
  std::vector<Target> targets_;  // insertion order: deterministic polling
};

}  // namespace rave::obs
