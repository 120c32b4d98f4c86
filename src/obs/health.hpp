// What the grid's planes advise about one host. Dependency-free (standard
// library only) so the whole stack can speak it: the canary produces
// health verdicts and the SLO engine trend advisories; the grid bundles
// both into one per-host advisor (HostAdvisory / AdvisorFn) that
// DataService consults for pre-lease eviction and migration-planning
// inputs, and the status "report" publishes as its health fields.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace rave::obs {

// Unknown  — no probe has completed yet (treated as healthy: absence of
//            evidence is not evidence of sickness).
// Healthy  — last probe delivered an on-time, integrity-checked frame.
// Degraded — frames arrive but late (older than the degraded-age bound);
//            a migration advisory, not an eviction trigger.
// Unhealthy— `unhealthy_after` consecutive probes failed (no frame, or a
//            frame that failed its hash check); the failure detector may
//            evict before the lease expires.
enum class HealthState : uint8_t { Unknown = 0, Healthy, Degraded, Unhealthy };

inline const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::Unknown: return "unknown";
    case HealthState::Healthy: return "healthy";
    case HealthState::Degraded: return "degraded";
    case HealthState::Unhealthy: return "unhealthy";
  }
  return "?";
}

struct HealthVerdict {
  std::string host;
  HealthState state = HealthState::Unknown;
  std::string reason;  // human-readable cause of the current state
  uint64_t frames_ok = 0;
  uint64_t frames_late = 0;
  uint64_t frames_failed = 0;
  double join_seconds = -1;     // join-to-first-frame; -1 until measured
  double last_frame_age = -1;   // publish→deliver age of the last frame; -1 = none
};

// Trend advisory consumed by migration planning: true flags mean the
// telemetry plane sees sustained trouble the instant EWMA cannot.
struct TrendAdvisory {
  bool slo_burning = false;  // some objective is Burning or Violated
  bool anomaly = false;      // some watched metric step-changed
  std::string note;          // why, for MigrationExplain
};

// Everything the planes currently say about one host; a plane that is not
// enabled contributes its default (no trend flags, Unknown health).
struct HostAdvisory {
  TrendAdvisory trend;
  HealthVerdict health;
};

// Per-host advice, evaluated at call time.
using AdvisorFn = std::function<HostAdvisory(const std::string& host)>;

}  // namespace rave::obs
