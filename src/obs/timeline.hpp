// Grid timeline — the cross-host half of the flight recorder. Each host's
// ring explains one machine; a migration storm spans several, and the
// post-mortem question is causal ("lease expired on A, *then* B
// re-dispatched, *then* the relay on C miss-stormed"). The central
// Collector pulls every host's flight-recorder export (status "flight"
// SOAP method) in the same visit as its metrics, decodes it with
// decode_flight_events, and merges the events into one timeline ordered
// by HLC stamp (Collector::merged) — so the merged order is consistent
// with message causality even when host wall clocks disagree. This file
// is the flight text format: decode and render.
#pragma once

#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace rave::obs {

// One merged event: a flight event plus the host whose ring supplied it.
struct TimelineEvent {
  std::string host;
  FlightEvent event;
};

// Reverse of FlightRecorder::export_events(): one event per line,
// `kind hlc_wall hlc_logical time trace_id component escaped-text`.
// Each line is parsed within its own bytes; malformed lines are skipped
// (a truncated pull yields a shorter timeline, not a parse failure), so
// the result never holds more events than the text has lines.
std::vector<FlightEvent> decode_flight_events(const std::string& text);

// Render a merged timeline: header line, then one line per event —
// `[<wall-seconds>|<logical>] host component KIND: text` with multi-line
// texts indented under their event. Unstamped events print [----------]
// in the stamp column.
std::string format_timeline(const std::vector<TimelineEvent>& events);

}  // namespace rave::obs
