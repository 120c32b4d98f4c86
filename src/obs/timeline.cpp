#include "obs/timeline.hpp"

#include <cstdio>

namespace rave::obs {

namespace {
void unescape_into(std::string& out, const char* begin, const char* end) {
  for (const char* p = begin; p < end; ++p) {
    if (*p == '\\' && p + 1 < end) {
      ++p;
      out += (*p == 'n') ? '\n' : *p;
    } else {
      out += *p;
    }
  }
}
}  // namespace

std::vector<FlightEvent> decode_flight_events(const std::string& text) {
  std::vector<FlightEvent> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    // A terminated copy of the line: sscanf's whitespace directives skip
    // '\n', so scanning the whole text in place would fuse a truncated
    // line with the fields of the next one.
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    // kind hlc_wall hlc_logical time trace_id component escaped-text
    unsigned kind = 0;
    unsigned long long wall = 0;
    unsigned logical = 0;
    double time = 0;
    unsigned long long trace_id = 0;
    char component[64];
    int consumed = 0;
    const int fields = std::sscanf(line.c_str(), "%u %llu %u %lf %llu %63s %n", &kind, &wall,
                                   &logical, &time, &trace_id, component, &consumed);
    if (fields < 6 || kind > 3) continue;  // malformed line: skip, don't fail
    FlightEvent event;
    event.kind = static_cast<FlightEvent::Kind>(kind);
    event.hlc = {wall, static_cast<uint32_t>(logical)};
    event.time = time;
    event.trace_id = trace_id;
    event.component = component;
    unescape_into(event.text, line.data() + consumed, line.data() + line.size());
    out.push_back(std::move(event));
  }
  return out;
}

namespace {
const char* kind_label(FlightEvent::Kind kind) {
  switch (kind) {
    case FlightEvent::Kind::Span: return "span";
    case FlightEvent::Kind::Failure: return "FAIL";
    case FlightEvent::Kind::Decision: return "DECIDE";
    case FlightEvent::Kind::Note: return "note";
  }
  return "?";
}
}  // namespace

std::string format_timeline(const std::vector<TimelineEvent>& events) {
  std::string out = "RAVE grid timeline · " + std::to_string(events.size()) + " event(s)\n";
  char stamp[48];
  for (const TimelineEvent& e : events) {
    if (e.event.hlc.valid()) {
      std::snprintf(stamp, sizeof(stamp), "[%10.6f|%u] ",
                    static_cast<double>(e.event.hlc.wall) / 1e6, e.event.hlc.logical);
    } else {
      std::snprintf(stamp, sizeof(stamp), "[----------] t=%.6f ", e.event.time);
    }
    out += stamp;
    out += e.host + " " + e.event.component + " " + kind_label(e.event.kind) + ": ";
    // Indent continuation lines under their event so multi-line decision
    // texts read as one block.
    for (char c : e.event.text) {
      out += c;
      if (c == '\n') out += "    ";
    }
    out += '\n';
  }
  return out;
}

}  // namespace rave::obs
