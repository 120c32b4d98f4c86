// Frame-scoped tracing. A TraceContext (trace id + parent span id) is
// allocated per frame request and rides across net::Channel messages and
// SOAP calls in the protocol header; every participating host records
// spans (shade → bin → raster → composite → encode → decode) against the
// shared trace id, and stitch_trace() assembles them into one frame
// timeline. Span times come from an injected util::Clock, so traces are
// byte-stable under virtual time (SimClock).
//
// Tracing is off by default and every instrument site guards on one
// relaxed atomic load plus a thread-local read — the overhead budget with
// tracing compiled in but disabled is <2% of frame time (BM_ObsOverhead).
// Enable with RAVE_TRACE=1 or Tracer::global().set_enabled(true).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rave::util {
class Clock;
}

namespace rave::obs {

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = no trace in flight
  uint64_t span_id = 0;   // the would-be parent of the next span
  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root span of the trace
  std::string name;             // pipeline stage: shade, raster, encode, ...
  std::string host;             // which service recorded it
  double start = 0;             // clock seconds
  double end = 0;
};

class Tracer {
 public:
  static Tracer& global();

  // Enabled state. The global tracer also honours RAVE_TRACE=1/on at
  // first access (CI's force-enabled lane).
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Span timestamps come from this clock; null falls back to a process
  // steady clock. Install the SimClock under test for byte-stable traces.
  void set_clock(const util::Clock* clock) { clock_ = clock; }
  [[nodiscard]] double now() const;

  // Allocate a fresh trace: the returned context has a new trace id and
  // no parent span, ready to parent the root span.
  TraceContext begin_trace();
  uint64_t next_span_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Record a finished span into the collector (bounded; oldest spans drop
  // once `capacity` is exceeded) and the flight recorder ring.
  void record(SpanRecord span);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] size_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Reset collector AND id allocator — tests call this for reproducible
  // trace/span ids.
  void reset();

  // Thread-local context: the parent for spans/messages created on this
  // thread. ScopedSpan maintains it; message receivers adopt it.
  static TraceContext current();
  static void set_current(TraceContext context);

  // Thread-local host label for spans recorded by layers that don't know
  // which service is driving them (rasterizer, stream receiver). Whoever
  // does work on a host's behalf sets it for that scope with ScopedHost.
  static const std::string& current_host();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> dropped_{0};
  const util::Clock* clock_ = nullptr;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  size_t capacity_ = 4096;
};

// Sets the thread's host label (Tracer::current_host) for its lifetime and
// restores the previous label on exit, so a nested scope — a service
// pumping its peers, a client pumping the services it waits on — leaves
// the outer label as it found it.
class ScopedHost {
 public:
  explicit ScopedHost(std::string host);
  ~ScopedHost();

  ScopedHost(const ScopedHost&) = delete;
  ScopedHost& operator=(const ScopedHost&) = delete;

 private:
  std::string saved_;
};

// RAII span. Inactive (zero work beyond two loads) unless the tracer is
// enabled AND the parent context is valid — so instruments deep in the
// rasterizer cost nothing for untraced frames.
class ScopedSpan {
 public:
  // Child of the current thread-local context.
  ScopedSpan(std::string name, std::string host)
      : ScopedSpan(std::move(name), std::move(host), Tracer::current()) {}
  // Child of an explicit parent (e.g. the context carried by a message).
  ScopedSpan(std::string name, std::string host, TraceContext parent);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Start a brand-new trace rooted at this span (the per-frame entry
  // point: a thin client's frame request). Inactive when tracing is off.
  static ScopedSpan root(std::string name, std::string host);

  [[nodiscard]] bool active() const { return active_; }
  // This span's context — what to stamp on outgoing messages so remote
  // spans parent correctly.
  [[nodiscard]] TraceContext context() const { return {record_.trace_id, record_.span_id}; }

 private:
  bool active_ = false;
  bool profiled_ = false;  // frame pushed onto the profiler's thread stack
  SpanRecord record_;
  TraceContext previous_;
};

// Stitch every span of `trace_id` into one indented frame timeline,
// ordered and formatted deterministically (byte-stable under SimClock).
std::string stitch_trace(const std::vector<SpanRecord>& spans, uint64_t trace_id);

// Trace ids present in a span set, ascending.
std::vector<uint64_t> trace_ids(const std::vector<SpanRecord>& spans);

// Per-hop latency attribution over one trace: each span is charged its
// *self* time (duration minus the sum of its children's durations, clamped
// at zero — a parent that merely waits on its children costs nothing
// itself), and self times aggregate by (name, host). The dominant hop is
// the one-line answer to "where did this frame's latency go".
struct HopCost {
  std::string name;
  std::string host;
  double self_seconds = 0;
  size_t spans = 0;
};

struct CriticalPath {
  uint64_t trace_id = 0;
  std::vector<HopCost> hops;  // descending self time; ties by name, host
  double total_seconds = 0;   // earliest start → latest end across the trace
  std::string dominant;       // "name@host" of hops.front(); "" for empty traces
};

CriticalPath critical_path(const std::vector<SpanRecord>& spans, uint64_t trace_id);

// One line per hop, deterministic (byte-stable under SimClock) — the text
// the flight recorder attaches to late-frame post-mortems.
std::string format_critical_path(const CriticalPath& path);

}  // namespace rave::obs
