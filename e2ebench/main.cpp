// e2e_frame — closed-loop end-to-end frame benchmark on a live RAVE grid.
//
//   e2e_frame --workload collab_view|orbit_render|tcp_edit --seed N
//             --seconds S --trace 0|1 [--out result.json] [--spans spans.jsonl]
//             [--warmup N] [--window N] [--check N] [--setups N]
//
// One process runs one workload. It sets the workload's grid up at least
// --setups times (set-up time is their median), replays the first --check cycles
// at the host's SIMD level and under scalar kernels to prove the frame
// digest repeats, and measures one deployment for --seconds after
// --warmup cycles. Exact counters cover the first --window measured
// cycles. With --trace 1 the second half of the measured phase runs with
// obs::Tracer on and its spans are charged to layers (harness.cpp). The
// result is one JSON object, printed as the last line of stdout.
// Exit status: 0 when every check passed, 1 when a check failed (the
// result is still printed), 2 on bad arguments or a failed set-up.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/simlink.hpp"
#include "util/hash.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

#ifndef RAVE_BENCH_COMPILER
#define RAVE_BENCH_COMPILER "unknown"
#endif
#ifndef RAVE_BENCH_BUILD_TYPE
#define RAVE_BENCH_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

// The tolerance within which the traced ledger's per-layer medians must
// add up to the traced frame_ms_p50 median.
constexpr double kLedgerTolerance = 0.15;
constexpr double kMinSetupSeconds = 2.0;
constexpr size_t kMaxSetups = 15;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out, spans;
  uint64_t warmup = 5, window = 20, check = 6, setups = 5;
};

// --- statistics -------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- JSON ----------------------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// A metric: value, unit, and how many samples (cycles, set-ups) it rests on.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ",";
    out += quote(m.name) + ":{\"value\":" + number(m.value) + ",\"unit\":" + quote(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

// --- host shape ------------------------------------------------------------------------

std::string host_json(util::SimdLevel level) {
  long slack = -1;
  if (std::ifstream in("/proc/self/timerslack_ns"); in) in >> slack;
  return std::string("{\"nproc\":") + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"simd\":" + quote(util::simd_level_name(level)) +
         ",\"compiler\":" + quote(RAVE_BENCH_COMPILER) +
         ",\"build_type\":" + quote(RAVE_BENCH_BUILD_TYPE) +
         ",\"timerslack_ns\":" + std::to_string(slack) + "}";
}

// --- phases ------------------------------------------------------------------------------

struct Live {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Runner> runner;
  double setup_s = 0, recruit_s = 0, first_frame_s = 0;
};

util::Result<Live> deploy(Workload& workload) {
  auto deployed = workload.deploy();
  if (!deployed.ok()) return util::make_error(deployed.error());
  Live live;
  live.deployment = std::move(deployed).take();
  live.runner = std::make_unique<Runner>(*live.deployment);
  std::string error;
  if (!live.runner->bootstrap_frame(error)) return util::make_error(error);
  const double done = wall_now();
  live.setup_s = done - live.deployment->started_at;
  live.first_frame_s = done - live.deployment->subscribing_at;
  live.recruit_s = live.deployment->recruit_s;
  return live;
}

struct Tally {
  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  void add(const CycleRecord& rec) {
    attempted += rec.attempted;
    failed += rec.failed;
    if (first_error.empty() && !rec.error.empty()) first_error = rec.error;
  }
  // One correctness check counts as one operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

int run(const Options& opt) {
  std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed);
  if (!workload) {
    std::fprintf(stderr, "e2e_frame: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const util::SimdLevel host_level = util::active_simd_level();
  Tally tally;
  std::vector<double> setups, recruits, first_frames;
  const auto record_setup = [&](const Live& l) {
    setups.push_back(l.setup_s);
    recruits.push_back(l.recruit_s);
    first_frames.push_back(l.first_frame_s);
  };

  // --- the measured deployment --------------------------------------------------
  auto measured = deploy(*workload);
  if (!measured.ok()) {
    std::fprintf(stderr, "e2e_frame: set-up failed: %s\n", measured.error().c_str());
    return 2;
  }
  Live& live = measured.value();
  record_setup(live);
  Deployment& dep = *live.deployment;

  uint64_t check_digest = util::kFnvOffsetBasis, window_digest = util::kFnvOffsetBasis;
  uint64_t index = 0;
  const auto fold = [&](const CycleRecord& rec) {
    if (index < opt.check) check_digest = util::fnv1a_u64(check_digest, rec.digest);
    if (index < opt.warmup + opt.window) window_digest = util::fnv1a_u64(window_digest, rec.digest);
  };
  for (; index < opt.warmup; ++index) {
    const CycleRecord rec = live.runner->cycle(index, false);
    tally.add(rec);
    fold(rec);
  }

  // Untraced phase: end-to-end timings, and the exact counter window.
  std::vector<CycleRecord> plain, traced;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Snapshot s0 = snapshot(dep);
  Snapshot s1;
  double rss_mb = 0;
  const double wall0 = wall_now(), cpu0 = cpu_seconds();
  for (;;) {
    const double elapsed = wall_now() - wall0;
    if (plain.size() >= opt.window && elapsed >= untraced_s) break;
    CycleRecord rec = live.runner->cycle(index, false);
    tally.add(rec);
    fold(rec);
    ++index;
    plain.push_back(std::move(rec));
    if (plain.size() == opt.window) {
      s1 = snapshot(dep);
      // Peak RSS at a fixed cycle count: the subscribers' tile stores grow
      // with every new tile, so a later reading would scale with how many
      // cycles fit into --seconds.
      rss_mb = peak_rss_mb();
    }
  }
  const double wall_s = wall_now() - wall0, cpu_s = cpu_seconds() - cpu0;

  // Traced phase: per-layer spans, charged cycle by cycle and kept in
  // memory until the phase ends.
  if (opt.trace) {
    obs::Tracer::global().reset();
    const double t0 = wall_now();
    const uint64_t first = index;
    while (traced.size() < opt.window || wall_now() - t0 < opt.seconds / 2) {
      CycleRecord rec = live.runner->cycle(index, true);
      tally.add(rec);
      ++index;
      traced.push_back(std::move(rec));
    }
    if (!opt.spans.empty()) {
      std::ofstream out(opt.spans);
      for (size_t i = 0; i < traced.size(); ++i) {
        for (const obs::SpanRecord& span : traced[i].spans)
          out << "{\"cycle\":" << first + i << ",\"trace\":" << span.trace_id
              << ",\"span\":" << span.span_id << ",\"parent\":" << span.parent_span_id
              << ",\"name\":" << quote(span.name) << ",\"host\":" << quote(span.host)
              << ",\"start\":" << number(span.start) << ",\"end\":" << number(span.end) << "}\n";
        traced[i].spans.clear();
      }
    }
  }
  size_t pda_subscribers = 0;
  for (const Subscriber& sub : dep.subscribers)
    if (sub.quality == compress::QualityClass::Pda) ++pda_subscribers;
  const bool over_tcp = dep.over_tcp;
  live = Live{};  // tear the measured grid down before the replays

  // --- replays: repeat at the host level, and under scalar kernels; then
  // the remaining set-ups, timed only ----------------------------------------
  const auto replay = [&](uint64_t cycles, bool timed) -> util::Result<uint64_t> {
    auto fresh = deploy(*workload);
    if (!fresh.ok()) return util::make_error(fresh.error());
    if (timed) record_setup(fresh.value());
    uint64_t digest = util::kFnvOffsetBasis;
    for (uint64_t i = 0; i < cycles; ++i) {
      const CycleRecord rec = fresh.value().runner->cycle(i, false);
      tally.add(rec);
      digest = util::fnv1a_u64(digest, rec.digest);
    }
    return digest;
  };
  auto repeat = replay(opt.check, opt.setups > 1);
  util::set_simd_level(util::SimdLevel::Scalar);
  auto scalar = replay(opt.check, false);
  util::set_simd_level(host_level);
  // At least --setups set-ups; cheap ones repeat until they add up to
  // kMinSetupSeconds, so a sub-second set-up still gets a steady median.
  const auto setup_total = [&] {
    double total = 0;
    for (const double s : setups) total += s;
    return total;
  };
  while (repeat.ok() && scalar.ok() && setups.size() < kMaxSetups &&
         (setups.size() < opt.setups || setup_total() < kMinSetupSeconds)) {
    auto timed = replay(0, true);
    if (!timed.ok()) repeat = std::move(timed);
  }
  if (!repeat.ok() || !scalar.ok()) {
    std::fprintf(stderr, "e2e_frame: replay set-up failed: %s\n",
                 (repeat.ok() ? scalar : repeat).error().c_str());
    return 2;
  }
  const uint64_t repeat_digest = repeat.value(), scalar_digest = scalar.value();
  tally.check(repeat_digest == check_digest, "frame digest differs between runs of one seed");
  tally.check(scalar_digest == check_digest, "frame digest differs under RAVE_SIMD=scalar");

  // --- metrics ---------------------------------------------------------------------------
  const double n = static_cast<double>(plain.size());
  const uint64_t samples = plain.size();
  const auto series = [](const std::vector<CycleRecord>& recs, auto field) {
    std::vector<double> v;
    for (const CycleRecord& rec : recs) {
      const double x = field(rec);
      if (x >= 0) v.push_back(x);
    }
    return v;
  };
  const std::vector<double> frame_ms = series(plain, [](const CycleRecord& r) { return r.frame_s * 1e3; });
  const std::vector<double> edit_ms =
      series(plain, [](const CycleRecord& r) { return r.edit_to_frame_s * 1e3; });

  std::vector<Metric> e2e_metrics = {
      {"frame_ms_p50", median(frame_ms), "ms", samples},
      {"frame_ms_p90", percentile(frame_ms, 0.9), "ms", samples},
      {"edit_to_frame_ms_p50", median(edit_ms), "ms", samples},
      {"edit_to_frame_ms_p90", percentile(edit_ms, 0.9), "ms", samples},
      {"frames_per_s", ratio(n, wall_s), "1/s", samples},
      {"cpu_ms_per_frame", ratio(cpu_s * 1e3, n), "ms", samples},
      {"egress_kb_per_frame",
       ratio(static_cast<double>(s1.egress_bytes - s0.egress_bytes) / 1000.0,
             static_cast<double>(opt.window)),
       "KB", opt.window},
      {"setup_s", median(setups), "s", setups.size()},
      {"peak_rss_mb", rss_mb, "MB", 1},
      {"error_rate", ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
       "ratio", tally.attempted},
  };

  // Exact counters over the first --window measured cycles.
  const double w = static_cast<double>(opt.window);
  const auto d = [](uint64_t after, uint64_t before) { return static_cast<double>(after - before); };
  const double pda_bytes_each =
      ratio(d(s1.pda_bytes, s0.pda_bytes), w * static_cast<double>(pda_subscribers));
  std::vector<Metric> counters = {
      {"egress_kb_per_frame", e2e_metrics[6].value, "KB", opt.window},
      {"fanout.ref_share",
       ratio(d(s1.tiles_ref, s0.tiles_ref), d(s1.tiles_ref + s1.tiles_data, s0.tiles_ref + s0.tiles_data)),
       "ratio", opt.window},
      {"fanout.encode_hit_share",
       ratio(d(s1.encode_hits, s0.encode_hits),
             d(s1.encode_hits + s1.encode_misses, s0.encode_hits + s0.encode_misses)),
       "ratio", opt.window},
      {"fanout.encodes_per_frame", d(s1.encode_misses, s0.encode_misses) / w, "count", opt.window},
      {"fanout.ws_kb_per_frame", d(s1.ws_bytes, s0.ws_bytes) / w / 1000.0, "KB", opt.window},
      {"fanout.pda_kb_per_frame", d(s1.pda_bytes, s0.pda_bytes) / w / 1000.0, "KB", opt.window},
      {"fanout.miss_replies_per_frame", d(s1.miss_replies, s0.miss_replies) / w, "count", opt.window},
      {"render.volume_rays_per_frame", d(s1.volume_rays, s0.volume_rays) / w, "count", opt.window},
      {"render.bricks_skipped_per_frame", d(s1.bricks_skipped, s0.bricks_skipped) / w, "count",
       opt.window},
      {"render.stale_tile_share",
       ratio(d(s1.stale_tiles, s0.stale_tiles), d(s1.remote_tiles, s0.remote_tiles)), "ratio",
       opt.window},
      {"render.locally_covered_tiles_per_frame", d(s1.locally_covered, s0.locally_covered) / w,
       "count", opt.window},
      {"data_service.updates_per_frame", d(s1.updates_committed, s0.updates_committed) / w, "count",
       opt.window},
      {"render_service.updates_applied_per_frame", d(s1.updates_applied, s0.updates_applied) / w,
       "count", opt.window},
      {"reactor.sends_shed", d(s1.sheds, s0.sheds), "count", opt.window},
      // Computed, not measured: the paper's Table 2 link arithmetic for one
      // PDA subscriber's bytes per frame on 11 Mbit wireless.
      {"simlink.pda_modeled_ms_per_frame",
       pda_subscribers > 0 ? net::wireless_11mbit().delivery_seconds(
                                 static_cast<uint64_t>(std::llround(pda_bytes_each))) * 1e3
                           : 0.0,
       "ms", opt.window},
  };

  // Per-layer timings.
  const auto per_cycle_ms = [&](const std::vector<CycleRecord>& recs, auto field) {
    return median(series(recs, [&](const CycleRecord& r) { return field(r) * 1e3; }));
  };
  uint64_t pumps = 0, idle_pumps = 0;
  for (const CycleRecord& rec : plain) {
    pumps += rec.pump_calls;
    idle_pumps += rec.idle_pumps;
  }
  const double recv_wait_ms = per_cycle_ms(plain, [](const CycleRecord& r) { return r.recv_wait_s; });
  std::vector<Metric> layers = {
      {"grid.pump_calls_per_frame", ratio(static_cast<double>(pumps), n), "count", samples},
      {"grid.pump_ms_per_frame", per_cycle_ms(plain, [](const CycleRecord& r) { return r.pump_s; }),
       "ms", samples},
      {"grid.idle_pump_share", ratio(static_cast<double>(idle_pumps), static_cast<double>(pumps)),
       "ratio", samples},
      {"grid.wall_over_cpu", ratio(wall_s, cpu_s), "ratio", samples},
      {"channel.recv_wait_ms_per_frame", recv_wait_ms, "ms", samples},
      {"data_service.commit_ms", per_cycle_ms(plain, [](const CycleRecord& r) { return r.commit_s; }),
       "ms", samples},
      {"render_service.apply_wait_ms",
       per_cycle_ms(plain, [](const CycleRecord& r) { return r.apply_wait_s; }), "ms", samples},
      {"reactor.recv_wait_ms_per_frame", over_tcp ? recv_wait_ms : 0.0, "ms", samples},
      {"reactor.queue_wait_ms_per_frame",
       ratio((s1.queue_wait_s - s0.queue_wait_s) * 1e3, w), "ms", opt.window},
      {"reactor.queue_peak_depth", static_cast<double>(s1.queue_peak), "count", opt.window},
      {"services.recruit_s", median(recruits), "s", recruits.size()},
      {"services.first_frame_s", median(first_frames), "s", first_frames.size()},
  };

  bool ledger_ok = true;
  std::string ledger_json = "null";
  if (opt.trace) {
    const uint64_t t_samples = traced.size();
    const auto span_ms = [&](const std::string& name) {
      return per_cycle_ms(traced, [&](const CycleRecord& r) {
        const auto it = r.span_s.find(name);
        return it == r.span_s.end() ? 0.0 : it->second;
      });
    };
    uint64_t raw = 0, encoded = 0, dropped = 0;
    for (const CycleRecord& rec : traced) {
      raw += rec.raw_bytes;
      encoded += rec.encoded_bytes;
      dropped += rec.spans_dropped;
    }
    const double traced_frame_ms =
        per_cycle_ms(traced, [](const CycleRecord& r) { return r.traced_frame_s; });
    const double traced_frame_p50 = median(series(traced, [](const CycleRecord& r) { return r.frame_s * 1e3; }));
    double attributed = 0;
    std::string parts;
    for (const std::string& layer : ledger_layers()) {
      const double ms = per_cycle_ms(traced, [&](const CycleRecord& r) {
        const auto it = r.layer_s.find(layer);
        return it == r.layer_s.end() ? 0.0 : it->second;
      });
      if (layer != "bench") attributed += ms;
      if (!parts.empty()) parts += ",";
      parts += quote(layer) + ":" + number(ms);
      // "other" stays in the ledger block: no span of these workloads maps there.
      if (layer != "other") layers.push_back({"ledger." + layer + "_ms", ms, "ms", t_samples});
    }
    const double unattributed = 1.0 - ratio(attributed, traced_frame_ms);
    ledger_ok = std::fabs(unattributed) <= kLedgerTolerance && dropped == 0;
    ledger_json = "{\"tolerance\":" + number(kLedgerTolerance) +
                  ",\"frame_ms_p50\":" + number(traced_frame_ms) + ",\"layers_ms\":{" + parts +
                  "},\"unattributed_share\":" + number(unattributed) +
                  ",\"ok\":" + (ledger_ok ? "true" : "false") + "}";
    const std::vector<Metric> traced_layers = {
        {"fanout.publish_ms", span_ms("publish_frame"), "ms", t_samples},
        {"render.shade_ms", span_ms("shade"), "ms", t_samples},
        {"render.bin_ms", span_ms("bin"), "ms", t_samples},
        {"render.raster_ms", span_ms("raster"), "ms", t_samples},
        {"render.composite_ms", span_ms("composite"), "ms", t_samples},
        {"render.peer_tile_ms", span_ms("peer_tile"), "ms", t_samples},
        {"compress.encode_ms", per_cycle_ms(traced, [](const CycleRecord& r) { return r.encode_s; }),
         "ms", t_samples},
        {"compress.decode_ms", span_ms("decode"), "ms", t_samples},
        {"compress.ratio", ratio(static_cast<double>(raw), static_cast<double>(encoded)), "ratio",
         t_samples},
        {"obs.trace_overhead_share", ratio(traced_frame_p50, e2e_metrics[0].value) - 1.0, "ratio",
         t_samples},
        {"obs.spans_dropped", static_cast<double>(dropped), "count", t_samples},
        {"ledger.frame_ms_p50", traced_frame_ms, "ms", t_samples},
        {"ledger.unattributed_share", unattributed, "ratio", t_samples},
    };
    layers.insert(layers.end(), traced_layers.begin(), traced_layers.end());
  }

  const bool correct = tally.failed == 0;
  std::ostringstream json;
  json << "{\"schema\":\"rave-e2e-frame/1\",\"workload\":" << quote(opt.workload)
       << ",\"seed\":" << opt.seed << ",\"seconds\":" << number(opt.seconds)
       << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"host\":" << host_json(host_level)
       << ",\"cycles\":{\"warmup\":" << opt.warmup << ",\"measured\":" << plain.size()
       << ",\"traced\":" << traced.size() << ",\"window\":" << opt.window
       << ",\"check\":" << opt.check << "}"
       << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << tally.attempted
       << ",\"failed\":" << tally.failed << ",\"first_error\":" << quote(tally.first_error)
       << ",\"digests\":{\"check\":" << quote(hex(check_digest))
       << ",\"repeat\":" << quote(hex(repeat_digest)) << ",\"scalar\":" << quote(hex(scalar_digest))
       << ",\"window\":" << quote(hex(window_digest)) << "}"
       << ",\"end_to_end\":" << metrics_json(e2e_metrics) << ",\"counters\":" << metrics_json(counters)
       << ",\"per_layer\":" << metrics_json(layers) << ",\"ledger\":" << ledger_json << "}";
  const std::string text = json.str();
  if (!opt.out.empty()) std::ofstream(opt.out) << text << "\n";
  std::printf("%s\n", text.c_str());
  if (!correct) std::fprintf(stderr, "e2e_frame: check failed: %s\n", tally.first_error.c_str());
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      continue;
    }
    if (key == "--out") {
      opt.out = value;
      continue;
    }
    if (key == "--spans") {
      opt.spans = value;
      continue;
    }
    if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else {
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (key == "--seed") opt.seed = v;
      else if (key == "--trace") opt.trace = v != 0;
      else if (key == "--warmup") opt.warmup = v;
      else if (key == "--window") opt.window = v;
      else if (key == "--check") opt.check = v;
      else if (key == "--setups") opt.setups = v;
      else return false;
    }
    if (end == nullptr || *end != '\0') return false;
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.window > 0 && opt.check > 0 &&
         opt.setups > 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  if (!e2e::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: e2e_frame --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out FILE] [--spans FILE] [--warmup N] [--window N] [--check N] "
                 "[--setups N]\n");
    return 2;
  }
  return e2e::run(opt);
}
