#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "compress/codec.hpp"
#include "render/compositor.hpp"
#include "util/hash.hpp"

namespace e2e {

double wall_now() { return obs::Tracer::global().now(); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t fold_frame(uint64_t digest, uint64_t cycle, size_t subscriber, const render::Image& image) {
  digest = util::fnv1a_u64(digest, cycle);
  digest = util::fnv1a_u64(digest, subscriber);
  digest = util::fnv1a_u32(digest, static_cast<uint32_t>(image.width));
  digest = util::fnv1a_u32(digest, static_cast<uint32_t>(image.height));
  return util::fnv1a(digest, image.rgb.data(), image.rgb.size());
}

Snapshot snapshot(const Deployment& d) {
  Snapshot s;
  const core::RenderService::StreamTotals totals = d.publisher->stream_totals();
  s.tiles_ref = totals.tiles_ref;
  s.tiles_data = totals.tiles_data;
  s.encode_hits = totals.encode_hits;
  s.encode_misses = totals.encode_misses;
  s.miss_replies = totals.miss_replies;
  for (const auto& queue : d.publisher->client_queues()) {
    s.egress_bytes += queue.stats.bytes_sent;
    s.sheds += queue.stats.messages_shed;
    s.queue_peak = std::max(s.queue_peak, queue.stats.queue_peak_depth);
    s.queue_wait_s += queue.stats.queue_wait_seconds;
  }
  for (const core::RenderService* render : d.renders) {
    const core::RenderService::Stats& r = render->stats();
    s.volume_rays += r.volume_rays;
    s.bricks_skipped += r.bricks_skipped;
    s.stale_tiles += r.stale_tiles_used;
    s.remote_tiles += r.remote_tiles_used;
    s.locally_covered += r.locally_covered_tiles;
    s.updates_applied += r.updates_applied;
  }
  s.updates_committed = d.data->stats().updates_committed;
  for (const Subscriber& sub : d.subscribers) {
    const core::FrameStreamReceiver* receiver = sub.client->stream_receiver();
    if (receiver == nullptr) continue;
    const core::FrameStreamReceiver::Stats& r = receiver->stats();
    (sub.quality == compress::QualityClass::Pda ? s.pda_bytes : s.ws_bytes) += r.bytes_received;
  }
  return s;
}

const std::vector<std::string>& ledger_layers() {
  static const std::vector<std::string> kLayers = {"grid",   "channel",  "client", "render",
                                                    "fanout", "compress", "other",  "bench"};
  return kLayers;
}

std::string layer_of(const std::string& name) {
  if (name == "cycle_frame" || name == "cycle_edit") return "bench";
  if (name == "pump_all" || name == "pump") return "grid";
  if (name == "next_stream_frame") return "channel";
  if (name == "unpack") return "client";
  if (name == "publish_stream_frame" || name == "shade" || name == "bin" || name == "raster" ||
      name == "composite" || name == "peer_tile")
    return "render";
  if (name == "publish_frame") return "fanout";
  if (name == "decode") return "compress";
  return "other";
}

size_t Runner::pump() {
  const double t0 = wall_now();
  size_t handled = 0;
  {
    obs::ScopedSpan span("pump_all", "bench");
    handled = d_.pump_services();
  }
  const double dt = wall_now() - t0;
  if (cur_ != nullptr) {
    ++cur_->pump_calls;
    if (handled == 0) ++cur_->idle_pumps;
    cur_->pump_s += dt;
  }
  if (in_receive_) {
    nested_pump_s_ += dt;
    if (t0 - receive_started_ > d_.frame_timeout) d_.expire();
  }
  watch_progress();
  return handled;
}

void Runner::watch_progress() {
  if (committed_at_ >= 0 && applied_at_ >= 0) return;
  const double now = wall_now();
  if (committed_at_ < 0 && d_.data->committed_updates(d_.session) >= commit_target_)
    committed_at_ = now;
  if (committed_at_ < 0) return;
  for (size_t i = 0; i < d_.renders.size(); ++i)
    if (d_.renders[i]->stats().updates_applied < apply_targets_[i]) return;
  applied_at_ = now;
}

bool Runner::receive_all(uint64_t cycle, bool published, CycleRecord* rec,
                         std::vector<render::Image>& frames, std::string& error) {
  frames.assign(d_.subscribers.size(), render::Image{});
  bool all_ok = true;
  for (size_t i = 0; i < d_.subscribers.size(); ++i) {
    if (rec != nullptr) ++rec->attempted;
    if (!published) {
      all_ok = false;
      continue;
    }
    obs::ScopedSpan span("next_stream_frame", "bench");
    receive_started_ = wall_now();
    nested_pump_s_ = 0;
    in_receive_ = true;
    auto frame = d_.subscribers[i].client->next_stream_frame(d_.frame_timeout, [this] { pump(); });
    in_receive_ = false;
    if (rec != nullptr) rec->recv_wait_s += wall_now() - receive_started_ - nested_pump_s_;
    if (!frame.ok()) {
      error = "cycle " + std::to_string(cycle) + " subscriber " + std::to_string(i) + ": " +
              frame.error();
      all_ok = false;
      continue;
    }
    frames[i] = std::move(frame).take();
  }
  return all_ok;
}

bool Runner::bootstrap_frame(std::string& error) {
  cur_ = nullptr;
  committed_at_ = applied_at_ = 0;  // no edits to watch
  const auto published =
      d_.publisher->publish_stream_frame(d_.session, d_.camera(0), d_.width, d_.height);
  if (!published.ok()) {
    error = "bootstrap publish: " + published.error();
    return false;
  }
  std::vector<render::Image> frames;
  return receive_all(0, true, nullptr, frames, error);
}

CycleRecord Runner::cycle(uint64_t index, bool traced) {
  CycleRecord rec;
  cur_ = &rec;
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(traced);

  std::vector<Edit> edits = d_.edits(index);
  commit_target_ = d_.data->committed_updates(d_.session) + edits.size();
  apply_targets_.clear();
  for (const core::RenderService* render : d_.renders)
    apply_targets_.push_back(render->stats().updates_applied + edits.size());
  committed_at_ = applied_at_ = -1;

  // Steps 1-2: submit the edits, pump until the data service committed
  // them and the publisher's replica holds them.
  const double t_edit = wall_now();
  {
    obs::ScopedSpan root = obs::ScopedSpan::root("cycle_edit", "bench");
    for (Edit& edit : edits) {
      obs::ScopedSpan span("send_update", "bench");
      ++rec.attempted;
      if (!d_.subscribers[edit.subscriber].client->send_update(std::move(edit.update)).ok())
        ++rec.failed;
    }
    last_send_ = wall_now();
    while (committed_at_ < 0 || d_.publisher->stats().updates_applied < apply_targets_[0]) {
      if (wall_now() - t_edit > d_.frame_timeout) {
        const uint64_t committed = d_.data->committed_updates(d_.session);
        rec.failed += commit_target_ > committed ? commit_target_ - committed : 1;
        rec.error = "cycle " + std::to_string(index) + ": edits not committed and applied";
        break;
      }
      if (pump() == 0) d_.idle();
    }
  }

  // Steps 3-4: publish, then every subscriber assembles the frame.
  const double t_pub = wall_now();
  std::vector<render::Image> frames;
  {
    obs::ScopedSpan root = obs::ScopedSpan::root("cycle_frame", "bench");
    bool published = false;
    {
      obs::ScopedSpan span("publish_stream_frame", "bench");
      published =
          d_.publisher->publish_stream_frame(d_.session, d_.camera(index), d_.width, d_.height)
              .ok();
    }
    std::string error;
    (void)receive_all(index, published, &rec, frames, error);
    if (!error.empty() && rec.error.empty()) rec.error = error;
    for (size_t i = 0; i < frames.size(); ++i)
      if (frames[i].rgb.empty()) ++rec.failed;
  }
  const double t_done = wall_now();
  tracer.set_enabled(false);
  cur_ = nullptr;

  rec.frame_s = t_done - t_pub;
  rec.edit_to_frame_s = t_done - t_edit;
  if (committed_at_ >= 0) rec.commit_s = committed_at_ - last_send_;
  if (committed_at_ >= 0 && applied_at_ >= 0) rec.apply_wait_s = applied_at_ - committed_at_;
  for (size_t i = 0; i < frames.size(); ++i) rec.digest = fold_frame(rec.digest, index, i, frames[i]);

  if (traced) {
    charge(rec);
    for (size_t i = 0; i < frames.size(); ++i)
      if (d_.subscribers[i].quality == compress::QualityClass::Workstation &&
          !frames[i].rgb.empty()) {
        reencode(rec, frames[i]);
        break;
      }
  }
  return rec;
}

// Charge one traced cycle. Every span the generator thread recorded (the
// harness's own around each call, the program's inside them) is nested
// by time containment into one tree per cycle root, then handed to
// obs::critical_path, which charges each span its self time: duration
// minus its children's. Spans of other threads (reactor queue_wait,
// relay hops) and the receivers' assemble spans, which measure an
// interval rather than work, are left out of the tree; an assemble
// span's end marks where a subscriber's frame completed, and the rest of
// that next_stream_frame call is charged to the thin client as "unpack".
void Runner::charge(CycleRecord& rec) {
  obs::Tracer& tracer = obs::Tracer::global();
  rec.spans = tracer.spans();
  rec.spans_dropped = tracer.dropped();
  tracer.reset();

  std::vector<obs::SpanRecord> work;
  std::vector<double> assembled_at;
  for (const obs::SpanRecord& span : rec.spans) {
    if (span.name == "assemble")
      assembled_at.push_back(span.end);
    else if (span.name != "queue_wait" && span.name != "relay")
      work.push_back(span);
  }
  const size_t recorded = work.size();
  for (size_t i = 0; i < recorded; ++i) {
    if (work[i].name != "next_stream_frame") continue;
    double done = -1;
    for (const double at : assembled_at)
      if (at >= work[i].start && at <= work[i].end) done = std::max(done, at);
    if (done < 0) continue;
    obs::SpanRecord unpack;
    unpack.name = "unpack";
    unpack.host = "client";
    unpack.start = done;
    unpack.end = work[i].end;
    work.push_back(unpack);
  }
  std::stable_sort(work.begin(), work.end(), [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.end > b.end;
  });

  std::vector<size_t> stack;
  std::vector<size_t> root_of(work.size());
  for (size_t i = 0; i < work.size(); ++i) {
    while (!stack.empty() &&
           !(work[stack.back()].start <= work[i].start && work[i].end <= work[stack.back()].end))
      stack.pop_back();
    work[i].trace_id = 1;
    work[i].span_id = i + 1;
    work[i].parent_span_id = stack.empty() ? 0 : work[stack.back()].span_id;
    root_of[i] = stack.empty() ? i : root_of[stack.back()];
    stack.push_back(i);
  }

  for (const obs::HopCost& hop : obs::critical_path(work, 1).hops)
    rec.span_s[hop.name] += hop.self_seconds;

  std::vector<obs::SpanRecord> frame_tree;
  for (size_t i = 0; i < work.size(); ++i)
    if (work[root_of[i]].name == "cycle_frame") frame_tree.push_back(work[i]);
  for (const obs::SpanRecord& span : frame_tree)
    if (span.parent_span_id == 0) rec.traced_frame_s += span.end - span.start;
  for (const obs::HopCost& hop : obs::critical_path(frame_tree, 1).hops)
    rec.layer_s[layer_of(hop.name)] += hop.self_seconds;
}

// The encode work the frame's changed tiles cost, measured off the frame
// path: the publisher's EncodeMemo encodes each changed tile once per
// quality class, which is what this repeats with the same codecs.
void Runner::reencode(CycleRecord& rec, const render::Image& source) {
  const int tile_size = d_.publisher->options().stream.tile_size;
  const std::vector<render::Tile> tiles = render::tile_grid(source.width, source.height, tile_size);
  const std::vector<uint64_t> hashes = render::hash_tiles(source, tiles);
  bool classes[compress::kQualityClassCount] = {};
  for (const Subscriber& sub : d_.subscribers) classes[static_cast<size_t>(sub.quality)] = true;
  const double t0 = wall_now();
  for (size_t i = 0; i < tiles.size(); ++i) {
    if (prev_tile_hashes_.size() == hashes.size() && prev_tile_hashes_[i] == hashes[i]) continue;
    const render::Image tile = source.extract(tiles[i]);
    for (size_t q = 0; q < compress::kQualityClassCount; ++q) {
      if (!classes[q]) continue;
      const auto codec =
          compress::make_codec(compress::codec_for_quality(static_cast<compress::QualityClass>(q)));
      rec.raw_bytes += tile.byte_size();
      rec.encoded_bytes += codec->encode(tile, nullptr).byte_size();
    }
  }
  rec.encode_s = wall_now() - t0;
  prev_tile_hashes_ = hashes;
}

}  // namespace e2e
