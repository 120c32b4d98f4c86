#include "core/frame_stream.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/framebuffer.hpp"
#include "util/hash.hpp"

namespace rave::core {

using compress::QualityClass;
using render::Image;
using util::make_error;
using util::Result;

namespace {

constexpr QualityClass kAllClasses[] = {QualityClass::Workstation, QualityClass::Pda};

void account_tiles(uint64_t refs, uint64_t datas, uint64_t ref_bytes, uint64_t data_bytes) {
  auto& reg = obs::MetricsRegistry::global();
  if (refs > 0) {
    reg.counter("rave_fanout_tiles_total", {{"result", "ref"}}).inc(refs);
    reg.counter("rave_fanout_bytes_total", {{"kind", "ref"}}).inc(ref_bytes);
  }
  if (datas > 0) {
    reg.counter("rave_fanout_tiles_total", {{"result", "data"}}).inc(datas);
    reg.counter("rave_fanout_bytes_total", {{"kind", "data"}}).inc(data_bytes);
  }
}

// Per-hop delivery latency, labelled by the subscriber's quality class.
// hop="publish" is the publisher's encode+publish wall time, "assemble"
// the receiver's FrameBegin→completion span, "deliver" the end-to-end
// frame age (publisher stamp → receiver completion).
obs::Histogram& delivery_histogram(QualityClass quality, const char* hop) {
  return obs::MetricsRegistry::global().histogram(
      "rave_stream_delivery_seconds",
      {{"class", compress::quality_name(quality)}, {"hop", hop}});
}

// Host label for receiver-side spans: whoever drives the receiver (a
// service's pump or a ThinClient) sets it with obs::ScopedHost;
// "subscriber" is the fallback when no one has.
const std::string& receiver_host() {
  static const std::string kFallback = "subscriber";
  const std::string& host = obs::Tracer::current_host();
  return host.empty() ? kFallback : host;
}

std::string format_seconds(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6fs", seconds);
  return buf;
}

}  // namespace

FrameStreamPublisher::FrameStreamPublisher(FrameStreamOptions options)
    : options_(options) {}

net::FanoutHub::SubscriberId FrameStreamPublisher::subscribe(net::ChannelPtr channel,
                                                             QualityClass quality) {
  Stream& s = stream(quality);
  const auto id = s.hub.subscribe(std::move(channel));
  // Newcomers must not resolve references against tiles they never saw:
  // the next frame of this class ships everything as data.
  s.force_keyframe = true;
  return id;
}

void FrameStreamPublisher::unsubscribe(QualityClass quality, net::FanoutHub::SubscriberId id) {
  stream(quality).hub.unsubscribe(id);
}

net::FanoutHub& FrameStreamPublisher::hub(QualityClass quality) {
  return stream(quality).hub;
}

size_t FrameStreamPublisher::subscriber_count() const {
  size_t total = 0;
  for (const Stream& s : streams_) total += s.hub.subscriber_count();
  return total;
}

FrameStreamPublisher::FrameReport FrameStreamPublisher::publish_frame(const Image& frame) {
  FrameReport report;
  report.frame_id = next_frame_id_++;
  // Root the frame's delivery trace. The root span becomes the thread's
  // current context, so stamp_trace() below puts it on every stream
  // message — relay hops, reactor queue-wait, and subscriber decode and
  // assemble spans all stitch under this one timeline.
  obs::Tracer& tracer = obs::Tracer::global();
  obs::ScopedSpan frame_span = obs::ScopedSpan::root(
      "publish_frame",
      obs::Tracer::current_host().empty() ? "publisher" : obs::Tracer::current_host());
  if (frame_span.active()) report.trace_id = frame_span.context().trace_id;
  std::vector<render::Tile> tiles = render::tile_grid(frame.width, frame.height,
                                                      options_.tile_size);
  const std::vector<uint64_t> hashes = render::hash_tiles(frame, tiles);
  const uint64_t frame_hash = render::hash_image(frame);

  // Each changed tile's pixels are extracted once and shared by every
  // class that needs to encode it.
  std::vector<Image> extracted(tiles.size());
  std::vector<bool> have_extracted(tiles.size(), false);

  for (QualityClass quality : kAllClasses) {
    Stream& s = stream(quality);
    if (s.hub.subscriber_count() == 0) continue;
    ++report.classes_published;
    const double class_start = tracer.now();
    const bool keyframe = s.force_keyframe || s.prev_width != frame.width ||
                          s.prev_height != frame.height ||
                          s.prev_hashes.size() != tiles.size();

    FrameBeginMsg begin;
    begin.frame_id = report.frame_id;
    begin.width = frame.width;
    begin.height = frame.height;
    begin.tile_size = static_cast<uint16_t>(options_.tile_size);
    begin.tile_count = static_cast<uint16_t>(tiles.size());
    begin.quality = quality;
    begin.publish_time = class_start;
    net::Message begin_msg = encode(begin);
    stamp_trace(begin_msg);
    s.hub.publish(begin_msg);

    for (size_t i = 0; i < tiles.size(); ++i) {
      ++report.tiles_total;
      if (!keyframe && hashes[i] == s.prev_hashes[i]) {
        net::Message msg = encode(
            TileRefMsg{report.frame_id, static_cast<uint16_t>(i), hashes[i]});
        stamp_trace(msg);
        s.hub.publish(msg);
        ++report.tiles_ref;
        report.ref_bytes += msg.wire_size();
      } else {
        if (!have_extracted[i]) {
          extracted[i] = frame.extract(tiles[i]);
          have_extracted[i] = true;
        }
        // The serialized tile rides as a shared Buffer tail: one encode +
        // serialize per (content, class), a refcount bump per subscriber,
        // and a scatter-gather write at the socket — never another copy.
        net::Message msg =
            encode_tile_data(report.frame_id, static_cast<uint16_t>(i), tiles[i], hashes[i],
                             memo_.encode_serialized(hashes[i], quality, extracted[i]));
        stamp_trace(msg);
        s.hub.publish(msg);
        ++report.tiles_data;
        report.data_bytes += msg.wire_size();
      }
    }

    net::Message end_msg = encode(
        FrameEndMsg{report.frame_id, static_cast<uint16_t>(tiles.size()), frame_hash});
    stamp_trace(end_msg);
    s.hub.publish(end_msg);
    delivery_histogram(quality, "publish").observe(tracer.now() - class_start);
    s.prev_hashes = hashes;
    s.prev_width = frame.width;
    s.prev_height = frame.height;
    s.force_keyframe = false;
  }

  last_frame_ = frame;
  last_tiles_ = std::move(tiles);
  last_hashes_ = hashes;

  if (report.classes_published > 0) ++stats_.frames;
  stats_.tiles_ref += report.tiles_ref;
  stats_.tiles_data += report.tiles_data;
  stats_.ref_bytes += report.ref_bytes;
  stats_.data_bytes += report.data_bytes;
  account_tiles(report.tiles_ref, report.tiles_data, report.ref_bytes, report.data_bytes);
  return report;
}

std::optional<net::Message> FrameStreamPublisher::make_miss_reply(const TileMissMsg& miss) {
  // The fast path: the index the subscriber saw still addresses the same
  // content. Otherwise search — content moved or the miss is stale.
  size_t index = last_hashes_.size();
  if (miss.tile_index < last_hashes_.size() && last_hashes_[miss.tile_index] == miss.hash) {
    index = miss.tile_index;
  } else {
    const auto found = std::find(last_hashes_.begin(), last_hashes_.end(), miss.hash);
    index = static_cast<size_t>(found - last_hashes_.begin());
  }
  if (index >= last_hashes_.size()) {
    ++stats_.miss_unresolved;
    return std::nullopt;  // content changed since; next frame supersedes it
  }
  const Image tile_pixels = last_frame_.extract(last_tiles_[index]);
  net::Buffer encoded = memo_.encode_serialized(miss.hash, miss.quality, tile_pixels);
  ++stats_.miss_replies;
  obs::MetricsRegistry::global().counter("rave_fanout_miss_replies_total").inc();
  return encode_tile_data(miss.frame_id, miss.tile_index, last_tiles_[index], miss.hash,
                          std::move(encoded));
}

size_t FrameStreamPublisher::pump() {
  size_t handled = 0;
  for (Stream& s : streams_) {
    handled += s.hub.drain_incoming(
        [this, &s](net::FanoutHub::SubscriberId id, const net::Message& msg) {
          if (msg.type != kMsgTileMiss) return;
          const auto miss = decode_tile_miss(msg);
          if (!miss.ok()) return;
          if (auto reply = make_miss_reply(miss.value()))
            (void)s.hub.send_to(id, *std::move(reply));
        });
    s.hub.prune_closed();
  }
  return handled;
}

FrameStreamReceiver::FrameStreamReceiver(net::ChannelPtr channel, QualityClass quality,
                                         FrameStreamOptions options)
    : channel_(std::move(channel)),
      quality_(quality),
      options_(options),
      store_(options.tile_store_capacity) {}

void FrameStreamReceiver::place(uint16_t index, const Image& tile) {
  if (index >= assembly_.filled.size() || assembly_.filled[index]) return;
  assembly_.image.insert(assembly_.grid[index], tile);
  assembly_.filled[index] = true;
  ++assembly_.filled_count;
}

void FrameStreamReceiver::handle(const net::Message& msg) {
  switch (msg.type) {
    case kMsgFrameBegin: {
      const auto begin = decode_frame_begin(msg);
      if (!begin.ok()) return;
      stats_.bytes_received += msg.wire_size();
      if (assembly_.active && !complete()) ++stats_.frames_abandoned;
      assembly_ = Assembly{};
      assembly_.begin = begin.value();
      assembly_.image = Image(begin.value().width, begin.value().height);
      assembly_.grid = render::tile_grid(begin.value().width, begin.value().height,
                                         begin.value().tile_size);
      if (assembly_.grid.size() != begin.value().tile_count) return;  // malformed
      assembly_.filled.assign(assembly_.grid.size(), false);
      assembly_.active = true;
      assembly_.trace = trace_of(msg);
      assembly_.begin_received_at = obs::Tracer::global().now();
      return;
    }
    case kMsgTileRef: {
      const auto ref = decode_tile_ref(msg);
      if (!ref.ok()) return;
      stats_.bytes_received += msg.wire_size();
      if (!assembly_.active || ref.value().frame_id != assembly_.begin.frame_id) return;
      if (const Image* tile = store_.lookup(ref.value().hash)) {
        place(ref.value().tile_index, *tile);
        ++stats_.refs_resolved;
      } else {
        // Full-tile fallback: ask upstream; any relay holding the content
        // answers before the publisher has to.
        assembly_.pending.insert({ref.value().hash, ref.value().tile_index});
        (void)channel_->send(encode(TileMissMsg{ref.value().hash, ref.value().frame_id,
                                                ref.value().tile_index, quality_}));
        ++stats_.miss_requests;
      }
      return;
    }
    case kMsgTileData: {
      const auto data = decode_tile_data(msg);
      if (!data.ok()) return;
      stats_.bytes_received += msg.wire_size();
      // Parent the decode under the context the message carried — the
      // publisher's root directly, or the last relay hop it crossed.
      obs::ScopedSpan decode_span("decode", receiver_host(), trace_of(msg));
      const auto encoded = compress::EncodedImage::deserialize(data.value().encoded);
      if (!encoded.ok()) return;
      auto decoded =
          compress::make_codec(encoded.value().codec)->decode(encoded.value(), nullptr);
      if (!decoded.ok()) return;
      ++stats_.data_tiles;
      if (assembly_.active) {
        if (data.value().frame_id == assembly_.begin.frame_id)
          place(data.value().tile_index, decoded.value());
        // A miss reply (from the publisher or any relay cache) resolves
        // every pending slot with this content, wherever it sits.
        auto [lo, hi] = assembly_.pending.equal_range(data.value().hash);
        for (auto it = lo; it != hi; ++it) place(it->second, decoded.value());
        assembly_.pending.erase(lo, hi);
      }
      store_.insert(data.value().hash, std::move(decoded).take());
      return;
    }
    case kMsgFrameEnd: {
      const auto end = decode_frame_end(msg);
      if (!end.ok()) return;
      stats_.bytes_received += msg.wire_size();
      if (!assembly_.active || end.value().frame_id != assembly_.begin.frame_id) return;
      assembly_.end = end.value();
      assembly_.have_end = true;
      return;
    }
    default:
      return;  // interleaved non-stream traffic (acks etc.)
  }
}

void FrameStreamReceiver::observe_completion() {
  obs::Tracer& tracer = obs::Tracer::global();
  const double now = tracer.now();
  const double assemble_seconds =
      now > assembly_.begin_received_at ? now - assembly_.begin_received_at : 0;
  // The assemble span covers FrameBegin arrival → completion, parented
  // under whatever hop delivered the header (publisher root or last
  // relay). Recorded before the critical path below so late-frame
  // post-mortems include it.
  if (tracer.enabled() && assembly_.trace.valid()) {
    obs::SpanRecord span;
    span.trace_id = assembly_.trace.trace_id;
    span.parent_span_id = assembly_.trace.span_id;
    span.span_id = tracer.next_span_id();
    span.name = "assemble";
    span.host = receiver_host();
    span.start = assembly_.begin_received_at;
    span.end = now;
    tracer.record(std::move(span));
  }
  delivery_histogram(quality_, "assemble").observe(assemble_seconds);
  // Frame age: how stale this frame already was the moment the subscriber
  // could first show it. Under a drop-oldest shed schedule this is the
  // staleness the shed actually cost — the age of the next frame that got
  // through, not of the ones that didn't.
  double age = 0;
  if (assembly_.begin.publish_time > 0) {
    age = now - assembly_.begin.publish_time;
    if (age < 0) age = 0;
    last_frame_age_ = age;
    obs::MetricsRegistry::global()
        .gauge("rave_stream_frame_age_seconds",
               {{"class", compress::quality_name(quality_)}})
        .set(age);
    delivery_histogram(quality_, "deliver").observe(age);
  }
  if (options_.frame_deadline_seconds > 0 && age > options_.frame_deadline_seconds) {
    ++stats_.frames_late;
    // Late-frame post-mortem: freeze the per-hop breakdown while the
    // trace's spans are still in the collector.
    std::string text = "late frame " + std::to_string(assembly_.begin.frame_id) +
                       " class " + compress::quality_name(quality_) + ": age " +
                       format_seconds(age) + " > deadline " +
                       format_seconds(options_.frame_deadline_seconds);
    if (assembly_.trace.valid()) {
      text += "\n";
      text += obs::format_critical_path(
          obs::critical_path(tracer.spans(), assembly_.trace.trace_id));
    }
    obs::FlightRecorder::global().record_failure("stream", text, now);
  }
}

Result<Image> FrameStreamReceiver::next_frame(util::Clock& clock, double timeout_seconds,
                                              const std::function<void()>& pump) {
  const double deadline = clock.now() + timeout_seconds;
  for (;;) {
    if (pump) pump();
    if (auto msg = channel_->receive(pump ? 0.005 : timeout_seconds)) {
      handle(*msg);
      while (auto more = channel_->try_receive()) handle(*more);
    }
    if (complete()) {
      // Lossless classes can prove byte-identity against the source frame
      // the trailer hashed; lossy classes converge on the decoded pixels
      // (identical across cached and uncached delivery by construction).
      if (compress::codec_for_quality(quality_) != compress::CodecKind::Quantize &&
          render::hash_image(assembly_.image) != assembly_.end.frame_hash) {
        assembly_ = Assembly{};
        return make_error("frame stream: assembled frame failed integrity check");
      }
      observe_completion();
      ++stats_.frames_completed;
      Image out = std::move(assembly_.image);
      assembly_ = Assembly{};
      return out;
    }
    if (!channel_->is_open()) return make_error("frame stream: channel closed");
    if (clock.now() >= deadline) return make_error("frame stream: timed out");
  }
}

RelayTileCache::RelayTileCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

namespace {
// One cache line per (content, codec): the same source tile encodes
// differently per quality class, and a reply must match the requester's.
uint64_t cache_key(uint64_t hash, compress::CodecKind codec) {
  return util::fnv1a_u64(util::fnv1a_u64(util::kFnvOffsetBasis, hash),
                         static_cast<uint64_t>(codec));
}
}  // namespace

void RelayTileCache::remember(const net::Message& msg) {
  if (msg.type != kMsgTileData) return;
  const auto data = decode_tile_data(msg);
  if (!data.ok()) return;
  const auto encoded = compress::EncodedImage::deserialize(data.value().encoded);
  if (!encoded.ok()) return;
  const uint64_t key = cache_key(data.value().hash, encoded.value().codec);
  if (auto found = entries_.find(key); found != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, found->second);
    return;
  }
  lru_.push_front(Entry{key, encoded.value().codec, msg});
  entries_[key] = lru_.begin();
  ++stats_.cached;
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().hash);
    lru_.pop_back();
  }
}

std::optional<net::Message> RelayTileCache::serve(const net::Message& msg) {
  if (msg.type != kMsgTileMiss) return std::nullopt;
  const auto miss = decode_tile_miss(msg);
  if (!miss.ok()) return std::nullopt;
  const uint64_t key =
      cache_key(miss.value().hash, compress::codec_for_quality(miss.value().quality));
  const auto found = entries_.find(key);
  auto& reg = obs::MetricsRegistry::global();
  if (found == entries_.end()) {
    ++stats_.forwarded;
    reg.counter("rave_fanout_relay_total", {{"result", "forward"}}).inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, found->second);
  ++stats_.served;
  reg.counter("rave_fanout_relay_total", {{"result", "hit"}}).inc();
  return found->second->message;
}

void RelayTileCache::attach(net::FanoutRelay& relay) {
  relay.set_downstream_tap([this](const net::Message& msg) { remember(msg); });
  relay.set_request_handler(
      [this](const net::Message& msg) { return serve(msg); });
}

}  // namespace rave::core
