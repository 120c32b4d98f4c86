// Property-based and fuzz tests across module boundaries: deserializers
// must fail gracefully on corrupted input, replicas fed the same update
// stream must converge, tile splits must partition any frame, codecs must
// round-trip arbitrary images, and random structural edits must preserve
// scene-tree invariants. Deterministic PRNG — failures reproduce.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>

#include "compress/codec.hpp"
#include "core/protocol.hpp"
#include "render/compositor.hpp"
#include "mesh/primitives.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"
#include "render/framebuffer.hpp"
#include "scene/serialize.hpp"
#include "scene/tree.hpp"
#include "scene/update.hpp"
#include "services/soap.hpp"
#include "services/xml.hpp"

namespace rave {
namespace {

using scene::kRootNode;
using scene::NodeId;
using scene::SceneTree;

// --- fuzzing deserializers ----------------------------------------------------

std::vector<uint8_t> mutate(std::vector<uint8_t> bytes, std::mt19937& rng) {
  if (bytes.empty()) return bytes;
  std::uniform_int_distribution<size_t> pos(0, bytes.size() - 1);
  std::uniform_int_distribution<int> val(0, 255);
  const int mutations = 1 + static_cast<int>(rng() % 8);
  for (int i = 0; i < mutations; ++i) bytes[pos(rng)] = static_cast<uint8_t>(val(rng));
  return bytes;
}

TEST(Fuzz, TreeDeserializerNeverCrashes) {
  SceneTree tree;
  tree.add_child(kRootNode, "mesh", mesh::make_uv_sphere(0.5f, 8, 6));
  scene::AvatarData avatar;
  avatar.user_name = "fuzz";
  tree.add_child(kRootNode, "avatar", avatar);
  const std::vector<uint8_t> clean = scene::serialize_tree(tree);

  std::mt19937 rng(1234);
  int parsed_ok = 0;
  for (int round = 0; round < 300; ++round) {
    const auto corrupted = mutate(clean, rng);
    auto result = scene::deserialize_tree(corrupted);  // must not crash/UB
    if (result.ok()) {
      ++parsed_ok;
      // Whatever parsed must still be a structurally valid tree.
      const SceneTree& t = result.value();
      for (NodeId id : t.ids_depth_first()) {
        const scene::SceneNode* node = t.find(id);
        ASSERT_NE(node, nullptr);
        if (id != kRootNode) {
          ASSERT_TRUE(t.contains(node->parent));
        }
      }
    }
  }
  // Some mutations only touch float payloads and still parse — fine.
  SUCCEED() << parsed_ok << " of 300 mutants still parsed";
}

TEST(Fuzz, TruncatedTreeAlwaysRejectedGracefully) {
  SceneTree tree;
  tree.add_child(kRootNode, "mesh", mesh::make_uv_sphere(0.5f, 8, 6));
  const std::vector<uint8_t> clean = scene::serialize_tree(tree);
  for (size_t len = 0; len < clean.size(); len += 17) {
    std::vector<uint8_t> cut(clean.begin(), clean.begin() + static_cast<ptrdiff_t>(len));
    (void)scene::deserialize_tree(cut);  // graceful error or partial parse, no crash
  }
  SUCCEED();
}

TEST(Fuzz, ProtocolDecodersRejectRandomPayloads) {
  // One row per decoder in core/protocol.hpp, each round stamped with the
  // row's own type code so the payload parser (not the type check) sees
  // the random bytes. Half the rounds draw small byte values, so length
  // prefixes and counts often fit and parsing reaches later fields.
  // `hostile` seeds are well-formed encodings whose values a decoder must
  // refuse: a peer naming a frame size makes its receiver allocate it.
  struct Row {
    uint16_t type;
    std::function<std::string(const net::Message&)> decode;  // error, "" if ok
    std::vector<net::Message> hostile;
  };
  const auto row = [](uint16_t type, auto decoder, std::vector<net::Message> hostile = {}) {
    return Row{type,
               [decoder](const net::Message& msg) {
                 const auto decoded = decoder(msg);
                 return decoded.ok() ? std::string() : decoded.error();
               },
               std::move(hostile)};
  };
  core::FrameRequest huge_request;
  huge_request.width = 1 << 20;
  huge_request.height = 1 << 20;
  core::TileAssignMsg huge_assign;
  huge_assign.session = "s";
  huge_assign.tile = {0, 0, 64, 64};
  huge_assign.frame_width = huge_assign.frame_height = 1 << 20;
  core::TileAssignMsg outside_assign = huge_assign;
  outside_assign.frame_width = outside_assign.frame_height = 48;
  const std::vector<Row> rows = {
      row(core::kMsgSubscribe, core::decode_subscribe),
      row(core::kMsgSubscribeAck, core::decode_subscribe_ack),
      row(core::kMsgSnapshot, core::decode_snapshot),
      row(core::kMsgUpdate, core::decode_update),
      row(core::kMsgInterestSet, core::decode_interest_set),
      row(core::kMsgRefusal, core::decode_refusal),
      row(core::kMsgLoadReport, core::decode_load_report),
      row(core::kMsgFrameRequest, core::decode_frame_request, {core::encode(huge_request)}),
      row(core::kMsgFrame, core::decode_frame),
      row(core::kMsgClientUpdate, core::decode_client_update),
      row(core::kMsgAvatarAck, core::decode_avatar_ack),
      row(core::kMsgTileAssign, core::decode_tile_assign,
          {core::encode(huge_assign), core::encode(outside_assign)}),
      row(core::kMsgTileResult, core::decode_tile_result),
      row(core::kMsgAssistRequest, core::decode_assist_request),
      row(core::kMsgAssistGrant, core::decode_assist_grant),
      row(core::kMsgStreamSubscribe, core::decode_stream_subscribe),
      row(core::kMsgFrameBegin, core::decode_frame_begin),
      row(core::kMsgTileRef, core::decode_tile_ref),
      row(core::kMsgTileData, core::decode_tile_data),
      row(core::kMsgFrameEnd, core::decode_frame_end),
      row(core::kMsgTileMiss, core::decode_tile_miss),
  };
  std::mt19937 rng(99);
  for (const Row& r : rows) {
    for (int round = 0; round < 200; ++round) {
      net::Message msg;
      msg.type = r.type;
      msg.payload.resize(rng() % 128);
      const uint32_t max_byte = round % 2 == 0 ? 255 : 7;
      for (auto& b : msg.payload) b = static_cast<uint8_t>(rng() % (max_byte + 1));
      // Every decoder must return an error or a value — never crash — and
      // never refuse its own type code.
      EXPECT_EQ(r.decode(msg).find("unexpected message type"), std::string::npos)
          << "type 0x" << std::hex << r.type;
    }
    for (const net::Message& seed : r.hostile)
      EXPECT_NE(r.decode(seed), "") << "type 0x" << std::hex << r.type << " accepted a seed";
  }
  SUCCEED();
}

TEST(Fuzz, XmlParserSurvivesMangledDocuments) {
  const std::string base =
      "<soap:Envelope xmlns:soap=\"x\"><soap:Body><rave:Call service=\"s\" method=\"m\" "
      "id=\"1\"><arg xsi:type=\"xsd:long\">42</arg></rave:Call></soap:Body></soap:Envelope>";
  std::mt19937 rng(7);
  for (int round = 0; round < 300; ++round) {
    std::string mangled = base;
    const int cuts = 1 + static_cast<int>(rng() % 5);
    for (int c = 0; c < cuts; ++c) {
      const size_t pos = rng() % mangled.size();
      mangled[pos] = static_cast<char>(32 + rng() % 90);
    }
    (void)services::parse_xml(mangled);
    (void)services::decode_call(mangled);
  }
  SUCCEED();
}

// --- line decoders fed with peer bytes ----------------------------------------

// The central collector feeds two text decoders with whatever a host
// sends: its flight-recorder export and its Prometheus exposition. Both
// work line by line, so a mangled input may lose lines but never invent
// them, and decoding the whole text must equal decoding each line alone
// (no field is ever read across a '\n').

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (size_t pos = 0; pos < text.size();) {
    const size_t eol = text.find('\n', pos);
    const size_t next = eol == std::string::npos ? text.size() : eol + 1;
    lines.push_back(text.substr(pos, next - pos));
    pos = next;
  }
  return lines;
}

std::string flight_key(const obs::FlightEvent& e) {
  char head[128];
  std::snprintf(head, sizeof(head), "%u %llu %u %a %llu ", static_cast<unsigned>(e.kind),
                static_cast<unsigned long long>(e.hlc.wall), e.hlc.logical, e.time,
                static_cast<unsigned long long>(e.trace_id));
  return head + e.component + "|" + e.text;
}

std::string sample_key(const obs::ParsedSample& s) {
  char value[48];
  std::snprintf(value, sizeof(value), " %a", s.value);
  return s.name + "|" + s.labels + value;
}

template <typename Decode, typename Key>
testing::AssertionResult decodes_line_by_line(const std::string& text, Decode decode,
                                              Key key) {
  std::vector<std::string> whole;
  for (const auto& item : decode(text)) whole.push_back(key(item));
  const std::vector<std::string> lines = split_lines(text);
  if (whole.size() > lines.size())
    return testing::AssertionFailure()
           << whole.size() << " items from " << lines.size() << " lines";
  std::vector<std::string> by_line;
  for (const std::string& line : lines)
    for (const auto& item : decode(line)) by_line.push_back(key(item));
  if (whole != by_line)
    return testing::AssertionFailure() << "a field was read across a line break";
  return testing::AssertionSuccess();
}

// Every prefix, then random byte flips biased towards the characters the
// formats are made of.
template <typename Check>
void mutate_text(const std::string& seed, uint32_t rng_seed, Check check) {
  for (size_t len = 0; len <= seed.size(); ++len) {
    ASSERT_TRUE(check(seed.substr(0, len))) << "cut at " << len;
  }
  static const char kStructural[] = {'\n', ' ', '\t', '\\', '\0', '{', '}', '"',
                                     '#',  '-', '.',  '0',  '9',  'n', 'e'};
  std::mt19937 rng(rng_seed);
  for (int round = 0; round < 400; ++round) {
    std::string mangled = seed;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng() % mangled.size();
      mangled[pos] = rng() % 2 == 0 ? kStructural[rng() % sizeof(kStructural)]
                                    : static_cast<char>(rng() % 256);
    }
    ASSERT_TRUE(check(mangled)) << "round " << round;
  }
}

TEST(Fuzz, FlightDecoderNeverFusesOrInventsLines) {
  std::vector<obs::FlightEvent> events(4);
  events[0].kind = obs::FlightEvent::Kind::Decision;
  events[0].time = 1.25;
  events[0].component = "data";
  events[0].text = "recovery for demo\n  input: service 2 failed\n  chosen: move 3 -> 1";
  events[0].hlc = {1'250'000, 3};
  events[1].kind = obs::FlightEvent::Kind::Note;
  events[1].time = 2.5;
  events[1].component = "render";
  events[1].text = "backslash \\ and trailing";
  events[1].trace_id = 42;
  events[2].kind = obs::FlightEvent::Kind::Failure;
  events[2].time = 3.0;
  events[2].component = "collector";
  events[2].text = "scrape_gap: laptop: host unreachable";
  events[2].hlc = {3'000'000, 1};
  events[3].kind = obs::FlightEvent::Kind::Span;
  events[3].time = 4.125;
  events[3].component = "span";
  obs::FlightRecorder recorder;
  for (const obs::FlightEvent& e : events) recorder.record(e);
  const std::string seed = recorder.export_events();

  const std::vector<obs::FlightEvent> decoded = obs::decode_flight_events(seed);
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(flight_key(decoded[i]), flight_key(events[i]));

  mutate_text(seed, 31, [](const std::string& text) {
    return decodes_line_by_line(text, obs::decode_flight_events, flight_key);
  });
}

TEST(Fuzz, PrometheusParserNeverFusesOrInventsLines) {
  obs::MetricsRegistry registry;
  registry.counter("rave_fuzz_total", {{"kind", "a"}}).inc(7);
  registry.gauge("rave_fuzz_depth").set(2.5);
  auto& latency = registry.histogram("rave_fuzz_seconds", {{"host", "h"}});
  latency.observe(0.004);
  latency.observe(0.2);
  const std::string seed = registry.scrape();

  // Round trip: one sample per non-comment line, each one re-reading as
  // `name{labels} value` off its own line.
  std::vector<std::string> lines;
  for (const std::string& line : split_lines(seed))
    if (line[0] != '#') lines.push_back(line);
  const std::vector<obs::ParsedSample> samples = obs::parse_prometheus(seed);
  ASSERT_EQ(samples.size(), lines.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    const std::string head = samples[i].name + samples[i].labels + " ";
    ASSERT_EQ(lines[i].compare(0, head.size(), head), 0) << lines[i];
    EXPECT_EQ(samples[i].value, std::strtod(lines[i].c_str() + head.size(), nullptr))
        << lines[i];
  }
  bool counter_seen = false;
  for (const obs::ParsedSample& s : samples)
    if (s.name == "rave_fuzz_total" && s.labels == "{kind=\"a\"}" && s.value == 7)
      counter_seen = true;
  EXPECT_TRUE(counter_seen) << seed;
  // A value of only whitespace does not borrow the next line's number.
  EXPECT_TRUE(obs::parse_prometheus("rave_a \t\n5 x\n").empty());

  mutate_text(seed, 47, [](const std::string& text) {
    return decodes_line_by_line(text, obs::parse_prometheus, sample_key);
  });
}

// --- replica convergence ---------------------------------------------------------

scene::SceneUpdate random_update(SceneTree& authority, std::mt19937& rng) {
  const auto ids = authority.ids_depth_first();
  std::uniform_int_distribution<size_t> pick(0, ids.size() - 1);
  switch (rng() % 4) {
    case 0: {  // add
      scene::SceneNode node;
      node.id = authority.allocate_id();
      node.name = "n" + std::to_string(node.id);
      if (rng() % 2 == 0) node.payload = mesh::make_cone(0.1f, 0.2f, 6);
      return scene::SceneUpdate::add_node(ids[pick(rng)], std::move(node));
    }
    case 1:  // remove (may target root → refused identically everywhere)
      return scene::SceneUpdate::remove_node(ids[pick(rng)]);
    case 2:
      return scene::SceneUpdate::set_transform(
          ids[pick(rng)],
          util::Mat4::translate({static_cast<float>(rng() % 10), 0, 0}));
    default:
      return scene::SceneUpdate::reparent(ids[pick(rng)], ids[pick(rng)]);
  }
}

TEST(Property, ReplicasConvergeUnderRandomUpdateStream) {
  // The server-ordered update model: any stream of updates applied in the
  // same order to two replicas (through a serialize/deserialize hop, as on
  // the wire) yields identical trees.
  SceneTree authority;
  SceneTree replica;
  std::mt19937 rng(2026);
  int applied = 0;
  for (int i = 0; i < 400; ++i) {
    scene::SceneUpdate update = random_update(authority, rng);
    const util::Status on_authority = update.apply(authority);
    // Wire hop.
    util::ByteWriter w;
    scene::write_update(w, update);
    util::ByteReader r(w.data());
    auto decoded = scene::read_update(r);
    ASSERT_TRUE(decoded.ok());
    const util::Status on_replica = decoded.value().apply(replica);
    ASSERT_EQ(on_authority.ok(), on_replica.ok()) << "divergent acceptance at step " << i;
    if (on_authority.ok()) ++applied;
    replica.bump_next_id(authority.peek_next_id() - 1);
  }
  ASSERT_GT(applied, 100);
  // Structural equality via canonical serialization.
  EXPECT_EQ(scene::serialize_tree(authority), scene::serialize_tree(replica));
}

TEST(Property, TreeInvariantsSurviveRandomOps) {
  SceneTree tree;
  std::mt19937 rng(5);
  for (int i = 0; i < 500; ++i) (void)random_update(tree, rng).apply(tree);
  // Invariants: every node's parent exists and lists it exactly once; the
  // root is present; depth-first enumeration reaches every node.
  const auto ids = tree.ids_depth_first();
  EXPECT_EQ(ids.size(), tree.node_count());
  for (NodeId id : ids) {
    const scene::SceneNode* node = tree.find(id);
    ASSERT_NE(node, nullptr);
    if (id == kRootNode) continue;
    const scene::SceneNode* parent = tree.find(node->parent);
    ASSERT_NE(parent, nullptr);
    EXPECT_EQ(std::count(parent->children.begin(), parent->children.end(), id), 1);
  }
}

// --- tiles ------------------------------------------------------------------------

TEST(Property, TileSplitPartitionsAnyFrame) {
  std::mt19937 rng(11);
  for (int round = 0; round < 100; ++round) {
    const int w = 1 + static_cast<int>(rng() % 1920);
    const int h = 1 + static_cast<int>(rng() % 1080);
    const int count = 1 + static_cast<int>(rng() % 12);
    const auto tiles = render::split_tiles(w, h, count);
    ASSERT_EQ(static_cast<int>(tiles.size()), count);
    // Exact cover: area sums and no tile escapes the frame.
    uint64_t area = 0;
    for (const auto& t : tiles) {
      ASSERT_GE(t.x, 0);
      ASSERT_GE(t.y, 0);
      ASSERT_LE(t.right(), w);
      ASSERT_LE(t.bottom(), h);
      area += t.pixel_count();
    }
    ASSERT_EQ(area, static_cast<uint64_t>(w) * static_cast<uint64_t>(h))
        << w << "x" << h << " in " << count;
    // Pairwise disjoint.
    for (size_t a = 0; a < tiles.size(); ++a)
      for (size_t b = a + 1; b < tiles.size(); ++b) {
        const bool overlap = tiles[a].x < tiles[b].right() && tiles[b].x < tiles[a].right() &&
                             tiles[a].y < tiles[b].bottom() && tiles[b].y < tiles[a].bottom();
        ASSERT_FALSE(overlap && tiles[a].pixel_count() && tiles[b].pixel_count());
      }
  }
}

// --- codecs ------------------------------------------------------------------------

TEST(Property, LosslessCodecsRoundTripRandomImages) {
  std::mt19937 rng(21);
  for (int round = 0; round < 40; ++round) {
    const int w = 1 + static_cast<int>(rng() % 96);
    const int h = 1 + static_cast<int>(rng() % 96);
    render::Image img(w, h);
    // Mix of noise and runs to stress both RLE branches.
    uint8_t current = 0;
    for (auto& b : img.rgb) {
      if (rng() % 7 == 0) current = static_cast<uint8_t>(rng());
      b = current;
    }
    for (auto kind : {compress::CodecKind::Raw, compress::CodecKind::Rle,
                      compress::CodecKind::Delta}) {
      auto codec = compress::make_codec(kind);
      auto decoded = codec->decode(codec->encode(img, nullptr), nullptr);
      ASSERT_TRUE(decoded.ok()) << compress::codec_name(kind);
      ASSERT_EQ(decoded.value().rgb, img.rgb)
          << compress::codec_name(kind) << " " << w << "x" << h;
    }
  }
}

TEST(Property, DeltaChainsReconstructExactly) {
  // Arbitrary-length delta chains (keyframe + N deltas) decode exactly.
  std::mt19937 rng(31);
  auto codec = compress::make_codec(compress::CodecKind::Delta);
  render::Image prev_encoded(32, 32), prev_decoded(32, 32);
  bool have_prev = false;
  render::Image frame(32, 32);
  for (int step = 0; step < 20; ++step) {
    // Small random change.
    for (int i = 0; i < 10; ++i)
      frame.rgb[rng() % frame.rgb.size()] = static_cast<uint8_t>(rng());
    const auto encoded = codec->encode(frame, have_prev ? &prev_encoded : nullptr);
    auto decoded = codec->decode(encoded, have_prev ? &prev_decoded : nullptr);
    ASSERT_TRUE(decoded.ok()) << "step " << step;
    ASSERT_EQ(decoded.value().rgb, frame.rgb) << "step " << step;
    prev_encoded = frame;
    prev_decoded = decoded.value();
    have_prev = true;
  }
}

// --- framebuffer --------------------------------------------------------------------

TEST(Property, ExtractInsertIsIdentityOnRandomTiles) {
  std::mt19937 rng(41);
  render::FrameBuffer fb(64, 48);
  for (size_t i = 0; i < fb.color().size(); ++i) fb.color()[i] = static_cast<uint8_t>(rng());
  for (size_t i = 0; i < fb.depth().size(); ++i)
    fb.depth()[i] = static_cast<float>(rng() % 1000) / 1000.0f;
  for (int round = 0; round < 50; ++round) {
    const int x = static_cast<int>(rng() % 64);
    const int y = static_cast<int>(rng() % 48);
    const render::Tile tile{x, y, 1 + static_cast<int>(rng() % (64 - x)),
                            1 + static_cast<int>(rng() % (48 - y))};
    render::FrameBuffer copy = fb;
    copy.insert(tile, fb.extract(tile));
    ASSERT_EQ(copy.color(), fb.color());
    ASSERT_EQ(copy.depth(), fb.depth());
  }
}

TEST(Property, DepthCompositeIsOrderIndependentForDisjointDepths) {
  std::mt19937 rng(51);
  render::FrameBuffer a(16, 16), b(16, 16), c(16, 16);
  for (auto* fb : {&a, &b, &c}) {
    fb->clear({0, 0, 0});
    for (int i = 0; i < 40; ++i) {
      const int x = static_cast<int>(rng() % 16), y = static_cast<int>(rng() % 16);
      fb->set_pixel(x, y, static_cast<uint8_t>(rng()), static_cast<uint8_t>(rng()), 0);
      fb->set_depth(x, y, static_cast<float>(1 + rng() % 997) / 1000.0f);
    }
  }
  render::FrameBuffer abc = a;
  ASSERT_TRUE(render::depth_composite(abc, b).ok());
  ASSERT_TRUE(render::depth_composite(abc, c).ok());
  render::FrameBuffer cba = c;
  ASSERT_TRUE(render::depth_composite(cba, b).ok());
  ASSERT_TRUE(render::depth_composite(cba, a).ok());
  EXPECT_EQ(abc.depth(), cba.depth());
  EXPECT_EQ(abc.color(), cba.color());
}

}  // namespace
}  // namespace rave
