// Reactor transport tests: endpoint parsing, zero-copy buffers, the raw
// wire bytes of every header flag combination, rich receive errors,
// services taking accepts from the reactor thread, and — the point of the
// bounded write queues — a slow or never-reading peer shedding per policy
// instead of stalling the publisher thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "core/data_service.hpp"
#include "core/protocol.hpp"
#include "core/render_service.hpp"
#include "net/buffer.hpp"
#include "net/channel.hpp"
#include "net/endpoint.hpp"
#include "net/fanout.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"

namespace rave::net {
namespace {

// ---------------------------------------------------------------- endpoint --

TEST(Endpoint, ParsesTcpAndRoundTrips) {
  auto ep = Endpoint::parse("tcp:127.0.0.1:9000");
  ASSERT_TRUE(ep.ok()) << ep.error();
  EXPECT_EQ(ep.value().scheme, Endpoint::Scheme::Tcp);
  EXPECT_EQ(ep.value().host, "127.0.0.1");
  EXPECT_EQ(ep.value().port, 9000);
  EXPECT_EQ(ep.value().to_string(), "tcp:127.0.0.1:9000");
  EXPECT_EQ(ep.value(), Endpoint::tcp("127.0.0.1", 9000));
}

TEST(Endpoint, ParsesInProcAndRoundTrips) {
  auto ep = Endpoint::parse("inproc:tower/render0");
  ASSERT_TRUE(ep.ok()) << ep.error();
  EXPECT_EQ(ep.value().scheme, Endpoint::Scheme::InProc);
  EXPECT_EQ(ep.value().name, "tower/render0");
  EXPECT_EQ(ep.value().to_string(), "inproc:tower/render0");
}

TEST(Endpoint, ErrorsCarryTheOffendingString) {
  for (const char* bad : {"", "tcp:", "tcp:127.0.0.1", "tcp:host:notaport", "tcp:host:0",
                          "tcp:host:70000", "http://x", "inproc:"}) {
    auto ep = Endpoint::parse(bad);
    EXPECT_FALSE(ep.ok()) << "accepted: " << bad;
  }
  auto ep = Endpoint::parse("tcp:10.0.0.1:nope");
  ASSERT_FALSE(ep.ok());
  EXPECT_NE(ep.error().find("tcp:10.0.0.1:nope"), std::string::npos) << ep.error();
}

// ------------------------------------------------------------------ buffer --

TEST(Buffer, TakeAdoptsWithoutCopying) {
  const uint64_t before = Buffer::copy_count();
  std::vector<uint8_t> bytes(1024, 0xAB);
  const uint8_t* raw = bytes.data();
  Buffer buffer = Buffer::take(std::move(bytes));
  Buffer alias = buffer;  // refcount bump, not a copy
  EXPECT_EQ(buffer.data(), raw);
  EXPECT_EQ(alias.data(), raw);
  EXPECT_EQ(alias.size(), 1024u);
  EXPECT_EQ(Buffer::copy_count(), before);
}

TEST(Buffer, MaterializeIsACountedCopy) {
  Message msg(7, {1, 2, 3}, Buffer::take({4, 5, 6, 7}));
  EXPECT_EQ(msg.payload_size(), 7u);
  EXPECT_EQ(msg.wire_size(), 13u);  // 6-byte frame header + 7 payload bytes
  const uint64_t copies = Buffer::copy_count();
  const uint64_t bytes = Buffer::copied_bytes();
  msg.materialize();
  EXPECT_EQ(msg.payload, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(msg.tail.empty());
  EXPECT_EQ(Buffer::copy_count(), copies + 1);
  EXPECT_EQ(Buffer::copied_bytes(), bytes + 4);
}

TEST(Buffer, InProcDeliveryMaterializesTheTail) {
  auto [a, b] = make_channel_pair();
  ASSERT_TRUE(a->send(Message(9, {1, 2}, Buffer::take({3, 4, 5}))).ok());
  auto msg = b->try_receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(msg->tail.empty());
}

// ------------------------------------------------------------- raw harness --

// A plain kernel socket peer the reactor talks to: accepts one connection
// and then reads only when the test says so. Small buffers make kernel
// backpressure reachable with modest payloads.
struct RawPeer {
  int listen_fd = -1;
  int conn_fd = -1;
  uint16_t port = 0;

  void start() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::listen(listen_fd, 4), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    port = ntohs(addr.sin_port);
  }

  void accept_one() {
    conn_fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn_fd, 0);
  }

  std::vector<uint8_t> read_exactly(size_t n) {
    std::vector<uint8_t> out(n);
    size_t off = 0;
    while (off < n) {
      const ssize_t r = ::recv(conn_fd, out.data() + off, n - off, 0);
      if (r <= 0) break;
      off += static_cast<size_t>(r);
    }
    out.resize(off);
    return out;
  }

  // Drain and discard until EOF (frees a wedged sender).
  void drain_all() {
    uint8_t sink[65536];
    while (::recv(conn_fd, sink, sizeof(sink), 0) > 0) {
    }
  }

  ~RawPeer() {
    if (conn_fd >= 0) ::close(conn_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

// Connect a reactor channel to `port` with a deliberately small kernel
// send buffer, so write-queue backpressure engages within a few hundred
// kilobytes instead of megabytes.
ChannelPtr reactor_connect(uint16_t port, const ReactorChannelOptions& opts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int small = 32 * 1024;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return Reactor::global().adopt(fd, opts);
}

// {server end (accepted), client end (dialed)} of one loopback connection.
// Null ends on failure; callers assert.
std::pair<ChannelPtr, ChannelPtr> tcp_pair() {
  auto listener = TcpListener::bind(0);
  if (!listener.ok()) return {};
  auto dialed = tcp_connect("127.0.0.1", listener.value()->port());
  if (!dialed.ok()) return {};
  return {listener.value()->accept(5.0).value_or(nullptr), std::move(dialed).take()};
}

// --------------------------------------------------------------- reactor ----

TEST(Reactor, EchoAndTraceRoundTripOverEventLoop) {
  auto [server, client] = tcp_pair();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);

  Message out(0x0133, {1, 2, 3}, Buffer::take({4, 5}));
  out.trace_id = 0xDEADBEEF;
  out.span_id = 77;
  ASSERT_TRUE(client->send(std::move(out)).ok());

  auto got = server->receive_result(5.0);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().type, 0x0133);
  EXPECT_EQ(got.value().payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(got.value().trace_id, 0xDEADBEEFu);
  EXPECT_EQ(got.value().span_id, 77u);

  ASSERT_TRUE(server->send(Message(0x0101, {9})).ok());
  auto reply = client->receive_result(5.0);
  ASSERT_TRUE(reply.ok()) << reply.error();
  EXPECT_EQ(reply.value().type, 0x0101);

  client->close();
  server->close();
}

TEST(Reactor, ReceiveErrorsDistinguishTimeoutFromPeerClose) {
  auto listener = TcpListener::bind(0);
  ASSERT_TRUE(listener.ok()) << listener.error();
  ChannelPtr client = reactor_connect(listener.value()->port(), {});
  auto server = listener.value()->accept(5.0).value_or(nullptr);
  ASSERT_NE(server, nullptr);

  auto nothing = client->receive_result(0.02);
  ASSERT_FALSE(nothing.ok());
  EXPECT_NE(nothing.error().find("timed out"), std::string::npos) << nothing.error();

  server->close();
  auto closed = client->receive_result(5.0);
  ASSERT_FALSE(closed.ok());
  EXPECT_NE(closed.error().find("closed by peer"), std::string::npos) << closed.error();
  EXPECT_FALSE(client->send(Message(1, {1})).ok());
  client->close();
}

TEST(Reactor, UntracedWireBytesMatchSpec) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  // Untraced frame with a tail: 4-byte LE length (payload+tail), 2-byte
  // LE type, then the bytes — the original 6-byte-header format.
  ASSERT_TRUE(client->send(Message(0x0142, {10, 11}, Buffer::take({12, 13, 14}))).ok());
  const std::vector<uint8_t> expected = {5, 0, 0, 0, 0x42, 0x01, 10, 11, 12, 13, 14};
  EXPECT_EQ(peer.read_exactly(expected.size()), expected);
  client->close();
}

TEST(Reactor, HlcStampedWireBytesMatchSpec) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  // Stamped frame: length excludes headers, the type carries the 0x4000
  // flag, then wall micros (u64 LE) + logical (u32 LE) before the payload.
  Message msg(0x0142, {10, 11});
  msg.hlc_wall = 0x0102030405060708ull;
  msg.hlc_logical = 0x0A0B0C0Du;
  ASSERT_TRUE(client->send(std::move(msg)).ok());
  const std::vector<uint8_t> expected = {2,    0,    0,    0,           // length
                                         0x42, 0x41,                    // type | 0x4000
                                         8,    7,    6,    5, 4, 3, 2, 1,  // wall LE
                                         0x0D, 0x0C, 0x0B, 0x0A,        // logical LE
                                         10,   11};
  EXPECT_EQ(peer.read_exactly(expected.size()), expected);
  client->close();
}

TEST(Reactor, TracedWireBytesMatchSpec) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  // Traced frame: the type carries the 0x8000 flag, then trace_id and
  // span_id (u64 LE each) before the payload.
  Message msg(0x0142, {10, 11});
  msg.trace_id = 0x1112131415161718ull;
  msg.span_id = 0x2122232425262728ull;
  ASSERT_TRUE(client->send(std::move(msg)).ok());
  const std::vector<uint8_t> expected = {
      2,    0,    0,    0,                                // length
      0x42, 0x81,                                         // type | 0x8000
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,     // trace LE
      0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,     // span LE
      10,   11};
  EXPECT_EQ(peer.read_exactly(expected.size()), expected);
  client->close();
}

TEST(Reactor, TracedHlcWireBytesMatchSpec) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  // Both blocks: type | 0x8000 | 0x4000, the trace block first, then the
  // HLC stamp, then the payload (prefix and tail alike).
  Message msg(0x0142, {10}, Buffer::take({11}));
  msg.trace_id = 0x1112131415161718ull;
  msg.span_id = 0x2122232425262728ull;
  msg.hlc_wall = 0x0102030405060708ull;
  msg.hlc_logical = 0x0A0B0C0Du;
  ASSERT_TRUE(client->send(std::move(msg)).ok());
  const std::vector<uint8_t> expected = {
      2,    0,    0,    0,                                // length
      0x42, 0xC1,                                         // type | 0x8000 | 0x4000
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,     // trace LE
      0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21,     // span LE
      8,    7,    6,    5,    4,    3,    2,    1,        // wall LE
      0x0D, 0x0C, 0x0B, 0x0A,                             // logical LE
      10,   11};
  EXPECT_EQ(peer.read_exactly(expected.size()), expected);
  client->close();
}

TEST(Reactor, TraceAndHlcCoexistOverEventLoop) {
  auto [server, client] = tcp_pair();
  ASSERT_NE(server, nullptr);
  ASSERT_NE(client, nullptr);

  Message out(0x0133, {1, 2, 3}, Buffer::take({4, 5}));
  out.trace_id = 0xDEADBEEF;
  out.span_id = 77;
  out.hlc_wall = 123'456'789;
  out.hlc_logical = 6;
  ASSERT_TRUE(client->send(std::move(out)).ok());

  auto got = server->receive_result(5.0);
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value().type, 0x0133);
  EXPECT_EQ(got.value().payload, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(got.value().trace_id, 0xDEADBEEFu);
  EXPECT_EQ(got.value().span_id, 77u);
  EXPECT_EQ(got.value().hlc_wall, 123'456'789u);
  EXPECT_EQ(got.value().hlc_logical, 6u);
  client->close();
  server->close();
}

TEST(Reactor, ZeroCopiesFromEncodeToSocket) {
  RawPeer peer;
  peer.start();
  ChannelPtr client = reactor_connect(peer.port, {});
  peer.accept_one();

  std::vector<uint8_t> encoded(64 * 1024);
  std::iota(encoded.begin(), encoded.end(), 0);
  Buffer tail = Buffer::take(std::move(encoded));  // adopt: not a copy

  const uint64_t copies_before = Buffer::copy_count();
  Message msg(0x0133, {1, 2, 3, 4}, tail);
  ASSERT_TRUE(client->send(std::move(msg)).ok());
  auto wire = peer.read_exactly(6 + 4 + tail.size());
  ASSERT_EQ(wire.size(), 6 + 4 + tail.size());
  EXPECT_TRUE(std::equal(tail.data(), tail.data() + tail.size(), wire.begin() + 10));
  // The acceptance hook: between handing the encoded block to the Message
  // and the kernel seeing it, zero byte duplications happened.
  EXPECT_EQ(Buffer::copy_count(), copies_before);
  client->close();
}

TEST(Reactor, StalledPeerShedsNewestWithoutBlockingPublisher) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 4;
  opts.shed_policy = ShedPolicy::DropNewest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();  // accepted but never read: kernel buffers fill

  auto& reg = obs::MetricsRegistry::global();
  const double shed_before = static_cast<double>(reg.counter("rave_net_sends_shed_total").value());

  const auto start = std::chrono::steady_clock::now();
  size_t refused = 0;
  for (int i = 0; i < 24; ++i)
    if (!client->send(Message(1, std::vector<uint8_t>(128 * 1024))).ok()) ++refused;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // 3 MiB against a ~300 KiB kernel pipe and a 4-frame queue: most sends
  // must shed, and none may stall the caller.
  EXPECT_GT(refused, 0u);
  EXPECT_EQ(client->stats().messages_shed, refused);
  EXPECT_LT(elapsed, 2.0) << "publisher thread blocked on a stalled subscriber";
  EXPECT_GE(static_cast<double>(reg.counter("rave_net_sends_shed_total").value()),
            shed_before + static_cast<double>(refused));
  EXPECT_TRUE(client->is_open());

  // The stall is the subscriber's problem, not the session's: once the
  // peer drains, the same channel delivers again. Retry while the loop
  // thread flushes the backlog into the newly-draining socket.
  std::thread drainer([&] { peer.drain_all(); });
  bool delivered = false;
  for (int i = 0; i < 500 && !delivered; ++i) {
    delivered = client->send(Message(2, {42})).ok();
    if (!delivered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(delivered);
  client->close();  // linger: flush queued frames, then FIN → drain_all sees EOF
  drainer.join();
}

TEST(Reactor, DropOldestPrefersFreshFrames) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 2;
  opts.shed_policy = ShedPolicy::DropOldest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();

  size_t accepted = 0;
  for (int i = 0; i < 16; ++i)
    if (client->send(Message(1, std::vector<uint8_t>(128 * 1024))).ok()) ++accepted;
  // Evicting the oldest makes room for the new frame: sends keep
  // succeeding even though the queue stays bounded.
  EXPECT_GT(accepted, 12u);
  EXPECT_GT(client->stats().messages_shed, 0u);

  std::thread drainer([&] { peer.drain_all(); });
  client->close();
  drainer.join();
}

TEST(Reactor, BlockPolicyWaitsAndCloseUnblocks) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 1;
  opts.shed_policy = ShedPolicy::Block;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread sender([&] {
    for (int i = 0; i < 16; ++i)
      if (!client->send(Message(1, std::vector<uint8_t>(128 * 1024))).ok()) ++failures;
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(done.load()) << "Block policy did not block against a stalled peer";
  client->close();  // unblocks the waiting send with a channel-closed error
  sender.join();
  EXPECT_TRUE(done.load());
  EXPECT_GT(failures.load(), 0);
  peer.drain_all();
}

TEST(Reactor, WriteQueueDepthGaugeReturnsToBaseline) {
  auto& gauge = obs::MetricsRegistry::global().gauge("rave_net_write_queue_depth");
  const double before = gauge.value();
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 64;
  opts.shed_policy = ShedPolicy::DropNewest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();
  for (int i = 0; i < 8; ++i) (void)client->send(Message(1, std::vector<uint8_t>(64 * 1024)));
  std::thread drainer([&] { peer.drain_all(); });
  client->close();  // flush + retire drops any remaining queue entries
  drainer.join();
  for (int i = 0; i < 100 && gauge.value() != before; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_DOUBLE_EQ(gauge.value(), before);
}

TEST(Reactor, PerChannelStatsAttributeQueueResidency) {
  RawPeer peer;
  peer.start();
  ReactorChannelOptions opts;
  opts.write_queue_limit = 64;
  opts.shed_policy = ShedPolicy::DropNewest;
  ChannelPtr client = reactor_connect(peer.port, opts);
  peer.accept_one();  // accepted but not yet reading: frames queue up

  auto& hist = obs::MetricsRegistry::global().histogram("rave_net_queue_wait_seconds");
  const uint64_t observed_before = hist.count();

  // 8 × 64 KiB against a 32 KiB kernel buffer: after the first frame the
  // socket is full, so the rest must sit in the user-space queue together.
  for (int i = 0; i < 8; ++i) (void)client->send(Message(1, std::vector<uint8_t>(64 * 1024)));
  EXPECT_GE(client->stats().queue_peak_depth, 2u);

  // Let the peer drain; every flushed frame adds its enqueue→sendmsg wait
  // to this channel's attribution (and the process-wide histogram).
  std::thread drainer([&] { peer.drain_all(); });
  double waited = 0;
  for (int i = 0; i < 500 && waited == 0; ++i) {
    waited = client->stats().queue_wait_seconds;
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(waited, 0.0) << "no queue wait attributed to the stalled channel";
  EXPECT_GT(hist.count(), observed_before);
  client->close();
  drainer.join();
}

TEST(Reactor, FanoutHubSharesOneTailAcrossSubscribers) {
  RawPeer peer_a;
  RawPeer peer_b;
  peer_a.start();
  peer_b.start();
  ChannelPtr sub_a = reactor_connect(peer_a.port, {});
  ChannelPtr sub_b = reactor_connect(peer_b.port, {});
  peer_a.accept_one();
  peer_b.accept_one();

  FanoutHub hub;
  hub.subscribe(sub_a);
  hub.subscribe(sub_b);

  Buffer tail = Buffer::take(std::vector<uint8_t>(32 * 1024, 0xCD));
  const uint64_t copies_before = Buffer::copy_count();
  EXPECT_EQ(hub.publish(Message(0x0133, {1}, tail)), 2u);
  // One encode, two subscribers, zero duplications of the encoded bytes.
  EXPECT_EQ(Buffer::copy_count(), copies_before);
  EXPECT_EQ(peer_a.read_exactly(6 + 1 + tail.size()).size(), 6 + 1 + tail.size());
  EXPECT_EQ(peer_b.read_exactly(6 + 1 + tail.size()).size(), 6 + 1 + tail.size());
  sub_a->close();
  sub_b->close();
}

// -------------------------------------------------------- service accepts --

// TcpFabric runs accept callbacks on the reactor thread while the services
// walk their channel lists in pump() on this one. Under -DRAVE_SANITIZE=
// thread this is the race check; in every build, each connection dialed
// mid-pump must still be taken up and served.
TEST(ReactorAccept, ServicesPumpWhileAnotherThreadDials) {
  util::RealClock clock;
  core::TcpFabric fabric;
  core::DataService data(clock);
  core::RenderService render(clock, fabric);
  auto data_ap = fabric.listen("data", [&data](ChannelPtr ch) { data.accept(std::move(ch)); });
  auto clients_ap = render.listen_clients("render/clients");
  auto peer_ap = render.listen_peer("render/peer");
  ASSERT_TRUE(data_ap.ok() && clients_ap.ok() && peer_ap.ok());

  // Subscribers to an unknown session (answered with a refusal by both
  // services) and render peers (their message is counted, not answered).
  constexpr size_t kDials = 8;
  std::vector<ChannelPtr> subscribers;
  std::vector<ChannelPtr> peers;
  std::atomic<bool> dialing{true};
  std::thread dialer([&] {
    core::SubscribeRequest request;
    request.session = "no-such-session";
    for (size_t i = 0; i < kDials; ++i) {
      for (const std::string& ap : {data_ap.value(), clients_ap.value()}) {
        auto ch = fabric.dial(ap);
        if (!ch.ok() || !ch.value()->send(core::encode(request)).ok()) continue;
        subscribers.push_back(std::move(ch).take());
      }
      auto ch = fabric.dial(peer_ap.value());
      if (!ch.ok() || !ch.value()->send(Message(core::kMsgTileAssign, {})).ok()) continue;
      peers.push_back(std::move(ch).take());
    }
    dialing = false;
  });
  size_t handled = 0;
  while (dialing.load()) handled += data.pump() + render.pump();
  dialer.join();
  ASSERT_EQ(subscribers.size(), 2 * kDials);
  ASSERT_EQ(peers.size(), kDials);

  size_t refused = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((handled < 3 * kDials || refused < subscribers.size()) &&
         std::chrono::steady_clock::now() < deadline) {
    handled += data.pump() + render.pump();
    for (const ChannelPtr& ch : subscribers)
      if (auto msg = ch->try_receive()) refused += msg->type == core::kMsgRefusal ? 1 : 0;
  }
  EXPECT_EQ(handled, 3 * kDials);
  EXPECT_EQ(refused, subscribers.size());
  for (const char* name : {"data", "render/clients", "render/peer"}) fabric.unlisten(name);
}

// ---------------------------------------------------------------- fanout ----

TEST(FanoutRelay, CountsUpstreamForwardFailures) {
  auto [relay_end, publisher_end] = make_channel_pair();
  FanoutRelay relay(relay_end);
  auto [sub_hub_end, sub_client_end] = make_channel_pair();
  relay.hub().subscribe(sub_hub_end);

  // A healthy upstream forwards cleanly.
  ASSERT_TRUE(sub_client_end->send(Message(0x0135, {1})).ok());
  relay.pump();
  EXPECT_EQ(relay.stats().requests_forwarded, 1u);
  EXPECT_EQ(relay.stats().upstream_errors, 0u);
  EXPECT_TRUE(publisher_end->try_receive().has_value());

  // Kill the upstream: the forward now fails, and the failure is counted
  // instead of vanishing into (void).
  const uint64_t counter_before =
      obs::MetricsRegistry::global().counter("rave_relay_upstream_errors_total").value();
  publisher_end->close();
  ASSERT_TRUE(sub_client_end->send(Message(0x0135, {2})).ok());
  relay.pump();
  EXPECT_EQ(relay.stats().requests_forwarded, 2u);
  EXPECT_EQ(relay.stats().upstream_errors, 1u);
  EXPECT_EQ(obs::MetricsRegistry::global().counter("rave_relay_upstream_errors_total").value(),
            counter_before + 1);
}

}  // namespace
}  // namespace rave::net
