#include "core/thin_client.hpp"

#include "obs/trace.hpp"

namespace rave::core {

using scene::Camera;
using scene::NodeId;
using util::make_error;
using util::Result;
using util::Status;

ThinClient::ThinClient(util::Clock& clock, Fabric& fabric, sim::MachineProfile profile)
    : clock_(&clock), fabric_(&fabric), profile_(std::move(profile)) {}

Status ThinClient::connect(const std::string& render_access_point, const std::string& session) {
  auto channel = fabric_->dial(render_access_point);
  if (!channel.ok()) return make_error(channel.error());
  channel_ = std::move(channel).take();
  SubscribeRequest request;
  request.session = session;
  request.kind = SubscriberKind::ActiveClient;
  request.host = profile_.name;
  const Status sent = channel_->send(encode(request));
  if (!sent.ok()) return sent;
  session_ = session;
  connected_ = true;
  return {};
}

Status ThinClient::subscribe_stream(compress::QualityClass quality,
                                    FrameStreamOptions options) {
  if (!connected_) return make_error("thin client: not connected");
  receiver_ = std::make_unique<FrameStreamReceiver>(channel_, quality, options);
  return channel_->send(encode(StreamSubscribeMsg{session_, quality}));
}

Result<render::Image> ThinClient::next_stream_frame(double timeout_seconds,
                                                    const std::function<void()>& pump) {
  if (!connected_) return make_error("thin client: not connected");
  if (!receiver_) return make_error("thin client: subscribe_stream first");
  // The receiver's decode and assemble spans are this client's work; the
  // services `pump` drives label their own.
  const obs::ScopedHost host(profile_.name);
  auto frame = receiver_->next_frame(*clock_, timeout_seconds, pump);
  if (!frame.ok()) return frame;
  // The PDA-side unpack cost applies to streamed frames just like pulled
  // ones (paper §5.1 "other overheads").
  const uint64_t pixels = static_cast<uint64_t>(frame.value().width) *
                          static_cast<uint64_t>(frame.value().height);
  const double unpack = profile_.pixel_unpack_rate > 0
                            ? static_cast<double>(pixels) / profile_.pixel_unpack_rate
                            : 0.0;
  clock_->sleep_for(unpack);
  return frame;
}

Result<render::Image> ThinClient::request_frame(const Camera& camera, int width, int height,
                                                double timeout_seconds,
                                                const std::function<void()>& pump) {
  if (!connected_) return make_error("thin client: not connected");
  FrameRequest request;
  request.camera = camera;
  request.width = width;
  request.height = height;
  request.allow_compression = allow_compression_;
  request.request_id = next_request_id_++;
  const double t0 = clock_->now();
  // The per-frame trace starts here: the root span covers the whole
  // request round-trip, and its context rides the FrameRequest so every
  // service that touches this frame parents its spans under it.
  obs::ScopedSpan frame_span = obs::ScopedSpan::root("frame", profile_.name);
  net::Message wire = encode(request);
  stamp_trace(wire);
  const Status sent = channel_->send(wire);
  if (!sent.ok()) return make_error(sent.error());

  const double deadline = clock_->now() + timeout_seconds;
  while (clock_->now() < deadline) {
    if (pump) pump();
    auto msg = channel_->receive(pump ? 0.005 : timeout_seconds);
    if (!msg.has_value()) continue;
    if (msg->type == kMsgRefusal) {
      auto refusal = decode_refusal(*msg);
      return make_error(refusal.ok() ? refusal.value().reason : "refused");
    }
    if (msg->type == kMsgSubscribeAck || msg->type == kMsgAvatarAck) continue;
    if (msg->type != kMsgFrame) continue;
    auto frame = decode_frame(*msg);
    if (!frame.ok()) return make_error(frame.error());
    if (frame.value().request_id != request.request_id) continue;  // stale frame

    const double received_at = clock_->now();
    auto encoded = compress::EncodedImage::deserialize(frame.value().encoded_image);
    if (!encoded.ok()) return make_error(encoded.error());
    auto image = [&] {
      obs::ScopedSpan decode_span("decode", profile_.name);
      return decoder_.decode(encoded.value());
    }();
    if (!image.ok()) return make_error(image.error());

    // Client-side unpack/blit cost (the PDA's 0.047 s "other overheads").
    const uint64_t pixels = static_cast<uint64_t>(width) * static_cast<uint64_t>(height);
    const double unpack =
        profile_.pixel_unpack_rate > 0 ? static_cast<double>(pixels) / profile_.pixel_unpack_rate
                                       : 0.0;
    clock_->sleep_for(unpack);

    stats_.render_seconds = frame.value().render_seconds;
    stats_.client_seconds = unpack;
    stats_.image_bytes = frame.value().encoded_image.size();
    stats_.codec = encoded.value().codec;
    stats_.total_latency = clock_->now() - t0;
    stats_.receipt_seconds =
        std::max(0.0, received_at - t0 - stats_.render_seconds);
    return std::move(image).take();
  }
  return make_error("thin client: frame request timed out");
}

Result<NodeId> ThinClient::create_avatar(const std::string& user_name, double timeout_seconds,
                                         const std::function<void()>& pump,
                                         const scene::Camera& initial_view) {
  if (!connected_) return make_error("thin client: not connected");
  scene::AvatarData avatar;
  avatar.user_name = user_name;
  scene::SceneNode node;
  node.id = scene::kInvalidNode;  // allocated by the data service
  node.name = "avatar:" + user_name + "@" + profile_.name;
  node.transform = initial_view.avatar_transform();
  node.payload = std::move(avatar);
  ClientUpdateMsg update{scene::SceneUpdate::add_node(scene::kRootNode, std::move(node))};
  const std::string wanted = update.update.new_node.name;
  const Status sent = channel_->send(encode(update));
  if (!sent.ok()) return make_error(sent.error());

  const double deadline = clock_->now() + timeout_seconds;
  while (clock_->now() < deadline) {
    if (pump) pump();
    auto msg = channel_->receive(pump ? 0.005 : timeout_seconds);
    if (!msg.has_value()) continue;
    if (msg->type != kMsgAvatarAck) continue;
    auto ack = decode_avatar_ack(*msg);
    if (ack.ok() && ack.value().name == wanted) return ack.value().node;
  }
  return make_error("thin client: avatar creation timed out");
}

Status ThinClient::move_avatar(NodeId avatar, const Camera& camera) {
  return send_update(scene::SceneUpdate::set_transform(avatar, camera.avatar_transform()));
}

Status ThinClient::send_update(scene::SceneUpdate update) {
  if (!connected_) return make_error("thin client: not connected");
  return channel_->send(encode(ClientUpdateMsg{std::move(update)}));
}

void ThinClient::disconnect() {
  if (channel_) channel_->close();
  connected_ = false;
}

}  // namespace rave::core
