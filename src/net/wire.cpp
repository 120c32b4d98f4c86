#include "net/wire.hpp"

#include "net/channel.hpp"

namespace rave::net::wire {

namespace {

template <typename T>
void put_le(uint8_t* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

template <typename T>
T get_le(const uint8_t* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  return v;
}

}  // namespace

size_t encode_header(const Message& message, uint8_t* out) {
  put_le(out, static_cast<uint32_t>(message.payload_size()));
  uint16_t type = message.type;
  size_t n = 6;
  if (message.traced()) {
    type |= kTracedFlag;
    put_le(out + n, message.trace_id);
    put_le(out + n + 8, message.span_id);
    n += 16;
  }
  if (message.hlc_stamped()) {
    type |= kHlcFlag;
    put_le(out + n, message.hlc_wall);
    put_le(out + n + 8, message.hlc_logical);
    n += 12;
  }
  put_le(out + 4, type);
  return n;
}

Parse parse_header(const uint8_t* data, size_t size, Header& out) {
  if (size < 6) return Parse::Incomplete;
  const auto length = get_le<uint32_t>(data);
  if (length > kMaxFrameBytes) return Parse::Malformed;
  const auto type = get_le<uint16_t>(data + 4);
  const bool traced = (type & kTracedFlag) != 0;
  const bool stamped = (type & kHlcFlag) != 0;
  const size_t n = header_size(traced, stamped);
  if (size < n) return Parse::Incomplete;
  out = Header{};
  out.type = static_cast<uint16_t>(type & ~(kTracedFlag | kHlcFlag));
  out.payload_bytes = length;
  out.size = n;
  if (traced) {
    out.trace_id = get_le<uint64_t>(data + 6);
    out.span_id = get_le<uint64_t>(data + 14);
  }
  if (stamped) {
    const uint8_t* h = data + (traced ? 22 : 6);
    out.hlc_wall = get_le<uint64_t>(h);
    out.hlc_logical = get_le<uint32_t>(h + 8);
  }
  return Parse::Ok;
}

}  // namespace rave::net::wire
