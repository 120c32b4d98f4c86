// TCP wire format — the one definition of how a Message is framed on a
// socket. Every integer is little-endian regardless of host byte order.
//
//   u32 payload length | u16 type [| u64 trace_id u64 span_id] [| u64 hlc_wall u32 hlc_logical]
//   | payload
//
// Real message types stay below 0x4000, so the two high type bits are
// free to flag the optional blocks: 0x8000 = traced (16 bytes), 0x4000 =
// HLC-stamped (12 bytes, after any trace block). A frame with neither
// flag is exactly the original 6-byte-header format. The length counts
// payload bytes only, never header bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rave::net {

struct Message;

namespace wire {

constexpr uint16_t kTracedFlag = 0x8000;
constexpr uint16_t kHlcFlag = 0x4000;

// A length beyond this is protocol corruption, not data: the reactor drops
// the connection rather than try to allocate it.
constexpr uint32_t kMaxFrameBytes = 1u << 30;

constexpr size_t header_size(bool traced, bool stamped) {
  return 6 + (traced ? 16 : 0) + (stamped ? 12 : 0);
}
constexpr size_t kMaxHeaderBytes = header_size(true, true);

// Write `message`'s frame header into `out` (room for kMaxHeaderBytes);
// returns its length. The payload and tail follow on the wire as-is.
size_t encode_header(const Message& message, uint8_t* out);

// A parsed frame header; `type` has the flag bits stripped.
struct Header {
  uint16_t type = 0;
  uint32_t payload_bytes = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t hlc_wall = 0;
  uint32_t hlc_logical = 0;
  size_t size = 0;  // header bytes on the wire; the payload starts here
};

enum class Parse : uint8_t {
  Incomplete,  // fewer bytes than the header needs: wait for more
  Malformed,   // length above kMaxFrameBytes: drop the connection
  Ok,          // `out` filled; the payload may still be in flight
};

// Parse the frame header at the front of `data`, reading at most `size` bytes.
Parse parse_header(const uint8_t* data, size_t size, Header& out);

}  // namespace wire
}  // namespace rave::net
