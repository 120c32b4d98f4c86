#include "net/buffer.hpp"

namespace rave::net {

namespace {
std::atomic<uint64_t> g_copies{0};
std::atomic<uint64_t> g_copied_bytes{0};

void note_copy(size_t bytes) {
  g_copies.fetch_add(1, std::memory_order_relaxed);
  g_copied_bytes.fetch_add(bytes, std::memory_order_relaxed);
}
}  // namespace

void Buffer::append_to(std::vector<uint8_t>& out) const {
  if (empty()) return;
  note_copy(size());
  out.insert(out.end(), data(), data() + size());
}

uint64_t Buffer::copy_count() { return g_copies.load(std::memory_order_relaxed); }
uint64_t Buffer::copied_bytes() { return g_copied_bytes.load(std::memory_order_relaxed); }

}  // namespace rave::net
