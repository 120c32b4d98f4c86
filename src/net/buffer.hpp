// Zero-copy payload buffers. An encoded tile must travel from the codec
// through FanoutHub to the socket without being memcpy'd per subscriber:
// Buffer is an immutable, reference-counted byte block. Copying a Buffer
// bumps a refcount; the only
// way to duplicate the bytes is an explicit materialization, and every
// materialization increments a process-wide counter so tests can assert
// that a publish → writev path stayed copy-free (ISSUE 7 acceptance).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace rave::net {

class Buffer {
 public:
  Buffer() = default;

  // Adopt `bytes` without copying (the codec's serialize() output moves
  // straight in).
  static Buffer take(std::vector<uint8_t> bytes) {
    Buffer b;
    if (!bytes.empty())
      b.bytes_ = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    return b;
  }

  [[nodiscard]] const uint8_t* data() const { return bytes_ ? bytes_->data() : nullptr; }
  [[nodiscard]] size_t size() const { return bytes_ ? bytes_->size() : 0; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  // Append this buffer's bytes to `out` — counted as a copy (the escape
  // hatch for receive-side materialization).
  void append_to(std::vector<uint8_t>& out) const;

  [[nodiscard]] bool operator==(const Buffer& other) const {
    if (size() != other.size()) return false;
    return size() == 0 || std::equal(data(), data() + size(), other.data());
  }

  // --- copy instrumentation -------------------------------------------------
  // Process-wide count of byte duplications involving buffers. The
  // zero-copy test hook: snapshot, run encode → publish → writev, assert
  // the delta is zero.
  static uint64_t copy_count();
  static uint64_t copied_bytes();

 private:
  std::shared_ptr<const std::vector<uint8_t>> bytes_;
};

}  // namespace rave::net
