// Real TCP transport (loopback or LAN) — the "direct socket communication"
// the paper drops to for bulk data after SOAP-based subscription (§4.3).
// Every connection runs on the process-wide reactor (reactor.hpp) and is
// framed per wire.hpp. These are the blocking conveniences over it: dial
// an address, or bind a listener and accept connections one at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/channel.hpp"

namespace rave::net {

class ReactorListener;

// Connect to a listening RAVE endpoint.
util::Result<ChannelPtr> tcp_connect(const std::string& host, uint16_t port);

class TcpListener {
 public:
  // Bind to 127.0.0.1:`port`; port 0 picks an ephemeral port.
  static util::Result<std::unique_ptr<TcpListener>> bind(uint16_t port = 0);

  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] uint16_t port() const { return port_; }

  // Take the next connection the reactor accepted; nullopt on timeout.
  std::optional<ChannelPtr> accept(double timeout_seconds);

  // Stop listening; connections accepted but not yet taken are closed.
  void close();

 private:
  struct Queue;
  TcpListener(std::shared_ptr<Queue> queue, std::unique_ptr<ReactorListener> listener);
  std::shared_ptr<Queue> queue_;
  std::unique_ptr<ReactorListener> listener_;
  uint16_t port_ = 0;
};

}  // namespace rave::net
