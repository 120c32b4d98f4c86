#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>

#include "net/reactor.hpp"

namespace rave::net {

using util::make_error;
using util::Result;

Result<ChannelPtr> tcp_connect(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error("tcp: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return make_error("tcp: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return make_error("tcp: connect to " + host + " failed: " + std::strerror(errno));
  }
  return Reactor::global().adopt(fd);
}

// Connections the reactor accepted, waiting for accept() to take them.
// Shared with the accept callback, which may outlive close() by one call.
struct TcpListener::Queue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<ChannelPtr> accepted;
  bool closed = false;
};

Result<std::unique_ptr<TcpListener>> TcpListener::bind(uint16_t port) {
  auto queue = std::make_shared<Queue>();
  auto listener = Reactor::global().listen(port, [queue](ChannelPtr channel) {
    std::lock_guard lock(queue->mu);
    if (queue->closed) return;  // dropping the channel closes it
    queue->accepted.push_back(std::move(channel));
    queue->cv.notify_all();
  });
  if (!listener.ok()) return make_error("tcp: " + listener.error());
  return std::unique_ptr<TcpListener>(
      new TcpListener(std::move(queue), std::move(listener).take()));
}

TcpListener::TcpListener(std::shared_ptr<Queue> queue, std::unique_ptr<ReactorListener> listener)
    : queue_(std::move(queue)), listener_(std::move(listener)), port_(listener_->port()) {}

TcpListener::~TcpListener() { close(); }

std::optional<ChannelPtr> TcpListener::accept(double timeout_seconds) {
  std::unique_lock lock(queue_->mu);
  const auto ready = [&] { return !queue_->accepted.empty() || queue_->closed; };
  if (!queue_->cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds), ready) ||
      queue_->accepted.empty())
    return std::nullopt;
  ChannelPtr channel = std::move(queue_->accepted.front());
  queue_->accepted.pop_front();
  return channel;
}

void TcpListener::close() {
  listener_->close();
  std::deque<ChannelPtr> unclaimed;  // closed as it goes out of scope, outside the lock
  std::lock_guard lock(queue_->mu);
  queue_->closed = true;
  unclaimed.swap(queue_->accepted);
  queue_->cv.notify_all();
}

}  // namespace rave::net
