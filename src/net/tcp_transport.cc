#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/log.h"

namespace haocl::net {
namespace {

Status Errno(const std::string& what) {
  return Status(ErrorCode::kNetworkError, what + ": " + std::strerror(errno));
}

// Reads exactly `size` bytes; false on EOF/error.
bool ReadAll(int fd, void* buffer, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, p + done, size - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

// Writes every byte of `parts`, resuming after partial writes (a frame
// larger than the socket buffer goes out in several); false on error.
bool WriteAll(int fd, iovec* parts, int count) {
  for (;;) {
    while (count > 0 && parts->iov_len == 0) {
      ++parts;
      --count;
    }
    if (count == 0) return true;
    const ssize_t n = ::writev(fd, parts, count);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    for (auto done = static_cast<std::size_t>(n); done > 0;) {
      const std::size_t step = std::min(done, parts->iov_len);
      parts->iov_base = static_cast<std::uint8_t*>(parts->iov_base) + step;
      parts->iov_len -= step;
      done -= step;
      if (parts->iov_len == 0) {
        ++parts;
        --count;
      }
    }
  }
}

class TcpConnection : public Connection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~TcpConnection() override { Close(); }

  // One gathered write of the header, the payload and the tail in place:
  // none of them is copied into a frame buffer.
  Status Send(const Message& message) override {
    auto header = message.EncodeHeader();
    iovec parts[3] = {
        {header.data(), header.size()},
        {const_cast<std::uint8_t*>(message.payload.data()),
         message.payload.size()},
        {const_cast<std::uint8_t*>(message.tail.data()), message.tail.size()}};
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (closed_.load(std::memory_order_acquire)) {
      return Status(ErrorCode::kNodeUnreachable, "connection closed");
    }
    if (!WriteAll(fd_, parts, 3)) return Errno("send failed");
    bytes_sent_.fetch_add(message.WireSize(), std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  }

  // The reader parses each header, then reads the payload straight into
  // the message it hands to the handler.
  void Start(MessageHandler handler) override {
    reader_ = std::thread([this, handler = std::move(handler)] {
      std::uint8_t header[Message::kHeaderSize];
      while (!closed_.load(std::memory_order_acquire)) {
        if (!ReadAll(fd_, header, sizeof(header))) break;
        auto parsed = Message::ParseHeader(header, sizeof(header));
        if (!parsed.ok()) {
          HAOCL_WARN << "dropping connection: "
                     << parsed.status().ToString();
          break;
        }
        Message msg;
        msg.type = parsed->type;
        msg.seq = parsed->seq;
        msg.session = parsed->session;
        msg.payload.resize(parsed->payload_size);
        if (!ReadAll(fd_, msg.payload.data(), msg.payload.size())) break;
        handler(std::move(msg));
      }
    });
  }

  void Close() override {
    bool expected = false;
    if (closed_.compare_exchange_strong(expected, true)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
    if (reader_.joinable()) {
      if (reader_.get_id() == std::this_thread::get_id()) {
        reader_.detach();
      } else {
        reader_.join();
      }
    }
    // Close the fd exactly once, after the reader is done with it.
    int fd = fd_.exchange(-1);
    if (fd >= 0) ::close(fd);
  }

  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_sent() const override {
    return messages_sent_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> fd_;
  std::mutex write_mutex_;
  std::thread reader_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
};

}  // namespace

Expected<ConnectionPtr> TcpConnect(const std::string& address,
                                   std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status(ErrorCode::kInvalidValue, "bad address: " + address);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("connect to " + address + ":" + std::to_string(port));
    ::close(fd);
    return s;
  }
  return ConnectionPtr(std::make_unique<TcpConnection>(fd));
}

struct TcpListener::Impl {
  int listen_fd = -1;
  std::thread accept_thread;
  std::atomic<bool> running{false};
};

TcpListener::TcpListener(std::uint16_t port, std::string address)
    : impl_(std::make_unique<Impl>()),
      port_(port),
      address_(std::move(address)) {}

TcpListener::~TcpListener() { Stop(); }

Status TcpListener::Start(AcceptHandler handler) {
  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, address_.c_str(), &addr.sin_addr) != 1) {
    return Status(ErrorCode::kInvalidValue, "bad address: " + address_);
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind port " + std::to_string(port_));
  }
  if (::listen(impl_->listen_fd, 64) != 0) return Errno("listen");

  // Recover the ephemeral port if 0 was requested.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  impl_->running.store(true);
  impl_->accept_thread = std::thread([this, handler = std::move(handler)] {
    while (impl_->running.load(std::memory_order_acquire)) {
      const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (impl_->running.load()) {
          HAOCL_WARN << "accept failed: " << std::strerror(errno);
        }
        break;
      }
      handler(std::make_unique<TcpConnection>(fd));
    }
  });
  return Status::Ok();
}

void TcpListener::Stop() {
  if (impl_ == nullptr) return;
  if (impl_->running.exchange(false)) {
    ::shutdown(impl_->listen_fd, SHUT_RDWR);
    ::close(impl_->listen_fd);
  }
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
}

}  // namespace haocl::net
