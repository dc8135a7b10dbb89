#include "net/sim_transport.h"

#include <utility>

namespace haocl::net {
namespace {

// Shared state of one direction of the channel.
struct Pipe {
  BlockingQueue<Message> queue;
};

class SimConnection : public Connection {
 public:
  SimConnection(std::shared_ptr<Pipe> tx, std::shared_ptr<Pipe> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  ~SimConnection() override { Close(); }

  Status Send(const Message& message) override {
    if (closed_.load(std::memory_order_acquire)) {
      return Status(ErrorCode::kNodeUnreachable, "connection closed");
    }
    if (tx_->queue.closed()) {
      return Status(ErrorCode::kNodeUnreachable, "peer closed");
    }
    bytes_sent_.fetch_add(message.WireSize(), std::memory_order_relaxed);
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    // The peer gets its own copy, tail appended to the payload as a
    // stream reader would see it; nothing borrowed outlives this call.
    Message delivered = message;
    delivered.payload.insert(delivered.payload.end(), message.tail.begin(),
                             message.tail.end());
    delivered.tail = {};
    tx_->queue.Push(std::move(delivered));
    return Status::Ok();
  }

  void Start(MessageHandler handler) override {
    dispatcher_ = std::thread([this, handler = std::move(handler)] {
      while (auto msg = rx_->queue.Pop()) {
        handler(*std::move(msg));
      }
    });
  }

  void Close() override {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) {
      // Already closed; still make sure the dispatcher is reaped when
      // Close() races with the destructor.
    }
    tx_->queue.Close();
    rx_->queue.Close();
    if (dispatcher_.joinable()) {
      if (dispatcher_.get_id() == std::this_thread::get_id()) {
        dispatcher_.detach();  // Close() from inside the handler.
      } else {
        dispatcher_.join();
      }
    }
  }

  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t messages_sent() const override {
    return messages_sent_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<Pipe> tx_;
  std::shared_ptr<Pipe> rx_;
  std::thread dispatcher_;
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_sent_{0};
};

}  // namespace

std::pair<ConnectionPtr, ConnectionPtr> CreateSimChannel() {
  auto a_to_b = std::make_shared<Pipe>();
  auto b_to_a = std::make_shared<Pipe>();
  auto a = std::make_unique<SimConnection>(a_to_b, b_to_a);
  auto b = std::make_unique<SimConnection>(b_to_a, a_to_b);
  return {std::move(a), std::move(b)};
}

SimListener::~SimListener() { Stop(); }

Status SimListener::Start(AcceptHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handler_ = std::move(handler);
  running_ = true;
  return Status::Ok();
}

void SimListener::Stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  handler_ = nullptr;
}

Expected<ConnectionPtr> SimListener::Connect() {
  AcceptHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) {
      return Status(ErrorCode::kNodeUnreachable, "listener not running");
    }
    handler = handler_;
  }
  auto [client, server] = CreateSimChannel();
  handler(std::move(server));
  return std::move(client);
}

}  // namespace haocl::net
