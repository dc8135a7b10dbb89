// Request/response matching over a Connection.
//
// The paper's host process "sends a message through the message listener,
// [then] waits for the response message and takes the next action" — a
// synchronous RPC. Device-node listeners are asynchronous. RpcClient gives
// the host both styles: Call() blocks, CallAsync() pipelines (the ablation
// benchmark measures the difference).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>

#include "common/sync.h"
#include "net/transport.h"

namespace haocl::net {

class RpcClient {
 public:
  // Takes ownership of the connection and starts its dispatcher.
  explicit RpcClient(ConnectionPtr connection);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  using ReplyFuture = std::shared_ptr<Promise<Expected<Message>>>;

  // Sends a request and returns a future the caller can Wait() on.
  // When a call timeout is configured (SetCallTimeout), the future fails
  // with kNodeLost if no reply arrives within the deadline — a hung or
  // dead peer can no longer park a CallAsync waiter forever.
  // `tail` goes on the wire right after `payload` (Message::tail); it is
  // sent before CallAsync returns and never read after.
  ReplyFuture CallAsync(MsgType type, std::uint64_t session,
                        std::vector<std::uint8_t> payload,
                        std::span<const std::uint8_t> tail = {});

  // Arms a per-call deadline on every subsequent CallAsync/Call: a pending
  // RPC unanswered for `timeout` fails with kNodeLost (the liveness
  // layer's signal that the peer is gone). Zero disables (the default, the
  // legacy wait-forever behaviour for async callers).
  void SetCallTimeout(std::chrono::milliseconds timeout);

  static constexpr std::chrono::milliseconds kDefaultCallTimeout{30000};

  // Synchronous convenience: send and wait (with timeout). `tail` as for
  // CallAsync.
  Expected<Message> Call(MsgType type, std::uint64_t session,
                         std::vector<std::uint8_t> payload,
                         std::chrono::milliseconds timeout =
                             kDefaultCallTimeout,
                         std::span<const std::uint8_t> tail = {});

  // One-way message (no reply expected), e.g. shutdown.
  Status Notify(MsgType type, std::uint64_t session,
                std::vector<std::uint8_t> payload);

  void Close();

  [[nodiscard]] std::uint64_t bytes_sent() const {
    return connection_->bytes_sent();
  }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return connection_->messages_sent();
  }

 private:
  struct PendingCall {
    ReplyFuture future;
    MsgType type = MsgType::kStatusReply;  // For the timeout diagnostic.
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
  };

  void OnMessage(Message msg);
  void FailAllPending(const Status& status);
  // Deadline monitor: sleeps until the earliest pending deadline and fails
  // expired calls with kNodeLost. Parked when nothing has a deadline.
  void MonitorLoop();

  ConnectionPtr connection_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::chrono::milliseconds call_timeout_{0};  // Guarded by mutex_.
  bool stop_monitor_ = false;                  // Guarded by mutex_.
  std::condition_variable monitor_cv_;
  std::thread monitor_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<bool> closed_{false};
};

}  // namespace haocl::net
