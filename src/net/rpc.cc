#include "net/rpc.h"

#include <string>
#include <vector>

#include "common/log.h"

namespace haocl::net {

RpcClient::RpcClient(ConnectionPtr connection)
    : connection_(std::move(connection)) {
  monitor_ = std::thread([this] { MonitorLoop(); });
  connection_->Start([this](Message msg) { OnMessage(std::move(msg)); });
}

RpcClient::~RpcClient() { Close(); }

void RpcClient::SetCallTimeout(std::chrono::milliseconds timeout) {
  std::lock_guard<std::mutex> lock(mutex_);
  call_timeout_ = timeout;
}

RpcClient::ReplyFuture RpcClient::CallAsync(
    MsgType type, std::uint64_t session, std::vector<std::uint8_t> payload,
    std::span<const std::uint8_t> tail) {
  auto future = std::make_shared<Promise<Expected<Message>>>();
  Message msg;
  msg.type = type;
  msg.session = session;
  msg.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  msg.payload = std::move(payload);
  msg.tail = tail;
  bool armed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    PendingCall call;
    call.future = future;
    call.type = type;
    if (call_timeout_.count() > 0) {
      call.has_deadline = true;
      call.deadline = std::chrono::steady_clock::now() + call_timeout_;
      armed = true;
    }
    pending_[msg.seq] = std::move(call);
  }
  if (armed) monitor_cv_.notify_one();
  Status sent = connection_->Send(msg);
  if (!sent.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.erase(msg.seq);
    }
    future->Set(Expected<Message>(sent));
  }
  return future;
}

Expected<Message> RpcClient::Call(MsgType type, std::uint64_t session,
                                  std::vector<std::uint8_t> payload,
                                  std::chrono::milliseconds timeout,
                                  std::span<const std::uint8_t> tail) {
  auto future = CallAsync(type, session, std::move(payload), tail);
  auto reply = future->TakeFor(timeout);
  if (!reply.has_value()) {
    return Status(ErrorCode::kNetworkError,
                  std::string("RPC timeout for ") + MsgTypeName(type));
  }
  return *std::move(reply);
}

Status RpcClient::Notify(MsgType type, std::uint64_t session,
                         std::vector<std::uint8_t> payload) {
  Message msg;
  msg.type = type;
  msg.session = session;
  msg.seq = 0;  // Seq 0 marks one-way traffic.
  msg.payload = std::move(payload);
  return connection_->Send(msg);
}

void RpcClient::OnMessage(Message msg) {
  ReplyFuture future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(msg.seq);
    if (it == pending_.end()) {
      HAOCL_DEBUG << "orphan reply seq=" << msg.seq << " type="
                  << MsgTypeName(msg.type);
      return;
    }
    future = std::move(it->second.future);
    pending_.erase(it);
  }
  future->Set(Expected<Message>(std::move(msg)));
}

void RpcClient::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_monitor_) {
    const auto now = std::chrono::steady_clock::now();
    auto earliest = std::chrono::steady_clock::time_point::max();
    std::vector<std::pair<ReplyFuture, MsgType>> expired;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.has_deadline && it->second.deadline <= now) {
        expired.emplace_back(std::move(it->second.future), it->second.type);
        it = pending_.erase(it);
      } else {
        if (it->second.has_deadline) {
          earliest = std::min(earliest, it->second.deadline);
        }
        ++it;
      }
    }
    if (!expired.empty()) {
      // Fail outside the lock: a waiter's continuation may call back in.
      lock.unlock();
      for (auto& [future, type] : expired) {
        future->Set(Expected<Message>(Status(
            ErrorCode::kNodeLost,
            std::string("RPC deadline expired for ") + MsgTypeName(type) +
                ": node presumed lost")));
      }
      lock.lock();
      continue;
    }
    if (earliest == std::chrono::steady_clock::time_point::max()) {
      monitor_cv_.wait(lock);
    } else {
      monitor_cv_.wait_until(lock, earliest);
    }
  }
}

void RpcClient::FailAllPending(const Status& status) {
  std::unordered_map<std::uint64_t, PendingCall> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    orphaned.swap(pending_);
  }
  for (auto& [seq, call] : orphaned) {
    call.future->Set(Expected<Message>(status));
  }
}

void RpcClient::Close() {
  if (closed_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_monitor_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  connection_->Close();
  FailAllPending(Status(ErrorCode::kNodeUnreachable, "client closed"));
}

}  // namespace haocl::net
