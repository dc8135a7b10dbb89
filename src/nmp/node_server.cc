#include "nmp/node_server.h"

#include <optional>
#include <span>

#include "common/log.h"
#include "driver/icd.h"
#include "net/protocol.h"
#include "net/tcp_transport.h"

namespace haocl::nmp {

using net::Message;
using net::MsgType;

// One served connection: its queue and worker thread.
struct NodeServer::Channel {
  net::ConnectionPtr connection;
  BlockingQueue<Message> inbox;
  std::thread worker;
};

namespace {

// The one way a request is answered: the reply carries the request's seq
// and session and goes out on the connection the request came in on. A
// one-way request (seq 0) gets no reply.
Status Respond(net::Connection& connection, std::uint64_t seq,
               std::uint64_t session, Message& reply) {
  if (seq == 0) return Status::Ok();
  reply.seq = seq;
  reply.session = session;
  return connection.Send(reply);
}

}  // namespace

Expected<std::unique_ptr<NodeServer>> NodeServer::Create(std::string name,
                                                         NodeType type) {
  auto driver = driver::IcdRegistry::Instance().Create(type);
  if (!driver.ok()) return driver.status();
  return std::make_unique<NodeServer>(std::move(name), type,
                                      *std::move(driver));
}

NodeServer::NodeServer(std::string name, NodeType type,
                       std::unique_ptr<driver::DeviceDriver> driver)
    : name_(std::move(name)),
      type_(type),
      driver_(std::move(driver)),
      broker_(driver_->spec().mem_capacity_bytes) {}

NodeServer::~NodeServer() { Shutdown(); }

void NodeServer::Serve(net::ConnectionPtr connection) {
  auto channel = std::make_unique<Channel>();
  channel->connection = std::move(connection);
  Channel* raw = channel.get();
  // Asynchronous listener: enqueue and return to listening, exactly the
  // paper's accept-then-listen-again loop. Control-plane messages —
  // chunk revocations and heartbeats — are handled right here on the
  // receive path, BEFORE the inbox: a revocation must overtake the queued
  // launches it revokes, and a heartbeat must get answered even while the
  // worker is busy executing a long kernel.
  raw->connection->Start([this, raw](Message msg) {
    if (msg.type == MsgType::kRevokeChunk || msg.type == MsgType::kHeartbeat) {
      const std::uint64_t seq = msg.seq;
      const std::uint64_t session = msg.session;
      Message reply = HandleControlMessage(std::move(msg));
      (void)Respond(*raw->connection, seq, session, reply);
      return;
    }
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    raw->inbox.Push(std::move(msg));
  });
  raw->worker = std::thread([this, raw] { WorkerLoop(raw); });
  // Publish only the fully-initialized channel: Shutdown swaps the list
  // out and touches `worker`, so the thread must be assigned before the
  // channel is reachable. If shutdown already swapped, nobody will ever
  // join this channel — tear it down here instead of publishing.
  std::unique_lock<std::mutex> lock(channels_mutex_);
  if (shutting_down_.load()) {
    lock.unlock();
    raw->inbox.Close();
    raw->connection->Close();
    raw->worker.join();
    return;
  }
  channels_.push_back(std::move(channel));
}

void NodeServer::WorkerLoop(Channel* channel) {
  while (auto msg = channel->inbox.Pop()) {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    if (msg->type == MsgType::kShutdown) {
      // A client that vanishes with kShutdown but never kCloseSession must
      // not leak its session or its broker tenancy (session-churn fix).
      {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        sessions_.erase(msg->session);
      }
      broker_.UnregisterTenant(msg->session);
      break;
    }
    Status sent = HandleMessage(*channel, *std::move(msg));
    if (!sent.ok()) {
      HAOCL_WARN << "NMP " << name_ << ": reply failed: " << sent.ToString();
      break;
    }
  }
}

void NodeServer::ConnectPeer(std::size_t peer_index,
                             net::ConnectionPtr connection) {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  peers_[peer_index] = std::make_unique<net::RpcClient>(std::move(connection));
}

net::RpcClient* NodeServer::PeerClient(std::size_t peer_index) {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  auto it = peers_.find(peer_index);
  return it == peers_.end() ? nullptr : it->second.get();
}

std::shared_ptr<runtime::DeviceSession> NodeServer::SessionFor(
    std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto& slot = sessions_[session_id];
  if (slot == nullptr) {
    // Every session charges the node's ONE shared ledger through its own
    // broker view — capacity is enforced across all tenants, not per
    // session.
    slot = std::make_shared<runtime::DeviceSession>(
        driver_.get(), broker_.LedgerFor(session_id));
  }
  return slot;
}

namespace {

Message Reply(MsgType type, std::vector<std::uint8_t> payload) {
  Message reply;
  reply.type = type;
  reply.payload = std::move(payload);
  return reply;
}

Message StatusMessage(const Status& status) {
  return Reply(MsgType::kStatusReply,
               net::StatusReply::FromStatus(status).Encode());
}

// Decodes the request payload as T, consuming it: a trailing byte vector
// (a kWriteBuffer body) keeps the payload's storage instead of being
// copied. A malformed payload is logged and `reply` becomes its
// protocol-error status; the caller sends only that.
template <typename T>
std::optional<T> DecodeOrReply(const std::string& node, Message& request,
                               Message& reply) {
  auto decoded = T::Decode(std::move(request.payload));
  if (decoded.ok()) return *std::move(decoded);
  HAOCL_WARN << "NMP " << node << ": " << decoded.status().ToString();
  reply = StatusMessage(decoded.status());
  return std::nullopt;
}

}  // namespace

Message NodeServer::HandleControlMessage(Message request) {
  Message reply = StatusMessage(Status::Ok());
  switch (request.type) {
    case MsgType::kHeartbeat:
      break;  // Liveness only: answering at all is the signal.
    case MsgType::kRevokeChunk:
      if (auto r = DecodeOrReply<net::RevokeChunkRequest>(name_, request,
                                                          reply)) {
        SessionFor(request.session)->RevokeChunks(r->launch_id, r->chunk_ids);
      }
      break;
    default:
      reply = StatusMessage(Status(ErrorCode::kProtocolError,
                                   std::string("not a control message: ") +
                                       net::MsgTypeName(request.type)));
      break;
  }
  return reply;
}

Status NodeServer::HandleMessage(Channel& channel, Message request) {
  auto respond = [&channel, seq = request.seq,
                  session_id = request.session](Message& reply) {
    return Respond(*channel.connection, seq, session_id, reply);
  };
  Message reply;
  const std::shared_ptr<runtime::DeviceSession> held =
      SessionFor(request.session);
  runtime::DeviceSession& session = *held;

  switch (request.type) {
    case MsgType::kHelloRequest: {
      if (!DecodeOrReply<net::HelloRequest>(name_, request, reply)) break;
      net::HelloReply hello;
      hello.node_name = name_;
      hello.device_type = type_;
      hello.device_model = driver_->spec().model_name;
      hello.compute_gflops = driver_->spec().compute_gflops;
      hello.mem_bandwidth_gbps = driver_->spec().mem_bandwidth_gbps;
      hello.mem_capacity_bytes = driver_->spec().mem_capacity_bytes;
      hello.simd_width = driver_->spec().simd_width > 0
                             ? static_cast<std::uint32_t>(
                                   driver_->spec().simd_width)
                             : 1;
      reply = Reply(MsgType::kHelloReply, hello.Encode());
      break;
    }
    case MsgType::kCreateBuffer:
      if (auto r = DecodeOrReply<net::CreateBufferRequest>(name_, request,
                                                           reply)) {
        reply = StatusMessage(session.CreateBuffer(r->buffer_id, r->size));
      }
      break;
    case MsgType::kWriteBuffer:
      if (auto r = DecodeOrReply<net::WriteBufferRequest>(name_, request,
                                                          reply)) {
        reply = StatusMessage(
            session.WriteBuffer(r->buffer_id, r->offset, r->data));
      }
      break;
    case MsgType::kReadBuffer:
      if (auto r = DecodeOrReply<net::ReadBufferRequest>(name_, request,
                                                         reply)) {
        // The reply goes out of the replica itself: an empty payload and
        // the range as its tail, sent under the session lock so no release
        // or write can touch the bytes mid-send. That cannot deadlock: the
        // send waits only on the peer's reader thread, which takes no
        // session lock (and PullSlice fetches without holding its own).
        std::optional<Status> sent;
        Status read = session.VisitBuffer(
            r->buffer_id, r->offset, r->size,
            [&](std::span<const std::uint8_t> bytes) {
              Message data = Reply(MsgType::kReadReply, {});
              data.tail = bytes;
              sent = respond(data);
              return Status::Ok();
            });
        if (sent.has_value()) return *sent;
        reply = StatusMessage(read);
      }
      break;
    case MsgType::kCopyBuffer:
      if (auto r = DecodeOrReply<net::CopyBufferRequest>(name_, request,
                                                         reply)) {
        reply = StatusMessage(session.CopyBuffer(*r));
      }
      break;
    case MsgType::kPullSlice: {
      auto r = DecodeOrReply<net::PullSliceRequest>(name_, request, reply);
      if (!r) break;
      // The fetch reuses the ordinary ReadBuffer protocol against the peer,
      // carrying the requesting session id so the peer resolves the same
      // logical buffer namespace.
      const std::uint64_t session_id = request.session;
      auto fetch = [this, session_id](
                       std::uint32_t peer, std::uint64_t buffer_id,
                       std::uint64_t offset, std::uint64_t size)
          -> Expected<std::vector<std::uint8_t>> {
        net::RpcClient* client = PeerClient(peer);
        if (client == nullptr) {
          return Status(ErrorCode::kPeerUnreachable,
                        name_ + " has no link to peer node " +
                            std::to_string(peer));
        }
        net::ReadBufferRequest read;
        read.buffer_id = buffer_id;
        read.offset = offset;
        read.size = size;
        auto reply = client->Call(MsgType::kReadBuffer, session_id,
                                  read.Encode());
        if (!reply.ok()) return reply.status();
        if (reply->type == MsgType::kStatusReply) {
          auto status = net::StatusReply::Decode(reply->payload);
          if (!status.ok()) return status.status();
          Status s = status->ToStatus();
          return s.ok() ? Status(ErrorCode::kProtocolError,
                                 "peer sent OK status for a slice read")
                        : s;
        }
        if (reply->type != MsgType::kReadReply) {
          return Status(ErrorCode::kProtocolError,
                        "unexpected peer reply to slice read");
        }
        return std::move(reply->payload);
      };
      reply = StatusMessage(session.PullSlice(*r, fetch));
      break;
    }
    case MsgType::kPushSlice: {
      auto r = DecodeOrReply<net::PushSliceRequest>(name_, request, reply);
      if (!r) break;
      const std::uint64_t session_id = request.session;
      auto store = [this, session_id](std::uint32_t peer,
                                      std::uint64_t buffer_id,
                                      std::uint64_t offset,
                                      std::vector<std::uint8_t> data) {
        net::RpcClient* client = PeerClient(peer);
        if (client == nullptr) {
          return Status(ErrorCode::kPeerUnreachable,
                        name_ + " has no link to peer node " +
                            std::to_string(peer));
        }
        // The bytes read off the replica go out as the tail, not copied
        // into an encoded body.
        net::WriteBufferRequest write;
        write.buffer_id = buffer_id;
        write.offset = offset;
        auto reply = client->Call(
            MsgType::kWriteBuffer, session_id, write.EncodeHead(data.size()),
            net::RpcClient::kDefaultCallTimeout, data);
        if (!reply.ok()) return reply.status();
        auto status = net::StatusReply::Decode(reply->payload);
        if (!status.ok()) return status.status();
        return status->ToStatus();
      };
      reply = StatusMessage(session.PushSlice(*r, store));
      break;
    }
    case MsgType::kMemoryNotice:
      if (auto r = DecodeOrReply<net::MemoryNoticeRequest>(name_, request,
                                                           reply)) {
        reply = StatusMessage(session.MemoryNotice(*r));
      }
      break;
    case MsgType::kReleaseBuffer:
      if (auto r = DecodeOrReply<net::ReleaseBufferRequest>(name_, request,
                                                            reply)) {
        reply = StatusMessage(session.ReleaseBuffer(r->buffer_id));
      }
      break;
    case MsgType::kBuildProgram:
      if (auto r = DecodeOrReply<net::BuildProgramRequest>(name_, request,
                                                           reply)) {
        reply = Reply(MsgType::kBuildReply,
                      session.BuildProgram(r->program_id, r->source).Encode());
      }
      break;
    case MsgType::kReleaseProgram:
      if (auto r = DecodeOrReply<net::ReleaseProgramRequest>(name_, request,
                                                             reply)) {
        reply = StatusMessage(session.ReleaseProgram(r->program_id));
      }
      break;
    case MsgType::kLaunchKernel: {
      auto decoded =
          DecodeOrReply<net::LaunchKernelRequest>(name_, request, reply);
      if (!decoded) break;
      // Every launch passes through the broker gate: admission control
      // may reject it (kBackpressure travels back as an ordinary launch
      // reply), and weighted fair queuing decides when an admitted launch
      // runs relative to other tenants' backlogs.
      const sim::DeviceSpec& spec = driver_->spec();
      double predicted_seconds = 0.0;
      if (decoded->has_cost_hint && spec.compute_gflops > 0.0) {
        predicted_seconds = static_cast<double>(decoded->hint_flops) /
                            (spec.compute_gflops * 1e9);
      }
      auto grant = broker_.AcquireLaunchSlot(request.session,
                                             predicted_seconds);
      net::LaunchKernelReply launch;
      if (!grant.ok()) {
        launch.status_code =
            static_cast<std::int32_t>(grant.status().code());
        launch.error_message = grant.status().message();
      } else {
        launch = session.LaunchKernel(*decoded);
        const double sample_flops =
            decoded->has_cost_hint ? static_cast<double>(decoded->hint_flops)
                                   : static_cast<double>(launch.flops);
        broker_.CompleteLaunch(request.session, *grant,
                               launch.status_code == 0,
                               launch.modeled_seconds, decoded->kernel_name,
                               sample_flops);
      }
      launch.node_backlog_seconds = broker_.backlog_seconds();
      launch.active_weight = broker_.active_weight();
      reply = Reply(MsgType::kLaunchReply, launch.Encode());
      break;
    }
    case MsgType::kQueryLoad: {
      net::LoadReply load = session.Load();
      load.queue_depth = queue_depth_.load(std::memory_order_relaxed);
      load.node_resident_bytes = broker_.resident_bytes();
      load.node_backlog_seconds = broker_.backlog_seconds();
      load.tenant_backlog_seconds =
          broker_.backlog_seconds_of(request.session);
      load.active_weight = broker_.active_weight();
      for (const broker::BrokerKernelRate& rate : broker_.KernelRates()) {
        load.kernel_rates.push_back(
            {rate.kernel, rate.seconds_per_flop, rate.samples});
      }
      reply = Reply(MsgType::kLoadReply, load.Encode());
      break;
    }
    case MsgType::kConfigureSession:
      if (auto r = DecodeOrReply<net::ConfigureSessionRequest>(name_, request,
                                                               reply)) {
        broker::TenantConfig config;
        config.name = r->tenant_name;
        config.weight = r->weight;
        config.mem_quota_bytes = r->mem_quota_bytes;
        broker_.RegisterTenant(request.session, std::move(config));
        reply = StatusMessage(Status::Ok());
      }
      break;
    case MsgType::kQueryBroker: {
      net::BrokerStatsReply stats;
      stats.mem_capacity_bytes = broker_.capacity();
      stats.resident_bytes = broker_.resident_bytes();
      stats.backlog_seconds = broker_.backlog_seconds();
      stats.active_weight = broker_.active_weight();
      stats.max_backlog_seconds = broker_.limits().max_backlog_seconds;
      for (const broker::TenantStats& t : broker_.AllTenants()) {
        net::BrokerTenantEntry entry;
        entry.session = t.session;
        entry.name = t.name;
        entry.weight = t.weight;
        entry.mem_quota_bytes = t.mem_quota_bytes;
        entry.resident_bytes = t.resident_bytes;
        entry.backlog_seconds = t.backlog_seconds;
        entry.served_seconds = t.served_seconds;
        entry.launches_admitted = t.launches_admitted;
        entry.launches_rejected = t.launches_rejected;
        entry.kernels_completed = t.kernels_completed;
        stats.tenants.push_back(std::move(entry));
      }
      for (const broker::BrokerKernelRate& rate : broker_.KernelRates()) {
        stats.kernel_rates.push_back(
            {rate.kernel, rate.seconds_per_flop, rate.samples});
      }
      reply = Reply(MsgType::kBrokerReply, stats.Encode());
      break;
    }
    case MsgType::kOpenSession:
    case MsgType::kCloseSession: {
      if (request.type == MsgType::kCloseSession) {
        {
          std::lock_guard<std::mutex> lock(sessions_mutex_);
          sessions_.erase(request.session);
        }
        // After the session leaves the map: its resident bytes leave the
        // node ledger so the capacity frees up for the remaining tenants.
        // A handler still running on another connection keeps the session
        // itself alive until it finishes.
        broker_.UnregisterTenant(request.session);
      }
      reply = StatusMessage(Status::Ok());
      break;
    }
    default: {
      Status error(ErrorCode::kProtocolError,
                   std::string("unexpected message type ") +
                       net::MsgTypeName(request.type));
      HAOCL_WARN << "NMP " << name_ << ": " << error.ToString();
      reply = StatusMessage(error);
      break;
    }
  }
  return respond(reply);
}

std::uint64_t NodeServer::kernels_executed() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(
      const_cast<std::mutex&>(sessions_mutex_));
  for (const auto& [id, session] : sessions_) {
    total += session->Load().kernels_executed;
  }
  return total;
}

std::uint64_t NodeServer::bytes_resident() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(
      const_cast<std::mutex&>(sessions_mutex_));
  for (const auto& [id, session] : sessions_) {
    total += session->resident_bytes();
  }
  return total;
}

Status ConnectPeersFromConfig(NodeServer& server, std::size_t self_index,
                              const ClusterConfig& config) {
  if (self_index >= config.nodes().size()) {
    return Status(ErrorCode::kInvalidValue,
                  "self index " + std::to_string(self_index) +
                      " out of range for a " +
                      std::to_string(config.nodes().size()) +
                      "-node cluster config");
  }
  for (std::size_t peer = 0; peer < config.nodes().size(); ++peer) {
    if (peer == self_index) continue;
    const NodeEntry& entry = config.nodes()[peer];
    if (entry.address.empty() || entry.address == "sim" || entry.port == 0) {
      continue;  // Not dialable; pulls from this peer fall back to relay.
    }
    auto connection = net::TcpConnect(entry.address, entry.port);
    if (!connection.ok()) {
      return Status(ErrorCode::kPeerUnreachable,
                    server.name() + " cannot dial peer node " +
                        std::to_string(peer) + " (" + entry.address + ":" +
                        std::to_string(entry.port) +
                        "): " + connection.status().message());
    }
    server.ConnectPeer(peer, *std::move(connection));
  }
  return Status::Ok();
}

void NodeServer::Shutdown() {
  if (shutting_down_.exchange(true)) return;
  // Wake any worker blocked at the broker's launch gate so it can drain
  // and join below.
  broker_.Shutdown();
  {
    // Close peer links first: a worker blocked inside a pull/push fails
    // fast instead of waiting out its RPC timeout.
    std::lock_guard<std::mutex> lock(peers_mutex_);
    for (auto& [index, client] : peers_) client->Close();
  }
  std::vector<std::unique_ptr<Channel>> channels;
  {
    std::lock_guard<std::mutex> lock(channels_mutex_);
    channels.swap(channels_);
  }
  for (auto& channel : channels) {
    channel->inbox.Close();
    channel->connection->Close();
    if (channel->worker.joinable()) channel->worker.join();
  }
}

}  // namespace haocl::nmp
