// NMP protocol tests: the daemon over a raw connection — malformed frames,
// unknown message types, one-way traffic, TCP deployment, and shutdown.
#include "nmp/node_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/sync.h"
#include "host/cluster_runtime.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"

namespace haocl::nmp {
namespace {

using net::Message;
using net::MsgType;

class NodeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = NodeServer::Create("gpu0", NodeType::kGpu);
    ASSERT_TRUE(server.ok());
    server_ = *std::move(server);
    auto [host_end, node_end] = net::CreateSimChannel();
    server_->Serve(std::move(node_end));
    client_ = std::make_unique<net::RpcClient>(std::move(host_end));
  }

  void TearDown() override {
    client_->Close();
    server_->Shutdown();
  }

  std::unique_ptr<NodeServer> server_;
  std::unique_ptr<net::RpcClient> client_;
};

TEST_F(NodeServerTest, HelloReportsDevice) {
  net::HelloRequest hello;
  hello.host_name = "test-host";
  auto reply = client_->Call(MsgType::kHelloRequest, 1, hello.Encode());
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kHelloReply);
  auto decoded = net::HelloReply::Decode(reply->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->node_name, "gpu0");
  EXPECT_EQ(decoded->device_type, NodeType::kGpu);
  EXPECT_GT(decoded->compute_gflops, 0.0);
}

TEST_F(NodeServerTest, MalformedPayloadGetsProtocolError) {
  Message bad;
  bad.type = MsgType::kCreateBuffer;
  bad.seq = 1;
  bad.payload = {1, 2};  // Too short for CreateBufferRequest.
  auto reply = client_->Call(MsgType::kCreateBuffer, 1, bad.payload);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kStatusReply);
  auto status = net::StatusReply::Decode(reply->payload);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->ToStatus().code(), ErrorCode::kProtocolError);
}

// A payload whose claimed count or length dwarfs its real size once threw
// out of the decoder and aborted the daemon. Each now gets a protocol
// error, and the daemon keeps answering heartbeats.
TEST_F(NodeServerTest, OversizedClaimsGetProtocolErrorAndDaemonSurvives) {
  // 12 bytes: launch id 21, then a claim of 2^32-1 chunk ids.
  std::vector<std::uint8_t> revoke(12, 0xFF);
  std::fill(revoke.begin(), revoke.begin() + 8, 0);
  revoke[0] = 21;
  // 56 bytes: buffer id, offset, then a data length of 2^64-16, which wraps
  // the read position back inside the payload.
  std::vector<std::uint8_t> write(56, 0);
  std::fill(write.begin() + 16, write.begin() + 24, 0xFF);
  write[16] = 0xF0;
  for (const auto& [type, payload] :
       {std::pair{MsgType::kRevokeChunk, revoke},
        std::pair{MsgType::kWriteBuffer, write}}) {
    SCOPED_TRACE(net::MsgTypeName(type));
    auto reply = client_->Call(type, 1, payload);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, MsgType::kStatusReply);
    auto status = net::StatusReply::Decode(reply->payload);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->ToStatus().code(), ErrorCode::kProtocolError);

    auto heartbeat = client_->Call(MsgType::kHeartbeat, 1, {});
    ASSERT_TRUE(heartbeat.ok());
    auto alive = net::StatusReply::Decode(heartbeat->payload);
    ASSERT_TRUE(alive.ok());
    EXPECT_TRUE(alive->ToStatus().ok());
  }
}

// A read or write whose offset + size wraps past 2^64 once passed the
// session's bounds check and touched memory before the buffer. Both are
// now plain kInvalidValue answers, and the daemon keeps serving.
TEST_F(NodeServerTest, WrappingRangesGetInvalidValueAndDaemonSurvives) {
  constexpr std::uint64_t kWrap = ~std::uint64_t{0} - 7;  // 2^64 - 8.
  auto created = client_->Call(MsgType::kCreateBuffer, 1,
                               net::CreateBufferRequest{1, 1024}.Encode());
  ASSERT_TRUE(created.ok());
  net::WriteBufferRequest write;
  write.buffer_id = 1;
  write.offset = kWrap;
  write.data.assign(16, 0xAB);
  for (const auto& [type, payload] :
       {std::pair{MsgType::kReadBuffer,
                  net::ReadBufferRequest{1, kWrap, 16}.Encode()},
        std::pair{MsgType::kWriteBuffer, write.Encode()}}) {
    SCOPED_TRACE(net::MsgTypeName(type));
    auto reply = client_->Call(type, 1, payload);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, MsgType::kStatusReply);
    auto status = net::StatusReply::Decode(reply->payload);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->ToStatus().code(), ErrorCode::kInvalidValue);
  }
  auto heartbeat = client_->Call(MsgType::kHeartbeat, 1, {});
  ASSERT_TRUE(heartbeat.ok());
  auto alive = net::StatusReply::Decode(heartbeat->payload);
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive->ToStatus().ok());
}

TEST_F(NodeServerTest, UnknownMessageTypeRejected) {
  auto reply = client_->Call(static_cast<MsgType>(999), 1, {});
  ASSERT_TRUE(reply.ok());
  auto status = net::StatusReply::Decode(reply->payload);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->ToStatus().code(), ErrorCode::kProtocolError);
}

TEST_F(NodeServerTest, SessionsAreIndependent) {
  net::CreateBufferRequest create;
  create.buffer_id = 5;
  create.size = 64;
  // Session 1 creates buffer 5; creating it again in session 1 fails, but
  // session 2 may use the same id freely.
  auto r1 = client_->Call(MsgType::kCreateBuffer, 1, create.Encode());
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(net::StatusReply::Decode(r1->payload)->ToStatus().ok());
  auto r2 = client_->Call(MsgType::kCreateBuffer, 1, create.Encode());
  EXPECT_FALSE(net::StatusReply::Decode(r2->payload)->ToStatus().ok());
  auto r3 = client_->Call(MsgType::kCreateBuffer, 2, create.Encode());
  EXPECT_TRUE(net::StatusReply::Decode(r3->payload)->ToStatus().ok());

  // Closing session 2 frees its resources; the id becomes reusable.
  auto closed = client_->Call(MsgType::kCloseSession, 2, {});
  ASSERT_TRUE(closed.ok());
  auto r4 = client_->Call(MsgType::kCreateBuffer, 2, create.Encode());
  EXPECT_TRUE(net::StatusReply::Decode(r4->payload)->ToStatus().ok());
}

TEST_F(NodeServerTest, QueryLoadCounters) {
  auto reply = client_->Call(MsgType::kQueryLoad, 1, {});
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kLoadReply);
  auto load = net::LoadReply::Decode(reply->payload);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->kernels_executed, 0u);

  net::CreateBufferRequest create;
  create.buffer_id = 1;
  create.size = 4096;
  ASSERT_TRUE(client_->Call(MsgType::kCreateBuffer, 1, create.Encode()).ok());
  reply = client_->Call(MsgType::kQueryLoad, 1, {});
  load = net::LoadReply::Decode(reply->payload);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->buffers_held, 1u);
  EXPECT_EQ(load->bytes_allocated, 4096u);
}

TEST_F(NodeServerTest, OneWayMessagesGetNoReply) {
  // Notify (seq 0) must not generate a reply that would confuse the RPC
  // matcher; a subsequent call still works.
  ASSERT_TRUE(client_->Notify(MsgType::kOpenSession, 3, {}).ok());
  auto reply = client_->Call(MsgType::kQueryLoad, 3, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kLoadReply);
}

TEST(NodeServerTcpTest, FullProtocolOverRealSockets) {
  // The same daemon served over genuine TCP: the two-process deployment
  // path, in-process for testability.
  auto server = NodeServer::Create("fpga0", NodeType::kFpga);
  ASSERT_TRUE(server.ok());
  net::TcpListener listener(0);
  BlockingQueue<net::ConnectionPtr> accepted;
  ASSERT_TRUE(listener
                  .Start([&](net::ConnectionPtr c) {
                    accepted.Push(std::move(c));
                  })
                  .ok());
  auto client_conn = net::TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(client_conn.ok());
  auto server_conn = accepted.Pop();
  ASSERT_TRUE(server_conn.has_value());
  (*server)->Serve(*std::move(server_conn));

  net::RpcClient client(*std::move(client_conn));
  net::HelloRequest hello;
  hello.host_name = "tcp-host";
  auto reply = client.Call(MsgType::kHelloRequest, 1, hello.Encode());
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto decoded = net::HelloReply::Decode(reply->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->device_type, NodeType::kFpga);

  net::CreateBufferRequest create;
  create.buffer_id = 1;
  create.size = 1024;
  auto created = client.Call(MsgType::kCreateBuffer, 1, create.Encode());
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(net::StatusReply::Decode(created->payload)->ToStatus().ok());

  net::WriteBufferRequest write;
  write.buffer_id = 1;
  write.data = std::vector<std::uint8_t>(1024, 0x5A);
  auto written = client.Call(MsgType::kWriteBuffer, 1, write.Encode());
  ASSERT_TRUE(written.ok());

  net::ReadBufferRequest read;
  read.buffer_id = 1;
  read.size = 1024;
  auto got = client.Call(MsgType::kReadBuffer, 1, read.Encode());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->type, MsgType::kReadReply);
  EXPECT_EQ(got->payload, write.data);

  client.Close();
  (*server)->Shutdown();
  listener.Stop();
}

TEST(NodeServerTcpTest, PeersDialedFromClusterConfigExchangeSlices) {
  // Two NMP daemons on real TCP sockets dial each other from the cluster
  // configuration (the multi-machine deployment path), so a host-driven
  // pull moves the payload node-to-node instead of relaying.
  auto s0 = NodeServer::Create("gpu0", NodeType::kGpu);
  auto s1 = NodeServer::Create("cpu0", NodeType::kCpu);
  ASSERT_TRUE(s0.ok() && s1.ok());
  net::TcpListener l0(0);
  net::TcpListener l1(0);
  ASSERT_TRUE(
      l0.Start([&](net::ConnectionPtr c) { (*s0)->Serve(std::move(c)); })
          .ok());
  ASSERT_TRUE(
      l1.Start([&](net::ConnectionPtr c) { (*s1)->Serve(std::move(c)); })
          .ok());
  ClusterConfig config;
  config.AddNode({"gpu0", NodeType::kGpu, "127.0.0.1", l0.port()});
  config.AddNode({"cpu0", NodeType::kCpu, "127.0.0.1", l1.port()});
  ASSERT_TRUE(ConnectPeersFromConfig(**s0, 0, config).ok());
  ASSERT_TRUE(ConnectPeersFromConfig(**s1, 1, config).ok());
  // Self index out of range is rejected.
  EXPECT_FALSE(ConnectPeersFromConfig(**s0, 5, config).ok());

  // The host connects over TCP too and drives a producer/consumer chain:
  // node 0 produces the buffer, node 1's launch prologue pulls it
  // directly over the dialed peer link.
  std::vector<net::ConnectionPtr> connections;
  for (std::uint16_t port : {l0.port(), l1.port()}) {
    auto connection = net::TcpConnect("127.0.0.1", port);
    ASSERT_TRUE(connection.ok());
    connections.push_back(*std::move(connection));
  }
  auto runtime = host::ClusterRuntime::Connect(std::move(connections), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  auto program = (*runtime)->BuildProgram(R"(
    __kernel void bump(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = data[i] + 1;
    })");
  ASSERT_TRUE(program.ok());
  constexpr int kN = 512;
  auto buffer = (*runtime)->CreateBuffer(kN * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(kN, 1);
  ASSERT_TRUE(
      (*runtime)->WriteBuffer(*buffer, 0, values.data(), kN * 4).ok());
  for (int node = 0; node < 2; ++node) {
    host::ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "bump";
    spec.args = {host::KernelArgValue::Buffer(*buffer),
                 host::KernelArgValue::Scalar<std::int32_t>(kN)};
    spec.global[0] = kN;
    spec.preferred_node = node;
    auto result = (*runtime)->LaunchKernel(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  std::vector<std::int32_t> readback(kN);
  ASSERT_TRUE(
      (*runtime)->ReadBuffer(*buffer, 0, readback.data(), kN * 4).ok());
  for (std::int32_t v : readback) ASSERT_EQ(v, 3);
  // The second launch's input moved node 0 -> node 1 over the peer link:
  // real P2P payload, zero relay fallbacks.
  const host::TransferStats stats = (*runtime)->transfer_stats();
  EXPECT_EQ(stats.p2p_bytes, static_cast<std::uint64_t>(kN) * 4);
  EXPECT_EQ(stats.relay_bytes, 0u);
  EXPECT_EQ(stats.relay_transfers, 0u);

  (*runtime)->Disconnect();
  (*s0)->Shutdown();
  (*s1)->Shutdown();
  l0.Stop();
  l1.Stop();
}

TEST(NodeServerLifecycleTest, ShutdownIsIdempotentAndServesMultiple) {
  auto server = NodeServer::Create("cpu0", NodeType::kCpu);
  ASSERT_TRUE(server.ok());
  auto [h1, n1] = net::CreateSimChannel();
  auto [h2, n2] = net::CreateSimChannel();
  (*server)->Serve(std::move(n1));
  (*server)->Serve(std::move(n2));
  net::RpcClient c1(std::move(h1));
  net::RpcClient c2(std::move(h2));
  net::HelloRequest hello;
  EXPECT_TRUE(c1.Call(MsgType::kHelloRequest, 1, hello.Encode()).ok());
  EXPECT_TRUE(c2.Call(MsgType::kHelloRequest, 2, hello.Encode()).ok());
  c1.Close();
  c2.Close();
  (*server)->Shutdown();
  (*server)->Shutdown();  // Second shutdown is a no-op.
}

}  // namespace
}  // namespace haocl::nmp
