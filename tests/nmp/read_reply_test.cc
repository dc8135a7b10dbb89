// The node sends each kReadReply straight out of the replica, holding the
// session lock until the send is done. These tests guard that lock over
// real TCP daemons: cross pulls between two nodes must not deadlock, and a
// release or write racing a reply must never tear it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <span>
#include <thread>

#include "common/sync.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"

namespace haocl::nmp {
namespace {

using net::Message;
using net::MsgType;

constexpr std::uint64_t kSession = 9;
constexpr std::uint64_t kBytes = 16 << 20;

// A 16 MiB body whose every word depends on its position and on `salt`, so
// a stale, shifted or torn copy fails the comparison.
std::vector<std::uint8_t> Pattern(std::uint64_t salt) {
  std::vector<std::uint8_t> bytes(kBytes);
  for (std::uint64_t i = 0; i < kBytes / 8; ++i) {
    const std::uint64_t word = (i * 0x9E3779B97F4A7C15ULL) ^ (salt << 40);
    std::memcpy(bytes.data() + 8 * i, &word, 8);
  }
  return bytes;
}

Status StatusOf(const Expected<Message>& reply) {
  if (!reply.ok()) return reply.status();
  if (reply->type != MsgType::kStatusReply) {
    return Status(ErrorCode::kProtocolError, "expected a status reply");
  }
  auto status = net::StatusReply::Decode(reply->payload);
  return status.ok() ? status->ToStatus() : status.status();
}

// A daemon on a loopback listener.
struct Daemon {
  std::unique_ptr<NodeServer> server;
  net::TcpListener listener{0};

  explicit Daemon(const std::string& name) {
    auto created = NodeServer::Create(name, NodeType::kGpu);
    EXPECT_TRUE(created.ok());
    server = *std::move(created);
    EXPECT_TRUE(listener
                    .Start([this](net::ConnectionPtr c) {
                      server->Serve(std::move(c));
                    })
                    .ok());
  }
  ~Daemon() {
    server->Shutdown();
    listener.Stop();
  }

  [[nodiscard]] net::ConnectionPtr Dial() const {
    auto connection = net::TcpConnect("127.0.0.1", listener.port());
    EXPECT_TRUE(connection.ok()) << connection.status().ToString();
    return connection.ok() ? *std::move(connection) : nullptr;
  }
};

Status Create(net::RpcClient& client, std::uint64_t buffer_id) {
  return StatusOf(client.Call(MsgType::kCreateBuffer, kSession,
                              net::CreateBufferRequest{buffer_id, kBytes}
                                  .Encode()));
}

Status Write(net::RpcClient& client, std::uint64_t buffer_id,
             const std::vector<std::uint8_t>& bytes) {
  net::WriteBufferRequest write;
  write.buffer_id = buffer_id;
  return StatusOf(client.Call(MsgType::kWriteBuffer, kSession,
                              write.EncodeHead(bytes.size()),
                              net::RpcClient::kDefaultCallTimeout, bytes));
}

Expected<std::vector<std::uint8_t>> Read(net::RpcClient& client,
                                         std::uint64_t buffer_id) {
  auto reply = client.Call(MsgType::kReadBuffer, kSession,
                           net::ReadBufferRequest{buffer_id, 0, kBytes}
                               .Encode());
  if (!reply.ok()) return reply.status();
  if (reply->type != MsgType::kReadReply) return StatusOf(reply);
  return std::move(reply->payload);
}

// Each node pulls a 16 MiB buffer from the other at the same time. Each
// serves the other's read under its session lock while its own pull waits
// on the peer; the pulls must still complete well inside the deadline, and
// land the right bytes.
TEST(ReadReplyTest, CrossPullsCompleteAndLandExactBytes) {
  Daemon d0("gpu0");
  Daemon d1("gpu1");
  ClusterConfig config;
  config.AddNode({"gpu0", NodeType::kGpu, "127.0.0.1", d0.listener.port()});
  config.AddNode({"gpu1", NodeType::kGpu, "127.0.0.1", d1.listener.port()});
  ASSERT_TRUE(ConnectPeersFromConfig(*d0.server, 0, config).ok());
  ASSERT_TRUE(ConnectPeersFromConfig(*d1.server, 1, config).ok());
  net::RpcClient c0(d0.Dial());
  net::RpcClient c1(d1.Dial());
  constexpr auto kDeadline = std::chrono::seconds(20);
  c0.SetCallTimeout(kDeadline);
  c1.SetCallTimeout(kDeadline);
  // Buffer 1 is produced on node 0 and pulled by node 1; buffer 2 the
  // other way round.
  for (net::RpcClient* client : {&c0, &c1}) {
    ASSERT_TRUE(Create(*client, 1).ok());
    ASSERT_TRUE(Create(*client, 2).ok());
  }

  for (std::uint64_t round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<std::uint8_t> one = Pattern(2 * round);
    const std::vector<std::uint8_t> two = Pattern(2 * round + 1);
    ASSERT_TRUE(Write(c0, 1, one).ok());
    ASSERT_TRUE(Write(c1, 2, two).ok());

    const auto start = std::chrono::steady_clock::now();
    auto pull_into_1 = c1.CallAsync(
        MsgType::kPullSlice, kSession,
        net::PullSliceRequest{1, 0, kBytes, /*source_node=*/0}.Encode());
    auto pull_into_0 = c0.CallAsync(
        MsgType::kPullSlice, kSession,
        net::PullSliceRequest{2, 0, kBytes, /*source_node=*/1}.Encode());
    EXPECT_TRUE(StatusOf(pull_into_1->Wait()).ok());
    EXPECT_TRUE(StatusOf(pull_into_0->Wait()).ok());
    EXPECT_LT(std::chrono::steady_clock::now() - start, kDeadline / 4);

    auto got_one = Read(c1, 1);
    auto got_two = Read(c0, 2);
    ASSERT_TRUE(got_one.ok()) << got_one.status().ToString();
    ASSERT_TRUE(got_two.ok()) << got_two.status().ToString();
    EXPECT_TRUE(*got_one == one);
    EXPECT_TRUE(*got_two == two);
  }
  c0.Close();
  c1.Close();
}

// A 16 MiB read reply is mid-send (its reader has not started, so the send
// stalls on a full socket) when a second connection on the same session
// releases the buffer and then writes to it. The reply must come out whole
// — every old byte, or a clean status — never torn; under ASan a replica
// freed mid-send would also show as a use after free.
TEST(ReadReplyTest, ReleaseAndWriteDuringAReplyNeverTearIt) {
  Daemon daemon("gpu0");
  net::RpcClient other(daemon.Dial());
  for (std::uint64_t round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<std::uint8_t> old_bytes = Pattern(round);
    ASSERT_TRUE(Create(other, 1).ok());
    ASSERT_TRUE(Write(other, 1, old_bytes).ok());

    net::ConnectionPtr reader = daemon.Dial();
    ASSERT_NE(reader, nullptr);
    Message read;
    read.type = MsgType::kReadBuffer;
    read.seq = 1;
    read.session = kSession;
    read.payload = net::ReadBufferRequest{1, 0, kBytes}.Encode();
    ASSERT_TRUE(reader->Send(read).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    auto release = other.CallAsync(MsgType::kReleaseBuffer, kSession,
                                   net::ReleaseBufferRequest{1}.Encode());
    net::WriteBufferRequest write;
    write.buffer_id = 1;
    const std::vector<std::uint8_t> new_bytes = Pattern(round + 100);
    auto overwrite = other.CallAsync(MsgType::kWriteBuffer, kSession,
                                     write.EncodeHead(kBytes), new_bytes);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    Promise<Message> reply;
    reader->Start([&reply](Message m) { reply.Set(std::move(m)); });
    auto got = reply.TakeFor(std::chrono::seconds(20));
    ASSERT_TRUE(got.has_value()) << "no read reply";
    if (got->type == MsgType::kReadReply) {
      EXPECT_TRUE(got->payload == old_bytes);
    } else {
      Status status = StatusOf(*got);
      EXPECT_FALSE(status.ok());
      EXPECT_NE(status.code(), ErrorCode::kProtocolError);
    }
    EXPECT_TRUE(StatusOf(release->Wait()).ok());
    // The write reached a released buffer: a clean error, no crash.
    EXPECT_EQ(StatusOf(overwrite->Wait()).code(),
              ErrorCode::kInvalidMemObject);
    reader->Close();
  }
  other.Close();
}

}  // namespace
}  // namespace haocl::nmp
