// Transport tests: the in-process channel and the real TCP loopback path
// must behave identically (ordering, large frames, clean shutdown).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <thread>

#include "common/sync.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"

namespace haocl::net {
namespace {

Message Make(MsgType type, std::uint64_t seq,
             std::vector<std::uint8_t> payload = {}) {
  Message msg;
  msg.type = type;
  msg.seq = seq;
  msg.payload = std::move(payload);
  return msg;
}

TEST(SimTransportTest, BidirectionalOrdering) {
  auto [a, b] = CreateSimChannel();
  BlockingQueue<std::uint64_t> got_a;
  BlockingQueue<std::uint64_t> got_b;
  a->Start([&](Message m) { got_a.Push(m.seq); });
  b->Start([&](Message m) { got_b.Push(m.seq); });
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(a->Send(Make(MsgType::kQueryLoad, i)).ok());
    ASSERT_TRUE(b->Send(Make(MsgType::kStatusReply, 1000 + i)).ok());
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(*got_b.Pop(), i);          // a -> b arrives in order.
    EXPECT_EQ(*got_a.Pop(), 1000 + i);   // b -> a arrives in order.
  }
  a->Close();
  b->Close();
}

TEST(SimTransportTest, SendAfterPeerCloseFails) {
  auto [a, b] = CreateSimChannel();
  a->Start([](Message) {});
  b->Start([](Message) {});
  b->Close();
  Status s = a->Send(Make(MsgType::kQueryLoad, 1));
  EXPECT_FALSE(s.ok());
  a->Close();
}

TEST(SimTransportTest, CountsBytesAndMessages) {
  auto [a, b] = CreateSimChannel();
  b->Start([](Message) {});
  a->Start([](Message) {});
  Message m = Make(MsgType::kWriteBuffer, 1,
                   std::vector<std::uint8_t>(1000, 0xAB));
  ASSERT_TRUE(a->Send(m).ok());
  EXPECT_EQ(a->messages_sent(), 1u);
  EXPECT_EQ(a->bytes_sent(), m.WireSize());
  a->Close();
  b->Close();
}

TEST(SimListenerTest, ConnectDeliversServerEnd) {
  SimListener listener;
  BlockingQueue<ConnectionPtr> accepted;
  ASSERT_TRUE(
      listener.Start([&](ConnectionPtr c) { accepted.Push(std::move(c)); })
          .ok());
  auto client = listener.Connect();
  ASSERT_TRUE(client.ok());
  auto server = accepted.Pop();
  ASSERT_TRUE(server.has_value());

  BlockingQueue<std::uint64_t> got;
  (*server)->Start([&](Message m) { got.Push(m.seq); });
  (*client)->Start([](Message) {});
  ASSERT_TRUE((*client)->Send(Make(MsgType::kHelloRequest, 5)).ok());
  EXPECT_EQ(*got.Pop(), 5u);
  (*client)->Close();
  (*server)->Close();
  listener.Stop();
  EXPECT_FALSE(listener.Connect().ok());
}

// Body of frame `seq`: its bytes depend on the seq, so a frame delivered
// under the wrong header fails the comparison.
std::vector<std::uint8_t> Body(std::uint64_t seq, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 2654435761u >> 24) ^ seq);
  }
  return bytes;
}

// Two threads send frames whose bodies are split between payload and a
// borrowed tail, the first with an empty payload and a 16 MiB + 3 B tail.
// Each must arrive as payload followed by tail, byte for byte, in order
// per thread, and bytes_sent() must count the tails.
void ExpectTailedFramesArriveWhole(Connection& sender,
                                   BlockingQueue<Message>& received) {
  struct Split {
    std::size_t payload;
    std::size_t tail;
  };
  constexpr Split kSplits[] = {
      {0, (16 << 20) + 3}, {24, 64 << 10}, {7, 1}, {3, 0}};
  constexpr std::uint64_t kPerThread = std::size(kSplits);
  std::uint64_t expected_bytes = sender.bytes_sent();
  for (const Split& split : kSplits) {
    expected_bytes += 2 * (Message::kHeaderSize + split.payload + split.tail);
  }
  auto size_of = [&](std::uint64_t seq) {
    const Split& split = kSplits[seq % 1000];
    return split.payload + split.tail;
  };
  std::vector<std::thread> senders;
  for (std::uint64_t t = 0; t < 2; ++t) {
    senders.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t seq = 1000 * t + i;
        const std::vector<std::uint8_t> body = Body(seq, size_of(seq));
        const std::size_t split = kSplits[i].payload;
        Message msg = Make(MsgType::kWriteBuffer, seq,
                           {body.begin(), body.begin() + split});
        msg.tail = std::span<const std::uint8_t>(body).subspan(split);
        EXPECT_TRUE(sender.Send(msg).ok()) << "seq " << seq;
      }
    });
  }
  std::uint64_t next[2] = {0, 0};
  for (std::uint64_t n = 0; n < 2 * kPerThread; ++n) {
    auto got = received.Pop();  // Never empty: the queue stays open.
    const std::uint64_t thread = got->seq / 1000;
    if (thread >= 2) {
      ADD_FAILURE() << "unexpected seq " << got->seq;
      continue;
    }
    EXPECT_EQ(got->seq % 1000, next[thread]++);
    EXPECT_TRUE(got->tail.empty());
    EXPECT_TRUE(got->payload == Body(got->seq, size_of(got->seq)))
        << "seq " << got->seq;
  }
  for (std::thread& thread : senders) thread.join();
  EXPECT_EQ(sender.bytes_sent(), expected_bytes);
}

TEST(SimTransportTest, TailArrivesAfterPayload) {
  auto [a, b] = CreateSimChannel();
  BlockingQueue<Message> at_b;
  b->Start([&](Message m) { at_b.Push(std::move(m)); });
  a->Start([](Message) {});
  ExpectTailedFramesArriveWhole(*a, at_b);
  a->Close();
  b->Close();
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    listener_ = std::make_unique<TcpListener>(0);  // Ephemeral port.
    ASSERT_TRUE(listener_
                    ->Start([this](ConnectionPtr c) {
                      accepted_.Push(std::move(c));
                    })
                    .ok());
  }
  void TearDown() override { listener_->Stop(); }

  std::unique_ptr<TcpListener> listener_;
  BlockingQueue<ConnectionPtr> accepted_;
};

TEST_F(TcpTransportTest, RoundTripOverLoopback) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = accepted_.Pop();
  ASSERT_TRUE(server.has_value());

  BlockingQueue<Message> at_server;
  (*server)->Start([&](Message m) { at_server.Push(std::move(m)); });
  BlockingQueue<Message> at_client;
  (*client)->Start([&](Message m) { at_client.Push(std::move(m)); });

  ASSERT_TRUE((*client)
                  ->Send(Make(MsgType::kWriteBuffer, 9,
                              std::vector<std::uint8_t>{1, 2, 3}))
                  .ok());
  auto got = at_server.Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 9u);
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{1, 2, 3}));

  ASSERT_TRUE((*server)->Send(Make(MsgType::kStatusReply, 9)).ok());
  auto reply = at_client.Pop();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kStatusReply);

  (*client)->Close();
  (*server)->Close();
}

TEST_F(TcpTransportTest, LargeFrameSurvives) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok());
  auto server = accepted_.Pop();
  BlockingQueue<Message> at_server;
  (*server)->Start([&](Message m) { at_server.Push(std::move(m)); });
  (*client)->Start([](Message) {});

  std::vector<std::uint8_t> big(8 << 20);  // 8 MB.
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  ASSERT_TRUE((*client)->Send(Make(MsgType::kWriteBuffer, 1, big)).ok());
  auto got = at_server.Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, big);
  (*client)->Close();
  (*server)->Close();
}

TEST_F(TcpTransportTest, ManyMessagesStayOrdered) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok());
  auto server = accepted_.Pop();
  BlockingQueue<std::uint64_t> seqs;
  (*server)->Start([&](Message m) { seqs.Push(m.seq); });
  (*client)->Start([](Message) {});
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE((*client)
                    ->Send(Make(MsgType::kQueryLoad, i,
                                std::vector<std::uint8_t>(i % 97, 1)))
                    .ok());
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(*seqs.Pop(), i);
  }
  (*client)->Close();
  (*server)->Close();
}

// Two threads share one connection. Each frame is one gathered write of
// header and payload; the 16 MiB one is larger than the socket buffer, so
// it leaves in several partial writes, which must not interleave with the
// other thread's frames.
TEST_F(TcpTransportTest, ConcurrentSendersFramesArriveWholeAndInOrder) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok());
  auto server = accepted_.Pop();
  BlockingQueue<Message> at_server;
  (*server)->Start([&](Message m) { at_server.Push(std::move(m)); });
  (*client)->Start([](Message) {});

  constexpr std::size_t kSizes[] = {0, 1, 64 << 10, (16 << 20) + 3};
  constexpr std::uint64_t kPerThread = 2 * std::size(kSizes);
  // seq = 1000 * thread + index.
  auto payload = [&](std::uint64_t seq) {
    return Body(seq, kSizes[seq % 1000 % std::size(kSizes)]);
  };
  std::uint64_t expected_bytes = 0;
  for (std::uint64_t i = 0; i < 2 * kPerThread; ++i) {
    expected_bytes += Message::kHeaderSize + kSizes[i % std::size(kSizes)];
  }
  std::vector<std::thread> senders;
  for (std::uint64_t t = 0; t < 2; ++t) {
    senders.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t seq = 1000 * t + i;
        EXPECT_TRUE(
            (*client)->Send(Make(MsgType::kWriteBuffer, seq, payload(seq)))
                .ok());
      }
    });
  }
  std::uint64_t next[2] = {0, 0};
  for (std::uint64_t n = 0; n < 2 * kPerThread; ++n) {
    auto got = at_server.Pop();  // Never empty: the queue stays open.
    const std::uint64_t thread = got->seq / 1000;
    if (thread >= 2) {
      ADD_FAILURE() << "unexpected seq " << got->seq;
      continue;
    }
    EXPECT_EQ(got->seq % 1000, next[thread]++);
    EXPECT_TRUE(got->payload == payload(got->seq)) << "seq " << got->seq;
  }
  for (std::thread& sender : senders) sender.join();
  EXPECT_EQ((*client)->bytes_sent(), expected_bytes);
  EXPECT_EQ((*client)->messages_sent(), 2 * kPerThread);
  (*client)->Close();
  (*server)->Close();
}

TEST_F(TcpTransportTest, TailArrivesAfterPayload) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok());
  auto server = accepted_.Pop();
  BlockingQueue<Message> at_server;
  (*server)->Start([&](Message m) { at_server.Push(std::move(m)); });
  (*client)->Start([](Message) {});
  ExpectTailedFramesArriveWhole(**client, at_server);
  (*client)->Close();
  (*server)->Close();
}

// The reader hands over only whole frames: a payload cut short by the
// peer closing is never delivered.
TEST_F(TcpTransportTest, TruncatedFrameIsNotDelivered) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto server = accepted_.Pop();
  BlockingQueue<Message> at_server;
  (*server)->Start([&](Message m) { at_server.Push(std::move(m)); });

  const Message whole = Make(MsgType::kWriteBuffer, 1, {1, 2, 3});
  const Message cut = Make(MsgType::kWriteBuffer, 2, {4, 5, 6});
  std::vector<std::uint8_t> stream;
  for (const Message* m : {&whole, &cut}) {
    const auto header = m->EncodeHeader();
    stream.insert(stream.end(), header.begin(), header.end());
    stream.insert(stream.end(), m->payload.begin(), m->payload.end());
  }
  stream.pop_back();  // The second frame claims 3 bytes but carries 2.
  ASSERT_EQ(::write(fd, stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  ::close(fd);

  auto got = at_server.Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 1u);
  EXPECT_EQ(got->payload, whole.payload);
  (*server)->Close();  // Joins the reader: nothing more can arrive.
  EXPECT_FALSE(at_server.TryPop().has_value());
}

TEST(TcpConnectTest, RefusedConnectionReported) {
  // Port 1 is essentially never listening.
  auto client = TcpConnect("127.0.0.1", 1);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.code(), ErrorCode::kNetworkError);
}

TEST(TcpConnectTest, BadAddressReported) {
  EXPECT_FALSE(TcpConnect("not-an-ip", 80).ok());
}

// ---- RPC -------------------------------------------------------------------

TEST(RpcTest, CallMatchesReplyBySeq) {
  auto [host_end, node_end] = CreateSimChannel();
  // Echo server: replies with the request seq and type kStatusReply.
  auto* node_raw = node_end.get();
  node_end->Start([node_raw](Message m) {
    Message reply;
    reply.type = MsgType::kStatusReply;
    reply.seq = m.seq;
    reply.payload = m.payload;
    (void)node_raw->Send(reply);
  });
  RpcClient client(std::move(host_end));

  // Issue out-of-order async calls; all must resolve.
  auto f1 = client.CallAsync(MsgType::kQueryLoad, 1, {1});
  auto f2 = client.CallAsync(MsgType::kQueryLoad, 1, {2});
  auto f3 = client.CallAsync(MsgType::kQueryLoad, 1, {3});
  EXPECT_EQ(f3->Wait().value().payload, (std::vector<std::uint8_t>{3}));
  EXPECT_EQ(f1->Wait().value().payload, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(f2->Wait().value().payload, (std::vector<std::uint8_t>{2}));
  client.Close();
  node_raw->Close();
}

TEST(RpcTest, TimeoutWhenNodeSilent) {
  auto [host_end, node_end] = CreateSimChannel();
  node_end->Start([](Message) { /* never reply */ });
  RpcClient client(std::move(host_end));
  auto reply = client.Call(MsgType::kQueryLoad, 1, {},
                           std::chrono::milliseconds(50));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.code(), ErrorCode::kNetworkError);
  client.Close();
  node_end->Close();
}

TEST(RpcTest, CloseFailsPendingCalls) {
  auto [host_end, node_end] = CreateSimChannel();
  node_end->Start([](Message) {});
  RpcClient client(std::move(host_end));
  auto pending = client.CallAsync(MsgType::kQueryLoad, 1, {});
  client.Close();
  EXPECT_FALSE(pending->Wait().ok());
  node_end->Close();
}

// A reply that arrives after the call's deadline already failed it is an
// orphan: dropped, never delivered in place of the deadline error, and
// never matched to a later call.
TEST(RpcTest, LateReplyAfterDeadlineIsDropped) {
  auto [host_end, node_end] = CreateSimChannel();
  BlockingQueue<Message> requests;
  node_end->Start([&](Message m) { requests.Push(std::move(m)); });
  RpcClient client(std::move(host_end));
  client.SetCallTimeout(std::chrono::milliseconds(50));

  auto late = client.CallAsync(MsgType::kQueryLoad, 1, {});
  EXPECT_EQ(late->Wait().code(), ErrorCode::kNodeLost);
  auto request = requests.Pop();
  ASSERT_TRUE(request.has_value());
  Message stale = Make(MsgType::kStatusReply, request->seq, {0xEE});
  ASSERT_TRUE(node_end->Send(stale).ok());

  // The next call gets its own reply, not the stale one.
  std::thread node([&] {
    auto next = requests.Pop();
    ASSERT_TRUE(next.has_value());
    ASSERT_TRUE(
        node_end->Send(Make(MsgType::kStatusReply, next->seq, {0x11})).ok());
  });
  client.SetCallTimeout(std::chrono::milliseconds(0));
  auto reply = client.Call(MsgType::kQueryLoad, 1, {});
  node.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->payload, (std::vector<std::uint8_t>{0x11}));
  EXPECT_EQ(late->Wait().code(), ErrorCode::kNodeLost);
  client.Close();
  node_end->Close();
}

// A call's tail goes out after its payload and comes back, echoed, as one
// payload, exactly.
TEST(RpcTest, CallWithTailRoundTripsExactly) {
  TcpListener listener(0);
  BlockingQueue<ConnectionPtr> accepted;
  ASSERT_TRUE(
      listener.Start([&](ConnectionPtr c) { accepted.Push(std::move(c)); })
          .ok());
  auto connection = TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(connection.ok());
  auto echo = accepted.Pop();
  ASSERT_TRUE(echo.has_value());
  Connection* echo_raw = echo->get();
  echo_raw->Start([echo_raw](Message m) {
    m.type = MsgType::kReadReply;
    (void)echo_raw->Send(m);
  });
  RpcClient client(*std::move(connection));

  const std::vector<std::uint8_t> head = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> tail = Body(7, 16 << 20);
  auto reply = client.Call(MsgType::kWriteBuffer, 1, head,
                           RpcClient::kDefaultCallTimeout, tail);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->payload.size(), head.size() + tail.size());
  EXPECT_TRUE(std::equal(head.begin(), head.end(), reply->payload.begin()));
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         reply->payload.begin() + head.size()));
  EXPECT_EQ(client.bytes_sent(),
            Message::kHeaderSize + head.size() + tail.size());

  client.Close();
  echo_raw->Close();
  listener.Stop();
}

// A bulk read through a real daemon: the reply is moved out of the call,
// and its bytes are exactly the buffer's.
TEST(RpcTest, Call16MiBReadBufferReturnsExactBytes) {
  auto server = nmp::NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  TcpListener listener(0);
  ASSERT_TRUE(
      listener.Start([&](ConnectionPtr c) { (*server)->Serve(std::move(c)); })
          .ok());
  auto connection = TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(connection.ok());
  RpcClient client(*std::move(connection));

  constexpr std::uint64_t kBytes = 16 << 20;
  WriteBufferRequest write;
  write.buffer_id = 1;
  write.data.resize(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    write.data[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  auto created = client.Call(MsgType::kCreateBuffer, 1,
                             CreateBufferRequest{1, kBytes}.Encode());
  ASSERT_TRUE(created.ok());
  auto written = client.Call(MsgType::kWriteBuffer, 1, write.Encode());
  ASSERT_TRUE(written.ok());
  auto status = StatusReply::Decode(written->payload);
  ASSERT_TRUE(status.ok() && status->ToStatus().ok());

  auto read = client.Call(MsgType::kReadBuffer, 1,
                          ReadBufferRequest{1, 0, kBytes}.Encode());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->type, MsgType::kReadReply);
  EXPECT_TRUE(read->payload == write.data);

  client.Close();
  (*server)->Shutdown();
  listener.Stop();
}

}  // namespace
}  // namespace haocl::net
