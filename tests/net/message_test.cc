#include "net/message.h"

#include <gtest/gtest.h>

#include "golden_messages.h"
#include "net/protocol.h"

namespace haocl::net {
namespace {

TEST(MessageTest, HeaderRoundTrip) {
  Message msg;
  msg.type = MsgType::kLaunchKernel;
  msg.seq = 42;
  msg.session = 7;
  msg.payload = {1, 2, 3, 4, 5};
  const auto header = msg.EncodeHeader();
  auto parsed = Message::ParseHeader(header.data(), header.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, MsgType::kLaunchKernel);
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_EQ(parsed->session, 7u);
  EXPECT_EQ(parsed->payload_size, msg.payload.size());
  EXPECT_EQ(msg.WireSize(), Message::kHeaderSize + msg.payload.size());
}

TEST(MessageTest, HeaderLengthCountsTheTail) {
  const std::vector<std::uint8_t> body(1000, 0x7E);
  Message msg;
  msg.type = MsgType::kWriteBuffer;
  msg.payload = {1, 2, 3};
  msg.tail = body;
  const auto header = msg.EncodeHeader();
  auto parsed = Message::ParseHeader(header.data(), header.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->payload_size, 1003u);
  EXPECT_EQ(msg.WireSize(), Message::kHeaderSize + 1003u);
}

TEST(MessageTest, EmptyPayload) {
  Message msg;
  msg.type = MsgType::kQueryLoad;
  EXPECT_EQ(msg.WireSize(), Message::kHeaderSize);
  const auto header = msg.EncodeHeader();
  auto parsed = Message::ParseHeader(header.data(), header.size());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->payload_size, 0u);
}

TEST(MessageTest, BadMagicRejected) {
  auto header = Message{}.EncodeHeader();
  header[0] ^= 0xFF;
  EXPECT_FALSE(Message::ParseHeader(header.data(), header.size()).ok());
}

TEST(MessageTest, TruncatedHeaderRejected) {
  const auto header = Message{}.EncodeHeader();
  EXPECT_FALSE(Message::ParseHeader(header.data(), 5).ok());
  EXPECT_FALSE(
      Message::ParseHeader(header.data(), Message::kHeaderSize - 1).ok());
}

TEST(MessageTest, AbsurdPayloadLengthRejected) {
  auto header = Message{}.EncodeHeader();
  // Patch the payload-size field (last 8 header bytes) to something huge.
  for (std::size_t i = Message::kHeaderSize - 8; i < Message::kHeaderSize;
       ++i) {
    header[i] = 0xFF;
  }
  auto parsed = Message::ParseHeader(header.data(), header.size());
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.code(), ErrorCode::kProtocolError);
}

// ----- Protocol payload codecs ---------------------------------------------

TEST(ProtocolTest, HelloRoundTrip) {
  HelloRequest req;
  req.host_name = "host-A";
  auto decoded = HelloRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->host_name, "host-A");

  HelloReply reply;
  reply.node_name = "gpu3";
  reply.device_type = NodeType::kGpu;
  reply.device_model = "Tesla P4";
  reply.compute_gflops = 5500;
  reply.simd_width = 32;
  auto r = HelloReply::Decode(reply.Encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node_name, "gpu3");
  EXPECT_EQ(r->device_type, NodeType::kGpu);
  EXPECT_DOUBLE_EQ(r->compute_gflops, 5500);
  EXPECT_EQ(r->simd_width, 32u);

  HelloReply scalar_reply;  // Default: scalar device, width 1.
  auto sr = HelloReply::Decode(scalar_reply.Encode());
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(sr->simd_width, 1u);
}

TEST(ProtocolTest, BufferRequestsRoundTrip) {
  CreateBufferRequest create{11, 4096};
  auto c = CreateBufferRequest::Decode(create.Encode());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->buffer_id, 11u);
  EXPECT_EQ(c->size, 4096u);

  WriteBufferRequest write;
  write.buffer_id = 11;
  write.offset = 128;
  write.data = {9, 8, 7};
  auto w = WriteBufferRequest::Decode(write.Encode());
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->offset, 128u);
  EXPECT_EQ(w->data, write.data);

  ReadBufferRequest read{11, 0, 256};
  auto r = ReadBufferRequest::Decode(read.Encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size, 256u);

  CopyBufferRequest copy{1, 2, 10, 20, 30};
  auto cp = CopyBufferRequest::Decode(copy.Encode());
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->dst_offset, 20u);
}

TEST(ProtocolTest, LaunchKernelRoundTrip) {
  LaunchKernelRequest req;
  req.program_id = 3;
  req.kernel_name = "matmul_partition";
  WireKernelArg buf;
  buf.kind = WireKernelArg::Kind::kBuffer;
  buf.buffer_id = 17;
  buf.written_begin = 128;
  buf.written_end = 640;
  WireKernelArg scalar;
  scalar.kind = WireKernelArg::Kind::kScalar;
  scalar.scalar_bytes = {0, 1, 0, 0};
  WireKernelArg local;
  local.kind = WireKernelArg::Kind::kLocalSize;
  local.local_size = 1024;
  req.args = {buf, scalar, local};
  req.work_dim = 2;
  req.global[0] = 256;
  req.global[1] = 128;
  req.local[0] = 16;
  req.local[1] = 8;
  req.local_specified = true;

  auto decoded = LaunchKernelRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kernel_name, "matmul_partition");
  ASSERT_EQ(decoded->args.size(), 3u);
  EXPECT_EQ(decoded->args[0].buffer_id, 17u);
  EXPECT_EQ(decoded->args[0].written_begin, 128u);
  EXPECT_EQ(decoded->args[0].written_end, 640u);
  EXPECT_EQ(decoded->args[1].scalar_bytes.size(), 4u);
  EXPECT_EQ(decoded->args[2].local_size, 1024u);
  EXPECT_EQ(decoded->global[1], 128u);
  EXPECT_TRUE(decoded->local_specified);
  EXPECT_FALSE(decoded->has_cost_hint);  // None set: none decoded.

  // The analytic cost hint (shard-scaled work estimate) rides along.
  req.has_cost_hint = true;
  req.hint_flops = 2.5e9;
  req.hint_bytes = 1e6;
  req.hint_work_items = 256;
  req.hint_irregular = true;
  auto hinted = LaunchKernelRequest::Decode(req.Encode());
  ASSERT_TRUE(hinted.ok()) << hinted.status().ToString();
  ASSERT_TRUE(hinted->has_cost_hint);
  EXPECT_DOUBLE_EQ(hinted->hint_flops, 2.5e9);
  EXPECT_DOUBLE_EQ(hinted->hint_bytes, 1e6);
  EXPECT_EQ(hinted->hint_work_items, 256u);
  EXPECT_TRUE(hinted->hint_irregular);
}

TEST(ProtocolTest, MemoryNoticeRoundTrip) {
  MemoryNoticeRequest notice;
  notice.buffer_id = 9;
  notice.reserve = true;
  notice.regions = {{0, 4096}, {8192, 1024}};
  auto decoded = MemoryNoticeRequest::Decode(notice.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->buffer_id, 9u);
  EXPECT_TRUE(decoded->reserve);
  ASSERT_EQ(decoded->regions.size(), 2u);
  EXPECT_EQ(decoded->regions[1].offset, 8192u);
  EXPECT_EQ(decoded->regions[1].size, 1024u);

  notice.reserve = false;
  notice.regions.clear();
  auto evict = MemoryNoticeRequest::Decode(notice.Encode());
  ASSERT_TRUE(evict.ok());
  EXPECT_FALSE(evict->reserve);
  EXPECT_TRUE(evict->regions.empty());

  EXPECT_FALSE(MemoryNoticeRequest::Decode({1, 2, 3}).ok());
}

TEST(ProtocolTest, HelloAndLoadCarryMemoryCapacity) {
  HelloReply hello;
  hello.node_name = "gpu0";
  hello.device_type = NodeType::kGpu;
  hello.mem_capacity_bytes = 8ull << 30;
  auto decoded = HelloReply::Decode(hello.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->mem_capacity_bytes, 8ull << 30);

  LoadReply load;
  load.bytes_resident = 12345;
  load.mem_capacity_bytes = 65536;
  auto load_decoded = LoadReply::Decode(load.Encode());
  ASSERT_TRUE(load_decoded.ok());
  EXPECT_EQ(load_decoded->bytes_resident, 12345u);
  EXPECT_EQ(load_decoded->mem_capacity_bytes, 65536u);
}

TEST(ProtocolTest, TruncatedPayloadsRejected) {
  LaunchKernelRequest req;
  req.kernel_name = "k";
  WireKernelArg arg;
  arg.kind = WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  req.args = {arg};
  auto bytes = req.Encode();
  for (std::size_t cut : {std::size_t{1}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + cut);
    EXPECT_FALSE(LaunchKernelRequest::Decode(truncated).ok())
        << "cut=" << cut;
  }
}

// ----- Golden bytes ---------------------------------------------------------

template <typename T>
void ExpectEncodesToRecordedBytes(const golden::Sample<T>& sample) {
  EXPECT_EQ(golden::ToHex(sample.value.Encode()), sample.hex) << sample.name;
}

TEST(ProtocolGoldenTest, EveryMessageEncodesToItsRecordedBytes) {
  std::apply([](const auto&... s) { (ExpectEncodesToRecordedBytes(s), ...); },
             golden::Samples());
}

template <typename T>
void ExpectDecodesToSample(const golden::Sample<T>& sample) {
  std::vector<std::uint8_t> bytes = golden::FromHex(sample.hex);
  auto decoded = T::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << sample.name << ": "
                            << decoded.status().ToString();
  EXPECT_TRUE(*decoded == sample.value) << sample.name;
  // The consuming decode (the node's path) yields the same message.
  auto consumed = T::Decode(golden::FromHex(sample.hex));
  ASSERT_TRUE(consumed.ok()) << sample.name << ": "
                             << consumed.status().ToString();
  EXPECT_TRUE(*consumed == sample.value) << sample.name;
  // Trailing bytes are tolerated (room for fields appended later).
  bytes.push_back(0xAB);
  auto extended = T::Decode(bytes);
  ASSERT_TRUE(extended.ok()) << sample.name;
  EXPECT_TRUE(*extended == sample.value) << sample.name;
}

TEST(ProtocolGoldenTest, RecordedBytesDecodeToTheSample) {
  std::apply([](const auto&... s) { (ExpectDecodesToSample(s), ...); },
             golden::Samples());
}

// A body sent as the frame's tail: the head EncodeHead gives, followed by
// the body, is the recorded encoding byte for byte. The head ignores the
// message's own byte vector.
TEST(ProtocolGoldenTest, WriteBufferHeadThenBodyEncodesToTheRecordedBytes) {
  const auto samples = golden::Samples();
  const auto& sample = std::get<golden::Sample<WriteBufferRequest>>(samples);
  const std::vector<std::uint8_t>& body = sample.value.data;
  WriteBufferRequest head_only = sample.value;
  head_only.data.clear();
  std::vector<std::uint8_t> frame = head_only.EncodeHead(body.size());
  EXPECT_EQ(frame, sample.value.EncodeHead(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  EXPECT_EQ(golden::ToHex(frame), sample.hex);
}

TEST(ProtocolTest, AnyNonzeroBoolByteDecodesAsTrue) {
  auto bytes = MemoryNoticeRequest{9, true, {}}.Encode();
  bytes[8] = 0x80;  // The `reserve` flag follows the u64 buffer id.
  auto decoded = MemoryNoticeRequest::Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->reserve);
}

TEST(ProtocolTest, OutOfRangeEnumsRejected) {
  auto hello = HelloReply{}.Encode();
  hello[4] = 3;  // device_type follows the empty node name's u32 length.
  EXPECT_EQ(HelloReply::Decode(hello).code(), ErrorCode::kProtocolError);

  LaunchKernelRequest launch;
  launch.args.resize(1);
  auto bytes = launch.Encode();
  bytes[16] = 3;  // The first arg's kind: after program id, name, argc.
  EXPECT_EQ(LaunchKernelRequest::Decode(bytes).code(),
            ErrorCode::kProtocolError);
}

// Claimed counts and lengths are checked against the bytes actually left
// before anything is allocated. Each payload here used to throw out of
// Decode (std::bad_alloc, std::length_error) and abort the process.
TEST(ProtocolTest, OversizedClaimsRejectedBeforeAllocating) {
  // 12 bytes: a launch id, then 2^32-1 chunk ids.
  const auto revoke = golden::FromHex("1500000000000000ffffffff");
  EXPECT_EQ(RevokeChunkRequest::Decode(revoke).code(),
            ErrorCode::kProtocolError);

  // 56 bytes: buffer id, offset, then a data length that wraps the read
  // position back inside the payload.
  std::vector<std::uint8_t> write(56, 0);
  for (int i = 16; i < 24; ++i) write[i] = 0xFF;
  write[16] = 0xF0;  // 2^64 - 16.
  EXPECT_EQ(WriteBufferRequest::Decode(write).code(),
            ErrorCode::kProtocolError);

  // A node reply claiming 2^32-1 broker tenants or kernel rates.
  std::vector<std::uint8_t> broker(40, 0);  // Five scalar fields.
  broker.insert(broker.end(), {0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_EQ(BrokerStatsReply::Decode(broker).code(),
            ErrorCode::kProtocolError);
  std::vector<std::uint8_t> load(84, 0);  // Eleven scalar fields.
  load.insert(load.end(), {0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_EQ(LoadReply::Decode(load).code(), ErrorCode::kProtocolError);
}

TEST(ProtocolTest, StatusReplyConveysErrors) {
  StatusReply reply = StatusReply::FromStatus(
      Status(ErrorCode::kInvalidMemObject, "no buffer 9"));
  auto decoded = StatusReply::Decode(reply.Encode());
  ASSERT_TRUE(decoded.ok());
  Status status = decoded->ToStatus();
  EXPECT_EQ(status.code(), ErrorCode::kInvalidMemObject);
  EXPECT_EQ(status.message(), "no buffer 9");
}

}  // namespace
}  // namespace haocl::net
