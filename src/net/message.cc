#include "net/message.h"

#include <cstring>

#include "common/wire.h"

namespace haocl::net {

std::array<std::uint8_t, Message::kHeaderSize> Message::EncodeHeader()
    const {
  // Same little-endian fixed-width layout WireWriter produces, written in
  // place so sending a frame allocates nothing.
  std::array<std::uint8_t, kHeaderSize> header;
  std::uint8_t* out = header.data();
  auto put = [&out](auto value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  };
  put(kMagic);
  put(static_cast<std::uint16_t>(type));
  put(std::uint16_t{0});  // flags, reserved
  put(seq);
  put(session);
  put(static_cast<std::uint64_t>(payload.size() + tail.size()));
  return header;
}

Expected<Message::Header> Message::ParseHeader(const void* data,
                                               std::size_t size) {
  if (size < kHeaderSize) {
    return Status(ErrorCode::kProtocolError, "short message header");
  }
  WireReader r(data, size);
  auto magic = r.ReadU32();
  if (!magic.ok() || *magic != kMagic) {
    return Status(ErrorCode::kProtocolError, "bad frame magic");
  }
  Header header{};
  auto type = r.ReadU16();
  auto flags = r.ReadU16();
  auto seq = r.ReadU64();
  auto session = r.ReadU64();
  auto payload_size = r.ReadU64();
  if (!type.ok() || !flags.ok() || !seq.ok() || !session.ok() ||
      !payload_size.ok()) {
    return Status(ErrorCode::kProtocolError, "truncated header");
  }
  if (*payload_size > kMaxPayload) {
    return Status(ErrorCode::kProtocolError,
                  "frame payload exceeds limit: " +
                      std::to_string(*payload_size));
  }
  header.type = static_cast<MsgType>(*type);
  header.seq = *seq;
  header.session = *session;
  header.payload_size = *payload_size;
  return header;
}

const char* MsgTypeName(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHelloRequest: return "HelloRequest";
    case MsgType::kHelloReply: return "HelloReply";
    case MsgType::kCreateBuffer: return "CreateBuffer";
    case MsgType::kWriteBuffer: return "WriteBuffer";
    case MsgType::kReadBuffer: return "ReadBuffer";
    case MsgType::kReleaseBuffer: return "ReleaseBuffer";
    case MsgType::kCopyBuffer: return "CopyBuffer";
    case MsgType::kPullSlice: return "PullSlice";
    case MsgType::kPushSlice: return "PushSlice";
    case MsgType::kMemoryNotice: return "MemoryNotice";
    case MsgType::kBuildProgram: return "BuildProgram";
    case MsgType::kReleaseProgram: return "ReleaseProgram";
    case MsgType::kLaunchKernel: return "LaunchKernel";
    case MsgType::kRevokeChunk: return "RevokeChunk";
    case MsgType::kQueryLoad: return "QueryLoad";
    case MsgType::kQueryBroker: return "QueryBroker";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kOpenSession: return "OpenSession";
    case MsgType::kCloseSession: return "CloseSession";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kConfigureSession: return "ConfigureSession";
    case MsgType::kStatusReply: return "StatusReply";
    case MsgType::kHelloReplyData: return "HelloReplyData";
    case MsgType::kReadReply: return "ReadReply";
    case MsgType::kBuildReply: return "BuildReply";
    case MsgType::kLaunchReply: return "LaunchReply";
    case MsgType::kLoadReply: return "LoadReply";
    case MsgType::kBrokerReply: return "BrokerReply";
  }
  return "?";
}

}  // namespace haocl::net
