// Message framing for the communication backbone.
//
// Every unit crossing a node boundary is a Message: a fixed header (magic,
// type, sequence number, session id, payload length) followed by a payload
// encoded with common/wire.h. The same frame format is used by the
// in-process transport and the TCP transport, so the NMP and the host
// runtime are transport-agnostic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace haocl::net {

enum class MsgType : std::uint16_t {
  // Handshake.
  kHelloRequest = 1,
  kHelloReply = 2,
  // Buffer management on a device node.
  kCreateBuffer = 10,
  kWriteBuffer = 11,
  kReadBuffer = 12,
  kReleaseBuffer = 13,
  kCopyBuffer = 14,
  // Node-to-node slice exchange (region directory): the host instructs a
  // node to pull a byte range from a peer / push one to a peer.
  kPullSlice = 15,
  kPushSlice = 16,
  // Tiered-memory reservation/eviction notice: keeps the node's memory
  // pool in lock-step with the host's per-node ledger for residency
  // changes no data transfer makes visible (evictions, discard
  // migrations).
  kMemoryNotice = 17,
  // Program / kernel management.
  kBuildProgram = 20,
  kReleaseProgram = 21,
  kLaunchKernel = 22,
  // Elastic execution: host -> node cancellation of chunk sub-launches the
  // coordinator re-targeted (stolen by a peer, or re-queued after their
  // owner died). Intercepted on the node's receive path so revocation
  // overtakes launches already queued behind long-running work.
  kRevokeChunk = 23,
  // Monitoring (scheduler's runtime information).
  kQueryLoad = 30,
  // Broker introspection: the node's shared ledger, per-tenant serving
  // stats, and shared kernel rates (multi-tenant fairness surface).
  kQueryBroker = 31,
  // Liveness probe: answered immediately on the node's receive path (never
  // queued behind data-plane work), so a timely reply means the node is
  // alive even when its command queue is deep. Paired with the RPC call
  // deadline, a missed reply marks the node dead (kNodeLost).
  kHeartbeat = 32,
  // Session control.
  kOpenSession = 40,
  kCloseSession = 41,
  kShutdown = 42,
  // Tenant registration at session connect: fair-share weight and memory
  // quota the node broker serves this session under.
  kConfigureSession = 43,
  // Replies.
  kStatusReply = 100,  // status only
  kHelloReplyData = 101,
  kReadReply = 102,    // status + bytes
  kBuildReply = 103,   // status + build log + kernel names
  kLaunchReply = 104,  // status + modeled timing
  kLoadReply = 105,    // monitor counters
  kBrokerReply = 106,  // broker ledger + tenant stats + shared rates
};

struct Message {
  MsgType type = MsgType::kStatusReply;
  std::uint64_t seq = 0;      // Request/response matching.
  std::uint64_t session = 0;  // Multi-user isolation.
  std::vector<std::uint8_t> payload;
  // Bytes sent right after `payload`, from wherever they already live (a
  // host shadow, a node replica), so a bulk body is never staged in a
  // vector. Borrowed only until Send returns. On the wire the frame's
  // payload is `payload` followed by `tail`; a received message has the
  // whole of it in `payload` and an empty tail.
  std::span<const std::uint8_t> tail;

  // Bytes this message puts on the wire: header, payload and tail.
  [[nodiscard]] std::size_t WireSize() const noexcept {
    return kHeaderSize + payload.size() + tail.size();
  }

  static constexpr std::uint32_t kMagic = 0x48414F43;  // "HAOC"
  static constexpr std::size_t kHeaderSize = 4 + 2 + 2 + 8 + 8 + 8;
  // Frames larger than this are rejected as protocol errors (a corrupted
  // length prefix must not make a node try to allocate petabytes).
  static constexpr std::uint64_t kMaxPayload = 1ULL << 32;

  // The fixed header of this message's frame. A stream transport sends it
  // followed by `payload` and `tail` themselves, so neither is copied into
  // a frame buffer.
  [[nodiscard]] std::array<std::uint8_t, kHeaderSize> EncodeHeader() const;

  // Parses the fixed header, returning the payload length so stream
  // transports know how many more bytes to read.
  struct Header {
    MsgType type;
    std::uint64_t seq;
    std::uint64_t session;
    std::uint64_t payload_size;
  };
  static Expected<Header> ParseHeader(const void* data, std::size_t size);
};

const char* MsgTypeName(MsgType type) noexcept;

}  // namespace haocl::net
