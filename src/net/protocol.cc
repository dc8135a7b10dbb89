#include "net/protocol.h"

#include <cassert>
#include <cstring>
#include <optional>
#include <type_traits>

#include "common/wire.h"

namespace haocl::net {
namespace {

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

// The highest value of each enum that crosses the wire; decoding a larger
// one is a protocol error, never an out-of-range enum.
constexpr NodeType LastValue(NodeType) { return NodeType::kFpga; }
constexpr WireKernelArg::Kind LastValue(WireKernelArg::Kind) {
  return WireKernelArg::Kind::kLocalSize;
}

// Runs a field list forward. Without an output vector it only counts the
// bytes, so Encode can size the payload exactly and allocate it once.
//
// Given a tail size, it encodes a head (EncodeHead): the list's byte
// vector becomes a u64 length of `tail_size` with no bytes, and it must be
// the list's last field, since its bytes follow on the wire as the tail.
class Encoder {
 public:
  explicit Encoder(std::vector<std::uint8_t>* out = nullptr,
                   std::optional<std::uint64_t> tail_size = std::nullopt)
      : out_(out), tail_size_(tail_size) {}

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (Field(fields), ...);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  // Whether a head encoding reached its trailing byte vector.
  [[nodiscard]] bool head_done() const { return head_done_; }

 private:
  void Put(const void* data, std::size_t size) {
    assert(!head_done_ && "EncodeHead: the byte vector is not the last field");
    size_ += size;
    if (out_ == nullptr) return;
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + size);
  }

  template <typename T>
  void Field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      Field(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      Put(&v, sizeof(T));
    } else if constexpr (std::is_same_v<T, std::string>) {
      Field(static_cast<std::uint32_t>(v.size()));
      Put(v.data(), v.size());
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      if (tail_size_.has_value()) {
        Field(*tail_size_);
        head_done_ = true;
      } else {
        Field(static_cast<std::uint64_t>(v.size()));
        Put(v.data(), v.size());
      }
    } else if constexpr (IsVector<T>::value) {
      Field(static_cast<std::uint32_t>(v.size()));
      for (const auto& item : v) Field(item);
    } else if constexpr (std::is_array_v<T>) {
      for (const auto& item : v) Field(item);
    } else {
      Fields(*this, const_cast<T&>(v));  // Field lists only read here.
    }
  }

  std::vector<std::uint8_t>* out_;
  std::optional<std::uint64_t> tail_size_;
  std::size_t size_ = 0;
  bool head_done_ = false;
};

// Runs a field list over a payload, filling the fields in. The first
// failure sticks: every later field is skipped, so conditional parts of a
// list never act on a value that was not read.
//
// Given `owned`, the payload's own storage that the caller gives up, a
// byte vector that runs to the end of the payload slides to the front of
// that storage and takes it over: one in-place memmove instead of a fresh
// allocation and a copy. Nothing is read after it, since nothing is left.
class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& bytes,
                   std::vector<std::uint8_t>* owned = nullptr)
      : in_(bytes), owned_(owned) {}

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (Field(fields), ...);
  }

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  template <typename T>
  void Take(Expected<T> read, T& v) {
    if (read.ok()) {
      v = *std::move(read);
    } else {
      status_ = read.status();
    }
  }

  template <typename T>
  void Field(T& v) {
    if (!status_.ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t raw = 0;
      Field(raw);
      v = raw != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw{};
      Field(raw);
      if (raw > static_cast<decltype(raw)>(LastValue(T{}))) {
        status_ = Status(ErrorCode::kProtocolError, "enum value out of range");
      } else {
        v = static_cast<T>(raw);
      }
    } else if constexpr (std::is_arithmetic_v<T>) {
      Take(in_.ReadFixed<T>(), v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      Take(in_.ReadString(), v);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      auto bytes = in_.ReadByteSpan();
      if (!bytes.ok()) {
        status_ = bytes.status();
      } else if (owned_ != nullptr && in_.AtEnd()) {
        std::memmove(owned_->data(), bytes->data(), bytes->size());
        owned_->resize(bytes->size());
        v = std::move(*owned_);
        owned_ = nullptr;
      } else {
        v.assign(bytes->begin(), bytes->end());
      }
    } else if constexpr (IsVector<T>::value) {
      std::uint32_t count = 0;
      Field(count);
      // Every element takes at least one byte, so a count beyond the bytes
      // left is a lie: reject it before anything is allocated for it.
      if (count > in_.remaining()) {
        status_ =
            Status(ErrorCode::kProtocolError, "list count exceeds payload");
      }
      for (std::uint32_t i = 0; i < count && status_.ok(); ++i) {
        Field(v.emplace_back());
      }
    } else if constexpr (std::is_array_v<T>) {
      for (auto& item : v) Field(item);
    } else {
      Fields(*this, v);
    }
  }

  WireReader in_;
  std::vector<std::uint8_t>* owned_;
  Status status_;
};

template <typename T>
std::vector<std::uint8_t> EncodeMessage(
    const T& message, std::optional<std::uint64_t> tail_size = std::nullopt) {
  Encoder sizer(nullptr, tail_size);
  sizer(message);
  assert((!tail_size || sizer.head_done()) &&
         "EncodeHead: the field list has no byte vector");
  std::vector<std::uint8_t> bytes;
  bytes.reserve(sizer.size());
  Encoder out(&bytes, tail_size);
  out(message);
  return bytes;
}

template <typename T>
Expected<T> DecodeMessage(const std::vector<std::uint8_t>& bytes,
                          std::vector<std::uint8_t>* owned, const char* name) {
  T message;
  Decoder in(bytes, owned);
  in(message);
  if (!in.status().ok()) {
    return Status(ErrorCode::kProtocolError, std::string("malformed ") +
                                                 name + " payload: " +
                                                 in.status().message());
  }
  return message;
}

}  // namespace

// Defines Type::Encode, Type::EncodeHead and both Type::Decode overloads
// from Type's field list, which is the function body written right after
// the macro: `io(m.a, m.b, ...)` naming m's fields in wire order.
#define HAOCL_WIRE_FIELDS(Type)                                          \
  template <typename IO>                                                 \
  void Fields(IO& io, Type& m);                                          \
  std::vector<std::uint8_t> Type::Encode() const {                       \
    return EncodeMessage(*this);                                         \
  }                                                                      \
  std::vector<std::uint8_t> Type::EncodeHead(std::uint64_t tail_size)    \
      const {                                                            \
    return EncodeMessage(*this, tail_size);                              \
  }                                                                      \
  Expected<Type> Type::Decode(const std::vector<std::uint8_t>& bytes) {  \
    return DecodeMessage<Type>(bytes, nullptr, #Type);                   \
  }                                                                      \
  Expected<Type> Type::Decode(std::vector<std::uint8_t>&& bytes) {       \
    return DecodeMessage<Type>(bytes, &bytes, #Type);                    \
  }                                                                      \
  template <typename IO>                                                 \
  void Fields(IO& io, Type& m)

// Element types of the lists below carry field lists but no codec.

template <typename IO>
void Fields(IO& io, MemoryRegion& m) {
  io(m.offset, m.size);
}

template <typename IO>
void Fields(IO& io, WireKernelArg& m) {
  io(m.kind);
  switch (m.kind) {
    case WireKernelArg::Kind::kBuffer:
      io(m.buffer_id, m.written_begin, m.written_end);
      break;
    case WireKernelArg::Kind::kScalar:
      io(m.scalar_bytes);
      break;
    case WireKernelArg::Kind::kLocalSize:
      io(m.local_size);
      break;
  }
}

template <typename IO>
void Fields(IO& io, WireKernelRate& m) {
  io(m.kernel, m.seconds_per_flop, m.samples);
}

template <typename IO>
void Fields(IO& io, BrokerTenantEntry& m) {
  io(m.session, m.name, m.weight, m.mem_quota_bytes, m.resident_bytes,
     m.backlog_seconds, m.served_seconds, m.launches_admitted,
     m.launches_rejected, m.kernels_completed);
}

// ---------------------------------------------------------------- Handshake

HAOCL_WIRE_FIELDS(HelloRequest) { io(m.host_name, m.protocol_version); }

HAOCL_WIRE_FIELDS(HelloReply) {
  io(m.node_name, m.device_type, m.device_model, m.compute_gflops,
     m.mem_bandwidth_gbps, m.mem_capacity_bytes, m.simd_width,
     m.protocol_version);
}

// ------------------------------------------------------------------ Buffers

HAOCL_WIRE_FIELDS(CreateBufferRequest) { io(m.buffer_id, m.size); }

HAOCL_WIRE_FIELDS(WriteBufferRequest) { io(m.buffer_id, m.offset, m.data); }

HAOCL_WIRE_FIELDS(ReadBufferRequest) { io(m.buffer_id, m.offset, m.size); }

HAOCL_WIRE_FIELDS(ReleaseBufferRequest) { io(m.buffer_id); }

HAOCL_WIRE_FIELDS(CopyBufferRequest) {
  io(m.src_buffer_id, m.dst_buffer_id, m.src_offset, m.dst_offset, m.size);
}

// ------------------------------------------------- Node-to-node exchange

HAOCL_WIRE_FIELDS(PullSliceRequest) {
  io(m.buffer_id, m.offset, m.size, m.source_node);
}

HAOCL_WIRE_FIELDS(PushSliceRequest) {
  io(m.buffer_id, m.offset, m.size, m.target_node);
}

// ------------------------------------------------------------ Memory notices

HAOCL_WIRE_FIELDS(MemoryNoticeRequest) {
  io(m.buffer_id, m.reserve, m.regions);
}

// ----------------------------------------------------------------- Programs

HAOCL_WIRE_FIELDS(BuildProgramRequest) { io(m.program_id, m.source); }

HAOCL_WIRE_FIELDS(BuildProgramReply) {
  io(m.status_code, m.build_log, m.kernel_names);
}

HAOCL_WIRE_FIELDS(ReleaseProgramRequest) { io(m.program_id); }

// ------------------------------------------------------------------ Kernels

HAOCL_WIRE_FIELDS(LaunchKernelRequest) {
  io(m.program_id, m.kernel_name, m.args, m.work_dim, m.global, m.local,
     m.global_offset, m.local_specified, m.has_cost_hint);
  if (m.has_cost_hint) {
    io(m.hint_flops, m.hint_bytes, m.hint_work_items, m.hint_irregular);
  }
  io(m.elastic_launch_id, m.elastic_chunk_id);
}

HAOCL_WIRE_FIELDS(LaunchKernelReply) {
  io(m.status_code, m.error_message, m.modeled_seconds, m.modeled_joules,
     m.flops, m.bytes_accessed, m.node_backlog_seconds, m.active_weight);
}

HAOCL_WIRE_FIELDS(RevokeChunkRequest) { io(m.launch_id, m.chunk_ids); }

// --------------------------------------------------------------- Monitoring

HAOCL_WIRE_FIELDS(LoadReply) {
  io(m.queue_depth, m.buffers_held, m.bytes_allocated, m.bytes_resident,
     m.mem_capacity_bytes, m.busy_seconds_total, m.kernels_executed,
     m.node_resident_bytes, m.node_backlog_seconds, m.tenant_backlog_seconds,
     m.active_weight, m.kernel_rates);
}

// ------------------------------------------------------------ Multi-tenancy

HAOCL_WIRE_FIELDS(ConfigureSessionRequest) {
  io(m.tenant_name, m.weight, m.mem_quota_bytes);
}

HAOCL_WIRE_FIELDS(BrokerStatsReply) {
  io(m.mem_capacity_bytes, m.resident_bytes, m.backlog_seconds,
     m.active_weight, m.max_backlog_seconds, m.tenants, m.kernel_rates);
}

// ------------------------------------------------------------ Status replies

HAOCL_WIRE_FIELDS(StatusReply) { io(m.status_code, m.message); }

}  // namespace haocl::net
