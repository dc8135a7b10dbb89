// Typed request/reply payloads of the host <-> NMP protocol. One struct per
// message type keeps the NMP's dispatch readable and gives the fuzz/failure
// tests a precise surface.
//
// The wire format of each message is written down once, as its field list
// in protocol.cc: a `Fields(io, m)` template naming the fields in wire
// order, with any conditional part (`if (m.has_cost_hint) io(...)`) spelled
// out there. One generic encoder and one generic decoder run every list, so
// adding a message takes three steps:
//   1. declare the struct here with HAOCL_WIRE_MESSAGE(Type);
//   2. write its field list in protocol.cc with HAOCL_WIRE_FIELDS(Type)
//      (a new enum type also gets a LastValue overload there);
//   3. add a populated sample and its bytes to tests/net/golden_messages.h.
// The list alone gives Encode (sized exactly, one allocation), EncodeHead
// (the same up to a trailing byte vector's length, for a body sent as the
// frame's tail), Decode (bounds, enum ranges and every claimed count or
// length checked before anything is allocated; kProtocolError naming the
// message on failure), a consuming Decode for payloads the caller gives up
// (a trailing byte vector keeps the payload's storage: one memmove, no
// copy), and the sample puts both decoders under the mutation fuzzer.
//
// Wire primitives: fixed-width little-endian scalars, bool as a u8 (any
// nonzero byte reads as true), enums as their underlying type, strings and
// lists behind a u32 length/count, byte vectors behind a u64 length, and
// fixed arrays element by element. Decoders ignore trailing bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "oclc/vm.h"

// Declares a message's payload codec and its field-wise equality. The
// rvalue Decode consumes the payload: a byte vector that runs to the end of
// it takes the payload's storage over instead of being copied out.
// EncodeHead serves a message whose field list ends in a byte vector: it
// encodes everything up to that field's u64 length, given as `tail_size`,
// and leaves the bytes out, so the caller sends them as the frame's
// Message::tail straight from where they live. Head and tail together are
// byte for byte what Encode gives; the vector's own contents are ignored.
#define HAOCL_WIRE_MESSAGE(Type)                                        \
  [[nodiscard]] std::vector<std::uint8_t> Encode() const;               \
  [[nodiscard]] std::vector<std::uint8_t> EncodeHead(                   \
      std::uint64_t tail_size) const;                                   \
  static Expected<Type> Decode(const std::vector<std::uint8_t>& bytes); \
  static Expected<Type> Decode(std::vector<std::uint8_t>&& bytes);      \
  bool operator==(const Type&) const = default

namespace haocl::net {

// ---------------------------------------------------------------- Handshake

struct HelloRequest {
  std::string host_name;
  std::uint32_t protocol_version = 1;

  HAOCL_WIRE_MESSAGE(HelloRequest);
};

struct HelloReply {
  std::string node_name;
  NodeType device_type = NodeType::kCpu;
  std::string device_model;
  double compute_gflops = 0.0;
  double mem_bandwidth_gbps = 0.0;
  // Device memory capacity; the host budget for resident regions on this
  // node (0 = unbounded).
  std::uint64_t mem_capacity_bytes = 0;
  // Native SIMD/SIMT width in 32-bit lanes (1 = scalar); schedulers prefer
  // vector-width-multiple partition sizes.
  std::uint32_t simd_width = 1;
  std::uint32_t protocol_version = 1;

  HAOCL_WIRE_MESSAGE(HelloReply);
};

// ------------------------------------------------------------------ Buffers

struct CreateBufferRequest {
  std::uint64_t buffer_id = 0;
  std::uint64_t size = 0;

  HAOCL_WIRE_MESSAGE(CreateBufferRequest);
};

struct WriteBufferRequest {
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> data;

  HAOCL_WIRE_MESSAGE(WriteBufferRequest);
};

struct ReadBufferRequest {
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;

  HAOCL_WIRE_MESSAGE(ReadBufferRequest);
};

struct ReleaseBufferRequest {
  std::uint64_t buffer_id = 0;

  HAOCL_WIRE_MESSAGE(ReleaseBufferRequest);
};

struct CopyBufferRequest {
  std::uint64_t src_buffer_id = 0;
  std::uint64_t dst_buffer_id = 0;
  std::uint64_t src_offset = 0;
  std::uint64_t dst_offset = 0;
  std::uint64_t size = 0;

  HAOCL_WIRE_MESSAGE(CopyBufferRequest);
};

// ------------------------------------------------- Node-to-node exchange

// Host -> node: fetch [offset, offset+size) of `buffer_id` from peer node
// `source_node` into the local replica. The payload never touches the host;
// a node without a link to the peer replies kPeerUnreachable and the host
// falls back to relaying the bytes itself.
struct PullSliceRequest {
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t source_node = 0;  // Host-assigned peer index.

  HAOCL_WIRE_MESSAGE(PullSliceRequest);
};

// Host -> node: send [offset, offset+size) of the local replica of
// `buffer_id` to peer node `target_node` (which must already hold an
// allocation of the buffer). Mirror image of PullSliceRequest.
struct PushSliceRequest {
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t target_node = 0;  // Host-assigned peer index.

  HAOCL_WIRE_MESSAGE(PushSliceRequest);
};

// ------------------------------------------------------------ Memory notices

// One byte range of a memory notice.
struct MemoryRegion {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;

  bool operator==(const MemoryRegion&) const = default;
};

// Host -> node: align the node's memory-pool ledger with the host's
// per-node accounting. `reserve` charges the regions (a residency change
// with no accompanying payload, e.g. a discard migration); otherwise the
// regions are evicted — the node releases the accounted bytes (the host
// already demoted ownership in the region directory, spilling any sole
// copy to its shadow first).
struct MemoryNoticeRequest {
  std::uint64_t buffer_id = 0;
  bool reserve = false;
  std::vector<MemoryRegion> regions;

  HAOCL_WIRE_MESSAGE(MemoryNoticeRequest);
};

// ----------------------------------------------------------------- Programs

struct BuildProgramRequest {
  std::uint64_t program_id = 0;
  std::string source;

  HAOCL_WIRE_MESSAGE(BuildProgramRequest);
};

struct BuildProgramReply {
  std::int32_t status_code = 0;  // ErrorCode as int.
  std::string build_log;
  std::vector<std::string> kernel_names;

  HAOCL_WIRE_MESSAGE(BuildProgramReply);
};

struct ReleaseProgramRequest {
  std::uint64_t program_id = 0;

  HAOCL_WIRE_MESSAGE(ReleaseProgramRequest);
};

// ------------------------------------------------------------------ Kernels

// One kernel argument as shipped over the wire.
struct WireKernelArg {
  enum class Kind : std::uint8_t { kBuffer = 0, kScalar = 1, kLocalSize = 2 };
  Kind kind = Kind::kScalar;
  std::uint64_t buffer_id = 0;                // kBuffer
  std::vector<std::uint8_t> scalar_bytes;     // kScalar (raw, as from
                                              // clSetKernelArg)
  std::uint64_t local_size = 0;               // kLocalSize
  // Byte range of the buffer this launch WRITES (begin == end: read-only).
  // Kernel outputs materialize device memory without any transfer the node
  // could observe, so the node's memory pool charges this range at launch —
  // the same range the host charges in its per-node ledger.
  std::uint64_t written_begin = 0;            // kBuffer
  std::uint64_t written_end = 0;              // kBuffer

  bool operator==(const WireKernelArg&) const = default;
};

struct LaunchKernelRequest {
  std::uint64_t program_id = 0;
  std::string kernel_name;
  std::vector<WireKernelArg> args;
  std::uint32_t work_dim = 1;
  std::uint64_t global[3] = {1, 1, 1};
  std::uint64_t local[3] = {1, 1, 1};
  // get_global_id(d) on the node returns global_offset[d] + linear id —
  // how one shard of a partitioned launch runs its slice of the NDRange.
  std::uint64_t global_offset[3] = {0, 0, 0};
  bool local_specified = false;
  // Analytic cost hint for the node's timing model, already scaled to
  // this shard's share of the range (and to any host-side paper-scale
  // amplification). The driver's static instruction-mix estimator cannot
  // see data-dependent trip counts; when the host knows better, the node
  // models THIS work — so the reply's modeled_seconds/flops describe the
  // same work the host's scheduler accounts, and the observed rate fed
  // back per shard is consistent with the cost model's predictions.
  bool has_cost_hint = false;
  double hint_flops = 0.0;
  double hint_bytes = 0.0;
  std::uint64_t hint_work_items = 0;
  bool hint_irregular = false;
  // Elastic-execution tag: non-zero launch id marks this request as one
  // chunk of a host-coordinated elastic launch. A node checks the pair
  // against its revoked-chunk set before running — a revoked chunk is
  // skipped with kChunkRevoked instead of executed twice.
  std::uint64_t elastic_launch_id = 0;
  std::uint64_t elastic_chunk_id = 0;

  HAOCL_WIRE_MESSAGE(LaunchKernelRequest);
};

struct LaunchKernelReply {
  std::int32_t status_code = 0;
  std::string error_message;
  double modeled_seconds = 0.0;   // Device-model execution time.
  double modeled_joules = 0.0;    // Energy for the scheduler's power policy.
  std::uint64_t flops = 0;        // Profiled work (heterogeneity-aware
  std::uint64_t bytes_accessed = 0;  // scheduling feeds on these).
  // Broker snapshot piggybacked on every launch reply so the host's
  // fair-share view of the node (ALL tenants' backlog, not just its own)
  // stays fresh without extra monitoring round-trips.
  double node_backlog_seconds = 0.0;  // Admitted-but-unfinished, all tenants.
  double active_weight = 0.0;         // Σ weights of backlogged tenants.

  HAOCL_WIRE_MESSAGE(LaunchKernelReply);
};

// Host -> node: the steal coordinator re-targeted these chunks of an
// elastic launch (a peer stole them, or their owner died and survivors
// take over). The node must not run them even if their kLaunchKernel
// requests are already queued; it skips each with kChunkRevoked. The NMP
// answers this on its receive path, ahead of queued data-plane work.
struct RevokeChunkRequest {
  std::uint64_t launch_id = 0;
  std::vector<std::uint64_t> chunk_ids;

  HAOCL_WIRE_MESSAGE(RevokeChunkRequest);
};

// --------------------------------------------------------------- Monitoring

// One shared observed kernel rate exported by the node broker: the EWMA
// seconds-per-flop folded from EVERY session's completed launches on the
// node, so a freshly connected session can seed its own rate table from
// its neighbours' experience.
struct WireKernelRate {
  std::string kernel;
  double seconds_per_flop = 0.0;
  std::uint64_t samples = 0;

  bool operator==(const WireKernelRate&) const = default;
};

struct LoadReply {
  std::uint32_t queue_depth = 0;       // Commands waiting on the node.
  std::uint64_t buffers_held = 0;
  std::uint64_t bytes_allocated = 0;
  // Memory-pool ledger: bytes of buffer regions THIS session has
  // materialized in device memory, and the capacity they budget against
  // (0 = unbounded).
  std::uint64_t bytes_resident = 0;
  std::uint64_t mem_capacity_bytes = 0;
  double busy_seconds_total = 0.0;     // Modeled device busy time.
  std::uint64_t kernels_executed = 0;
  // ---- Node-broker fields (node-wide, across ALL sessions) ----
  std::uint64_t node_resident_bytes = 0;   // Shared-ledger resident total.
  double node_backlog_seconds = 0.0;       // All tenants' admitted backlog.
  double tenant_backlog_seconds = 0.0;     // The querying session's share.
  double active_weight = 0.0;              // Σ weights, backlogged tenants.
  std::vector<WireKernelRate> kernel_rates;  // Shared observed rates.

  HAOCL_WIRE_MESSAGE(LoadReply);
};

// ------------------------------------------------------------ Multi-tenancy

// Host -> node at session connect: registers the session as a tenant of
// the node broker with its fair-share weight and memory quota. A session
// that never configures runs with weight 1 and no quota.
struct ConfigureSessionRequest {
  std::string tenant_name;
  double weight = 1.0;
  std::uint64_t mem_quota_bytes = 0;  // 0 = no per-tenant cap.

  HAOCL_WIRE_MESSAGE(ConfigureSessionRequest);
};

// One tenant's serving stats in a BrokerStatsReply.
struct BrokerTenantEntry {
  std::uint64_t session = 0;
  std::string name;
  double weight = 1.0;
  std::uint64_t mem_quota_bytes = 0;
  std::uint64_t resident_bytes = 0;
  double backlog_seconds = 0.0;
  double served_seconds = 0.0;
  std::uint64_t launches_admitted = 0;
  std::uint64_t launches_rejected = 0;
  std::uint64_t kernels_completed = 0;

  bool operator==(const BrokerTenantEntry&) const = default;
};

// Reply to kQueryBroker: the node's shared ledger, admission state,
// per-tenant serving stats, and the shared kernel-rate table.
struct BrokerStatsReply {
  std::uint64_t mem_capacity_bytes = 0;
  std::uint64_t resident_bytes = 0;    // All sessions.
  double backlog_seconds = 0.0;        // All tenants.
  double active_weight = 0.0;
  double max_backlog_seconds = 0.0;    // Admission limit (0 = off).
  std::vector<BrokerTenantEntry> tenants;
  std::vector<WireKernelRate> kernel_rates;

  HAOCL_WIRE_MESSAGE(BrokerStatsReply);
};

// ------------------------------------------------------------ Status replies

// Generic status reply used by buffer/session commands.
struct StatusReply {
  std::int32_t status_code = 0;
  std::string message;

  HAOCL_WIRE_MESSAGE(StatusReply);

  static StatusReply FromStatus(const Status& status) {
    return StatusReply{static_cast<std::int32_t>(status.code()),
                       status.message()};
  }
  [[nodiscard]] Status ToStatus() const {
    return Status(static_cast<ErrorCode>(status_code), message);
  }
};

}  // namespace haocl::net
