#include "host/cluster_runtime.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/log.h"
#include "common/wire.h"
#include "driver/device_driver.h"
#include "driver/native_registry.h"
#include "oclc/builtins.h"
#include "oclc/bytecode.h"

namespace haocl::host {

using net::Message;
using net::MsgType;

namespace {

// True when the kernel may query launch-wide geometry that turns
// shard-local under a split — get_global_size / get_num_groups (the
// shard's extent, not the launch's: a grid-stride loop would walk the
// wrong stride), get_group_id (group ids restart at 0 per shard, so the
// canonical group_id*local_size+local_id index reconstruction collapses
// onto the first slice), or get_global_offset (reports the
// shard-composed offset). Such kernels run whole. Calls into helper
// functions are treated conservatively (their bodies are not scanned).
bool KernelMayQueryLaunchRange(const oclc::Module& module,
                               const oclc::CompiledFunction& kernel) {
  auto end_pc = static_cast<std::uint32_t>(module.code.size());
  for (const auto& fn : module.functions) {
    if (fn.entry_pc > kernel.entry_pc && fn.entry_pc < end_pc) {
      end_pc = fn.entry_pc;
    }
  }
  for (std::uint32_t pc = kernel.entry_pc; pc < end_pc; ++pc) {
    const oclc::Instruction& instr = module.code[pc];
    if (instr.op == oclc::Opcode::kCall) return true;
    if (instr.op == oclc::Opcode::kCallBuiltin) {
      const auto id = static_cast<oclc::BuiltinId>(instr.a);
      if (id == oclc::BuiltinId::kGetGlobalSize ||
          id == oclc::BuiltinId::kGetNumGroups ||
          id == oclc::BuiltinId::kGetGroupId ||
          id == oclc::BuiltinId::kGetGlobalOffset) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

// RAII in-flight accounting: the scheduler's queue_depth per node.
class ClusterRuntime::InFlightGuard {
 public:
  InFlightGuard(ClusterRuntime* runtime, std::size_t node)
      : runtime_(runtime), node_(node) {
    std::lock_guard<std::mutex> lock(runtime_->sched_mutex_);
    ++runtime_->in_flight_[node_];
  }
  ~InFlightGuard() {
    std::lock_guard<std::mutex> lock(runtime_->sched_mutex_);
    --runtime_->in_flight_[node_];
  }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  ClusterRuntime* runtime_;
  std::size_t node_;
};

ClusterRuntime::ClusterRuntime(Options options)
    : options_(std::move(options)) {}

ClusterRuntime::~ClusterRuntime() { Disconnect(); }

Expected<std::unique_ptr<ClusterRuntime>> ClusterRuntime::Connect(
    std::vector<net::ConnectionPtr> connections, Options options) {
  if (connections.empty()) {
    return Status(ErrorCode::kInvalidValue, "no node connections supplied");
  }
  auto policy = sched::MakePolicyByName(options.scheduler);
  if (!policy.ok()) return policy.status();

  std::unique_ptr<ClusterRuntime> runtime(
      new ClusterRuntime(std::move(options)));
  runtime->policy_ = *std::move(policy);
  runtime->scheduler_name_ = runtime->options_.scheduler;

  // Handshake: one hello per node; replies populate the device table and
  // the virtual topology ("the backbone obtains the device's id of each
  // compute node and records this mapping").
  ClusterConfig topo_config;
  for (auto& connection : connections) {
    runtime->nodes_.push_back(
        std::make_unique<net::RpcClient>(std::move(connection)));
  }
  for (std::size_t i = 0; i < runtime->nodes_.size(); ++i) {
    net::HelloRequest hello;
    hello.host_name = runtime->options_.host_name;
    auto reply = runtime->nodes_[i]->Call(MsgType::kHelloRequest,
                                          runtime->options_.session_id,
                                          hello.Encode(),
                                          runtime->options_.rpc_timeout);
    if (!reply.ok()) {
      return Status(ErrorCode::kNodeUnreachable,
                    "handshake with node " + std::to_string(i) +
                        " failed: " + reply.status().message());
    }
    if (reply->type != MsgType::kHelloReply) {
      return Status(ErrorCode::kProtocolError,
                    "unexpected handshake reply type");
    }
    auto decoded = net::HelloReply::Decode(reply->payload);
    if (!decoded.ok()) return decoded.status();
    DeviceInfo info;
    info.name = decoded->node_name;
    info.type = decoded->device_type;
    info.model = decoded->device_model;
    info.compute_gflops = decoded->compute_gflops;
    info.mem_bandwidth_gbps = decoded->mem_bandwidth_gbps;
    info.mem_capacity_bytes = decoded->mem_capacity_bytes;
    info.simd_width = decoded->simd_width > 0 ? decoded->simd_width : 1;
    runtime->devices_.push_back(std::move(info));
    // One memory-pool ledger per node, budgeting the capacity the node
    // reported (0 = unbounded for nodes predating capacity reporting).
    runtime->node_pools_.push_back(
        std::make_unique<runtime::MemoryPool>(decoded->mem_capacity_bytes));
    topo_config.AddNode(NodeEntry{decoded->node_name, decoded->device_type,
                                  "sim", 0});
  }
  runtime->timeline_ = std::make_unique<VirtualTimeline>(
      sim::ClusterTopology::FromConfig(topo_config, runtime->options_.link));
  runtime->node_busy_ahead_.assign(runtime->nodes_.size(), 0.0);
  runtime->node_dead_.assign(runtime->nodes_.size(), false);
  runtime->node_broker_backlog_.assign(runtime->nodes_.size(), 0.0);
  runtime->node_active_weight_.assign(runtime->nodes_.size(), 0.0);
  runtime->rate_table_ =
      std::make_unique<sched::KernelRateTable>(runtime->nodes_.size());
  runtime->in_flight_.assign(runtime->nodes_.size(), 0);

  // Register this session's tenant identity with every node's broker, and
  // seed the rate table from the rates the broker already learned from
  // other sessions — a fresh session's first adaptive launch then plans
  // from its neighbours' observations instead of flying blind. Both are
  // best-effort against nodes predating the broker protocol: an error
  // reply or missing fields just leaves the defaults.
  net::ConfigureSessionRequest tenant;
  tenant.tenant_name = runtime->options_.tenant_name.empty()
                           ? runtime->options_.host_name
                           : runtime->options_.tenant_name;
  tenant.weight = runtime->options_.tenant_weight;
  tenant.mem_quota_bytes = runtime->options_.tenant_mem_quota_bytes;
  for (std::size_t i = 0; i < runtime->nodes_.size(); ++i) {
    auto configured = runtime->nodes_[i]->Call(
        MsgType::kConfigureSession, runtime->options_.session_id,
        tenant.Encode(), runtime->options_.rpc_timeout);
    if (!configured.ok()) {
      return Status(ErrorCode::kNodeUnreachable,
                    "tenant registration with node " + std::to_string(i) +
                        " failed: " + configured.status().message());
    }
    auto load = runtime->nodes_[i]->Call(MsgType::kQueryLoad,
                                         runtime->options_.session_id, {},
                                         runtime->options_.rpc_timeout);
    if (!load.ok() || load->type != MsgType::kLoadReply) continue;
    auto decoded = net::LoadReply::Decode(load->payload);
    if (!decoded.ok()) continue;
    for (const net::WireKernelRate& rate : decoded->kernel_rates) {
      runtime->rate_table_->Seed(i, rate.kernel, rate.seconds_per_flop,
                                 rate.samples);
    }
    runtime->node_broker_backlog_[i] = decoded->node_backlog_seconds;
    runtime->node_active_weight_[i] = decoded->active_weight;
  }

  CommandGraph::Options graph_options;
  graph_options.workers =
      runtime->options_.dispatch_workers != 0
          ? runtime->options_.dispatch_workers
          : std::max<std::size_t>(4, runtime->nodes_.size() + 2);
  ClusterRuntime* raw = runtime.get();
  // VirtualTimeline is internally synchronized; safe from any worker.
  graph_options.clock = [raw] { return raw->timeline_->Makespan(); };
  runtime->graph_ = std::make_unique<CommandGraph>(std::move(graph_options));
  return runtime;
}

std::vector<std::size_t> ClusterRuntime::DevicesOfType(NodeType type) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].type == type) out.push_back(i);
  }
  return out;
}

Status ClusterRuntime::CheckReply(const Expected<Message>& reply,
                                  MsgType expected_type) const {
  if (!reply.ok()) return reply.status();
  if (reply->type == MsgType::kStatusReply) {
    auto status = net::StatusReply::Decode(reply->payload);
    if (!status.ok()) return status.status();
    if (expected_type == MsgType::kStatusReply) return status->ToStatus();
    // Status where data was expected: it must be an error report.
    Status s = status->ToStatus();
    if (s.ok()) {
      return Status(ErrorCode::kProtocolError,
                    "node sent OK status where data was expected");
    }
    return s;
  }
  if (reply->type != expected_type) {
    return Status(ErrorCode::kProtocolError,
                  std::string("unexpected reply type ") +
                      net::MsgTypeName(reply->type));
  }
  return Status::Ok();
}

Expected<Message> ClusterRuntime::CallNode(
    std::size_t node, MsgType type, std::vector<std::uint8_t> payload,
    std::span<const std::uint8_t> tail) {
  InFlightGuard in_flight(this, node);
  auto future = nodes_[node]->CallAsync(type, options_.session_id,
                                        std::move(payload), tail);
  auto reply = future->TakeFor(options_.rpc_timeout);
  if (!reply.has_value()) {
    return Status(ErrorCode::kNetworkError,
                  std::string("RPC timeout for ") + net::MsgTypeName(type));
  }
  return *std::move(reply);
}

// ---------------------------------------------------------- Hazard helpers

void ClusterRuntime::CollectDepIds(const std::vector<CommandHandle>& deps,
                                   std::vector<CommandId>* out) const {
  for (const CommandHandle& dep : deps) {
    if (dep.valid()) out->push_back(dep.id);
  }
}

namespace {

bool RangesOverlap(std::uint64_t a_begin, std::uint64_t a_end,
                   std::uint64_t b_begin, std::uint64_t b_end) {
  return a_begin < b_end && b_begin < a_end;
}

}  // namespace

void ClusterRuntime::PruneRetiredHazardsLocked(LogicalBuffer& buffer) {
  // Retired commands impose no ordering anymore; without pruning, bursts
  // of in-flight commands would grow these lists unboundedly. Reclaimed
  // records (released handles, !ok query) retired by definition.
  auto retired = [this](const LogicalBuffer::RangeHazard& hazard) {
    auto state = graph_->QueryState(hazard.cmd);
    return !state.ok() || IsTerminal(*state);
  };
  auto& writers = buffer.writers;
  writers.erase(std::remove_if(writers.begin(), writers.end(), retired),
                writers.end());
  auto& readers = buffer.readers;
  readers.erase(std::remove_if(readers.begin(), readers.end(), retired),
                readers.end());
}

void ClusterRuntime::AddReadHazardLocked(LogicalBuffer& buffer,
                                         std::uint64_t begin,
                                         std::uint64_t end,
                                         std::vector<CommandId>* deps) {
  PruneRetiredHazardsLocked(buffer);
  for (const auto& writer : buffer.writers) {
    if (RangesOverlap(begin, end, writer.begin, writer.end)) {
      deps->push_back(writer.cmd);
    }
  }
}

void ClusterRuntime::AddWriteHazardLocked(LogicalBuffer& buffer,
                                          std::uint64_t begin,
                                          std::uint64_t end,
                                          std::vector<CommandId>* deps) {
  PruneRetiredHazardsLocked(buffer);
  for (const auto& writer : buffer.writers) {
    if (RangesOverlap(begin, end, writer.begin, writer.end)) {
      deps->push_back(writer.cmd);
    }
  }
  for (const auto& reader : buffer.readers) {
    if (RangesOverlap(begin, end, reader.begin, reader.end)) {
      deps->push_back(reader.cmd);
    }
  }
}

void ClusterRuntime::RecordReadLocked(LogicalBuffer& buffer,
                                      std::uint64_t begin, std::uint64_t end,
                                      CommandId cmd) {
  buffer.readers.push_back({begin, end, cmd});
}

void ClusterRuntime::RecordWriteLocked(LogicalBuffer& buffer,
                                       std::uint64_t begin, std::uint64_t end,
                                       CommandId cmd) {
  // Deliberately NO covered-hazard erasure: a covering command can turn
  // terminal before the commands it covers (a strong dependency failing
  // finalizes it while weakly-ordered predecessors still run), and a
  // terminal command imposes no order — transitive ordering through it
  // evaporates. Live entries are cheap (pruned once retired); dropping
  // them early is how torn reads happen.
  buffer.writers.push_back({begin, end, cmd});
}

// --------------------------------------------------------------- Buffers

Expected<BufferId> ClusterRuntime::CreateBuffer(std::uint64_t size) {
  if (size == 0) {
    return Status(ErrorCode::kInvalidBufferSize, "zero-sized buffer");
  }
  // Honest cluster-wide capacity: a buffer no combination of device
  // memories could ever hold fails up front (the OpenCL shim surfaces
  // this as CL_MEM_OBJECT_ALLOCATION_FAILURE). Any node without a
  // reported capacity makes the cluster unbounded.
  std::uint64_t cluster_capacity = 0;
  bool bounded = !node_pools_.empty();
  for (const auto& pool : node_pools_) {
    if (!pool->bounded()) {
      bounded = false;
      break;
    }
    cluster_capacity += pool->capacity();
  }
  if (bounded && size > cluster_capacity) {
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "buffer of " + std::to_string(size) +
                      " bytes exceeds the cluster-wide device capacity (" +
                      std::to_string(cluster_capacity) + " bytes)");
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  const BufferId id = next_buffer_id_++;
  auto buffer = std::make_shared<LogicalBuffer>();
  buffer->size = size;
  buffer->shadow.assign(size, 0);
  // Owner universe: the device nodes plus the host shadow, which starts as
  // the sole owner of the zero-filled buffer.
  buffer->dir = RegionDirectory(
      size, static_cast<RegionDirectory::Owner>(nodes_.size() + 1),
      HostOwner());
  buffer->allocated_on.assign(nodes_.size(), false);
  buffer->pinned_on =
      std::make_unique<std::atomic<std::uint32_t>[]>(nodes_.size());
  buffer->last_use_epoch =
      std::make_unique<std::atomic<std::uint64_t>[]>(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    buffer->pinned_on[i].store(0, std::memory_order_relaxed);
    buffer->last_use_epoch[i].store(0, std::memory_order_relaxed);
  }
  buffers_.emplace(id, std::move(buffer));
  return id;
}

Expected<CommandHandle> ClusterRuntime::SubmitWrite(
    BufferId id, std::uint64_t offset, const void* data, std::uint64_t size,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after) {
  return SubmitWriteImpl(id, offset, data, size, std::move(deps),
                         std::move(order_after), /*snapshot_data=*/true);
}

Expected<CommandHandle> ClusterRuntime::SubmitWriteBorrowed(
    BufferId id, std::uint64_t offset, const void* data, std::uint64_t size,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after) {
  return SubmitWriteImpl(id, offset, data, size, std::move(deps),
                         std::move(order_after), /*snapshot_data=*/false);
}

Expected<CommandHandle> ClusterRuntime::SubmitWriteImpl(
    BufferId id, std::uint64_t offset, const void* data, std::uint64_t size,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after,
    bool snapshot_data) {
  BufferPtr buffer;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (disconnected_) {
      return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
    }
    auto it = buffers_.find(id);
    if (it == buffers_.end()) {
      return Status(ErrorCode::kInvalidMemObject, "no such buffer");
    }
    buffer = it->second;
    if (RangeExceeds(offset, size, buffer->size)) {
      return Status(ErrorCode::kInvalidValue, "write beyond buffer end");
    }
  }
  // Snapshot at submit (outside the lock — a multi-hundred-MB copy must
  // not stall unrelated submits): non-blocking writers may reuse their
  // memory immediately. The blocking WriteBuffer wrapper skips the copy —
  // it keeps the caller's memory alive until the command completes.
  const auto* src = static_cast<const std::uint8_t*>(data);
  std::shared_ptr<std::vector<std::uint8_t>> snapshot;
  if (snapshot_data) {
    snapshot =
        std::make_shared<std::vector<std::uint8_t>>(src, src + size);
    src = snapshot->data();
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  AddWriteHazardLocked(*buffer, offset, offset + size, &hazards);
  const CommandId cmd = graph_->Submit(
      [this, id, buffer, offset, src, size,
       snapshot](CommandGraph::Execution&) {
        return ExecWrite(id, buffer, offset, src, size);
      },
      std::move(dep_ids), "write:buf" + std::to_string(id),
      std::move(hazards));
  RecordWriteLocked(*buffer, offset, offset + size, cmd);
  return CommandHandle{cmd};
}

Expected<CommandHandle> ClusterRuntime::SubmitRead(
    BufferId id, std::uint64_t offset, void* data, std::uint64_t size,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr buffer = it->second;
  if (RangeExceeds(offset, size, buffer->size)) {
    return Status(ErrorCode::kInvalidValue, "read beyond buffer end");
  }
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  AddReadHazardLocked(*buffer, offset, offset + size, &hazards);
  const CommandId cmd = graph_->Submit(
      [this, id, buffer, offset, data, size](CommandGraph::Execution& e) {
        return ExecRead(id, buffer, offset, data, size, e);
      },
      std::move(dep_ids), "read:buf" + std::to_string(id),
      std::move(hazards));
  RecordReadLocked(*buffer, offset, offset + size, cmd);
  return CommandHandle{cmd};
}

Expected<CommandHandle> ClusterRuntime::SubmitCopy(
    BufferId src, std::uint64_t src_offset, BufferId dst,
    std::uint64_t dst_offset, std::uint64_t size,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto src_it = buffers_.find(src);
  auto dst_it = buffers_.find(dst);
  if (src_it == buffers_.end() || dst_it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr src_buffer = src_it->second;
  BufferPtr dst_buffer = dst_it->second;
  if (RangeExceeds(src_offset, size, src_buffer->size) ||
      RangeExceeds(dst_offset, size, dst_buffer->size)) {
    return Status(ErrorCode::kInvalidValue, "copy beyond buffer end");
  }
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  AddReadHazardLocked(*src_buffer, src_offset, src_offset + size, &hazards);
  AddWriteHazardLocked(*dst_buffer, dst_offset, dst_offset + size, &hazards);
  const CommandId cmd = graph_->Submit(
      [this, src, src_buffer, src_offset, dst, dst_buffer, dst_offset,
       size](CommandGraph::Execution&) {
        return ExecCopy(src, src_buffer, src_offset, dst, dst_buffer,
                        dst_offset, size);
      },
      std::move(dep_ids),
      "copy:buf" + std::to_string(src) + ">buf" + std::to_string(dst),
      std::move(hazards));
  RecordReadLocked(*src_buffer, src_offset, src_offset + size, cmd);
  RecordWriteLocked(*dst_buffer, dst_offset, dst_offset + size, cmd);
  return CommandHandle{cmd};
}

Status ClusterRuntime::ExecWrite(BufferId id, const BufferPtr& buffer,
                                 std::uint64_t offset,
                                 const std::uint8_t* data,
                                 std::uint64_t size) {
  (void)id;
  std::lock_guard<std::mutex> lock(buffer->mutex);
  // Region-granular: only the written range changes owner. The rest of the
  // buffer keeps its current owners — a partial write to a remote-owned
  // buffer no longer forces a full gather.
  std::memcpy(buffer->shadow.data() + offset, data, size);
  buffer->dir.MarkWritten(offset, offset + size, HostOwner());
  return Status::Ok();
}

Status ClusterRuntime::ExecRead(BufferId id, const BufferPtr& buffer,
                                std::uint64_t offset, void* out,
                                std::uint64_t size,
                                CommandGraph::Execution& e) {
  (void)e;
  std::lock_guard<std::mutex> lock(buffer->mutex);
  // The lazy gather: fetch exactly the stale sub-ranges of the read window
  // from their current owners.
  HAOCL_RETURN_IF_ERROR(EnsureHostRangeLocked(id, *buffer, offset,
                                              offset + size));
  std::memcpy(out, buffer->shadow.data() + offset, size);
  return Status::Ok();
}

Status ClusterRuntime::ExecCopy(BufferId src_id, const BufferPtr& src,
                                std::uint64_t src_offset, BufferId dst_id,
                                const BufferPtr& dst,
                                std::uint64_t dst_offset,
                                std::uint64_t size) {
  if (src.get() == dst.get()) {
    std::lock_guard<std::mutex> lock(src->mutex);
    HAOCL_RETURN_IF_ERROR(EnsureHostRangeLocked(src_id, *src, src_offset,
                                                src_offset + size));
    std::memmove(src->shadow.data() + dst_offset,
                 src->shadow.data() + src_offset, size);
    src->dir.MarkWritten(dst_offset, dst_offset + size, HostOwner());
    return Status::Ok();
  }
  // Host-mediated copy: stage the source range, overlay the destination
  // range (only those ranges move). One buffer lock at a time.
  std::vector<std::uint8_t> staging(size);
  {
    std::lock_guard<std::mutex> lock(src->mutex);
    HAOCL_RETURN_IF_ERROR(EnsureHostRangeLocked(src_id, *src, src_offset,
                                                src_offset + size));
    std::memcpy(staging.data(), src->shadow.data() + src_offset, size);
  }
  std::lock_guard<std::mutex> lock(dst->mutex);
  (void)dst_id;
  std::memcpy(dst->shadow.data() + dst_offset, staging.data(), size);
  dst->dir.MarkWritten(dst_offset, dst_offset + size, HostOwner());
  return Status::Ok();
}

void ClusterRuntime::AccountTransfer(LogicalBuffer& buffer,
                                     std::uint64_t TransferStats::*counter,
                                     std::uint64_t delta) {
  buffer.stats.*counter += delta;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.*counter += delta;
}

Status ClusterRuntime::TransferMissingRunsLocked(
    BufferId id, LogicalBuffer& buffer, RegionDirectory::Owner dst,
    std::uint64_t begin, std::uint64_t end,
    const std::function<std::size_t(const RegionDirectory::Region&)>&
        pick_source,
    const std::function<Status(std::size_t source, std::uint64_t begin,
                               std::uint64_t end)>& transfer) {
  for (const RegionDirectory::Span& span :
       buffer.dir.MissingFor(dst, begin, end)) {
    std::size_t source = nodes_.size() + 1;  // Sentinel: none yet.
    std::uint64_t run_begin = span.begin;
    std::uint64_t run_end = span.begin;
    auto flush = [&]() -> Status {
      if (run_begin == run_end) return Status::Ok();
      HAOCL_RETURN_IF_ERROR(transfer(source, run_begin, run_end));
      run_begin = run_end;
      return Status::Ok();
    };
    for (const RegionDirectory::Region& region :
         buffer.dir.Query(span.begin, span.end)) {
      if (region.owners.empty()) {
        return Status(ErrorCode::kInternal,
                      "buffer " + std::to_string(id) +
                          " range has no owner");
      }
      // Keep the previous run's source while it still owns this region
      // (owner index nodes_.size() is the host shadow).
      const bool keep =
          source <= nodes_.size() &&
          std::binary_search(region.owners.begin(), region.owners.end(),
                             static_cast<RegionDirectory::Owner>(source));
      if (!keep) {
        HAOCL_RETURN_IF_ERROR(flush());
        source = pick_source(region);
        run_begin = region.begin;
      }
      run_end = region.end;
    }
    HAOCL_RETURN_IF_ERROR(flush());
    buffer.dir.AddOwner(span.begin, span.end, dst);
  }
  return Status::Ok();
}

Status ClusterRuntime::EnsureHostRangeLocked(BufferId id,
                                             LogicalBuffer& buffer,
                                             std::uint64_t begin,
                                             std::uint64_t end) {
  return TransferMissingRunsLocked(
      id, buffer, HostOwner(), begin, end,
      [](const RegionDirectory::Region& region) -> std::size_t {
        // The host is missing here by construction, so every owner is a
        // node; any of them is fresh.
        return region.owners.front();
      },
      [&](std::size_t source, std::uint64_t run_begin,
          std::uint64_t run_end) -> Status {
        net::ReadBufferRequest request;
        request.buffer_id = id;
        request.offset = run_begin;
        request.size = run_end - run_begin;
        auto reply = CallNode(source, MsgType::kReadBuffer,
                              request.Encode());
        HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kReadReply));
        if (reply->payload.size() != request.size) {
          return Status(ErrorCode::kProtocolError, "short slice read");
        }
        std::copy(reply->payload.begin(), reply->payload.end(),
                  buffer.shadow.begin() + run_begin);
        AccountTransfer(buffer, &TransferStats::host_bytes_in,
                        request.size);
        timeline_->RecordTransferFromNode(source, request.size);
        return Status::Ok();
      });
}

Status ClusterRuntime::PeerTransferLocked(BufferId id, std::size_t src,
                                          std::size_t dst,
                                          std::uint64_t begin,
                                          std::uint64_t end, PeerMode mode) {
  if (mode == PeerMode::kPull) {
    net::PullSliceRequest request;
    request.buffer_id = id;
    request.offset = begin;
    request.size = end - begin;
    request.source_node = static_cast<std::uint32_t>(src);
    auto reply = CallNode(dst, MsgType::kPullSlice, request.Encode());
    return CheckReply(reply, MsgType::kStatusReply);
  }
  net::PushSliceRequest request;
  request.buffer_id = id;
  request.offset = begin;
  request.size = end - begin;
  request.target_node = static_cast<std::uint32_t>(dst);
  auto reply = CallNode(src, MsgType::kPushSlice, request.Encode());
  return CheckReply(reply, MsgType::kStatusReply);
}


Status ClusterRuntime::EnsureRangeOnNodeLocked(BufferId id,
                                               LogicalBuffer& buffer,
                                               std::size_t node,
                                               std::uint64_t begin,
                                               std::uint64_t end,
                                               std::uint64_t* bytes_shipped,
                                               PeerMode mode,
                                               TransferTiming timing,
                                               sim::SimTime* ready_at) {
  if (!buffer.allocated_on[node]) {
    // Full-size remote allocation: the kernel indexes with its global ids,
    // so every slice must live at its natural offset.
    net::CreateBufferRequest create;
    create.buffer_id = id;
    create.size = buffer.size;
    auto reply = CallNode(node, MsgType::kCreateBuffer, create.Encode());
    HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kStatusReply));
    buffer.allocated_on[node] = true;
  }
  // Ship a run from the host shadow when it is fresh (one hop, no peer
  // round-trip), else node-to-node from an owning peer with a host-relay
  // fallback.
  auto note_arrival = [&](sim::SimTime arrival) {
    if (ready_at != nullptr) *ready_at = std::max(*ready_at, arrival);
  };
  auto ship_from_host = [&](std::uint64_t run_begin,
                            std::uint64_t run_end) -> Status {
    const std::uint64_t len = run_end - run_begin;
    // The body goes out of the shadow itself as the request's tail; the
    // buffer's lock keeps the range stable until CallNode has sent it.
    net::WriteBufferRequest request;
    request.buffer_id = id;
    request.offset = run_begin;
    auto reply = CallNode(
        node, MsgType::kWriteBuffer, request.EncodeHead(len),
        std::span<const std::uint8_t>(buffer.shadow).subspan(run_begin, len));
    HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kStatusReply));
    AccountTransfer(buffer, &TransferStats::host_bytes_out, len);
    if (timing == TransferTiming::kPrefetch) {
      // Staged-pipeline DMA: lands while the node computes the previous
      // stage; the consuming stage gates on the arrival, not the NIC on
      // the accelerator.
      note_arrival(timeline_->RecordPrefetchToNode(node, len));
      return Status::Ok();
    }
    // Nodes already co-owning the run can relay replicas peer-to-peer, so
    // broadcasts build a multicast tree instead of serializing on the
    // host uplink (modeled; the functional bytes took this wire).
    std::vector<std::size_t> co_owners;
    for (const RegionDirectory::Region& r :
         buffer.dir.Query(run_begin, run_end)) {
      for (RegionDirectory::Owner o : r.owners) {
        if (o < nodes_.size() &&
            std::find(co_owners.begin(), co_owners.end(), o) ==
                co_owners.end()) {
          co_owners.push_back(o);
        }
      }
    }
    if (co_owners.empty()) {
      note_arrival(timeline_->RecordTransferToNode(node, len));
    } else {
      note_arrival(timeline_->RecordReplicationToNode(node, len, co_owners));
    }
    return Status::Ok();
  };
  return TransferMissingRunsLocked(
      id, buffer, static_cast<RegionDirectory::Owner>(node), begin, end,
      [this](const RegionDirectory::Region& region) -> std::size_t {
        return std::binary_search(region.owners.begin(),
                                  region.owners.end(), HostOwner())
                   ? nodes_.size()
                   : region.owners.front();
      },
      [&](std::size_t source, std::uint64_t run_begin,
          std::uint64_t run_end) -> Status {
        const std::uint64_t len = run_end - run_begin;
        if (source == nodes_.size()) {
          HAOCL_RETURN_IF_ERROR(ship_from_host(run_begin, run_end));
        } else {
          Status peer = options_.peer_transfers
                            ? PeerTransferLocked(id, source, node,
                                                 run_begin, run_end, mode)
                            : Status(ErrorCode::kPeerUnreachable,
                                     "peer transfers disabled");
          if (peer.ok()) {
            AccountTransfer(buffer, &TransferStats::p2p_transfers, 1);
            AccountTransfer(buffer, &TransferStats::p2p_bytes, len);
            note_arrival(timeline_->RecordTransferBetween(source, node, len));
          } else {
            if (options_.peer_transfers) {
              HAOCL_WARN << "peer transfer buf" << id << " node " << source
                         << "->" << node << " failed (" << peer.ToString()
                         << "); relaying through host";
            }
            HAOCL_RETURN_IF_ERROR(
                EnsureHostRangeLocked(id, buffer, run_begin, run_end));
            HAOCL_RETURN_IF_ERROR(ship_from_host(run_begin, run_end));
            AccountTransfer(buffer, &TransferStats::relay_transfers, 1);
            AccountTransfer(buffer, &TransferStats::relay_bytes, len);
          }
        }
        if (bytes_shipped != nullptr) *bytes_shipped += len;
        return Status::Ok();
      });
}

// ------------------------------------------------------- Tiered memory

// RAII eviction exclusion: while alive, the pinned buffers cannot be
// chosen as eviction victims on `node` — a launch is between reserving
// and consuming their ranges. Pins are atomic counters, taken without the
// buffer mutex; the LRU stamp rides along.
class ClusterRuntime::WorkingSetPin {
 public:
  WorkingSetPin() = default;
  WorkingSetPin(const WorkingSetPin&) = delete;
  WorkingSetPin& operator=(const WorkingSetPin&) = delete;
  ~WorkingSetPin() { Release(); }

  void Pin(const BufferPtr& buffer, std::size_t node, std::uint64_t epoch) {
    {
      // The pin must be mutex-synchronized with the eviction policy's
      // pinned check (which holds the victim's mutex across the whole
      // eviction): a pin either lands before the check and excludes the
      // buffer, or blocks until the eviction finishes — after which the
      // pinner's reservation re-charges and its transfers re-ship. A
      // lock-free pin could slip between the check and the pool release,
      // letting the evictor release bytes the pinner just reserved and
      // desynchronizing the host and node ledgers.
      std::lock_guard<std::mutex> lock(buffer->mutex);
      buffer->pinned_on[node].fetch_add(1, std::memory_order_relaxed);
      buffer->last_use_epoch[node].store(epoch, std::memory_order_relaxed);
    }
    pinned_.emplace_back(buffer, node);
  }
  void Release() {
    for (auto& [buffer, node] : pinned_) {
      buffer->pinned_on[node].fetch_sub(1, std::memory_order_relaxed);
    }
    pinned_.clear();
  }

 private:
  std::vector<std::pair<BufferPtr, std::size_t>> pinned_;
};

Status ClusterRuntime::SpillSoleRangesToHostLocked(BufferId id,
                                                   LogicalBuffer& buffer,
                                                   std::size_t node,
                                                   std::uint64_t begin,
                                                   std::uint64_t end) {
  // Only ranges whose LAST fresh copy sits on the node need wire traffic;
  // adjacent sole-owner regions coalesce into one read.
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  auto flush = [&]() -> Status {
    if (run_begin == run_end) return Status::Ok();
    net::ReadBufferRequest request;
    request.buffer_id = id;
    request.offset = run_begin;
    request.size = run_end - run_begin;
    auto reply = CallNode(node, MsgType::kReadBuffer, request.Encode());
    HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kReadReply));
    if (reply->payload.size() != request.size) {
      return Status(ErrorCode::kProtocolError, "short spill read");
    }
    std::copy(reply->payload.begin(), reply->payload.end(),
              buffer.shadow.begin() + run_begin);
    buffer.dir.AddOwner(run_begin, run_end, HostOwner());
    AccountTransfer(buffer, &TransferStats::spill_bytes, request.size);
    AccountTransfer(buffer, &TransferStats::spill_transfers, 1);
    timeline_->RecordSpillFromNode(node, request.size);
    run_begin = run_end = 0;
    return Status::Ok();
  };
  for (const RegionDirectory::Region& region : buffer.dir.Query(begin, end)) {
    const bool sole = region.owners.size() == 1 && region.owners[0] == owner;
    if (!sole) {
      HAOCL_RETURN_IF_ERROR(flush());
      continue;
    }
    if (run_end == region.begin && run_end != run_begin) {
      run_end = region.end;
    } else {
      HAOCL_RETURN_IF_ERROR(flush());
      run_begin = region.begin;
      run_end = region.end;
    }
  }
  return flush();
}

void ClusterRuntime::NotifyMemory(
    std::size_t node, BufferId id, bool reserve,
    const std::vector<runtime::MemoryPool::Span>& spans) {
  if (spans.empty()) return;
  net::MemoryNoticeRequest notice;
  notice.buffer_id = id;
  notice.reserve = reserve;
  notice.regions.reserve(spans.size());
  for (const runtime::MemoryPool::Span& span : spans) {
    notice.regions.push_back({span.begin, span.end - span.begin});
  }
  auto reply = CallNode(node, MsgType::kMemoryNotice, notice.Encode());
  Status status = CheckReply(reply, MsgType::kStatusReply);
  if (!status.ok()) {
    HAOCL_WARN << "memory notice for buffer " << id << " on node " << node
               << " failed: " << status.ToString();
  }
}

Status ClusterRuntime::EvictRangeFromNodeLocked(BufferId id,
                                                LogicalBuffer& buffer,
                                                std::size_t node,
                                                std::uint64_t begin,
                                                std::uint64_t end) {
  // Work on what is actually materialized: the ledger's resident spans of
  // the range, not the whole request.
  std::vector<runtime::MemoryPool::Span> victims;
  for (const runtime::MemoryPool::Span& span :
       node_pools_[node]->ResidentSpansOf(id)) {
    const std::uint64_t b = std::max(begin, span.begin);
    const std::uint64_t e = std::min(end, span.end);
    if (b < e) victims.push_back({b, e});
  }
  if (victims.empty()) return Status::Ok();
  const auto owner = static_cast<RegionDirectory::Owner>(node);
  std::uint64_t released = 0;
  for (const runtime::MemoryPool::Span& span : victims) {
    // Demote ownership: spill any last-copy sub-range to the host shadow
    // first so the directory's gap-free invariant survives the removal.
    HAOCL_RETURN_IF_ERROR(
        SpillSoleRangesToHostLocked(id, buffer, node, span.begin, span.end));
    const std::size_t refused =
        buffer.dir.RemoveOwner(span.begin, span.end, owner);
    if (refused != 0) {
      return Status(ErrorCode::kInternal,
                    "eviction would drop the last fresh copy of buffer " +
                        std::to_string(id));
    }
    released += node_pools_[node]->Release(id, span.begin, span.end);
  }
  AccountTransfer(buffer, &TransferStats::evicted_bytes, released);
  NotifyMemory(node, id, /*reserve=*/false, victims);
  return Status::Ok();
}

std::uint64_t ClusterRuntime::EvictFromNode(std::size_t node,
                                            std::uint64_t needed) {
  // Victims in LRU-by-launch-epoch order. The snapshot is advisory: stamps
  // move and buffers get released concurrently; each victim is re-checked
  // under its own mutex.
  struct Victim {
    std::uint64_t epoch;
    BufferId id;
    BufferPtr buffer;
  };
  std::vector<Victim> victims;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    for (const auto& [buffer_id, bytes] :
         node_pools_[node]->ResidentBuffers()) {
      auto it = buffers_.find(buffer_id);
      if (it == buffers_.end()) continue;  // Released; teardown reclaims.
      victims.push_back(
          {it->second->last_use_epoch[node].load(std::memory_order_relaxed),
           buffer_id, it->second});
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.epoch < b.epoch; });
  std::uint64_t freed = 0;
  for (const Victim& victim : victims) {
    if (freed >= needed) break;
    // try_lock only: a buffer amid a transfer holds its mutex across node
    // RPCs, and blocking here from inside another launch's prologue could
    // deadlock two launches evicting each other's buffers.
    std::unique_lock<std::mutex> buffer_lock(victim.buffer->mutex,
                                             std::try_to_lock);
    if (!buffer_lock.owns_lock()) continue;
    if (victim.buffer->pinned_on[node].load(std::memory_order_relaxed) > 0) {
      continue;  // A live working set; never evict under a launch.
    }
    const std::uint64_t before = node_pools_[node]->ResidentOf(victim.id);
    Status evicted = EvictRangeFromNodeLocked(victim.id, *victim.buffer, node,
                                              0, victim.buffer->size);
    if (!evicted.ok()) {
      HAOCL_WARN << "eviction of buffer " << victim.id << " from node "
                 << node << " failed: " << evicted.ToString();
      continue;
    }
    freed += before - node_pools_[node]->ResidentOf(victim.id);
  }
  return freed;
}

Status ClusterRuntime::ReserveWorkingSet(
    std::size_t node,
    const std::vector<runtime::MemoryPool::BufferRange>& ranges) {
  runtime::MemoryPool& pool = *node_pools_[node];
  for (int attempt = 0; attempt < 4; ++attempt) {
    Status reserved = pool.ReserveAll(ranges);
    if (reserved.ok()) return reserved;
    const std::uint64_t needed = pool.NewBytesIn(ranges);
    if (needed > pool.capacity()) {
      return Status(ErrorCode::kMemObjectAllocationFailure,
                    "working set of " + std::to_string(needed) +
                        " new bytes exceeds node " + std::to_string(node) +
                        "'s device capacity (" +
                        std::to_string(pool.capacity()) + " bytes)");
    }
    const std::uint64_t free = pool.free_bytes();
    const std::uint64_t shortfall = needed > free ? needed - free : 0;
    if (shortfall == 0) continue;  // A concurrent release already helped.
    if (EvictFromNode(node, shortfall) == 0) break;  // No progress.
  }
  return Status(ErrorCode::kMemObjectAllocationFailure,
                "cannot free enough device memory on node " +
                    std::to_string(node) +
                    " (working sets of concurrent launches are pinned)");
}

Status ClusterRuntime::ReleaseBuffer(BufferId id) {
  // Never blocks: the handle disappears from the table immediately, and
  // remote teardown runs as a graph command ordered (weakly) after the
  // buffer's in-flight users — safe to call while commands are gated on
  // an unresolved marker.
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr buffer = it->second;
  std::vector<CommandId> pending;
  for (const auto& writer : buffer->writers) pending.push_back(writer.cmd);
  for (const auto& reader : buffer->readers) pending.push_back(reader.cmd);
  buffers_.erase(it);
  if (disconnected_) return Status::Ok();  // Nodes are shutting down.
  const CommandId teardown = graph_->Submit(
      [this, id, buffer](CommandGraph::Execution&) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          // The node's session pool releases in its ReleaseBuffer handler;
          // mirror it in the host ledger whether or not the RPC succeeds.
          node_pools_[i]->ReleaseBuffer(id);
          if (!buffer->allocated_on[i]) continue;
          net::ReleaseBufferRequest request;
          request.buffer_id = id;
          auto reply = CallNode(i, MsgType::kReleaseBuffer, request.Encode());
          Status status = CheckReply(reply, MsgType::kStatusReply);
          if (!status.ok()) {
            HAOCL_WARN << "release of buffer " << id << " on node " << i
                       << " failed: " << status.ToString();
          }
        }
        return Status::Ok();
      },
      {}, "release:buf" + std::to_string(id), std::move(pending));
  // Fire-and-forget: nobody queries teardown commands, so drop the record
  // reference now and let the graph reclaim it at retirement.
  graph_->Release(teardown);
  return Status::Ok();
}

Expected<std::uint64_t> ClusterRuntime::BufferSize(BufferId id) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  return it->second->size;
}

// -------------------------------------------------------------- Programs

Expected<ProgramId> ClusterRuntime::BuildProgram(const std::string& source) {
  // Host-side compile: immediate diagnostics + kernel signatures for
  // clSetKernelArg validation and the coherence protocol's constness.
  oclc::CompileResult compiled = oclc::CompileWithLog(source);
  std::lock_guard<std::mutex> lock(state_mutex_);
  const ProgramId id = next_program_id_++;
  auto program = std::make_shared<ProgramState>();
  program->source = source;
  program->module = compiled.module;
  program->build_log = compiled.build_log;
  program->built_on.assign(nodes_.size(), false);
  programs_.emplace(id, std::move(program));
  if (compiled.module == nullptr) {
    return Status(ErrorCode::kBuildProgramFailure, compiled.build_log);
  }
  return id;
}

std::string ClusterRuntime::BuildLog(ProgramId id) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = programs_.find(id);
  return it == programs_.end() ? "" : it->second->build_log;
}

Expected<const oclc::CompiledFunction*> ClusterRuntime::FindKernel(
    ProgramId id, const std::string& kernel_name) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = programs_.find(id);
  if (it == programs_.end() || it->second->module == nullptr) {
    return Status(ErrorCode::kInvalidProgram, "no such program");
  }
  const oclc::CompiledFunction* kernel =
      it->second->module->FindKernel(kernel_name);
  if (kernel == nullptr) {
    return Status(ErrorCode::kInvalidKernelName,
                  "no kernel '" + kernel_name + "'");
  }
  return kernel;
}

Status ClusterRuntime::ReleaseProgram(ProgramId id) {
  // Like ReleaseBuffer: non-blocking, remote teardown ordered after EVERY
  // in-flight launch of this program (independent launches are unordered
  // among themselves, so the latest alone would not be enough).
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = programs_.find(id);
  if (it == programs_.end()) {
    return Status(ErrorCode::kInvalidProgram, "no such program");
  }
  ProgramPtr program = it->second;
  std::vector<CommandId> pending = std::move(program->uses);
  program->uses.clear();
  programs_.erase(it);
  if (disconnected_) return Status::Ok();
  const CommandId teardown = graph_->Submit(
      [this, id, program](CommandGraph::Execution&) {
        std::lock_guard<std::mutex> program_lock(program->mutex);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
          if (!program->built_on[i]) continue;
          net::ReleaseProgramRequest request;
          request.program_id = id;
          auto reply = CallNode(i, MsgType::kReleaseProgram,
                                request.Encode());
          Status status = CheckReply(reply, MsgType::kStatusReply);
          if (!status.ok()) {
            HAOCL_WARN << "release of program " << id << " on node " << i
                       << " failed: " << status.ToString();
          }
        }
        return Status::Ok();
      },
      {}, "release:prog" + std::to_string(id), std::move(pending));
  graph_->Release(teardown);
  return Status::Ok();
}

Status ClusterRuntime::EnsureProgramOnNode(ProgramId id,
                                           ProgramState& program,
                                           std::size_t node) {
  std::lock_guard<std::mutex> lock(program.mutex);
  if (program.built_on[node]) return Status::Ok();
  net::BuildProgramRequest request;
  request.program_id = id;
  request.source = program.source;
  auto reply = CallNode(node, MsgType::kBuildProgram, request.Encode());
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kBuildReply));
  auto decoded = net::BuildProgramReply::Decode(reply->payload);
  if (!decoded.ok()) return decoded.status();
  if (decoded->status_code != 0) {
    return Status(static_cast<ErrorCode>(decoded->status_code),
                  "remote build failed on node " + std::to_string(node) +
                      ": " + decoded->build_log);
  }
  program.built_on[node] = true;
  timeline_->RecordControlMessage(node);
  return Status::Ok();
}

// --------------------------------------------------------------- Launch

// The queryable residue of a launch command. Everything heavy (buffer
// pins, program module, arg payloads) lives in LaunchWork, which only the
// command body owns — so it is freed when the command retires through ANY
// path, including dependency failure where the body never runs.
struct ClusterRuntime::LaunchPlan {
  // Written by the command body before retirement; readable once the
  // command is terminal (the graph's retirement is the synchronization).
  LaunchResult result;
  bool has_result = false;
};

// Everything one shard of a launch needs, resolved and validated at submit
// time so the graph worker never touches the object tables for lookups.
// Owned solely by the command body's closure.
struct ClusterRuntime::LaunchWork {
  LaunchSpec spec;  // Shard geometry: global[0] = shard count and
                    // global_offset[0] includes the shard offset.
  ProgramPtr program;
  std::vector<LaunchBufferArg> buffers;
  std::size_t node = 0;  // Placement decided at submit.
  ChunkTag chunk;        // Elastic chunk identity (zero otherwise).
  std::shared_ptr<LaunchPlan> plan;
  // Staged out-of-core execution: non-null when this command is one stage
  // of an oversubscribed shard. The prefetch command reserved and pinned
  // the stage's working set and recorded its slice's DMA arrival here; the
  // compute gates its virtual start on that arrival (pipelined mode) and
  // drains/evicts its slices in the epilogue.
  std::shared_ptr<StageLink> stage_link;
  bool stage_pipelined = true;
  // Scheduler backlog charged for this shard at submit; consumed exactly
  // once. The destructor refund covers every retirement path where the
  // epilogue never ran (shard failure, dependency failure, shutdown) —
  // the graph drops the body closure, and with it this struct, on all of
  // them. `owner` outlives the graph (Disconnect drains it first).
  ClusterRuntime* owner = nullptr;
  double backlog_charge = 0.0;
  LaunchWork() = default;
  LaunchWork(const LaunchWork&) = delete;
  LaunchWork& operator=(const LaunchWork&) = delete;
  ~LaunchWork() {
    if (owner != nullptr) owner->RefundBacklogCharge(node, backlog_charge);
  }
};

void ClusterRuntime::RefundBacklogCharge(std::size_t node, double seconds) {
  if (seconds <= 0.0) return;
  std::lock_guard<std::mutex> lock(sched_mutex_);
  node_busy_ahead_[node] = std::max(0.0, node_busy_ahead_[node] - seconds);
}

// Prefetch -> compute handoff of one out-of-core stage. Owned jointly by
// the stage's two command closures; the pins release when the last one is
// dropped (any retirement path), so a stage whose compute never runs does
// not leave its buffers eviction-exempt forever.
struct ClusterRuntime::StageLink {
  std::mutex mutex;
  sim::SimTime ready_at = 0.0;          // DMA arrival of the stage slices.
  std::uint64_t prefetched_bytes = 0;
  WorkingSetPin pins;
};

// Captures of one stage's prefetch command.
struct ClusterRuntime::StagePrefetchWork {
  ClusterRuntime* owner = nullptr;
  std::size_t node = 0;
  struct Range {
    BufferId id = 0;
    BufferPtr buffer;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  std::vector<Range> ranges;  // Stage slices + replicated args.
  bool pipelined = true;
  std::shared_ptr<StageLink> link;
};

Status ClusterRuntime::ExecStagePrefetch(
    const std::shared_ptr<StagePrefetchWork>& work) {
  const std::size_t node = work->node;
  const std::uint64_t epoch =
      launch_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<runtime::MemoryPool::BufferRange> ranges;
  ranges.reserve(work->ranges.size());
  for (const StagePrefetchWork::Range& range : work->ranges) {
    work->link->pins.Pin(range.buffer, node, epoch);
    ranges.push_back({range.id, range.begin, range.end});
  }
  // Inputs AND outputs reserve up front: the stage's writes materialize
  // device memory too, and failing before any transfer beats failing with
  // half a stage shipped.
  HAOCL_RETURN_IF_ERROR(ReserveWorkingSet(node, ranges));
  sim::SimTime ready = 0.0;
  std::uint64_t shipped = 0;
  for (const StagePrefetchWork::Range& range : work->ranges) {
    std::lock_guard<std::mutex> lock(range.buffer->mutex);
    HAOCL_RETURN_IF_ERROR(EnsureRangeOnNodeLocked(
        range.id, *range.buffer, node, range.begin, range.end, &shipped,
        PeerMode::kPull,
        work->pipelined ? TransferTiming::kPrefetch : TransferTiming::kDemand,
        &ready));
  }
  std::lock_guard<std::mutex> link_lock(work->link->mutex);
  work->link->ready_at = ready;
  work->link->prefetched_bytes = shipped;
  return Status::Ok();
}

Expected<CommandHandle> ClusterRuntime::SubmitLaunch(
    const LaunchSpec& spec, std::vector<CommandHandle> deps,
    std::vector<CommandHandle> order_after) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto launch = PrepareLaunchLocked(spec);
  if (!launch.ok()) return launch.status();
  return CommitLaunchLocked(*launch, launch->plan, std::move(deps),
                            std::move(order_after), ChunkTag{});
}

Expected<ClusterRuntime::PreparedLaunch> ClusterRuntime::PrepareLaunchLocked(
    const LaunchSpec& spec) {
  auto program_it = programs_.find(spec.program);
  if (program_it == programs_.end() ||
      program_it->second->module == nullptr) {
    return Status(ErrorCode::kInvalidProgram, "no such program");
  }
  PreparedLaunch launch;
  launch.spec = spec;
  launch.program = program_it->second;
  const oclc::Module& module = *launch.program->module;
  const oclc::CompiledFunction* kernel = module.FindKernel(spec.kernel_name);
  if (kernel == nullptr) {
    return Status(ErrorCode::kInvalidKernelName,
                  "no kernel '" + spec.kernel_name + "' in program");
  }
  if (kernel->params.size() != spec.args.size()) {
    return Status(ErrorCode::kInvalidKernelArgs,
                  "kernel '" + spec.kernel_name + "' takes " +
                      std::to_string(kernel->params.size()) +
                      " args, got " + std::to_string(spec.args.size()));
  }

  // Resolve buffer args once; every shard shares the pins and metadata.
  std::vector<oclc::ArgBinding> fake_bindings;
  sched::TaskInfo& task = launch.task;
  task.kernel_name = spec.kernel_name;
  task.user_id = options_.session_id;
  task.preferred_node = spec.preferred_node;
  task.fpga_binary_available =
      driver::NativeKernelRegistry::Instance().Contains(spec.kernel_name);
  task.dim0_extent = spec.global[0];
  task.dim0_align = spec.local_specified ? std::max<std::uint64_t>(
                                               1, spec.local[0])
                                         : 1;
  // Kernels that query the launch-wide range would see shard-local
  // values; keep them whole. Their work-items can also roam past their
  // nominal slice (grid-stride loops), so partitioned annotations are not
  // trustworthy for region-granular coherence either — degrade every
  // buffer arg to whole-buffer treatment below.
  const bool range_free = !KernelMayQueryLaunchRange(module, *kernel);
  task.splittable = spec.work_dim >= 1 && spec.global[0] > 0 && range_free;
  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    const KernelArgValue& arg = spec.args[i];
    if (arg.kind != KernelArgValue::Kind::kBuffer) {
      fake_bindings.push_back(oclc::ArgBinding{});
      continue;
    }
    auto it = buffers_.find(arg.buffer);
    if (it == buffers_.end()) {
      return Status(ErrorCode::kInvalidMemObject,
                    "arg " + std::to_string(i) + ": no such buffer");
    }
    LaunchBufferArg buffer_arg;
    buffer_arg.id = arg.buffer;
    buffer_arg.buffer = it->second;
    buffer_arg.written = !kernel->params[i].pointee_const;
    buffer_arg.partitioned =
        arg.access == KernelArgValue::Access::kPartitionedDim0 && range_free;
    buffer_arg.stride = arg.partition_stride;
    if (arg.access == KernelArgValue::Access::kPartitionedDim0) {
      if (buffer_arg.stride == 0) {
        return Status(ErrorCode::kInvalidValue,
                      "arg " + std::to_string(i) +
                          ": partitioned access needs a non-zero stride");
      }
      // The full partition range must fit the buffer, or shard slices
      // would run past its end. Division form: offset + count and the
      // byte product can both wrap uint64 for hostile global_work_offset
      // values.
      const std::uint64_t max_indices =
          it->second->size / buffer_arg.stride;
      if (spec.global[0] > max_indices ||
          spec.global_offset[0] > max_indices - spec.global[0]) {
        return Status(ErrorCode::kInvalidValue,
                      "arg " + std::to_string(i) + ": partition range (" +
                          std::to_string(spec.global_offset[0]) + " + " +
                          std::to_string(spec.global[0]) + " x stride " +
                          std::to_string(buffer_arg.stride) +
                          ") exceeds buffer size " +
                          std::to_string(it->second->size));
      }
    }
    if (buffer_arg.written && !buffer_arg.partitioned) {
      task.splittable = false;  // Whole-buffer writes pin the launch.
    }
    // Partitioned args ship only the launch's partition window — count
    // that, not the whole buffer, so the cost model's transfer term and
    // the residency discount below measure the same bytes.
    const auto [begin, end] =
        buffer_arg.Window(spec.global_offset[0], spec.global[0]);
    task.input_bytes += end - begin;
    // Memory-footprint decomposition for the capacity checks: replicated
    // args cost every shard their full size; partitioned args cost their
    // stride per dim-0 index.
    if (buffer_arg.partitioned) {
      task.bytes_per_index += buffer_arg.stride;
    } else {
      task.replicated_bytes += it->second->size;
    }
    launch.buffers.push_back(std::move(buffer_arg));
    oclc::ArgBinding binding;
    binding.kind = oclc::ArgBinding::Kind::kBuffer;
    binding.size = it->second->size;
    fake_bindings.push_back(binding);
  }
  if (spec.cost_hint.has_value()) {
    task.cost = *spec.cost_hint;
  } else {
    oclc::NDRange range;
    range.work_dim = spec.work_dim;
    for (int d = 0; d < 3; ++d) {
      range.global[d] = spec.global[d];
      range.local[d] = spec.local[d];
      range.offset[d] = spec.global_offset[d];
    }
    range.local_specified = spec.local_specified;
    task.cost =
        driver::EstimateKernelCost(module, *kernel, fake_bindings, range);
  }

  // Locality hints from the region directories: how many of this launch's
  // input bytes each node already owns, and the first dim-0 index of
  // partitioned input resident there. Policies use these to source shards
  // from data instead of dragging data to shards (brief per-buffer locks;
  // the reads are advisory — the transfer engine re-checks at execution).
  std::vector<std::uint64_t> resident_bytes(nodes_.size(), 0);
  std::vector<std::uint64_t> resident_begin(
      nodes_.size(), std::numeric_limits<std::uint64_t>::max());
  for (const LaunchBufferArg& buffer_arg : launch.buffers) {
    const auto [begin, end] =
        buffer_arg.Window(spec.global_offset[0], spec.global[0]);
    // try_lock, never block: this runs under state_mutex_, and a buffer
    // amid a slice transfer holds its mutex across node RPCs — waiting
    // here would stall every other submit in the runtime. A missed hint
    // just means no locality credit for this arg this time.
    std::unique_lock<std::mutex> buffer_lock(buffer_arg.buffer->mutex,
                                             std::try_to_lock);
    if (!buffer_lock.owns_lock()) continue;
    for (const RegionDirectory::Region& region :
         buffer_arg.buffer->dir.Query(begin, end)) {
      for (RegionDirectory::Owner owner : region.owners) {
        if (owner >= nodes_.size()) continue;
        resident_bytes[owner] += region.end - region.begin;
        if (buffer_arg.partitioned) {
          resident_begin[owner] = std::min(
              resident_begin[owner], region.begin / buffer_arg.stride);
        }
      }
    }
  }

  // Ask the policy for the placement plan (live in-flight depth feeds the
  // view, so the decision sees the cluster as of this submit).
  std::lock_guard<std::mutex> sched_lock(sched_mutex_);
  launch.view = HostClusterViewLocked(spec.kernel_name);
  for (std::size_t i = 0; i < launch.view.nodes.size(); ++i) {
    launch.view.nodes[i].resident_input_bytes = resident_bytes[i];
    launch.view.nodes[i].resident_dim0_begin = resident_begin[i];
  }
  auto planned = policy_->PlanLaunch(task, launch.view);
  if (!planned.ok()) return planned.status();
  HAOCL_RETURN_IF_ERROR(sched::ValidatePlan(*planned, task, launch.view));
  launch.plan = *std::move(planned);
  return launch;
}

Expected<CommandHandle> ClusterRuntime::CommitLaunchLocked(
    const PreparedLaunch& launch, const sched::PlacementPlan& plan,
    std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after,
    const ChunkTag& chunk) {
  const LaunchSpec& spec = launch.spec;
  const sched::TaskInfo& task = launch.task;
  const std::size_t shard_total = plan.shards.size();
  // The dim-0 indices this commit covers: the whole launch for a policy
  // plan, one chunk's rows for an elastic chunk.
  const std::uint64_t first =
      spec.global_offset[0] + plan.shards.front().global_offset;
  const std::uint64_t count = plan.shards.back().global_offset +
                              plan.shards.back().global_count -
                              plan.shards.front().global_offset;

  // Charge each shard's predicted compute seconds against its node's
  // backlog estimate NOW, so load-aware policies see work that is
  // submitted but not yet complete; the shard refunds the same amount
  // when it retires.
  std::vector<double> shard_charges;
  shard_charges.reserve(shard_total);
  {
    std::lock_guard<std::mutex> sched_lock(sched_mutex_);
    for (const sched::PlacementShard& shard : plan.shards) {
      if (node_dead_[shard.node]) {
        return Status(ErrorCode::kNodeLost,
                      "node " + std::to_string(shard.node) +
                          " is marked dead; the work must be re-queued");
      }
    }
    const double extent_units = static_cast<double>(
        std::max<std::uint64_t>(1, task.dim0_extent));
    sched::TaskInfo shard_task = task;  // Cost rescaled per shard.
    for (const sched::PlacementShard& shard : plan.shards) {
      shard_task.cost = task.cost.Scaled(
          static_cast<double>(shard.global_count) / extent_units);
      const double charge = sched::PredictComputeSeconds(
          shard_task, launch.view.nodes[shard.node]);
      shard_charges.push_back(charge);
      node_busy_ahead_[shard.node] += charge;
    }
  }

  // Decompose oversubscribed shards into out-of-core stages: a shard
  // whose working set exceeds its node's device capacity runs as a
  // serial chain of sub-range launches with a double-buffered stage
  // budget, so two stages fit at once and stage k+1's slice prefetch can
  // overlap stage k's compute (libhclooc's staging pattern, expressed as
  // command-graph edges below).
  struct SubLaunch {
    std::size_t shard = 0;     // Index into plan.shards.
    std::uint64_t offset = 0;  // Plan-relative dim-0 offset.
    std::uint64_t count = 0;
    std::uint32_t stage = 0;         // Stage index within the shard.
    std::uint32_t stage_total = 1;   // 1 = runs in-core, unstaged.
  };
  std::vector<SubLaunch> subs;
  const std::uint64_t stage_align =
      std::max<std::uint64_t>(1, task.dim0_align);
  for (std::size_t s = 0; s < shard_total; ++s) {
    const sched::PlacementShard& shard = plan.shards[s];
    const std::uint64_t capacity = node_pools_[shard.node]->capacity();
    std::uint64_t stage_rows = shard.global_count;
    if (capacity != 0 && task.splittable && task.bytes_per_index > 0) {
      const std::uint64_t working_set =
          task.replicated_bytes + shard.global_count * task.bytes_per_index;
      if (working_set > capacity) {
        const std::uint64_t budget =
            capacity > task.replicated_bytes
                ? (capacity - task.replicated_bytes) / 2
                : 0;
        stage_rows =
            budget / task.bytes_per_index / stage_align * stage_align;
        if (stage_rows == 0) {
          // ValidatePlan admits only stageable shards, but a policy could
          // hand us a hand-built plan through a custom registry entry.
          return Status(ErrorCode::kMemObjectAllocationFailure,
                        "kernel '" + spec.kernel_name +
                            "': no double-buffered stage fits node " +
                            std::to_string(shard.node) + "'s capacity");
        }
      }
    }
    const auto stages = static_cast<std::uint32_t>(
        (shard.global_count + stage_rows - 1) / stage_rows);
    for (std::uint32_t k = 0; k < stages; ++k) {
      SubLaunch sub;
      sub.shard = s;
      sub.offset = shard.global_offset + k * stage_rows;
      sub.count = std::min<std::uint64_t>(
          stage_rows, shard.global_offset + shard.global_count - sub.offset);
      sub.stage = k;
      sub.stage_total = stages;
      subs.push_back(sub);
    }
  }
  const std::size_t launch_total = subs.size();
  const bool region_mode = launch_total > 1;

  // Shared dependency context for every shard.
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  // Hazard ranges are region-granular: a partitioned arg conflicts only on
  // the committed partition window, so launches over disjoint windows of
  // one buffer pipeline freely.
  for (const LaunchBufferArg& buffer_arg : launch.buffers) {
    const auto [begin, end] = buffer_arg.Window(first, count);
    if (buffer_arg.written) {
      AddWriteHazardLocked(*buffer_arg.buffer, begin, end, &hazards);
    } else {
      AddReadHazardLocked(*buffer_arg.buffer, begin, end, &hazards);
    }
  }

  // Fan out the sub-launch commands. Shards are mutually independent (the
  // plan guarantees disjoint slices) and order after the same hazards; a
  // staged shard's stages chain serially on its node, fronted by prefetch
  // commands wired so stage k+1's transfer overlaps stage k's compute
  // (with a one-stage lookahead, matching the double-buffered budget).
  std::vector<CommandId> shard_ids;   // One COMPUTE command per sub-launch.
  std::vector<std::shared_ptr<LaunchPlan>> shard_plans;
  std::vector<std::uint32_t> group_of;  // Plan-shard index per command.
  std::vector<CommandId> prefetch_ids;  // Released once dependents exist.
  shard_ids.reserve(launch_total);
  shard_plans.reserve(launch_total);
  group_of.reserve(launch_total);
  const double extent = static_cast<double>(std::max<std::uint64_t>(
      1, spec.global[0]));
  CommandId prev_launch = kNullCommand;
  CommandId prev_prev_launch = kNullCommand;
  CommandId prev_prefetch = kNullCommand;
  for (const SubLaunch& sub : subs) {
    if (sub.stage == 0) {
      prev_launch = prev_prev_launch = prev_prefetch = kNullCommand;
    }
    const sched::PlacementShard& shard = plan.shards[sub.shard];
    auto work = std::make_shared<LaunchWork>();
    work->spec = spec;
    work->spec.global[0] = sub.count;
    work->spec.global_offset[0] = spec.global_offset[0] + sub.offset;
    if (spec.cost_hint.has_value()) {
      // Scale the analytic hint to the sub-launch's share of the range.
      work->spec.cost_hint = spec.cost_hint->Scaled(
          static_cast<double>(sub.count) / extent);
    }
    work->program = launch.program;
    work->buffers = launch.buffers;
    work->node = shard.node;
    work->chunk = chunk;
    work->owner = this;
    work->backlog_charge =
        shard_charges[sub.shard] *
        (static_cast<double>(sub.count) /
         static_cast<double>(shard.global_count));
    work->plan = std::make_shared<LaunchPlan>();
    shard_plans.push_back(work->plan);
    group_of.push_back(static_cast<std::uint32_t>(sub.shard));

    std::string label = "launch:" + spec.kernel_name;
    if (shard_total > 1) {
      label += "[" + std::to_string(sub.shard + 1) + "/" +
               std::to_string(shard_total) + "]";
    }
    std::vector<CommandId> launch_deps;
    if (sub.stage_total > 1) {
      label += ":stage" + std::to_string(sub.stage + 1) + "/" +
               std::to_string(sub.stage_total);
      // Prefetch command: reserves + pins the stage's working set and
      // ships its slices ahead of the compute. Pipelined wiring lets
      // prefetch k+1 run while compute k is still in flight, gated on
      // compute k-1 so at most two stages are ever resident; the serial
      // baseline chains each prefetch behind the previous compute.
      auto link = std::make_shared<StageLink>();
      auto prefetch = std::make_shared<StagePrefetchWork>();
      prefetch->owner = this;
      prefetch->node = shard.node;
      prefetch->pipelined = options_.stage_pipeline;
      prefetch->link = link;
      for (const LaunchBufferArg& buffer_arg : launch.buffers) {
        const auto [begin, end] =
            buffer_arg.Window(work->spec.global_offset[0], sub.count);
        prefetch->ranges.push_back(
            {buffer_arg.id, buffer_arg.buffer, begin, end});
      }
      std::vector<CommandId> prefetch_deps;
      if (sub.stage == 0) {
        prefetch_deps = dep_ids;
      } else if (options_.stage_pipeline) {
        prefetch_deps.push_back(prev_prefetch);
        if (prev_prev_launch != kNullCommand) {
          prefetch_deps.push_back(prev_prev_launch);
        }
      } else {
        prefetch_deps.push_back(prev_launch);
      }
      const CommandId prefetch_cmd = graph_->Submit(
          [this, prefetch](CommandGraph::Execution&) {
            return ExecStagePrefetch(prefetch);
          },
          std::move(prefetch_deps), label + ":prefetch", hazards);
      // Later writers of the fetched ranges must not overtake the
      // prefetch. Its record reference is dropped only after EVERY
      // dependent is submitted (end of this function): a fast-failing
      // prefetch reclaimed before its compute's Submit would resolve the
      // dependency edge as "already retired OK" and swallow the failure.
      for (const StagePrefetchWork::Range& range : prefetch->ranges) {
        RecordReadLocked(*range.buffer, range.begin, range.end,
                         prefetch_cmd);
      }
      prefetch_ids.push_back(prefetch_cmd);
      work->stage_link = link;
      work->stage_pipelined = options_.stage_pipeline;
      launch_deps.push_back(prefetch_cmd);
      if (prev_launch != kNullCommand) launch_deps.push_back(prev_launch);
      prev_prev_launch = prev_launch;
      prev_prefetch = prefetch_cmd;
    } else {
      launch_deps = dep_ids;
    }
    // The body's closure is the sole owner of `work` (and thus of every
    // buffer/program pin); the graph drops the body on ANY retirement
    // path — completion, failure, dependency failure, shutdown — so pins
    // never outlive the command.
    const CommandId launch_cmd = graph_->Submit(
        [this, work = std::move(work)](CommandGraph::Execution& e) {
          return ExecLaunch(work, e);
        },
        std::move(launch_deps), label,
        sub.stage_total > 1 ? std::vector<CommandId>{} : hazards);
    prev_launch = launch_cmd;
    shard_ids.push_back(launch_cmd);
  }

  CommandId cmd = shard_ids[0];
  if (region_mode) {
    // Join: one aggregate result, one handle for the caller. The shard
    // edges are WEAK (the join runs after every shard retires, success or
    // failure) so the join body can surface the first shard's own error —
    // a caller waiting on the fan-out sees the root cause, not a generic
    // kDependencyFailed.
    auto join_plan = std::make_shared<LaunchPlan>();
    const auto shard_count = static_cast<std::uint32_t>(shard_total);
    const auto stage_count = static_cast<std::uint32_t>(launch_total);
    // The aggregate reports the node that ran the largest plan shard.
    std::size_t agg_node = plan.shards[0].node;
    std::uint64_t largest = 0;
    for (const auto& shard : plan.shards) {
      if (shard.global_count > largest) {
        largest = shard.global_count;
        agg_node = shard.node;
      }
    }
    cmd = graph_->Submit(
        [this, shards = shard_ids, plans = shard_plans,
         groups = group_of, shard_count, stage_count, agg_node,
         join_plan](CommandGraph::Execution& e) {
          // All sub-launches are terminal (weak edges resolved); fail with
          // the most specific error, if any. Success is read from the
          // shared plan (the body's last write before returning OK), NOT
          // from the graph record — an early ReleaseCommand on the launch
          // handle may have reclaimed shard records already.
          Status failure = Status::Ok();
          for (std::size_t i = 0; i < plans.size(); ++i) {
            if (plans[i]->has_result) continue;  // Sub-launch completed.
            // Reclaimed records (unknown to QueryState) lost their
            // status; live records report their genuine failure, whatever
            // its code.
            Status status =
                graph_->QueryState(shards[i]).ok()
                    ? graph_->QueryStatus(shards[i])
                    : Status(ErrorCode::kInternal,
                             "launch shard failed (record released)");
            if (status.ok()) {
              status = Status(ErrorCode::kInternal, "launch shard failed");
            }
            if (failure.ok() ||
                (failure.code() == ErrorCode::kDependencyFailed &&
                 status.code() != ErrorCode::kDependencyFailed)) {
              failure = status;
            }
          }
          if (!failure.ok()) return failure;
          LaunchResult agg;
          agg.shard_count = shard_count;
          agg.stage_count = stage_count;
          agg.node = agg_node;
          double span_start = std::numeric_limits<double>::infinity();
          // A shard's stages serialize on its device, so modeled seconds
          // sum within a shard and the slowest shard bounds the launch.
          std::vector<double> shard_seconds(shard_count, 0.0);
          for (std::size_t i = 0; i < plans.size(); ++i) {
            const LaunchResult& r = plans[i]->result;
            shard_seconds[groups[i]] += r.modeled_seconds;
            agg.modeled_joules += r.modeled_joules;
            agg.bytes_shipped += r.bytes_shipped;
            agg.virtual_completion = std::max(agg.virtual_completion,
                                              r.virtual_completion);
            span_start = std::min(span_start,
                                  r.virtual_completion - r.modeled_seconds);
          }
          for (double seconds : shard_seconds) {
            agg.modeled_seconds = std::max(agg.modeled_seconds, seconds);
          }
          e.SetSpan(span_start, agg.virtual_completion);
          join_plan->result = agg;
          join_plan->has_result = true;
          return Status::Ok();
        },
        {}, "launch:" + spec.kernel_name + ":join", shard_ids);
    fan_outs_.emplace(cmd, shard_ids);
    for (std::size_t s = 0; s < shard_ids.size(); ++s) {
      launch_plans_.emplace(shard_ids[s], shard_plans[s]);
    }
    launch_plans_.emplace(cmd, std::move(join_plan));
  } else {
    launch_plans_.emplace(cmd, shard_plans[0]);
  }

  // Register the whole fan-out as one unit in the hazard chains: later
  // conflicting commands order after the join (and thus every shard). The
  // shards also register individually — a failed sibling makes the join
  // terminal while other shards still run, and teardown/write hazards
  // must not overtake them.
  auto record = [this](const LaunchBufferArg& buffer_arg,
                       std::pair<std::uint64_t, std::uint64_t> window,
                       CommandId id) {
    if (buffer_arg.written) {
      RecordWriteLocked(*buffer_arg.buffer, window.first, window.second, id);
    } else {
      RecordReadLocked(*buffer_arg.buffer, window.first, window.second, id);
    }
  };
  for (const LaunchBufferArg& buffer_arg : launch.buffers) {
    record(buffer_arg, buffer_arg.Window(first, count), cmd);
    if (region_mode) {
      // Each sub-launch registers over its own slice of partitioned args
      // (its full range for replicated ones) — as a WRITER where it
      // writes — so a later conflicting command cannot overtake a
      // still-running shard or stage even after a failed sibling made the
      // join terminal early (reads collect only writers, and terminal
      // commands impose no order).
      for (std::size_t s = 0; s < shard_ids.size(); ++s) {
        record(buffer_arg,
               buffer_arg.Window(spec.global_offset[0] + subs[s].offset,
                                 subs[s].count),
               shard_ids[s]);
      }
    }
  }
  // Prune retired launches so long-lived programs do not accumulate one
  // id per launch forever (mirrors PruneRetiredReadersLocked). Reclaimed
  // records (!ok) retired by definition.
  auto& uses = launch.program->uses;
  uses.erase(std::remove_if(uses.begin(), uses.end(),
                            [this](CommandId id) {
                              auto state = graph_->QueryState(id);
                              return !state.ok() || IsTerminal(*state);
                            }),
             uses.end());
  if (region_mode) {
    uses.insert(uses.end(), shard_ids.begin(), shard_ids.end());
  }
  uses.push_back(cmd);
  // Every dependent of the prefetches is submitted (edges registered on
  // live records, so failures still propagate); nobody queries prefetch
  // records, so drop their references now.
  for (CommandId prefetch : prefetch_ids) graph_->Release(prefetch);
  return CommandHandle{cmd};
}

Status ClusterRuntime::ExecLaunch(const std::shared_ptr<LaunchWork>& work,
                                  CommandGraph::Execution& e) {
  const LaunchSpec& spec = work->spec;
  const std::size_t node = work->node;  // Placement decided at submit.
  // Byte range of this shard's slice of a buffer arg: its window over
  // dim-0 indices [global_offset[0], global_offset[0] + global[0]).
  auto slice = [&spec](const LaunchBufferArg& buffer_arg) {
    return buffer_arg.Window(spec.global_offset[0], spec.global[0]);
  };

  // ---- Working-set reservation (tiered memory) ---------------------------
  // Pin + LRU-stamp the working set so the eviction policy cannot reclaim
  // it mid-launch, then reserve its ranges in the node's ledger — evicting
  // colder buffers when the pool is full. A staged launch's prefetch
  // command already reserved and pinned (its StageLink holds the pins);
  // the compute side re-pins cheaply and skips the reservation.
  WorkingSetPin pins;
  const std::uint64_t epoch =
      launch_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<runtime::MemoryPool::BufferRange> working_set;
  working_set.reserve(work->buffers.size());
  for (const auto& buffer_arg : work->buffers) {
    const auto [begin, end] = slice(buffer_arg);
    working_set.push_back({buffer_arg.id, begin, end});
    pins.Pin(buffer_arg.buffer, node, epoch);
  }
  if (work->stage_link == nullptr) {
    HAOCL_RETURN_IF_ERROR(ReserveWorkingSet(node, working_set));
  }

  // ---- Stage program + data (per-command prologue, per-object locks) -----
  HAOCL_RETURN_IF_ERROR(
      EnsureProgramOnNode(spec.program, *work->program, node));

  LaunchResult result;
  result.node = node;
  const double compute_amp = timeline_->compute_amplification();
  net::LaunchKernelRequest request;
  request.program_id = spec.program;
  request.kernel_name = spec.kernel_name;
  request.work_dim = spec.work_dim;
  for (int d = 0; d < 3; ++d) {
    request.global[d] = spec.global[d];
    request.local[d] = spec.local[d];
    request.global_offset[d] = spec.global_offset[d];
  }
  request.local_specified = spec.local_specified;
  // Elastic tag: lets the node skip this chunk if it was revoked between
  // submit and execution (stolen by a peer / re-queued after a failure).
  request.elastic_launch_id = work->chunk.launch_id;
  request.elastic_chunk_id = work->chunk.chunk_id;
  if (spec.cost_hint.has_value()) {
    // Ship the analytic hint (shard-scaled at submit) so the node's
    // timing model profiles the work the scheduler accounts — the static
    // instruction-mix estimate cannot see data-dependent trip counts.
    // Paper-scale amplification applies to the WORK (flops/bytes), so
    // fixed launch overheads stay constant on the node.
    request.has_cost_hint = true;
    request.hint_flops = spec.cost_hint->flops * compute_amp;
    request.hint_bytes = spec.cost_hint->bytes * compute_amp;
    request.hint_work_items = spec.cost_hint->work_items;
    request.hint_irregular = spec.cost_hint->irregular;
  }

  auto buffer_arg_it = work->buffers.begin();
  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    const KernelArgValue& arg = spec.args[i];
    net::WireKernelArg wire;
    switch (arg.kind) {
      case KernelArgValue::Kind::kBuffer: {
        const LaunchBufferArg& buffer_arg = *buffer_arg_it++;
        std::lock_guard<std::mutex> lock(buffer_arg.buffer->mutex);
        // Partitioned args need only this shard's slice on the node (a
        // single-shard launch's "slice" is its whole partition window);
        // replicated args need the full buffer. The directory ships just
        // the stale sub-ranges, sourcing peers directly where possible.
        const auto [begin, end] = slice(buffer_arg);
        HAOCL_RETURN_IF_ERROR(EnsureRangeOnNodeLocked(
            buffer_arg.id, *buffer_arg.buffer, node, begin, end,
            &result.bytes_shipped));
        wire.kind = net::WireKernelArg::Kind::kBuffer;
        wire.buffer_id = buffer_arg.id;
        if (buffer_arg.written) {
          // The node's session pool charges the written range at launch —
          // the same range this epilogue charges in the host ledger.
          wire.written_begin = begin;
          wire.written_end = end;
        }
        break;
      }
      case KernelArgValue::Kind::kScalar:
        wire.kind = net::WireKernelArg::Kind::kScalar;
        wire.scalar_bytes = arg.scalar_bytes;
        break;
      case KernelArgValue::Kind::kLocalSize:
        wire.kind = net::WireKernelArg::Kind::kLocalSize;
        wire.local_size = arg.local_size;
        break;
    }
    request.args.push_back(std::move(wire));
  }

  // ---- Execute (overlapped RPC: only this command's worker blocks) -------
  auto reply = CallNode(node, MsgType::kLaunchKernel, request.Encode());
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kLaunchReply));
  auto decoded = net::LaunchKernelReply::Decode(reply->payload);
  if (!decoded.ok()) return decoded.status();
  // Cache the broker snapshot piggybacked on every launch reply (also on
  // failed/backpressured ones — a rejection is exactly when the view of
  // the neighbours' backlog matters).
  {
    std::lock_guard<std::mutex> sched_lock(sched_mutex_);
    node_broker_backlog_[node] = decoded->node_backlog_seconds;
    node_active_weight_[node] = decoded->active_weight;
  }
  if (decoded->status_code != 0) {
    return Status(static_cast<ErrorCode>(decoded->status_code),
                  decoded->error_message);
  }

  // ---- Post-launch bookkeeping -------------------------------------------
  // No gather: outputs stay on the executing node and only the directory
  // changes. A partitioned output marks this shard's slice written here
  // (the union over shards tiles the buffer across the cluster); a
  // whole-buffer output (classic launches only) marks the full range. The
  // host shadow and every other replica are stale for those ranges until a
  // read, a migration, or a downstream launch pulls them — which a chained
  // consumer does node-to-node, without touching the host.
  for (const auto& buffer_arg : work->buffers) {
    if (!buffer_arg.written) continue;
    std::lock_guard<std::mutex> lock(buffer_arg.buffer->mutex);
    const auto [begin, end] = slice(buffer_arg);
    buffer_arg.buffer->dir.MarkWritten(
        begin, end, static_cast<RegionDirectory::Owner>(node));
  }

  // With a cost hint the node already modeled the (amplified) analytic
  // work on ITS spec — which may legitimately differ from the host's
  // static preset; that difference is exactly what the observed-rate
  // feedback measures. Without one, the node modeled the unamplified
  // static estimate: approximate paper scale by scaling the modeled time.
  result.modeled_seconds = decoded->modeled_seconds;
  result.modeled_joules = decoded->modeled_joules;
  if (!spec.cost_hint.has_value() && compute_amp != 1.0) {
    result.modeled_seconds *= compute_amp;
    result.modeled_joules *= compute_amp;
  }
  // A pipelined stage's compute gates on its slice's DMA arrival instead
  // of the transfer chaining ahead of the accelerator — this is where the
  // staged pipeline's overlap materializes in virtual time.
  sim::SimTime stage_ready = 0.0;
  if (work->stage_link != nullptr) {
    std::lock_guard<std::mutex> link_lock(work->stage_link->mutex);
    stage_ready = work->stage_link->ready_at;
    result.bytes_shipped += work->stage_link->prefetched_bytes;
  }
  result.virtual_completion =
      work->stage_link != nullptr && work->stage_pipelined
          ? timeline_->RecordKernelAfter(node, result.modeled_seconds,
                                         stage_ready)
          : timeline_->RecordKernel(node, result.modeled_seconds);
  e.SetSpan(result.virtual_completion - result.modeled_seconds,
            result.virtual_completion);
  // Staged launches drain and evict their stage slices immediately: the
  // written slice's only fresh copy is this node, so eviction spills it
  // to the host shadow (the out-of-core writeback, spill-bucketed), and
  // input slices just drop ownership — at most two stages stay resident.
  if (work->stage_link != nullptr) {
    for (const auto& buffer_arg : work->buffers) {
      if (!buffer_arg.partitioned) continue;
      std::lock_guard<std::mutex> lock(buffer_arg.buffer->mutex);
      const auto [begin, end] = slice(buffer_arg);
      HAOCL_RETURN_IF_ERROR(EvictRangeFromNodeLocked(
          buffer_arg.id, *buffer_arg.buffer, node, begin, end));
    }
  }
  // Per-shard observed rate: this shard's modeled seconds over the flops
  // the COST MODEL charges it — the (unamplified) shard-scaled hint when
  // present, the node's static estimate otherwise. Dividing amplified
  // seconds by amplified flops keeps the rate in unamplified cost-model
  // units, so rate x task.cost.flops predicts compute seconds, and a
  // sharded and an unsplit launch of one kernel converge to the same
  // observed_seconds_per_flop. (The old sample divided the node's static
  // estimate pair regardless of the hint, so the learned rate was in
  // different units than the flops predictions multiplied it by.)
  const double sample_flops =
      (spec.cost_hint.has_value() ? spec.cost_hint->flops
                                  : static_cast<double>(decoded->flops)) *
      compute_amp;
  if (sample_flops > 0.0) {
    rate_table_->Observe(node, spec.kernel_name,
                         result.modeled_seconds / sample_flops);
  }
  // Elastic re-executions (recovery re-runs, steal re-targets) account
  // their input movement to the reexec bucket too: bytes a fault-free run
  // would not have shipped.
  if (work->chunk.reexec && result.bytes_shipped > 0) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.reexec_bytes += result.bytes_shipped;
  }
  // The shard is complete: refund its submit-time backlog charge (the
  // refund happens-before the command retires, so a waiter that observed
  // completion also observes the drained estimate).
  RefundBacklogCharge(node, work->backlog_charge);
  work->backlog_charge = 0.0;
  work->plan->result = result;
  work->plan->has_result = true;
  return Status::Ok();
}

// -------------------------------------------------------------- Migration

Expected<CommandHandle> ClusterRuntime::SubmitMigrate(
    BufferId id, std::vector<MigrateRegion> regions, int target_node,
    bool discard_contents, std::vector<CommandHandle> deps,
    std::vector<CommandHandle> order_after) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  auto it = buffers_.find(id);
  if (it == buffers_.end()) {
    return Status(ErrorCode::kInvalidMemObject, "no such buffer");
  }
  BufferPtr buffer = it->second;
  if (target_node != kMigrateToHost &&
      (target_node < 0 ||
       static_cast<std::size_t>(target_node) >= nodes_.size())) {
    return Status(ErrorCode::kInvalidValue,
                  "migration target node " + std::to_string(target_node) +
                      " out of range");
  }
  if (regions.empty()) regions.push_back({0, buffer->size});
  for (const MigrateRegion& region : regions) {
    if (region.size == 0 ||
        RangeExceeds(region.offset, region.size, buffer->size)) {
      return Status(ErrorCode::kInvalidValue,
                    "migration region beyond buffer end");
    }
  }
  std::vector<CommandId> dep_ids;
  std::vector<CommandId> hazards;
  CollectDepIds(deps, &dep_ids);
  CollectDepIds(order_after, &hazards);
  for (const MigrateRegion& region : regions) {
    // Content-preserving migration reads the regions (write-after-migrate
    // must wait, migrate-after-write must see the write); discarding
    // contents WRITES them (everyone else's copy goes stale).
    if (discard_contents) {
      AddWriteHazardLocked(*buffer, region.offset,
                           region.offset + region.size, &hazards);
    } else {
      AddReadHazardLocked(*buffer, region.offset,
                          region.offset + region.size, &hazards);
    }
  }
  const CommandId cmd = graph_->Submit(
      [this, id, buffer, regions, target_node,
       discard_contents](CommandGraph::Execution&) {
        return ExecMigrate(id, buffer, regions, target_node,
                           discard_contents);
      },
      std::move(dep_ids), "migrate:buf" + std::to_string(id),
      std::move(hazards));
  for (const MigrateRegion& region : regions) {
    if (discard_contents) {
      RecordWriteLocked(*buffer, region.offset, region.offset + region.size,
                        cmd);
    } else {
      RecordReadLocked(*buffer, region.offset, region.offset + region.size,
                       cmd);
    }
  }
  return CommandHandle{cmd};
}

Status ClusterRuntime::ExecMigrate(BufferId id, const BufferPtr& buffer,
                                   const std::vector<MigrateRegion>& regions,
                                   int target_node, bool discard_contents) {
  // Node-bound migrations reserve their regions in the target's ledger
  // first (evicting colder buffers as needed), exactly like a launch
  // prologue — a prefetch must not overflow the tier it prefetches into.
  WorkingSetPin pins;
  if (target_node != kMigrateToHost) {
    const auto node = static_cast<std::size_t>(target_node);
    const std::uint64_t epoch =
        launch_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
    pins.Pin(buffer, node, epoch);
    std::vector<runtime::MemoryPool::BufferRange> ranges;
    ranges.reserve(regions.size());
    for (const MigrateRegion& region : regions) {
      ranges.push_back({id, region.offset, region.offset + region.size});
    }
    HAOCL_RETURN_IF_ERROR(ReserveWorkingSet(node, ranges));
  }
  std::lock_guard<std::mutex> lock(buffer->mutex);
  for (const MigrateRegion& region : regions) {
    const std::uint64_t begin = region.offset;
    const std::uint64_t end = region.offset + region.size;
    if (discard_contents) {
      // No bytes move: the target simply becomes the exclusive owner of
      // whatever its local allocation holds (contents undefined, per
      // CL_MIGRATE_MEM_OBJECT_CONTENT_UNDEFINED).
      if (target_node == kMigrateToHost) {
        buffer->dir.MarkWritten(begin, end, HostOwner());
      } else {
        const auto node = static_cast<std::size_t>(target_node);
        if (!buffer->allocated_on[node]) {
          net::CreateBufferRequest create;
          create.buffer_id = id;
          create.size = buffer->size;
          auto reply = CallNode(node, MsgType::kCreateBuffer,
                                create.Encode());
          HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kStatusReply));
          buffer->allocated_on[node] = true;
        }
        buffer->dir.MarkWritten(begin, end,
                                static_cast<RegionDirectory::Owner>(node));
        // No payload made this residency change visible to the node:
        // send an explicit reservation notice so its ledger follows.
        NotifyMemory(node, id, /*reserve=*/true, {{begin, end}});
      }
      continue;
    }
    if (target_node == kMigrateToHost) {
      HAOCL_RETURN_IF_ERROR(EnsureHostRangeLocked(id, *buffer, begin, end));
    } else {
      // Prefer pushes (the owner sends) for migrations: the prefetch's
      // cost lands on the node already holding the data, symmetric with
      // the pull-based launch prologue.
      HAOCL_RETURN_IF_ERROR(EnsureRangeOnNodeLocked(
          id, *buffer, static_cast<std::size_t>(target_node), begin, end,
          nullptr, PeerMode::kPush));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------- Directory introspection

Expected<BufferDirectorySnapshot> ClusterRuntime::DirectorySnapshotOf(
    BufferId id) const {
  BufferPtr buffer;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = buffers_.find(id);
    if (it == buffers_.end()) {
      return Status(ErrorCode::kInvalidMemObject, "no such buffer");
    }
    buffer = it->second;
  }
  std::lock_guard<std::mutex> lock(buffer->mutex);
  BufferDirectorySnapshot snapshot;
  snapshot.size = buffer->size;
  snapshot.epoch = buffer->dir.epoch();
  snapshot.stats = buffer->stats;
  for (const RegionDirectory::Region& region : buffer->dir.regions()) {
    BufferDirectorySnapshot::Region out;
    out.begin = region.begin;
    out.end = region.end;
    out.epoch = region.epoch;
    for (RegionDirectory::Owner owner : region.owners) {
      out.owners.push_back(owner == HostOwner()
                               ? -1
                               : static_cast<std::int32_t>(owner));
    }
    snapshot.regions.push_back(std::move(out));
  }
  return snapshot;
}

TransferStats ClusterRuntime::transfer_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

Expected<NodeMemoryStats> ClusterRuntime::NodeMemoryStatsOf(
    std::size_t node) const {
  if (node >= node_pools_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "node " + std::to_string(node) + " out of range");
  }
  NodeMemoryStats stats;
  stats.capacity_bytes = node_pools_[node]->capacity();
  stats.resident_bytes = node_pools_[node]->resident_bytes();
  stats.free_bytes = node_pools_[node]->free_bytes();
  return stats;
}

// ---------------------------------------------------- Waits and queries

Status ClusterRuntime::Wait(CommandHandle handle) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->Wait(handle.id);
}

Status ClusterRuntime::Finish() { return graph_->WaitAll(); }

Expected<CommandState> ClusterRuntime::CommandStateOf(
    CommandHandle handle) const {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->QueryState(handle.id);
}

Expected<CommandProfile> ClusterRuntime::CommandProfileOf(
    CommandHandle handle) const {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->QueryProfile(handle.id);
}

Expected<LaunchResult> ClusterRuntime::LaunchResultOf(
    CommandHandle handle) const {
  std::shared_ptr<LaunchPlan> plan;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = launch_plans_.find(handle.id);
    if (it == launch_plans_.end()) {
      return Status(ErrorCode::kInvalidValue,
                    "command " + std::to_string(handle.id) +
                        " is not a launch");
    }
    plan = it->second;
  }
  auto state = graph_->QueryState(handle.id);  // Synchronizes with retire.
  if (!state.ok()) return state.status();
  if (*state != CommandState::kComplete || !plan->has_result) {
    return Status(ErrorCode::kInvalidOperation,
                  "launch " + std::to_string(handle.id) +
                      " has not completed");
  }
  return plan->result;
}

Expected<std::vector<CommandHandle>> ClusterRuntime::LaunchShardsOf(
    CommandHandle handle) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto fan = fan_outs_.find(handle.id);
  if (fan != fan_outs_.end()) {
    std::vector<CommandHandle> shards;
    shards.reserve(fan->second.size());
    for (CommandId id : fan->second) shards.push_back(CommandHandle{id});
    return shards;
  }
  if (launch_plans_.count(handle.id) != 0) {
    return std::vector<CommandHandle>{handle};  // Single-shard launch.
  }
  return Status(ErrorCode::kInvalidValue,
                "command " + std::to_string(handle.id) + " is not a launch");
}

Status ClusterRuntime::RetainCommand(CommandHandle handle) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  graph_->Retain(handle.id);
  return Status::Ok();
}

Status ClusterRuntime::ReleaseCommand(CommandHandle handle) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  if (!graph_->Release(handle.id)) return Status::Ok();  // Still retained.
  // Last reference gone: drop the launch bookkeeping, including the
  // runtime-held references on a fan-out's shard commands.
  std::vector<CommandId> shards;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    launch_plans_.erase(handle.id);
    auto fan = fan_outs_.find(handle.id);
    if (fan != fan_outs_.end()) {
      shards = std::move(fan->second);
      fan_outs_.erase(fan);
    }
    for (CommandId shard : shards) launch_plans_.erase(shard);
  }
  for (CommandId shard : shards) graph_->Release(shard);
  return Status::Ok();
}

std::uint32_t ClusterRuntime::InFlightOn(std::size_t node) const {
  std::lock_guard<std::mutex> lock(sched_mutex_);
  return node < in_flight_.size() ? in_flight_[node] : 0;
}

Expected<CommandHandle> ClusterRuntime::SubmitMarker(
    std::vector<CommandHandle> deps) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (disconnected_) {
    return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
  }
  std::vector<CommandId> dep_ids;
  CollectDepIds(deps, &dep_ids);
  return CommandHandle{graph_->SubmitManual(std::move(dep_ids))};
}

Status ClusterRuntime::CompleteMarker(CommandHandle handle, Status status) {
  if (!handle.valid()) {
    return Status(ErrorCode::kInvalidValue, "null command handle");
  }
  return graph_->Complete(handle.id, std::move(status));
}

// ------------------------------------------- Blocking convenience wrappers

Status ClusterRuntime::WriteBuffer(BufferId id, std::uint64_t offset,
                                   const void* data, std::uint64_t size) {
  // Blocking: the caller's memory outlives the command, so skip the
  // submit-time snapshot and write straight from it.
  auto handle = SubmitWriteBorrowed(id, offset, data, size);
  if (!handle.ok()) return handle.status();
  Status status = Wait(*handle);
  (void)ReleaseCommand(*handle);  // Consumed here; reclaim the record.
  return status;
}

Status ClusterRuntime::ReadBuffer(BufferId id, std::uint64_t offset,
                                  void* data, std::uint64_t size) {
  auto handle = SubmitRead(id, offset, data, size);
  if (!handle.ok()) return handle.status();
  Status status = Wait(*handle);
  (void)ReleaseCommand(*handle);
  return status;
}

Expected<LaunchResult> ClusterRuntime::LaunchKernel(const LaunchSpec& spec) {
  return AwaitLaunch(SubmitLaunch(spec));
}

Expected<LaunchResult> ClusterRuntime::AwaitLaunch(
    const Expected<CommandHandle>& handle) {
  if (!handle.ok()) return handle.status();
  const Status wait_status = Wait(*handle);
  Expected<LaunchResult> result =
      wait_status.ok() ? LaunchResultOf(*handle)
                       : Expected<LaunchResult>(wait_status);
  // Synchronous callers consume the result here; drop the bookkeeping
  // (success or failure) so tight launch loops don't accumulate records.
  (void)ReleaseCommand(*handle);
  return result;
}

// ------------------------------------------------------------- Monitoring

Status ClusterRuntime::SetScheduler(const std::string& policy_name) {
  auto policy = sched::MakePolicyByName(policy_name);
  if (!policy.ok()) return policy.status();
  std::lock_guard<std::mutex> lock(sched_mutex_);
  policy_ = *std::move(policy);
  scheduler_name_ = policy_name;
  return Status::Ok();
}

Expected<sched::ClusterView> ClusterRuntime::QueryClusterView() {
  // Poll all nodes in parallel (overlapped RPC), then merge with the
  // host-side scheduler accounting.
  std::vector<net::RpcClient::ReplyFuture> futures;
  futures.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    futures.push_back(nodes_[i]->CallAsync(MsgType::kQueryLoad,
                                           options_.session_id, {}));
  }
  // Replies first: they refresh the broker snapshot and the shared rates
  // (Seed only fills kernels this session has no local samples for) that
  // the host-side view below reflects.
  std::vector<std::optional<net::LoadReply>> loads(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto* reply = futures[i]->WaitFor(options_.rpc_timeout);
    if (reply == nullptr || !CheckReply(*reply, MsgType::kLoadReply).ok()) {
      continue;
    }
    auto load = net::LoadReply::Decode((*reply)->payload);
    if (!load.ok()) continue;
    for (const net::WireKernelRate& rate : load->kernel_rates) {
      rate_table_->Seed(i, rate.kernel, rate.seconds_per_flop, rate.samples);
    }
    loads[i] = *std::move(load);
  }
  std::lock_guard<std::mutex> lock(sched_mutex_);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!loads[i].has_value()) continue;
    node_broker_backlog_[i] = loads[i]->node_backlog_seconds;
    node_active_weight_[i] = loads[i]->active_weight;
  }
  sched::ClusterView view = HostClusterViewLocked("");
  // Overlay what only the node knows; a silent node reads as not alive.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    sched::NodeView& node = view.nodes[i];
    if (!loads[i].has_value()) {
      node.alive = false;
      continue;
    }
    node.queue_depth += loads[i]->queue_depth;
    node.kernels_executed = loads[i]->kernels_executed;
  }
  return view;
}

sched::ClusterView ClusterRuntime::HostClusterViewLocked(
    const std::string& kernel_name) const {
  sched::ClusterView view;
  view.nodes.reserve(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    sched::NodeView node;
    node.name = devices_[i].name;
    node.type = devices_[i].type;
    node.spec = sim::SpecForType(devices_[i].type);
    node.link = options_.link;
    node.queue_depth = in_flight_[i];
    node.busy_seconds_ahead = node_busy_ahead_[i];
    node.observed_seconds_per_flop = rate_table_->NodeAverage(i);
    const sched::KernelRateTable::Rate rate =
        rate_table_->Lookup(i, kernel_name);
    node.kernel_seconds_per_flop = rate.seconds_per_flop;
    node.kernel_rate_samples = rate.samples;
    node.mem_capacity_bytes = node_pools_[i]->capacity();
    node.mem_free_bytes = node_pools_[i]->free_bytes();
    node.node_backlog_seconds = node_broker_backlog_[i];
    node.tenant_weight = options_.tenant_weight;
    node.active_weight = node_active_weight_[i];
    node.alive = !node_dead_[i];
    view.nodes.push_back(std::move(node));
  }
  return view;
}

Expected<net::BrokerStatsReply> ClusterRuntime::QueryBrokerStats(
    std::size_t node) {
  if (node >= nodes_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no node " + std::to_string(node));
  }
  auto reply = CallNode(node, MsgType::kQueryBroker, {});
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kBrokerReply));
  return net::BrokerStatsReply::Decode(reply->payload);
}

double ClusterRuntime::SchedulerBacklogSeconds(std::size_t node) const {
  std::lock_guard<std::mutex> lock(sched_mutex_);
  return node < node_busy_ahead_.size() ? node_busy_ahead_[node] : 0.0;
}

sched::KernelRateTable::Rate ClusterRuntime::ObservedKernelRate(
    std::size_t node, const std::string& kernel_name) const {
  return rate_table_->Lookup(node, kernel_name);
}

std::uint64_t ClusterRuntime::TotalBytesSent() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->bytes_sent();
  return total;
}

Status ClusterRuntime::ProbeNode(std::size_t node) {
  if (node >= nodes_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no node " + std::to_string(node));
  }
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (node_dead_[node]) {
      return Status(ErrorCode::kNodeLost,
                    "node " + std::to_string(node) + " is marked dead");
    }
  }
  // The heartbeat is answered on the node's receive path, ahead of its
  // command queue, so a node busy with a long kernel still answers.
  auto reply = CallNode(node, MsgType::kHeartbeat, {});
  HAOCL_RETURN_IF_ERROR(CheckReply(reply, MsgType::kStatusReply));
  auto decoded = net::StatusReply::Decode(reply->payload);
  if (!decoded.ok()) return decoded.status();
  return decoded->ToStatus();
}

bool ClusterRuntime::NodeAlive(std::size_t node) const {
  std::lock_guard<std::mutex> lock(sched_mutex_);
  return node < node_dead_.size() && !node_dead_[node];
}

Expected<std::vector<ClusterRuntime::LostRange>> ClusterRuntime::MarkNodeLost(
    std::size_t node) {
  if (node >= nodes_.size()) {
    return Status(ErrorCode::kInvalidValue,
                  "no node " + std::to_string(node));
  }
  {
    std::lock_guard<std::mutex> lock(sched_mutex_);
    if (node_dead_[node]) return std::vector<LostRange>{};  // Idempotent.
    node_dead_[node] = true;
    // Its backlog will never drain; zero it so planners stop seeing it.
    node_busy_ahead_[node] = 0.0;
  }
  // Sever the wire: every in-flight RPC to the node fails fast instead of
  // waiting out its timeout, and nothing new can be sent.
  nodes_[node]->Close();

  // Directory fail-over. For every buffer region whose owner set contains
  // the dead node:
  //   - co-owned regions just drop the dead owner (a live replica keeps
  //     the bytes fresh — the chunks that produced them must NOT re-run);
  //   - sole-owner regions fall back to the host shadow, which physically
  //     retains the PRE-image bytes of the range (launch epilogues only
  //     flip directory state, they never scrub the shadow). Marking the
  //     host fresh there restores the launch's input state, so
  //     re-executing exactly the chunks that wrote these ranges
  //     reproduces the lost outputs bit-identically.
  std::vector<std::pair<BufferId, BufferPtr>> snapshot;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    snapshot.reserve(buffers_.size());
    for (const auto& [id, buffer] : buffers_) snapshot.emplace_back(id, buffer);
  }
  const auto dead = static_cast<RegionDirectory::Owner>(node);
  std::vector<LostRange> lost;
  for (auto& [id, buffer] : snapshot) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    struct Pending {
      std::uint64_t begin;
      std::uint64_t end;
      bool sole;
    };
    std::vector<Pending> pending;
    for (const RegionDirectory::Region& region :
         buffer->dir.Query(0, buffer->size)) {
      bool has_dead = false;
      for (RegionDirectory::Owner owner : region.owners) {
        has_dead |= owner == dead;
      }
      if (!has_dead) continue;
      pending.push_back({region.begin, region.end, region.owners.size() == 1});
    }
    for (const Pending& region : pending) {
      if (region.sole) {
        buffer->dir.AddOwner(region.begin, region.end, HostOwner());
        lost.push_back({id, region.begin, region.end});
      }
      buffer->dir.RemoveOwner(region.begin, region.end, dead);
    }
    if (node < buffer->allocated_on.size()) {
      buffer->allocated_on[node] = false;
    }
  }
  HAOCL_INFO << "node " << node << " marked lost; " << lost.size()
             << " sole-owner regions failed over to the host shadow";
  return lost;
}

void ClusterRuntime::Disconnect() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (disconnected_) return;
    disconnected_ = true;
  }
  // Drain or fail every in-flight command before the wires go away.
  if (graph_ != nullptr) graph_->Shutdown();
  // Close the session FIRST so the node tears down its DeviceSession and
  // unregisters the broker tenancy — a churny client (thousands of
  // short-lived sessions) must not leak node-side state. The close is a
  // round trip, sent to every node before waiting on any, so the node-side
  // teardown has finished when Disconnect returns. kShutdown then only
  // stops the worker; its handler cleans up again idempotently as a
  // belt-and-braces for clients predating this ordering. Errors are
  // ignored: a node that is already gone has nothing left to close.
  std::vector<net::RpcClient::ReplyFuture> closes;
  for (auto& node : nodes_) {
    closes.push_back(
        node->CallAsync(MsgType::kCloseSession, options_.session_id, {}));
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    (void)closes[i]->WaitFor(options_.rpc_timeout);
    (void)nodes_[i]->Notify(MsgType::kShutdown, options_.session_id, {});
    nodes_[i]->Close();
  }
}

}  // namespace haocl::host
