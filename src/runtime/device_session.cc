#include "runtime/device_session.h"

#include <cstring>

#include "common/wire.h"

namespace haocl::runtime {
namespace {

Status NoSuchBuffer(std::uint64_t id) {
  return Status(ErrorCode::kInvalidMemObject,
                "no buffer with id " + std::to_string(id));
}

}  // namespace

Status DeviceSession::CreateBuffer(std::uint64_t buffer_id,
                                   std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (size == 0) {
    return Status(ErrorCode::kInvalidBufferSize, "zero-sized buffer");
  }
  if (buffers_.count(buffer_id) != 0) {
    return Status(ErrorCode::kInvalidValue,
                  "buffer id " + std::to_string(buffer_id) + " already exists");
  }
  // A real allocation can fail; surface that as the OpenCL error rather
  // than letting bad_alloc escape across the protocol boundary.
  try {
    buffers_[buffer_id].resize(size, 0);
  } catch (const std::bad_alloc&) {
    buffers_.erase(buffer_id);
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "cannot allocate " + std::to_string(size) + " bytes");
  }
  bytes_allocated_ += size;
  return Status::Ok();
}

Status DeviceSession::WriteBuffer(std::uint64_t buffer_id,
                                  std::uint64_t offset,
                                  const std::vector<std::uint8_t>& data) {
  std::lock_guard<std::mutex> lock(mutex_);
  return WriteBufferLocked(buffer_id, offset, data);
}

Status DeviceSession::WriteBufferLocked(
    std::uint64_t buffer_id, std::uint64_t offset,
    const std::vector<std::uint8_t>& data) {
  auto it = buffers_.find(buffer_id);
  if (it == buffers_.end()) return NoSuchBuffer(buffer_id);
  if (RangeExceeds(offset, data.size(), it->second.size())) {
    return Status(ErrorCode::kInvalidValue,
                  "write beyond buffer end: offset " + std::to_string(offset) +
                      " + " + std::to_string(data.size()) + " > " +
                      std::to_string(it->second.size()));
  }
  // Arriving bytes materialize device memory: charge the pool before
  // touching the replica. The host's per-node ledger charges the same
  // range around this transfer, so a failure here means the host
  // mis-budgeted — surface it as the device OOM it models.
  HAOCL_RETURN_IF_ERROR(
      ledger_->Reserve(buffer_id, offset, offset + data.size()));
  std::memcpy(it->second.data() + offset, data.data(), data.size());
  return Status::Ok();
}

Expected<std::vector<std::uint8_t>> DeviceSession::ReadBuffer(
    std::uint64_t buffer_id, std::uint64_t offset, std::uint64_t size) {
  std::vector<std::uint8_t> out;
  HAOCL_RETURN_IF_ERROR(VisitBuffer(
      buffer_id, offset, size, [&out](std::span<const std::uint8_t> bytes) {
        out.assign(bytes.begin(), bytes.end());
        return Status::Ok();
      }));
  return out;
}

Status DeviceSession::VisitBuffer(std::uint64_t buffer_id,
                                  std::uint64_t offset, std::uint64_t size,
                                  const ReadVisitor& visit) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(buffer_id);
  if (it == buffers_.end()) return NoSuchBuffer(buffer_id);
  if (RangeExceeds(offset, size, it->second.size())) {
    return Status(ErrorCode::kInvalidValue, "read beyond buffer end");
  }
  return visit(
      std::span<const std::uint8_t>(it->second).subspan(offset, size));
}

Status DeviceSession::CopyBuffer(const net::CopyBufferRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto src = buffers_.find(request.src_buffer_id);
  if (src == buffers_.end()) return NoSuchBuffer(request.src_buffer_id);
  auto dst = buffers_.find(request.dst_buffer_id);
  if (dst == buffers_.end()) return NoSuchBuffer(request.dst_buffer_id);
  if (RangeExceeds(request.src_offset, request.size, src->second.size()) ||
      RangeExceeds(request.dst_offset, request.size, dst->second.size())) {
    return Status(ErrorCode::kInvalidValue, "copy out of range");
  }
  HAOCL_RETURN_IF_ERROR(ledger_->Reserve(request.dst_buffer_id,
                                      request.dst_offset,
                                      request.dst_offset + request.size));
  std::memmove(dst->second.data() + request.dst_offset,
               src->second.data() + request.src_offset, request.size);
  return Status::Ok();
}

Status DeviceSession::ReleaseBuffer(std::uint64_t buffer_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(buffer_id);
  if (it == buffers_.end()) return NoSuchBuffer(buffer_id);
  bytes_allocated_ -= it->second.size();
  ledger_->ReleaseBuffer(buffer_id);
  buffers_.erase(it);
  return Status::Ok();
}

Status DeviceSession::MemoryNotice(const net::MemoryNoticeRequest& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(request.buffer_id);
  if (it == buffers_.end()) return NoSuchBuffer(request.buffer_id);
  for (const net::MemoryRegion& region : request.regions) {
    if (region.size == 0 ||
        RangeExceeds(region.offset, region.size, it->second.size())) {
      return Status(ErrorCode::kInvalidValue,
                    "memory notice region beyond buffer end");
    }
    if (request.reserve) {
      HAOCL_RETURN_IF_ERROR(ledger_->Reserve(request.buffer_id, region.offset,
                                          region.offset + region.size));
    } else {
      ledger_->Release(request.buffer_id, region.offset,
                    region.offset + region.size);
    }
  }
  return Status::Ok();
}

net::BuildProgramReply DeviceSession::BuildProgram(std::uint64_t program_id,
                                                   const std::string& source) {
  std::lock_guard<std::mutex> lock(mutex_);
  net::BuildProgramReply reply;
  std::string build_log;
  auto module = driver_->Build(source, &build_log);
  if (!module.ok()) {
    reply.status_code =
        static_cast<std::int32_t>(ErrorCode::kBuildProgramFailure);
    reply.build_log = build_log.empty() ? module.status().message() : build_log;
    return reply;
  }
  ProgramEntry entry;
  entry.module = *std::move(module);
  entry.build_log = build_log;
  reply.kernel_names = entry.module->KernelNames();
  programs_[program_id] = std::move(entry);
  return reply;
}

Status DeviceSession::ReleaseProgram(std::uint64_t program_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (programs_.erase(program_id) == 0) {
    return Status(ErrorCode::kInvalidProgram,
                  "no program with id " + std::to_string(program_id));
  }
  return Status::Ok();
}

void DeviceSession::RevokeChunks(std::uint64_t launch_id,
                                 const std::vector<std::uint64_t>& chunk_ids) {
  if (launch_id == 0) return;
  std::lock_guard<std::mutex> lock(revoked_mutex_);
  auto& set = revoked_[launch_id];
  for (std::uint64_t id : chunk_ids) set.insert(id);
}

std::size_t DeviceSession::revoked_count(std::uint64_t launch_id) const {
  std::lock_guard<std::mutex> lock(revoked_mutex_);
  auto it = revoked_.find(launch_id);
  return it == revoked_.end() ? 0 : it->second.size();
}

net::LaunchKernelReply DeviceSession::LaunchKernel(
    const net::LaunchKernelRequest& request) {
  // Revocation check before any state is touched: a stolen/re-queued chunk
  // must leave no trace here. The entry is CONSUMED by the skip — a revoke
  // targets the one execution that was queued when it arrived, so a later
  // re-targeting of the same chunk back to this node runs normally instead
  // of being skipped forever.
  if (request.elastic_launch_id != 0) {
    std::lock_guard<std::mutex> revoked_lock(revoked_mutex_);
    auto it = revoked_.find(request.elastic_launch_id);
    if (it != revoked_.end() &&
        it->second.count(request.elastic_chunk_id) != 0) {
      it->second.erase(request.elastic_chunk_id);
      if (it->second.empty()) revoked_.erase(it);
      net::LaunchKernelReply reply;
      reply.status_code = static_cast<std::int32_t>(ErrorCode::kChunkRevoked);
      reply.error_message = "chunk " +
                            std::to_string(request.elastic_chunk_id) +
                            " of launch " +
                            std::to_string(request.elastic_launch_id) +
                            " was revoked; skipped";
      return reply;
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  net::LaunchKernelReply reply;
  auto fail = [&reply](const Status& status) {
    reply.status_code = static_cast<std::int32_t>(status.code());
    reply.error_message = status.message();
    return reply;
  };

  auto program = programs_.find(request.program_id);
  if (program == programs_.end()) {
    return fail(Status(ErrorCode::kInvalidProgram,
                       "no program " + std::to_string(request.program_id)));
  }
  const oclc::Module& module = *program->second.module;
  const oclc::CompiledFunction* kernel =
      module.FindKernel(request.kernel_name);
  if (kernel == nullptr) {
    return fail(Status(ErrorCode::kInvalidKernelName,
                       "no kernel '" + request.kernel_name + "'"));
  }
  if (request.args.size() != kernel->params.size()) {
    return fail(Status(ErrorCode::kInvalidKernelArgs,
                       "kernel '" + request.kernel_name + "' takes " +
                           std::to_string(kernel->params.size()) +
                           " args, got " +
                           std::to_string(request.args.size())));
  }

  // Bind wire arguments to VM bindings.
  std::vector<oclc::ArgBinding> bindings;
  bindings.reserve(request.args.size());
  for (std::size_t i = 0; i < request.args.size(); ++i) {
    const net::WireKernelArg& arg = request.args[i];
    const oclc::KernelArgInfo& param = kernel->params[i];
    switch (arg.kind) {
      case net::WireKernelArg::Kind::kBuffer: {
        auto it = buffers_.find(arg.buffer_id);
        if (it == buffers_.end()) {
          return fail(NoSuchBuffer(arg.buffer_id));
        }
        // Kernel outputs materialize device memory with no transfer this
        // session could observe: charge the written range now, mirroring
        // the host ledger's launch-epilogue charge.
        if (arg.written_end > arg.written_begin) {
          if (arg.written_end > it->second.size()) {
            return fail(Status(ErrorCode::kInvalidValue,
                               "written range beyond buffer end"));
          }
          Status reserved = ledger_->Reserve(arg.buffer_id, arg.written_begin,
                                          arg.written_end);
          if (!reserved.ok()) return fail(reserved);
        }
        bindings.push_back(oclc::ArgBinding::Buffer(it->second.data(),
                                                    it->second.size()));
        break;
      }
      case net::WireKernelArg::Kind::kScalar: {
        if (param.type.is_pointer) {
          return fail(Status(ErrorCode::kInvalidArgValue,
                             "scalar bound to pointer arg " +
                                 std::to_string(i)));
        }
        const std::size_t want = oclc::ScalarSize(param.type.scalar);
        if (arg.scalar_bytes.size() != want) {
          return fail(Status(ErrorCode::kInvalidArgSize,
                             "arg " + std::to_string(i) + " of '" +
                                 request.kernel_name + "' expects " +
                                 std::to_string(want) + " bytes, got " +
                                 std::to_string(arg.scalar_bytes.size())));
        }
        // Reinterpret the raw bytes exactly as clSetKernelArg received
        // them, using the declared parameter type.
        oclc::ArgBinding binding;
        binding.kind = oclc::ArgBinding::Kind::kScalar;
        binding.scalar_type = param.type.scalar;
        std::uint8_t raw[8] = {0};
        std::memcpy(raw, arg.scalar_bytes.data(), want);
        switch (param.type.scalar) {
          case oclc::ScalarType::kF32: {
            float f;
            std::memcpy(&f, raw, 4);
            binding.scalar.f = f;
            break;
          }
          case oclc::ScalarType::kF64: {
            double d;
            std::memcpy(&d, raw, 8);
            binding.scalar.f = d;
            break;
          }
          default: {
            // Integers: zero-extend then sign-extend per type.
            std::uint64_t u = 0;
            std::memcpy(&u, raw, want);
            if (oclc::IsSignedInt(param.type.scalar)) {
              const int bits = static_cast<int>(want) * 8;
              const std::int64_t shifted =
                  static_cast<std::int64_t>(u << (64 - bits));
              binding.scalar.i = shifted >> (64 - bits);
            } else {
              binding.scalar.u = u;
            }
            break;
          }
        }
        bindings.push_back(binding);
        break;
      }
      case net::WireKernelArg::Kind::kLocalSize:
        bindings.push_back(oclc::ArgBinding::LocalMem(arg.local_size));
        break;
    }
  }

  oclc::NDRange range;
  range.work_dim = request.work_dim;
  for (int d = 0; d < 3; ++d) {
    range.global[d] = request.global[d];
    range.local[d] = request.local[d];
    range.offset[d] = request.global_offset[d];
  }
  range.local_specified = request.local_specified;

  driver::LaunchProfile profile;
  // Host-supplied analytic work estimate (shard-scaled): the timing model
  // profiles the work the host accounts, not the static guess.
  sim::KernelCost hint_cost;
  const sim::KernelCost* cost_hint = nullptr;
  if (request.has_cost_hint) {
    hint_cost.flops = request.hint_flops;
    hint_cost.bytes = request.hint_bytes;
    hint_cost.work_items = request.hint_work_items;
    hint_cost.irregular = request.hint_irregular;
    cost_hint = &hint_cost;
  }
  // Execute WITHOUT the session lock: peer slice exchange (and any other
  // channel sharing this session) must not stall behind a long kernel.
  // The bindings' buffer pointers stay valid — unordered_map nodes are
  // stable, and the host's hazard ordering keeps the buffers this kernel
  // uses alive and unwritten until the launch reply. The module is pinned
  // by the shared_ptr copy below.
  const std::shared_ptr<const oclc::Module> pinned = program->second.module;
  lock.unlock();
  Status launched = driver_->Launch(*pinned, request.kernel_name, bindings,
                                    range, &profile, cost_hint);
  lock.lock();
  if (!launched.ok()) return fail(launched);

  reply.modeled_seconds = profile.modeled_seconds;
  reply.modeled_joules = profile.modeled_joules;
  reply.flops = profile.flops;
  reply.bytes_accessed = profile.bytes_accessed;
  ++kernels_executed_;
  busy_seconds_total_ += profile.modeled_seconds;
  vm_instructions_total_ += profile.vm_instructions;
  vm_batch_steps_total_ += profile.vm_batch_steps;
  vm_simd_steps_total_ += profile.vm_simd_steps;
  vm_masked_steps_total_ += profile.vm_masked_steps;
  vm_bailouts_total_ += profile.vm_bailouts;
  return reply;
}

Status DeviceSession::PullSlice(const net::PullSliceRequest& request,
                                const PeerFetch& fetch) {
  // Phase 1: validate the local replica before going to the peer, so a
  // missing allocation fails fast without a network round-trip.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = buffers_.find(request.buffer_id);
    if (it == buffers_.end()) return NoSuchBuffer(request.buffer_id);
    if (RangeExceeds(request.offset, request.size, it->second.size())) {
      return Status(ErrorCode::kInvalidValue, "pull slice out of range");
    }
  }
  // Phase 2: fetch WITHOUT the session lock. Two nodes cross-pulling from
  // each other would otherwise each hold their own lock while waiting for
  // the peer's ReadBuffer, which needs that lock — a distributed deadlock.
  auto bytes = fetch(request.source_node, request.buffer_id, request.offset,
                     request.size);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() != request.size) {
    return Status(ErrorCode::kProtocolError, "short peer slice");
  }
  // Phase 3: re-validate (the buffer may have been released mid-fetch) and
  // store.
  std::lock_guard<std::mutex> lock(mutex_);
  return WriteBufferLocked(request.buffer_id, request.offset, *bytes);
}

Status DeviceSession::PushSlice(const net::PushSliceRequest& request,
                                const PeerStore& store) {
  auto bytes = ReadBuffer(request.buffer_id, request.offset, request.size);
  if (!bytes.ok()) return bytes.status();
  // Lock dropped across the peer store (see PullSlice).
  return store(request.target_node, request.buffer_id, request.offset,
               *std::move(bytes));
}

net::LoadReply DeviceSession::Load() const {
  std::lock_guard<std::mutex> lock(mutex_);
  net::LoadReply reply;
  reply.queue_depth = 0;  // Filled by the NMP, which owns the queue.
  reply.buffers_held = buffers_.size();
  reply.bytes_allocated = bytes_allocated_;
  reply.bytes_resident = ledger_->resident_bytes();
  reply.mem_capacity_bytes = ledger_->capacity();
  reply.busy_seconds_total = busy_seconds_total_;
  reply.kernels_executed = kernels_executed_;
  return reply;
}

}  // namespace haocl::runtime
