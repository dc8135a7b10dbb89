// DeviceSession: the node-local OpenCL execution engine.
//
// One DeviceSession exists per (device node, user session). It owns the
// node-side state a forwarded OpenCL application needs: device buffers,
// built programs, and the driver handle, and it executes the command stream
// in order (the in-order command-queue semantics OpenCL guarantees). The
// NMP is a thin protocol shell around this class; unit tests drive it
// directly without any networking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "driver/device_driver.h"
#include "net/protocol.h"
#include "runtime/memory_ledger.h"

namespace haocl::runtime {

class DeviceSession {
 public:
  // The driver is shared with other sessions on the same node (a "shared"
  // device in the paper's terms); the session only owns its own objects.
  // Every byte range that materializes here (host writes, peer slices,
  // kernel outputs) is charged against `ledger`, and host eviction
  // notices release it — the node-side half of the tiered-memory ledger.
  // When the NMP supplies a ledger it is a view onto the node's shared
  // broker ledger (capacity enforced across all sessions, quotas apply);
  // without one, the session budgets a private pool at device capacity,
  // the pre-broker single-tenant behaviour. A supplied ledger must
  // outlive the session.
  explicit DeviceSession(driver::DeviceDriver* driver,
                         MemoryLedger* ledger = nullptr)
      : driver_(driver),
        owned_ledger_(ledger == nullptr
                          ? std::make_unique<PoolLedger>(
                                driver->spec().mem_capacity_bytes)
                          : nullptr),
        ledger_(ledger == nullptr ? owned_ledger_.get() : ledger) {}

  DeviceSession(const DeviceSession&) = delete;
  DeviceSession& operator=(const DeviceSession&) = delete;

  // ---- Buffers ----------------------------------------------------------
  Status CreateBuffer(std::uint64_t buffer_id, std::uint64_t size);
  Status WriteBuffer(std::uint64_t buffer_id, std::uint64_t offset,
                     const std::vector<std::uint8_t>& data);
  Expected<std::vector<std::uint8_t>> ReadBuffer(std::uint64_t buffer_id,
                                                 std::uint64_t offset,
                                                 std::uint64_t size);
  // Read without a copy: checks the range, then passes `visit` the
  // replica's bytes in place and returns what it returns. The session
  // lock is held while `visit` runs, so the bytes stay put and whole (no
  // release or write can slip in); `visit` must not call back into this
  // session.
  using ReadVisitor = std::function<Status(std::span<const std::uint8_t>)>;
  Status VisitBuffer(std::uint64_t buffer_id, std::uint64_t offset,
                     std::uint64_t size, const ReadVisitor& visit);
  Status CopyBuffer(const net::CopyBufferRequest& request);
  Status ReleaseBuffer(std::uint64_t buffer_id);

  // ---- Programs ---------------------------------------------------------
  net::BuildProgramReply BuildProgram(std::uint64_t program_id,
                                      const std::string& source);
  Status ReleaseProgram(std::uint64_t program_id);

  // ---- Kernels ----------------------------------------------------------
  // A request tagged with a non-zero elastic_launch_id is a chunk of an
  // elastic launch: if the host revoked that (launch, chunk) before the
  // node got to it (stolen by a peer, or re-queued after a failure), the
  // launch is skipped and the reply carries kChunkRevoked so the caller
  // knows no bytes were written.
  net::LaunchKernelReply LaunchKernel(const net::LaunchKernelRequest& request);

  // Marks chunks of an elastic launch as revoked so queued-but-unstarted
  // sub-launches for them are skipped. Safe to call from the connection's
  // receive path while a launch executes (own mutex, never nested).
  void RevokeChunks(std::uint64_t launch_id,
                    const std::vector<std::uint64_t>& chunk_ids);
  // Revoked chunks recorded for `launch_id` (tests/diagnostics).
  [[nodiscard]] std::size_t revoked_count(std::uint64_t launch_id) const;

  // ---- Node-to-node slice exchange --------------------------------------
  // Transport hooks the NMP supplies: fetch a byte range of a buffer from a
  // peer node / store one on a peer node. The session itself stays
  // transport-free.
  using PeerFetch = std::function<Expected<std::vector<std::uint8_t>>(
      std::uint32_t peer, std::uint64_t buffer_id, std::uint64_t offset,
      std::uint64_t size)>;
  using PeerStore =
      std::function<Status(std::uint32_t peer, std::uint64_t buffer_id,
                           std::uint64_t offset,
                           std::vector<std::uint8_t> data)>;

  // Pulls [offset, offset+size) of `buffer_id` from the request's source
  // peer into the local replica. The session lock is NOT held across the
  // peer fetch, so two nodes cross-pulling from each other cannot deadlock
  // — the slice range is validated before and re-validated after the
  // fetch.
  Status PullSlice(const net::PullSliceRequest& request,
                   const PeerFetch& fetch);
  // Sends [offset, offset+size) of the local replica to the request's
  // target peer (lock dropped during the store, mirroring PullSlice).
  Status PushSlice(const net::PushSliceRequest& request,
                   const PeerStore& store);

  // ---- Tiered memory ----------------------------------------------------
  // Applies a host reservation/eviction notice to the session's memory
  // pool (see net::MemoryNoticeRequest).
  Status MemoryNotice(const net::MemoryNoticeRequest& request);

  // ---- Introspection ----------------------------------------------------
  [[nodiscard]] net::LoadReply Load() const;
  [[nodiscard]] const sim::DeviceSpec& spec() const { return driver_->spec(); }
  [[nodiscard]] std::size_t buffer_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return buffers_.size();
  }
  [[nodiscard]] std::size_t program_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return programs_.size();
  }
  // Bytes of buffer regions THIS session materialized in device memory
  // per its ledger (what LoadReply.bytes_resident reports).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return ledger_->resident_bytes();
  }
  // Cumulative VM execution counters across this session's launches
  // (exact retired work-item instructions, not the static-mix estimate;
  // zero contribution from native-binary launches). The batch ratio —
  // instructions per dispatch — is the amortization the lane-batch
  // engine achieved.
  [[nodiscard]] std::uint64_t vm_instructions_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return vm_instructions_total_;
  }
  [[nodiscard]] std::uint64_t vm_batch_steps_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return vm_batch_steps_total_;
  }
  [[nodiscard]] std::uint64_t vm_bailouts_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return vm_bailouts_total_;
  }
  [[nodiscard]] std::uint64_t vm_simd_steps_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return vm_simd_steps_total_;
  }
  [[nodiscard]] std::uint64_t vm_masked_steps_total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return vm_masked_steps_total_;
  }

 private:
  struct ProgramEntry {
    std::shared_ptr<const oclc::Module> module;
    std::string build_log;
  };

  // Require mutex_ held.
  Status WriteBufferLocked(std::uint64_t buffer_id, std::uint64_t offset,
                           const std::vector<std::uint8_t>& data);

  driver::DeviceDriver* driver_;
  // Fallback private ledger when none is injected (see ctor).
  std::unique_ptr<PoolLedger> owned_ledger_;
  // Device-memory ledger (internally synchronized; safe under mutex_,
  // which never nests inside it).
  MemoryLedger* ledger_;
  // One session is now reachable from several connections at once (the
  // host's channel plus peer slice-exchange channels), so every public
  // entry point locks.
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> buffers_;
  std::unordered_map<std::uint64_t, ProgramEntry> programs_;

  // Elastic revocations, guarded by their own leaf mutex so the receive
  // path can record one while mutex_ is held by a running launch.
  mutable std::mutex revoked_mutex_;
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint64_t>>
      revoked_;  // launch_id -> chunk ids.

  // Monitor counters the scheduler's resource monitor reads.
  std::uint64_t bytes_allocated_ = 0;
  std::uint64_t kernels_executed_ = 0;
  double busy_seconds_total_ = 0.0;
  // VM execution totals (see the accessors above).
  std::uint64_t vm_instructions_total_ = 0;
  std::uint64_t vm_batch_steps_total_ = 0;
  std::uint64_t vm_simd_steps_total_ = 0;
  std::uint64_t vm_masked_steps_total_ = 0;
  std::uint64_t vm_bailouts_total_ = 0;
};

}  // namespace haocl::runtime
