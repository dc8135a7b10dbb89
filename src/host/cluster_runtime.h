// ClusterRuntime: the host-side heart of HaoCL.
//
// Owns one RPC channel per device node, the cluster-wide device table
// (built through the paper's clGetDeviceIDs "mapping mechanism"), logical
// buffers with a single-writer coherence protocol, program builds, and
// kernel dispatch through the pluggable scheduler. The OpenCL Wrapper Lib
// (src/api) is a thin C shim over this class.
//
// Dispatch model: every operation is a command in an asynchronous command
// graph (host/command_graph.h). The Submit* surface returns CommandHandle
// futures with explicit dependency lists; the runtime adds the implicit
// read-after-write / write-after-read hazards per buffer, so independent
// commands run concurrently — node RPCs go through RpcClient::CallAsync
// and transfers/kernels targeting distinct nodes are in flight
// simultaneously. The classic blocking calls (WriteBuffer, ReadBuffer,
// LaunchKernel) are submit-then-wait wrappers over the same graph.
//
// Buffer coherence: a region directory per logical buffer maps every byte
// range to the set of participants holding a fresh copy (device nodes plus
// the host shadow, which is just another peer) and the dirty epoch of the
// write that produced it. A launch prologue sources each missing input
// range from whichever owner is freshest: straight from the host shadow
// when the host owns it, otherwise node-to-node (kPullSlice) with a
// host-relay fallback when the nodes have no direct link. Launch epilogues
// only update the directory — outputs stay on the executing nodes and the
// host shadow goes stale until a read (or host-targeted migration) forces
// a lazy, range-granular gather. Chained partitioned launches therefore
// move zero payload bytes through the host between producer and consumer
// (docs/memory_model.md). The bookkeeping lives in per-command prologues
// under per-buffer locks, ordered by the graph — not under a runtime-wide
// lock.
//
// Placement plans: SubmitLaunch asks the policy's PlanLaunch for an
// ordered list of {node, offset, count} shards over dimension 0 of the
// NDRange and fans out one sub-launch per shard (single-shard plans are
// the classic one-node path). For multi-shard plans, coherence turns
// region-granular on kPartitionedDim0 args: each shard ships only its
// input slice and gathers its output slice back into the host shadow, so
// one kernel co-executes across heterogeneous nodes bit-identically to
// the single-node run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "elastic/fault_injector.h"
#include "host/command_graph.h"
#include "host/region_directory.h"
#include "host/virtual_timeline.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "oclc/program.h"
#include "runtime/memory_pool.h"
#include "sched/rate_table.h"
#include "sched/scheduler.h"

namespace haocl::host {

using BufferId = std::uint64_t;
using ProgramId = std::uint64_t;

// One entry of the cluster-wide device table.
struct DeviceInfo {
  std::string name;
  NodeType type = NodeType::kCpu;
  std::string model;
  double compute_gflops = 0.0;
  double mem_bandwidth_gbps = 0.0;
  // Device memory capacity from the handshake (0 = unbounded): the budget
  // the node's memory tier is managed against.
  std::uint64_t mem_capacity_bytes = 0;
  // Native SIMD/SIMT width in 32-bit lanes from the handshake (1 = scalar).
  std::uint32_t simd_width = 1;
};

// One kernel argument as the application binds it (clSetKernelArg).
struct KernelArgValue {
  enum class Kind : std::uint8_t { kBuffer, kScalar, kLocalSize };
  // How the kernel's work-items touch a buffer argument, which decides
  // what a partitioned (multi-shard) launch ships:
  //   kReplicated      - any work-item may touch any byte; the whole
  //                      buffer goes to every shard's node (the classic
  //                      behaviour, and the default).
  //   kPartitionedDim0 - work-item with global id g touches only bytes
  //                      [g*stride, (g+1)*stride): each shard ships and
  //                      gathers just its slice. A launch is splittable
  //                      across nodes only when every buffer the kernel
  //                      WRITES carries this annotation.
  enum class Access : std::uint8_t { kReplicated = 0, kPartitionedDim0 = 1 };
  Kind kind = Kind::kScalar;
  BufferId buffer = 0;
  std::vector<std::uint8_t> scalar_bytes;
  std::uint64_t local_size = 0;
  Access access = Access::kReplicated;
  std::uint64_t partition_stride = 0;  // Bytes per dim-0 index.

  static KernelArgValue Buffer(BufferId id) {
    KernelArgValue v;
    v.kind = Kind::kBuffer;
    v.buffer = id;
    return v;
  }
  // Buffer whose rows follow dimension 0 of the NDRange: `stride_bytes`
  // per global index (e.g. a row-partitioned N x N float matrix launched
  // over N rows has stride 4*N).
  static KernelArgValue PartitionedBuffer(BufferId id,
                                          std::uint64_t stride_bytes) {
    KernelArgValue v = Buffer(id);
    v.access = Access::kPartitionedDim0;
    v.partition_stride = stride_bytes;
    return v;
  }
  template <typename T>
  static KernelArgValue Scalar(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    KernelArgValue v;
    v.kind = Kind::kScalar;
    v.scalar_bytes.resize(sizeof(T));
    std::memcpy(v.scalar_bytes.data(), &value, sizeof(T));
    return v;
  }
  static KernelArgValue Local(std::uint64_t bytes) {
    KernelArgValue v;
    v.kind = Kind::kLocalSize;
    v.local_size = bytes;
    return v;
  }
};

struct LaunchResult {
  std::size_t node = 0;            // Shard's node; for aggregates of a
                                   // multi-shard launch, the node that ran
                                   // the largest shard.
  double modeled_seconds = 0.0;    // Device-model kernel time (aggregate:
                                   // slowest shard — shards run in
                                   // parallel; a shard's serial stages sum).
  double modeled_joules = 0.0;     // Aggregate: summed over shards.
  std::uint64_t bytes_shipped = 0; // Input data moved for this launch.
  sim::SimTime virtual_completion = 0.0;  // Aggregate: last shard done.
  std::uint32_t shard_count = 1;   // Placement-plan shards (1 = classic).
  // Total sub-launch commands executed: == shard_count when every shard
  // ran in-core, larger when oversubscribed shards were decomposed into
  // pipelined out-of-core stages.
  std::uint32_t stage_count = 1;
};

struct RuntimeOptions {
  std::string scheduler = "user";   // Policy name (sched registry).
  // Node-to-node slice exchange: when true (default), launch prologues and
  // migrations source peer-owned ranges with kPullSlice/kPushSlice and only
  // relay through the host when a node link is missing or fails. False
  // forces the classic gather-through-host star (the bench baseline).
  bool peer_transfers = true;
  // Out-of-core staging: when true (default), an oversubscribed shard's
  // stage k+1 slice transfer is expressed as a DMA prefetch overlapping
  // stage k's compute (libhclooc's pipeline, as command-graph edges).
  // False serializes each stage's transfer behind the previous stage's
  // compute — the naive-staging baseline BENCH_ooc.json compares against.
  bool stage_pipeline = true;
  sim::LinkSpec link = sim::GigabitEthernet();
  std::uint64_t session_id = 1;
  std::string host_name = "haocl-host";
  // Per-RPC deadline; a silent node turns into kNodeUnreachable.
  std::chrono::milliseconds rpc_timeout{30000};
  // Command-graph worker pool size; 0 picks max(4, nodes + 2).
  std::size_t dispatch_workers = 0;
  // ---- Multi-tenant serving (node broker) ----
  // Tenant identity registered with every node's broker at Connect
  // (empty = host_name). Weight is the relative fair-share service rate
  // the broker's arbitration grants this session under contention;
  // mem_quota_bytes caps this session's resident device bytes per node
  // (0 = only the shared device capacity applies).
  std::string tenant_name;
  double tenant_weight = 1.0;
  std::uint64_t tenant_mem_quota_bytes = 0;
};

// Future onto a command in the runtime's graph. Plain value; copy freely.
struct CommandHandle {
  CommandId id = kNullCommand;
  [[nodiscard]] bool valid() const { return id != kNullCommand; }
};

// One byte range of a migration request (SubmitMigrate).
struct MigrateRegion {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

// Cumulative payload movement, runtime-wide or per buffer. "Host payload"
// is every byte that crossed the host NIC as data (writes/reads the app
// asked for are excluded — these count only coherence traffic).
struct TransferStats {
  std::uint64_t host_bytes_out = 0;  // Host shadow -> node.
  std::uint64_t host_bytes_in = 0;   // Node -> host shadow (lazy gathers).
  std::uint64_t p2p_bytes = 0;       // Node -> node direct (pull/push).
  std::uint64_t relay_bytes = 0;     // Peer miss relayed through the host.
  std::uint64_t p2p_transfers = 0;
  std::uint64_t relay_transfers = 0;
  // Tiered-memory traffic, counted apart from the coherence buckets above
  // so capacity pressure does not pollute the host-payload metric the P2P
  // benches assert on: spill_bytes is node -> host-shadow writeback of a
  // sole fresh copy (eviction of a last owner, staged-launch output
  // drain); evicted_bytes counts every byte released from a node's pool,
  // with or without wire traffic.
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_transfers = 0;
  std::uint64_t evicted_bytes = 0;
  // Elastic-execution buckets: bytes shipped for chunk RE-executions
  // (recovery re-runs and steal re-targets — movement a fault-free oracle
  // run would not have paid), and chunks that changed owner via the steal
  // or recovery path.
  std::uint64_t reexec_bytes = 0;
  std::uint64_t stolen_chunks = 0;
  [[nodiscard]] std::uint64_t host_payload_bytes() const {
    return host_bytes_out + host_bytes_in;
  }
};

// Point-in-time view of one node's memory tier (host-side ledger).
struct NodeMemoryStats {
  std::uint64_t capacity_bytes = 0;  // 0 = unbounded.
  std::uint64_t resident_bytes = 0;  // Accounted materialized regions.
  std::uint64_t free_bytes = 0;      // capacity - resident (~0 unbounded).
};

// Point-in-time view of one buffer's region directory (tests/bench).
struct BufferDirectorySnapshot {
  struct Region {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t epoch = 0;          // Dirty epoch of the producing write.
    // Fresh-copy holders: node indices ascending, then -1 for the host
    // shadow (when it co-owns).
    std::vector<std::int32_t> owners;
  };
  std::uint64_t size = 0;
  std::uint64_t epoch = 0;     // Buffer-wide dirty epoch counter.
  std::vector<Region> regions;  // Ordered, gap-free tiling of [0, size).
  TransferStats stats;          // Movement attributed to this buffer.
  [[nodiscard]] bool HostOwns(std::uint64_t begin, std::uint64_t end) const {
    for (const Region& r : regions) {
      if (r.end <= begin || r.begin >= end) continue;
      bool host = false;
      for (std::int32_t owner : r.owners) host |= owner < 0;
      if (!host) return false;
    }
    return true;
  }
};

class RuntimeChunkExecutor;  // host/elastic_launch.cc adapter.

class ClusterRuntime {
 public:
  using Options = RuntimeOptions;

  // Performs the hello handshake on every connection and builds the device
  // table. Connection order defines node indices.
  static Expected<std::unique_ptr<ClusterRuntime>> Connect(
      std::vector<net::ConnectionPtr> connections, Options options = {});

  ~ClusterRuntime();
  ClusterRuntime(const ClusterRuntime&) = delete;
  ClusterRuntime& operator=(const ClusterRuntime&) = delete;

  // ---- Device table ------------------------------------------------------
  [[nodiscard]] const std::vector<DeviceInfo>& devices() const {
    return devices_;
  }
  [[nodiscard]] std::vector<std::size_t> DevicesOfType(NodeType type) const;

  // ---- Buffers -----------------------------------------------------------
  Expected<BufferId> CreateBuffer(std::uint64_t size);
  // Returns immediately; remote teardown runs as a graph command ordered
  // after the buffer's in-flight users (never blocks the caller, so a
  // release while commands are gated on an unresolved marker is safe).
  Status ReleaseBuffer(BufferId id);
  [[nodiscard]] Expected<std::uint64_t> BufferSize(BufferId id) const;

  // ---- Programs ----------------------------------------------------------
  // Compiles locally (for kernel metadata and immediate diagnostics, a
  // SnuCL-D-style redundant computation) and lazily on nodes at first use.
  Expected<ProgramId> BuildProgram(const std::string& source);
  [[nodiscard]] std::string BuildLog(ProgramId id) const;
  [[nodiscard]] Expected<const oclc::CompiledFunction*> FindKernel(
      ProgramId id, const std::string& kernel_name) const;
  Status ReleaseProgram(ProgramId id);  // Deferred past in-flight launches.

  // ---- Kernel dispatch ---------------------------------------------------
  struct LaunchSpec {
    ProgramId program = 0;
    std::string kernel_name;
    std::vector<KernelArgValue> args;
    std::uint32_t work_dim = 1;
    std::uint64_t global[3] = {1, 1, 1};
    std::uint64_t local[3] = {1, 1, 1};
    // clEnqueueNDRangeKernel's global_work_offset: shifts get_global_id
    // without changing the range. Shard offsets compose on top of it.
    std::uint64_t global_offset[3] = {0, 0, 0};
    bool local_specified = false;
    int preferred_node = -1;  // User instruction; -1 lets the policy pick.
    // Analytic work estimate. The driver's static estimator cannot see
    // data-dependent loop trip counts (e.g. the N-iteration dot product in
    // naive matmul), so workloads that know their exact flop/byte counts
    // pass them here; the scheduler's cost model and the virtual timeline
    // use the hint instead of the static estimate.
    std::optional<sim::KernelCost> cost_hint;
  };

  // ---- Asynchronous command-graph dispatch -------------------------------
  // Each Submit* validates its operands, enqueues a graph command ordered
  // after `deps` plus the implicit per-buffer hazards, and returns without
  // touching the network. Wait()/Finish() block on completion; failures
  // (including failed dependencies) surface as the command's status.
  // `deps` are strong (a failed predecessor fails this command);
  // `order_after` only sequences (a failed predecessor merely unblocks) —
  // the shim's in-order queue chaining uses the latter.
  //
  // SubmitWrite snapshots `data` at submit time, so the caller's memory may
  // be reused immediately. SubmitRead scribbles into `data` when the
  // command *executes*; the pointer must stay valid until it completes.
  Expected<CommandHandle> SubmitWrite(BufferId id, std::uint64_t offset,
                                      const void* data, std::uint64_t size,
                                      std::vector<CommandHandle> deps = {},
                                      std::vector<CommandHandle> order_after = {});
  // As SubmitWrite but WITHOUT the submit-time snapshot: the caller
  // guarantees `data` stays valid and unmodified until the command
  // completes. This is the right call when the submitter waits anyway
  // (blocking clEnqueueWriteBuffer) — it skips a full copy of the
  // payload.
  Expected<CommandHandle> SubmitWriteBorrowed(
      BufferId id, std::uint64_t offset, const void* data,
      std::uint64_t size, std::vector<CommandHandle> deps = {},
      std::vector<CommandHandle> order_after = {});
  Expected<CommandHandle> SubmitRead(BufferId id, std::uint64_t offset,
                                     void* data, std::uint64_t size,
                                     std::vector<CommandHandle> deps = {},
                                     std::vector<CommandHandle> order_after = {});
  Expected<CommandHandle> SubmitCopy(BufferId src, std::uint64_t src_offset,
                                     BufferId dst, std::uint64_t dst_offset,
                                     std::uint64_t size,
                                     std::vector<CommandHandle> deps = {},
                                     std::vector<CommandHandle> order_after = {});
  // Asks the scheduling policy for a PlacementPlan and fans out one
  // sub-launch command per shard (plus an aggregating join for multi-shard
  // plans). The returned handle always behaves like one launch: Wait()
  // blocks until every shard finished, LaunchResultOf() reports the
  // aggregate, and buffer hazards order later commands after the whole
  // fan-out. Per-shard commands are queryable via LaunchShardsOf.
  Expected<CommandHandle> SubmitLaunch(const LaunchSpec& spec,
                                       std::vector<CommandHandle> deps = {},
                                       std::vector<CommandHandle> order_after = {});
  // Migrates `regions` of the buffer (empty = the whole buffer) so that
  // `target_node` holds a fresh copy: a prefetch that moves coherence
  // traffic off the critical path (clEnqueueMigrateMemObjects). Content is
  // preserved — the target joins each region's owner set; existing owners
  // stay valid. `target_node` == kMigrateToHost gathers into the host
  // shadow (the lazy gather, forced early). Peer-owned ranges move
  // node-to-node via kPushSlice when possible, relaying through the host
  // otherwise. With `discard_contents` no bytes move at all: the target
  // becomes the exclusive owner and prior contents become undefined
  // (CL_MIGRATE_MEM_OBJECT_CONTENT_UNDEFINED).
  static constexpr int kMigrateToHost = -1;
  Expected<CommandHandle> SubmitMigrate(
      BufferId id, std::vector<MigrateRegion> regions, int target_node,
      bool discard_contents = false, std::vector<CommandHandle> deps = {},
      std::vector<CommandHandle> order_after = {});

  // Marker (user event / barrier): completes only via CompleteMarker.
  Expected<CommandHandle> SubmitMarker(std::vector<CommandHandle> deps = {});
  Status CompleteMarker(CommandHandle handle, Status status = Status::Ok());

  Status Wait(CommandHandle handle);
  Status Finish();  // Drains every submitted command (markers included).
  [[nodiscard]] Expected<CommandState> CommandStateOf(
      CommandHandle handle) const;
  [[nodiscard]] Expected<CommandProfile> CommandProfileOf(
      CommandHandle handle) const;
  // LaunchResult of a completed SubmitLaunch command; for multi-shard
  // launches, the aggregate over all shards. Available until the handle
  // is released (ReleaseCommand / the blocking wrappers).
  [[nodiscard]] Expected<LaunchResult> LaunchResultOf(
      CommandHandle handle) const;
  // The per-shard commands behind a launch handle, in plan (offset)
  // order; a single-shard launch returns the handle itself. Shard handles
  // stay valid while the launch handle is retained, and each supports
  // CommandStateOf / CommandProfileOf / LaunchResultOf.
  [[nodiscard]] Expected<std::vector<CommandHandle>> LaunchShardsOf(
      CommandHandle handle) const;
  // Record lifetime (the clRetainEvent/clReleaseEvent analogue): every
  // Submit* handle is born holding one reference; releasing the last one
  // reclaims the command's bookkeeping once it retires, keeping
  // million-enqueue sessions bounded. Querying a released handle
  // (CommandStateOf / CommandProfileOf / LaunchResultOf) is an error;
  // Wait on one returns Ok once the command retired — releasing forfeits
  // its failure status along with the record. The blocking wrappers
  // release internally.
  Status RetainCommand(CommandHandle handle);
  Status ReleaseCommand(CommandHandle handle);
  // Commands dispatched to `node` whose RPCs have not completed yet.
  [[nodiscard]] std::uint32_t InFlightOn(std::size_t node) const;
  [[nodiscard]] CommandGraph& graph() { return *graph_; }

  // ---- Blocking convenience wrappers (submit + wait) ---------------------
  Status WriteBuffer(BufferId id, std::uint64_t offset, const void* data,
                     std::uint64_t size);
  Status ReadBuffer(BufferId id, std::uint64_t offset, void* data,
                    std::uint64_t size);
  Expected<LaunchResult> LaunchKernel(const LaunchSpec& spec);

  // ---- Elastic execution (src/elastic) -----------------------------------
  // LaunchElastic runs one splittable kernel launch as a ledger of
  // steal-able chunks driven by a StealCoordinator. It validates and plans
  // exactly like SubmitLaunch (the shared prepare step), cuts the plan's
  // shards into chunks, and commits each chunk as a one-shard plan on the
  // node the coordinator picked. Drained nodes steal tail chunks from the
  // slowest peer, and a node that dies mid-launch has its chunks re-queued
  // onto survivors from directory state — the launch completes
  // bit-identical either way.
  struct ElasticOptions {
    // Dim-0 indices per chunk (aligned up to the launch's dim0_align);
    // 0 = cut each shard into kDefaultChunksPerShard chunks.
    std::uint64_t chunk_rows = 0;
    static constexpr std::uint64_t kDefaultChunksPerShard = 4;
    bool stealing = true;              // Loop 1 (off = static plan).
    std::size_t max_steal_chunks = 2;  // Tail chunks per steal.
    bool heartbeat = false;            // Probe nodes between dispatches.
    std::chrono::milliseconds heartbeat_interval{50};
    // Deterministic scripted faults (tests/bench); not owned, may be null.
    elastic::FaultInjector* fault_injector = nullptr;
  };
  struct ElasticResult {
    LaunchResult launch;  // Aggregate, same meaning as LaunchKernel's.
    std::uint64_t chunks_total = 0;
    std::uint64_t chunks_stolen = 0;
    std::uint64_t chunks_reexecuted = 0;
    double makespan_seconds = 0.0;  // Max per-node modeled busy-seconds.
    std::vector<double> node_busy_seconds;
    std::vector<std::size_t> dead_nodes;  // Nodes that died mid-launch.
  };
  Expected<ElasticResult> LaunchElastic(const LaunchSpec& spec,
                                        const ElasticOptions& options);
  Expected<ElasticResult> LaunchElastic(const LaunchSpec& spec);

  // ---- Node liveness ------------------------------------------------------
  // One heartbeat round-trip to `node`; Ok = alive. A node already marked
  // dead fails immediately with kNodeLost.
  Status ProbeNode(std::size_t node);
  // Declares `node` dead: excluded from future plans (NodeView.alive),
  // elastic chunks committed to it fail with kNodeLost, and every buffer
  // region whose ONLY fresh copy lived there falls back to the host
  // shadow's retained pre-image. Returns those sole-owner regions — the
  // data that was actually lost (recovery re-executes exactly the chunks
  // that produced it).
  struct LostRange {
    BufferId buffer = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  Expected<std::vector<LostRange>> MarkNodeLost(std::size_t node);
  [[nodiscard]] bool NodeAlive(std::size_t node) const;

  // ---- Scheduling / monitoring -------------------------------------------
  Status SetScheduler(const std::string& policy_name);
  [[nodiscard]] const std::string& scheduler_name() const {
    return scheduler_name_;
  }
  // Polls every node's load counters (the runtime resource monitor) and
  // merges the host-side in-flight depth per node.
  Expected<sched::ClusterView> QueryClusterView();
  // Modeled seconds of launch work submitted to `node` and not yet
  // completed — the backlog estimate load-aware policies steer on.
  // Charged at submit from the cost model's prediction, refunded when the
  // shard completes (or retires through any failure path), so a drained
  // runtime reads ~0 on every node.
  [[nodiscard]] double SchedulerBacklogSeconds(std::size_t node) const;
  // Observed per-(node, kernel) runtime profile: EWMA seconds-per-flop
  // fed by every completed launch shard (samples == 0 until the kernel
  // has completed a shard on the node). What `adaptive_split` re-plans
  // shard boundaries from between chained launches.
  [[nodiscard]] sched::KernelRateTable::Rate ObservedKernelRate(
      std::size_t node, const std::string& kernel_name) const;
  // Snapshot of `node`'s broker: the shared ledger, every tenant's
  // serving stats (all sessions, not just this one), and the shared
  // kernel-rate table. One RPC.
  Expected<net::BrokerStatsReply> QueryBrokerStats(std::size_t node);

  // ---- Virtual time ------------------------------------------------------
  [[nodiscard]] VirtualTimeline& timeline() { return *timeline_; }

  // Total bytes sent over all channels (functional, not modeled).
  [[nodiscard]] std::uint64_t TotalBytesSent() const;

  // ---- Tiered memory introspection ---------------------------------------
  // The host-side ledger of one node's memory tier. The node keeps its own
  // pool fed by the transfers it observes plus explicit notices; the two
  // agree whenever the runtime is drained (LoadReply.bytes_resident).
  [[nodiscard]] Expected<NodeMemoryStats> NodeMemoryStatsOf(
      std::size_t node) const;

  // ---- Region directory introspection ------------------------------------
  // Snapshot of one buffer's directory + per-buffer transfer counters.
  // Drain in-flight users of the buffer first (Wait/Finish) for a stable
  // picture; the snapshot itself is internally consistent either way.
  [[nodiscard]] Expected<BufferDirectorySnapshot> DirectorySnapshotOf(
      BufferId id) const;
  // Runtime-wide cumulative coherence movement.
  [[nodiscard]] TransferStats transfer_stats() const;

  void Disconnect();

 private:
  ClusterRuntime(Options options);
  // Bridges the StealCoordinator's ChunkExecutor onto this runtime
  // (host/elastic_launch.cc).
  friend class RuntimeChunkExecutor;

  struct LogicalBuffer {
    // Guards the coherence fields (shadow, dir, allocated_on, stats) and
    // serializes transfers of this buffer; commands touching different
    // buffers proceed in parallel.
    std::mutex mutex;
    std::uint64_t size = 0;  // Immutable after creation.
    std::vector<std::uint8_t> shadow;  // Host copy (fresh only where the
                                       // directory says the host owns).
    // Region directory: owners 0..nodes-1 are device nodes, owner `nodes`
    // is the host shadow.
    RegionDirectory dir;
    std::vector<bool> allocated_on;  // Remote allocation exists.
    TransferStats stats;             // Coherence movement, this buffer.
    // Tiered-memory metadata, per node. Atomics: the launch path stamps
    // and pins without taking the buffer mutex, and the eviction policy
    // reads them advisorily while holding only the victim's mutex.
    // pinned_on > 0 excludes the buffer from eviction on that node (a
    // launch/stage is between reserving and consuming its ranges);
    // last_use_epoch orders eviction victims (LRU by launch epoch).
    std::unique_ptr<std::atomic<std::uint32_t>[]> pinned_on;
    std::unique_ptr<std::atomic<std::uint64_t>[]> last_use_epoch;
    // Region-granular hazard tracking for implicit ordering: live commands
    // with the byte ranges they write/read. Guarded by state_mutex_ and
    // only touched on the submit path; retired entries pruned lazily.
    struct RangeHazard {
      std::uint64_t begin = 0;
      std::uint64_t end = 0;
      CommandId cmd = kNullCommand;
    };
    std::vector<RangeHazard> writers;
    std::vector<RangeHazard> readers;
  };
  using BufferPtr = std::shared_ptr<LogicalBuffer>;

  struct ProgramState {
    std::mutex mutex;  // Guards built_on and serializes remote builds.
    std::string source;
    std::shared_ptr<const oclc::Module> module;  // Host-side metadata.
    std::string build_log;
    std::vector<bool> built_on;
    // Every launch command of this program (release is ordered after ALL
    // of them, not just the latest). Guarded by state_mutex_.
    std::vector<CommandId> uses;
  };
  using ProgramPtr = std::shared_ptr<ProgramState>;

  // RAII in-flight accounting around a node RPC (feeds the scheduler).
  class InFlightGuard;

  // Sends `payload` through CallAsync and awaits the reply with the
  // configured timeout, counting the command against `node`'s depth.
  // `tail` follows the payload on the wire (net::Message::tail); it is
  // sent, and no longer read, before CallNode returns.
  Expected<net::Message> CallNode(std::size_t node, net::MsgType type,
                                  std::vector<std::uint8_t> payload,
                                  std::span<const std::uint8_t> tail = {});
  Status CheckReply(const Expected<net::Message>& reply,
                    net::MsgType expected_type) const;

  // Command bodies (run on graph workers). *Locked variants require the
  // buffer's own mutex held.
  Expected<CommandHandle> SubmitWriteImpl(BufferId id, std::uint64_t offset,
                                          const void* data,
                                          std::uint64_t size,
                                          std::vector<CommandHandle> deps,
                                          std::vector<CommandHandle> order_after,
                                          bool snapshot_data);
  Status ExecWrite(BufferId id, const BufferPtr& buffer, std::uint64_t offset,
                   const std::uint8_t* data, std::uint64_t size);
  Status ExecRead(BufferId id, const BufferPtr& buffer, std::uint64_t offset,
                  void* out, std::uint64_t size, CommandGraph::Execution& e);
  Status ExecCopy(BufferId src_id, const BufferPtr& src,
                  std::uint64_t src_offset, BufferId dst_id,
                  const BufferPtr& dst, std::uint64_t dst_offset,
                  std::uint64_t size);
  // ---- Launch planning (one path for SubmitLaunch and LaunchElastic) -----
  // One buffer argument of a launch, resolved at submit.
  struct LaunchBufferArg {
    BufferId id = 0;
    BufferPtr buffer;
    bool written = false;      // Bound to a non-const pointer parameter.
    bool partitioned = false;  // kPartitionedDim0 on a range-free kernel.
    std::uint64_t stride = 0;  // Bytes per dim-0 index (partitioned).
    // Byte range that dim-0 indices [first, first + count) touch: their
    // partition window for partitioned args, the whole buffer otherwise.
    [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> Window(
        std::uint64_t first, std::uint64_t count) const {
      if (!partitioned) return {0, buffer->size};
      return {first * stride, (first + count) * stride};
    }
  };
  // A validated and planned launch: program, kernel and buffers resolved,
  // the scheduler's TaskInfo built against the host-side ClusterView, and
  // the policy's plan checked by ValidatePlan.
  struct PreparedLaunch {
    LaunchSpec spec;
    ProgramPtr program;
    std::vector<LaunchBufferArg> buffers;
    sched::TaskInfo task;
    sched::ClusterView view;
    sched::PlacementPlan plan;
  };
  // Identity of an elastic chunk riding a committed shard. The ids go on
  // the wire so the node can skip a chunk revoked after submit; reexec
  // marks a recovery/steal re-run whose input bytes count as
  // TransferStats.reexec_bytes. All zero for ordinary launches.
  struct ChunkTag {
    std::uint64_t launch_id = 0;
    std::uint64_t chunk_id = 0;
    bool reexec = false;
  };
  // The prepare step: validation, TaskInfo, locality hints, policy plan.
  // Requires state_mutex_ held.
  Expected<PreparedLaunch> PrepareLaunchLocked(const LaunchSpec& spec);
  // The commit step: charges the backlog, cuts out-of-core stages, fans
  // out one command per shard of `plan` (plus a join for several), and
  // records hazards over the plan's dim-0 range. Requires state_mutex_.
  Expected<CommandHandle> CommitLaunchLocked(
      const PreparedLaunch& launch, const sched::PlacementPlan& plan,
      std::vector<CommandHandle> deps, std::vector<CommandHandle> order_after,
      const ChunkTag& chunk);
  // Waits for a launch handle, reads its result, and releases it.
  Expected<LaunchResult> AwaitLaunch(const Expected<CommandHandle>& handle);
  // The host-side view of every node as the scheduler sees it, with the
  // observed rates of `kernel_name`. Requires sched_mutex_ held.
  [[nodiscard]] sched::ClusterView HostClusterViewLocked(
      const std::string& kernel_name) const;

  struct LaunchPlan;  // Queryable residue (LaunchResult) per launch.
  struct LaunchWork;  // Heavy captures owned by the command body.
  struct StageLink;   // Prefetch -> compute handoff of one OOC stage.
  struct StagePrefetchWork;  // Captures of a stage's prefetch command.
  class WorkingSetPin;       // RAII eviction exclusion for a working set.
  Status ExecLaunch(const std::shared_ptr<LaunchWork>& work,
                    CommandGraph::Execution& e);
  Status ExecStagePrefetch(const std::shared_ptr<StagePrefetchWork>& work);
  // Subtracts a shard's submit-time backlog charge from the node's
  // estimate (clamped at zero). Called from the launch epilogue on
  // success and from ~LaunchWork for every other retirement path.
  void RefundBacklogCharge(std::size_t node, double seconds);
  Status ExecMigrate(BufferId id, const BufferPtr& buffer,
                     const std::vector<MigrateRegion>& regions,
                     int target_node, bool discard_contents);

  // ---- Tiered memory (per-node pools, spill/evict, staging) ---------------
  // Reserves `ranges` in `node`'s pool, evicting cold buffers (LRU by
  // launch epoch, pinned working sets excluded) until they fit. Fails
  // with kMemObjectAllocationFailure when the ranges can never fit or
  // eviction stops making progress. Call WITHOUT any buffer mutex held.
  Status ReserveWorkingSet(std::size_t node,
                           const std::vector<runtime::MemoryPool::BufferRange>&
                               ranges);
  // Evicts least-recently-launched buffers from `node` until ~`needed`
  // bytes are freed; returns the bytes actually freed.
  std::uint64_t EvictFromNode(std::size_t node, std::uint64_t needed);
  // Demotes `node`'s copy of [begin, end) of the buffer: sub-ranges where
  // it holds the last fresh copy are spilled to the host shadow first
  // (spill_bytes bucket), ownership is dropped, the pool releases the
  // materialized bytes, and the node is notified so its ledger follows.
  // Requires buffer.mutex held.
  Status EvictRangeFromNodeLocked(BufferId id, LogicalBuffer& buffer,
                                  std::size_t node, std::uint64_t begin,
                                  std::uint64_t end);
  // Gathers the sub-ranges of [begin, end) whose ONLY fresh copy is on
  // `node` into the host shadow, accounted as spill traffic. Requires
  // buffer.mutex held.
  Status SpillSoleRangesToHostLocked(BufferId id, LogicalBuffer& buffer,
                                     std::size_t node, std::uint64_t begin,
                                     std::uint64_t end);
  // Best-effort reservation/eviction notice to the node's session pool.
  void NotifyMemory(std::size_t node, BufferId id, bool reserve,
                    const std::vector<runtime::MemoryPool::Span>& spans);

  // ---- Region-directory transfer engine (require buffer.mutex held) ------
  // The host's owner index in a buffer's directory.
  [[nodiscard]] RegionDirectory::Owner HostOwner() const {
    return static_cast<RegionDirectory::Owner>(nodes_.size());
  }
  // The core transfer planner both Ensure* entry points share: segments
  // every sub-range of [begin, end) that `dst` lacks into maximal runs
  // with a single transfer source — adjacent missing regions whose owner
  // sets share a source coalesce into one wire transfer — invokes
  // `transfer(source, run_begin, run_end)` per run, and records `dst` as
  // a fresh owner of what arrived. `pick_source` chooses a region's
  // source (node index, or nodes_.size() for the host shadow) whenever
  // the previous run's source no longer covers it.
  Status TransferMissingRunsLocked(
      BufferId id, LogicalBuffer& buffer, RegionDirectory::Owner dst,
      std::uint64_t begin, std::uint64_t end,
      const std::function<std::size_t(const RegionDirectory::Region&)>&
          pick_source,
      const std::function<Status(std::size_t source, std::uint64_t begin,
                                 std::uint64_t end)>& transfer);
  // Gathers every range of [begin, end) the host shadow does not own from
  // a current owner node (the lazy gather).
  Status EnsureHostRangeLocked(BufferId id, LogicalBuffer& buffer,
                               std::uint64_t begin, std::uint64_t end);
  // How peer-owned ranges reach the destination of a transfer.
  enum class PeerMode { kPull, kPush };
  // How a transfer charges virtual time: kDemand chains on the node's
  // command order (the classic prologue transfer); kPrefetch rides the
  // DMA chain so it overlaps the node's compute — the staged pipeline's
  // stage-(k+1)-transfer-during-stage-k-compute edge.
  enum class TransferTiming { kDemand, kPrefetch };
  // Makes `node` a fresh owner of [begin, end): allocates the full buffer
  // remotely on first touch, then sources each missing range — host shadow
  // ranges ship host->node; peer-owned ranges move node-to-node (pull by
  // the destination or push by the source per `mode`), falling back to a
  // host relay when the peer path is unavailable. Adjacent missing ranges
  // with a common source coalesce into single wire transfers.
  Status EnsureRangeOnNodeLocked(BufferId id, LogicalBuffer& buffer,
                                 std::size_t node, std::uint64_t begin,
                                 std::uint64_t end,
                                 std::uint64_t* bytes_shipped,
                                 PeerMode mode = PeerMode::kPull,
                                 TransferTiming timing = TransferTiming::kDemand,
                                 sim::SimTime* ready_at = nullptr);
  // One node-to-node transfer attempt (no fallback).
  Status PeerTransferLocked(BufferId id, std::size_t src, std::size_t dst,
                            std::uint64_t begin, std::uint64_t end,
                            PeerMode mode);
  // Folds a per-buffer counter delta into the runtime-wide totals.
  void AccountTransfer(LogicalBuffer& buffer, std::uint64_t TransferStats::*counter,
                       std::uint64_t delta);

  Status EnsureProgramOnNode(ProgramId id, ProgramState& program,
                             std::size_t node);

  // Region-granular hazard helpers; require state_mutex_ held. Overlap is
  // on byte ranges: a write to [0, k) and one to [k, 2k) do not conflict.
  void CollectDepIds(const std::vector<CommandHandle>& deps,
                     std::vector<CommandId>* out) const;
  void PruneRetiredHazardsLocked(LogicalBuffer& buffer);
  void AddReadHazardLocked(LogicalBuffer& buffer, std::uint64_t begin,
                           std::uint64_t end, std::vector<CommandId>* deps);
  void AddWriteHazardLocked(LogicalBuffer& buffer, std::uint64_t begin,
                            std::uint64_t end, std::vector<CommandId>* deps);
  void RecordReadLocked(LogicalBuffer& buffer, std::uint64_t begin,
                        std::uint64_t end, CommandId cmd);
  void RecordWriteLocked(LogicalBuffer& buffer, std::uint64_t begin,
                         std::uint64_t end, CommandId cmd);

  Options options_;
  std::vector<std::unique_ptr<net::RpcClient>> nodes_;
  std::vector<DeviceInfo> devices_;
  std::unique_ptr<sched::SchedulingPolicy> policy_;
  std::string scheduler_name_;
  std::unique_ptr<VirtualTimeline> timeline_;
  std::unique_ptr<CommandGraph> graph_;

  // Lock hierarchy: state_mutex_ > {sched_mutex_, graph mutex} >
  // VirtualTimeline's own lock; buffer/program mutexes are leaf-adjacent
  // (they may take sched_mutex_ or the timeline's, never state_mutex_ or
  // the graph's). Planning happens on the submit path under state_mutex_
  // then sched_mutex_.
  mutable std::mutex state_mutex_;  // Object tables + hazards + ids.
  mutable std::mutex sched_mutex_;  // Scheduler accounting + in-flight.

  std::unordered_map<BufferId, BufferPtr> buffers_;
  std::unordered_map<ProgramId, ProgramPtr> programs_;
  // Launch commands keep their plan (and its LaunchResult) queryable
  // until released; fan_outs_ maps a multi-shard launch's join command to
  // its shard commands (whose creation references the runtime holds).
  std::unordered_map<CommandId, std::shared_ptr<LaunchPlan>> launch_plans_;
  std::unordered_map<CommandId, std::vector<CommandId>> fan_outs_;
  BufferId next_buffer_id_ = 1;
  ProgramId next_program_id_ = 1;
  // Per-node device-memory ledgers (internally synchronized; the
  // authoritative budget the eviction policy and the scheduler's
  // mem_free_bytes read). Sized at Connect, capacity from the handshake.
  std::vector<std::unique_ptr<runtime::MemoryPool>> node_pools_;
  // Monotonic launch counter stamping per-(buffer, node) last use — the
  // clock the LRU eviction policy orders victims by.
  std::atomic<std::uint64_t> launch_epoch_{0};
  // Scheduler backlog estimate: modeled seconds of in-flight launch work
  // per node. Charged under sched_mutex_ at submit, refunded at
  // retirement — never a cumulative history.
  std::vector<double> node_busy_ahead_;
  // Liveness: nodes declared dead by MarkNodeLost (guarded by
  // sched_mutex_; read into NodeView.alive at planning time).
  std::vector<bool> node_dead_;
  // Last broker snapshot per node (guarded by sched_mutex_): total
  // admitted backlog across ALL sessions and the active fair-share
  // weight, piggybacked on every launch reply and refreshed by load
  // queries — how this session's scheduler sees its neighbours.
  std::vector<double> node_broker_backlog_;
  std::vector<double> node_active_weight_;
  // Observed per-(node, kernel) rates (internally synchronized).
  std::unique_ptr<sched::KernelRateTable> rate_table_;
  std::vector<std::uint32_t> in_flight_;  // RPCs outstanding per node.
  // Runtime-wide coherence movement totals (guarded by stats_mutex_, a
  // leaf lock taken briefly under buffer mutexes).
  mutable std::mutex stats_mutex_;
  TransferStats stats_;
  bool disconnected_ = false;
};

}  // namespace haocl::host
