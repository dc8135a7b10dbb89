// Elastic launch: ClusterRuntime::LaunchElastic and the adapter that
// bridges the StealCoordinator's ChunkExecutor interface onto the runtime.
//
// The flow: the launch is validated and planned by the same prepare step
// SubmitLaunch uses (PrepareLaunchLocked), so both paths accept and refuse
// exactly the same specs and the initial split sees the same locality
// hints. The ChunkLedger cuts that plan into steal-able chunks, and the
// StealCoordinator drains the ledger, committing each chunk as a
// one-shard plan {node, offset, count} through SubmitLaunch's commit step
// (CommitLaunchLocked) — the full coherence machinery of slice prologue,
// directory epilogue and rate feedback, without re-validating or
// re-planning. Work stealing and failure recovery are entirely
// ledger-side re-targeting — the commit path is oblivious to both, which
// is what keeps the result bit-identical to the single-node run.
#include <algorithm>
#include <atomic>
#include <string>

#include "common/log.h"
#include "elastic/steal_coordinator.h"
#include "host/cluster_runtime.h"

namespace haocl::host {

// The coordinator's window onto this runtime. All state it touches is
// either public API or read under the runtime's own locks (friend).
class RuntimeChunkExecutor : public elastic::ChunkExecutor {
 public:
  RuntimeChunkExecutor(ClusterRuntime* runtime,
                       const ClusterRuntime::PreparedLaunch& launch,
                       std::uint64_t launch_id,
                       elastic::FaultInjector* faults)
      : runtime_(runtime),
        launch_(launch),
        launch_id_(launch_id),
        faults_(faults),
        rows_total_(static_cast<double>(
            std::max<std::uint64_t>(1, launch.spec.global[0]))),
        seconds_per_row_(runtime->devices_.size(), 0.0) {}

  Expected<elastic::ChunkOutcome> Execute(const elastic::Chunk& chunk,
                                          std::size_t node) override {
    if (faults_ != nullptr) {
      Status scripted = faults_->BeforeExecute(node);
      if (!scripted.ok()) return scripted;
    }
    sched::PlacementPlan plan;
    plan.shards.push_back({node, chunk.offset, chunk.count, 1.0});
    const ClusterRuntime::ChunkTag tag{launch_id_, chunk.id,
                                       chunk.stolen || chunk.attempts > 1};
    Expected<CommandHandle> handle = [&]() -> Expected<CommandHandle> {
      std::lock_guard<std::mutex> lock(runtime_->state_mutex_);
      if (runtime_->disconnected_) {
        return Status(ErrorCode::kInvalidOperation, "runtime disconnected");
      }
      return runtime_->CommitLaunchLocked(launch_, plan, {}, {}, tag);
    }();
    auto result = runtime_->AwaitLaunch(handle);
    if (!result.ok()) return result.status();
    double seconds = result->modeled_seconds;
    if (faults_ != nullptr) seconds += faults_->AfterExecute(node);
    {
      // Learn the node's per-row rate from its own completed chunks (EWMA
      // 0.5): the mis-calibration a straggler hides from the static model
      // shows up here after its first chunk.
      std::lock_guard<std::mutex> lock(mutex_);
      const double per_row =
          seconds / static_cast<double>(std::max<std::uint64_t>(1, chunk.count));
      double& slot = seconds_per_row_[node];
      slot = slot == 0.0 ? per_row : 0.5 * slot + 0.5 * per_row;
    }
    elastic::ChunkOutcome outcome;
    outcome.modeled_seconds = seconds;
    outcome.bytes_shipped = result->bytes_shipped;
    return outcome;
  }

  void Revoke(std::size_t node, std::uint64_t launch_id,
              const std::vector<std::uint64_t>& chunk_ids) override {
    net::RevokeChunkRequest request;
    request.launch_id = launch_id;
    request.chunk_ids = chunk_ids;
    // Best-effort: a failed revoke only risks wasted duplicate work on a
    // node we may be about to declare dead anyway.
    (void)runtime_->CallNode(node, net::MsgType::kRevokeChunk,
                             request.Encode());
  }

  Status Probe(std::size_t node) override {
    return runtime_->ProbeNode(node);
  }

  double SecondsPerRow(std::size_t node) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (node < seconds_per_row_.size() && seconds_per_row_[node] > 0.0) {
        return seconds_per_row_[node];
      }
    }
    // Cold start: the cross-launch learned rate table, scaled to rows.
    const sched::KernelRateTable::Rate rate =
        runtime_->ObservedKernelRate(node, launch_.spec.kernel_name);
    const double flops_total = launch_.task.cost.flops;
    if (rate.samples > 0 && rate.seconds_per_flop > 0.0 &&
        flops_total > 0.0) {
      return rate.seconds_per_flop * (flops_total / rows_total_);
    }
    return 0.0;
  }

  double BacklogSeconds(std::size_t node) override {
    std::lock_guard<std::mutex> lock(runtime_->sched_mutex_);
    if (node >= runtime_->node_busy_ahead_.size()) return 0.0;
    return runtime_->node_busy_ahead_[node] +
           runtime_->node_broker_backlog_[node];
  }

  std::uint64_t ResidentRowsOn(std::size_t node, std::uint64_t offset,
                               std::uint64_t count) override {
    // The first partitioned arg stands in for the chunk's input locality.
    for (const ClusterRuntime::LaunchBufferArg& arg : launch_.buffers) {
      if (!arg.partitioned) continue;
      const auto [begin, end] =
          arg.Window(launch_.spec.global_offset[0] + offset, count);
      // Advisory only — never block on a buffer amid a transfer.
      std::unique_lock<std::mutex> buffer_lock(arg.buffer->mutex,
                                               std::try_to_lock);
      if (!buffer_lock.owns_lock()) return 0;
      std::uint64_t bytes = 0;
      for (const RegionDirectory::Region& region :
           arg.buffer->dir.Query(begin, end)) {
        for (RegionDirectory::Owner owner : region.owners) {
          if (owner == node) bytes += region.end - region.begin;
        }
      }
      return bytes / arg.stride;
    }
    return 0;
  }

  Expected<std::vector<elastic::ChunkLedger::RowSpan>> OnNodeDead(
      std::size_t node) override {
    auto lost = runtime_->MarkNodeLost(node);
    if (!lost.ok()) return lost.status();
    // Byte ranges -> plan-relative dim-0 row spans, via the WRITTEN
    // partitioned args only: a lost input replica re-ships from its
    // surviving owners for free, but a lost OUTPUT range means the chunk
    // that produced it must re-run.
    std::vector<elastic::ChunkLedger::RowSpan> spans;
    const std::uint64_t first = launch_.spec.global_offset[0];
    const std::uint64_t extent = launch_.spec.global[0];
    for (const ClusterRuntime::LostRange& range : *lost) {
      for (const ClusterRuntime::LaunchBufferArg& arg : launch_.buffers) {
        if (!arg.written || !arg.partitioned || arg.id != range.buffer) {
          continue;
        }
        std::uint64_t row_begin = range.begin / arg.stride;
        std::uint64_t row_end = (range.end + arg.stride - 1) / arg.stride;
        row_begin = std::max(row_begin, first);
        row_end = std::min(row_end, first + extent);
        if (row_begin >= row_end) continue;
        spans.push_back({row_begin - first, row_end - first});
      }
    }
    return spans;
  }

 private:
  ClusterRuntime* runtime_;
  const ClusterRuntime::PreparedLaunch& launch_;
  const std::uint64_t launch_id_;
  elastic::FaultInjector* faults_;
  const double rows_total_;
  std::mutex mutex_;
  std::vector<double> seconds_per_row_;  // Learned this launch, per node.
};

Expected<ClusterRuntime::ElasticResult> ClusterRuntime::LaunchElastic(
    const LaunchSpec& spec) {
  return LaunchElastic(spec, ElasticOptions{});
}

Expected<ClusterRuntime::ElasticResult> ClusterRuntime::LaunchElastic(
    const LaunchSpec& spec, const ElasticOptions& options) {
  Expected<PreparedLaunch> launch = [&]() -> Expected<PreparedLaunch> {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return PrepareLaunchLocked(spec);
  }();
  if (!launch.ok()) return launch.status();
  if (!launch->task.splittable) {
    return Status(
        ErrorCode::kInvalidOperation,
        "kernel '" + spec.kernel_name +
            "' is not splittable (elastic execution re-targets chunks "
            "freely: the kernel must be range-free and every written "
            "buffer annotated kPartitionedDim0)");
  }
  const sched::PlacementPlan& plan = launch->plan;
  const std::uint64_t align = launch->task.dim0_align;

  // Chunk granularity: explicit rows, or cut the largest shard into
  // kDefaultChunksPerShard pieces so even a one-node plan yields work the
  // peers can steal.
  std::uint64_t chunk_rows = options.chunk_rows;
  if (chunk_rows == 0) {
    std::uint64_t max_shard = 0;
    for (const sched::PlacementShard& shard : plan.shards) {
      max_shard = std::max(max_shard, shard.global_count);
    }
    chunk_rows = std::max<std::uint64_t>(
        align, (max_shard + ElasticOptions::kDefaultChunksPerShard - 1) /
                   ElasticOptions::kDefaultChunksPerShard);
  }

  elastic::ChunkLedger ledger;
  HAOCL_RETURN_IF_ERROR(ledger.Init(plan, align, chunk_rows));

  static std::atomic<std::uint64_t> next_launch_id{1};
  const std::uint64_t launch_id =
      next_launch_id.fetch_add(1, std::memory_order_relaxed);

  // Chunks carry the full launch's analytic cost scaled to their rows: a
  // re-chunked device-side estimate would re-charge every chunk a cold
  // pass over the node's whole resident allocation, billing ~N chunks at
  // full-buffer memory time and drowning the real per-row rates the
  // steal loop needs to see.
  if (!launch->spec.cost_hint.has_value()) {
    launch->spec.cost_hint = launch->task.cost;
  }
  RuntimeChunkExecutor executor(this, *launch, launch_id,
                                options.fault_injector);

  // Every live node participates — idle nodes outside the plan start with
  // zero chunks and immediately steal, which is the point of elasticity.
  std::vector<std::size_t> participants;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (NodeAlive(i)) participants.push_back(i);
  }
  if (participants.empty()) {
    return Status(ErrorCode::kNodeLost, "no live nodes for elastic launch");
  }

  elastic::CoordinatorOptions coordinator_options;
  coordinator_options.stealing = options.stealing;
  coordinator_options.max_steal_chunks = options.max_steal_chunks;
  coordinator_options.heartbeat = options.heartbeat;
  coordinator_options.heartbeat_interval = options.heartbeat_interval;
  coordinator_options.launch_id = launch_id;
  elastic::StealCoordinator coordinator(&ledger, &executor, participants,
                                        coordinator_options);
  elastic::CoordinatorReport report = coordinator.Run();
  HAOCL_RETURN_IF_ERROR(report.status);

  if (report.chunks_stolen > 0) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stats_.stolen_chunks += report.chunks_stolen;
  }

  ElasticResult result;
  result.chunks_total = report.chunks_total;
  result.chunks_stolen = report.chunks_stolen;
  result.chunks_reexecuted = report.chunks_reexecuted;
  result.makespan_seconds = report.makespan_seconds;
  result.node_busy_seconds = report.node_busy_seconds;
  result.dead_nodes = report.dead_nodes;
  result.launch.modeled_seconds = report.makespan_seconds;
  result.launch.bytes_shipped = report.bytes_shipped;
  result.launch.shard_count = static_cast<std::uint32_t>(plan.shards.size());
  result.launch.stage_count = static_cast<std::uint32_t>(report.chunks_total);
  // Report the busiest node as "the" node, like a multi-shard aggregate.
  double busiest = -1.0;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (i < report.node_busy_seconds.size() &&
        report.node_busy_seconds[i] > busiest) {
      busiest = report.node_busy_seconds[i];
      result.launch.node = participants[i];
    }
  }
  HAOCL_DEBUG << "elastic launch " << launch_id << ": "
              << report.chunks_total << " chunks, " << report.chunks_stolen
              << " stolen, " << report.chunks_reexecuted << " re-executed, "
              << report.dead_nodes.size() << " nodes lost";
  return result;
}

}  // namespace haocl::host
