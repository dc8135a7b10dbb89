// Elastic execution bench: the two acceptance numbers for the chunk
// ledger + steal coordinator.
//
//  1) Straggler rescue — one of three GPUs is 5x slower than the host's
//     static model believes, so the plan overloads it. With stealing the
//     makespan must land within 15% of the oracle (perfect split by TRUE
//     rates); without stealing it sits >60% over — the gap the second
//     scheduling loop closes.
//  2) Node-kill recovery — a daemon is scripted dead mid-launch; the
//     launch must complete with a bit-identical result, re-executing only
//     the chunks whose outputs died with the node.
//
// All times are modeled (virtual) seconds, so the numbers are
// deterministic; emits BENCH_elastic.json.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "driver/native_registry.h"
#include "elastic/fault_injector.h"
#include "host/cluster_runtime.h"
#include "host/sim_cluster.h"

namespace {

using haocl::host::ClusterRuntime;
using haocl::host::KernelArgValue;
using haocl::host::SimCluster;

constexpr char kDoubler[] = R"(
  __kernel void doubler(__global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] * 2;
  })";

// Rows are large so chunk memory time dwarfs the fixed launch overhead;
// chunks are small (32 per shard) so the steal loop can balance a 5x rate
// skew to within one chunk of the oracle.
constexpr std::uint64_t kRows = 1ull << 24;
constexpr std::uint64_t kChunkRows = kRows / 96;

void RegisterNativeDoubler() {
  static bool once = [] {
    haocl::driver::NativeKernelRegistry::Instance().Register(
        "doubler",
        [](const std::vector<haocl::oclc::ArgBinding>& args,
           const haocl::oclc::NDRange& range) {
          auto* data = reinterpret_cast<std::int32_t*>(args[0].data);
          const std::uint64_t limit = args[0].size / 4;
          const std::uint64_t begin = range.offset[0];
          const std::uint64_t end =
              std::min(limit, begin + range.global[0]);
          for (std::uint64_t i = begin; i < end; ++i) data[i] *= 2;
          return haocl::Status::Ok();
        });
    return true;
  }();
  (void)once;
}

struct Harness {
  std::unique_ptr<SimCluster> cluster;
  haocl::host::ProgramId program = 0;
  haocl::host::BufferId buffer = 0;

  static Harness Make(std::vector<double> speed_factors,
                      std::uint64_t rows) {
    RegisterNativeDoubler();
    Harness h;
    auto cluster = SimCluster::Create({.gpu_nodes = 3}, {},
                                      SimCluster::PeerTopology::kFullMesh,
                                      std::move(speed_factors));
    if (!cluster.ok()) {
      std::fprintf(stderr, "cluster: %s\n",
                   cluster.status().ToString().c_str());
      std::exit(1);
    }
    h.cluster = *std::move(cluster);
    if (!h.cluster->runtime().SetScheduler("hetero_split").ok()) std::exit(1);
    auto program = h.cluster->runtime().BuildProgram(kDoubler);
    if (!program.ok()) {
      std::fprintf(stderr, "build: %s\n",
                   program.status().ToString().c_str());
      std::exit(1);
    }
    h.program = *program;
    auto buffer = h.cluster->runtime().CreateBuffer(rows * 4);
    if (!buffer.ok()) std::exit(1);
    h.buffer = *buffer;
    std::vector<std::int32_t> values(rows);
    std::iota(values.begin(), values.end(), 1);
    if (!h.cluster->runtime()
             .WriteBuffer(h.buffer, 0, values.data(), rows * 4)
             .ok()) {
      std::exit(1);
    }
    return h;
  }

  ClusterRuntime::LaunchSpec Spec(std::uint64_t rows) const {
    ClusterRuntime::LaunchSpec spec;
    spec.program = program;
    spec.kernel_name = "doubler";
    spec.args = {KernelArgValue::PartitionedBuffer(buffer, 4),
                 KernelArgValue::Scalar<std::int32_t>(
                     static_cast<std::int32_t>(rows))};
    spec.global[0] = rows;
    return spec;
  }

  // Measures node i's TRUE per-row rate (including amortized per-chunk
  // launch overhead) with one user-directed chunk-sized launch on scratch
  // data, then restores the elastic runs' hetero_split policy.
  double SecondsPerRow(std::size_t node) {
    auto scratch = cluster->runtime().CreateBuffer(kChunkRows * 4);
    if (!scratch.ok()) std::exit(1);
    std::vector<std::int32_t> zero(kChunkRows, 0);
    (void)cluster->runtime().WriteBuffer(*scratch, 0, zero.data(),
                                         kChunkRows * 4);
    ClusterRuntime::LaunchSpec spec;
    spec.program = program;
    spec.kernel_name = "doubler";
    spec.args = {KernelArgValue::PartitionedBuffer(*scratch, 4),
                 KernelArgValue::Scalar<std::int32_t>(
                     static_cast<std::int32_t>(kChunkRows))};
    spec.global[0] = kChunkRows;
    spec.preferred_node = static_cast<int>(node);
    if (!cluster->runtime().SetScheduler("user").ok()) std::exit(1);
    auto result = cluster->runtime().LaunchKernel(spec);
    if (!cluster->runtime().SetScheduler("hetero_split").ok()) std::exit(1);
    if (!result.ok()) {
      std::fprintf(stderr, "calibrate node %zu: %s\n", node,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    (void)cluster->runtime().ReleaseBuffer(*scratch);
    return result->modeled_seconds / static_cast<double>(kChunkRows);
  }

  bool Doubled(std::uint64_t rows, std::int32_t factor) {
    std::vector<std::int32_t> got(rows);
    if (!cluster->runtime()
             .ReadBuffer(buffer, 0, got.data(), rows * 4)
             .ok()) {
      return false;
    }
    for (std::uint64_t i = 0; i < rows; ++i) {
      if (got[i] != factor * static_cast<std::int32_t>(i + 1)) return false;
    }
    return true;
  }
};

}  // namespace

int main() {
  // ---- 1) Straggler rescue ------------------------------------------------
  const std::vector<double> kStraggler = {0.2, 1.0, 1.0};
  double oracle = 0.0;
  double with_steal = 0.0;
  std::uint64_t stolen = 0;
  {
    Harness h = Harness::Make(kStraggler, kRows);
    double inverse_sum = 0.0;
    for (std::size_t node = 0; node < 3; ++node) {
      inverse_sum += 1.0 / h.SecondsPerRow(node);
    }
    oracle = static_cast<double>(kRows) / inverse_sum;
    ClusterRuntime::ElasticOptions options;
    options.chunk_rows = kChunkRows;
    auto result = h.cluster->runtime().LaunchElastic(h.Spec(kRows), options);
    if (!result.ok() || !h.Doubled(kRows, 2)) {
      std::fprintf(stderr, "straggler steal run failed\n");
      return 1;
    }
    with_steal = result->makespan_seconds;
    stolen = result->chunks_stolen;
  }
  double no_steal = 0.0;
  {
    Harness h = Harness::Make(kStraggler, kRows);
    ClusterRuntime::ElasticOptions options;
    options.chunk_rows = kChunkRows;
    options.stealing = false;
    auto result = h.cluster->runtime().LaunchElastic(h.Spec(kRows), options);
    if (!result.ok() || !h.Doubled(kRows, 2)) {
      std::fprintf(stderr, "straggler static run failed\n");
      return 1;
    }
    no_steal = result->makespan_seconds;
  }
  const double steal_ratio = with_steal / oracle;
  const double static_ratio = no_steal / oracle;
  std::printf("Elastic: 5x straggler, %llu rows, %llu-row chunks\n",
              static_cast<unsigned long long>(kRows),
              static_cast<unsigned long long>(kChunkRows));
  std::printf("  oracle makespan    %10.3f ms\n", oracle * 1e3);
  std::printf("  with stealing      %10.3f ms  (%.3fx oracle, %llu stolen)\n",
              with_steal * 1e3, steal_ratio,
              static_cast<unsigned long long>(stolen));
  std::printf("  static plan        %10.3f ms  (%.3fx oracle)\n",
              no_steal * 1e3, static_ratio);

  // ---- 2) Node-kill recovery ---------------------------------------------
  constexpr std::uint64_t kKillRows = 1ull << 22;
  bool kill_completed = false;
  bool bit_identical = false;
  std::uint64_t reexecuted = 0;
  {
    Harness h = Harness::Make({}, kKillRows);
    haocl::elastic::FaultInjector faults;
    faults.ScriptKill(/*node=*/1, /*after_chunks=*/2);
    ClusterRuntime::ElasticOptions options;
    options.chunk_rows = kKillRows / 16;
    options.fault_injector = &faults;
    auto result =
        h.cluster->runtime().LaunchElastic(h.Spec(kKillRows), options);
    kill_completed = result.ok() && result->dead_nodes.size() == 1;
    bit_identical = kill_completed && h.Doubled(kKillRows, 2);
    if (result.ok()) reexecuted = result->chunks_reexecuted;
  }
  std::printf("Elastic: node killed after 2 chunks\n");
  std::printf("  completed: %s, bit-identical: %s, re-executed chunks: %llu\n",
              kill_completed ? "yes" : "NO", bit_identical ? "yes" : "NO",
              static_cast<unsigned long long>(reexecuted));

  FILE* json = std::fopen("BENCH_elastic.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"straggler\": {\n"
        "    \"rows\": %llu, \"chunk_rows\": %llu, \"slow_factor\": 5.0,\n"
        "    \"oracle_ms\": %.4f, \"steal_ms\": %.4f, \"static_ms\": %.4f,\n"
        "    \"steal_vs_oracle\": %.4f, \"static_vs_oracle\": %.4f,\n"
        "    \"chunks_stolen\": %llu,\n"
        "    \"target\": \"steal_vs_oracle <= 1.15 and static_vs_oracle >="
        " 1.6\"\n"
        "  },\n"
        "  \"node_kill\": {\n"
        "    \"rows\": %llu, \"killed_node\": 1, \"after_chunks\": 2,\n"
        "    \"completed\": %s, \"bit_identical\": %s,"
        " \"chunks_reexecuted\": %llu,\n"
        "    \"target\": \"completed and bit_identical\"\n"
        "  }\n"
        "}\n",
        static_cast<unsigned long long>(kRows),
        static_cast<unsigned long long>(kChunkRows), oracle * 1e3,
        with_steal * 1e3, no_steal * 1e3, steal_ratio, static_ratio,
        static_cast<unsigned long long>(stolen),
        static_cast<unsigned long long>(kKillRows),
        kill_completed ? "true" : "false", bit_identical ? "true" : "false",
        static_cast<unsigned long long>(reexecuted));
    std::fclose(json);
    std::printf("\nwrote BENCH_elastic.json\n");
  }
  const bool pass = steal_ratio <= 1.15 && static_ratio >= 1.6 &&
                    kill_completed && bit_identical;
  if (!pass) {
    std::fprintf(stderr, "ELASTIC BENCH TARGETS MISSED\n");
    return 1;
  }
  return 0;
}
