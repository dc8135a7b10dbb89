// Elastic launches on a full SimCluster: chunked dispatch bit-identity,
// straggler rescue by work stealing, scripted mid-launch node death with
// directory-driven recovery, heartbeat sweeps, and the stats plumbing.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "driver/native_registry.h"
#include "elastic/fault_injector.h"
#include "host/cluster_runtime.h"
#include "host/sim_cluster.h"

namespace haocl::host {
namespace {

constexpr char kDoubler[] = R"(
  __kernel void doubler(__global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] * 2;
  })";

// Large enough that a chunk's modeled memory time dwarfs the (unscaled)
// per-launch overhead — otherwise a 5x-slower straggler looks no slower
// and there is nothing for stealing to rescue.
constexpr int kN = 1 << 21;

// Native fast path for the doubler so multi-million-row launches do not
// crawl through the interpreter; the modeled time still comes from the
// node's (possibly speed-scaled) spec.
void RegisterNativeDoubler() {
  static bool once = [] {
    driver::NativeKernelRegistry::Instance().Register(
        "doubler", [](const std::vector<oclc::ArgBinding>& args,
                      const oclc::NDRange& range) {
          auto* data = reinterpret_cast<std::int32_t*>(args[0].data);
          const std::uint64_t limit = args[0].size / 4;
          const std::uint64_t begin = range.offset[0];
          const std::uint64_t end =
              std::min(limit, begin + range.global[0]);
          for (std::uint64_t i = begin; i < end; ++i) data[i] *= 2;
          return Status::Ok();
        });
    return true;
  }();
  (void)once;
}

// Builds the doubler launch over a freshly written buffer and returns
// (program, buffer). The caller owns the elastic options.
struct Fixture {
  std::unique_ptr<SimCluster> cluster;
  ProgramId program = 0;
  BufferId buffer = 0;

  static Fixture Make(std::vector<double> speed_factors = {}) {
    RegisterNativeDoubler();
    Fixture f;
    auto cluster = SimCluster::Create({.gpu_nodes = 3}, {},
                                      SimCluster::PeerTopology::kFullMesh,
                                      std::move(speed_factors));
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    f.cluster = *std::move(cluster);
    // LaunchElastic seeds its ledger from the session policy's plan; the
    // default "user" policy refuses to place without an explicit device.
    EXPECT_TRUE(f.cluster->runtime().SetScheduler("hetero_split").ok());
    auto program = f.cluster->runtime().BuildProgram(kDoubler);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    f.program = *program;
    auto buffer = f.cluster->runtime().CreateBuffer(kN * 4);
    EXPECT_TRUE(buffer.ok());
    f.buffer = *buffer;
    std::vector<std::int32_t> values(kN);
    std::iota(values.begin(), values.end(), 1);
    EXPECT_TRUE(f.cluster->runtime()
                    .WriteBuffer(f.buffer, 0, values.data(), kN * 4)
                    .ok());
    return f;
  }

  ClusterRuntime::LaunchSpec Spec() const {
    ClusterRuntime::LaunchSpec spec;
    spec.program = program;
    spec.kernel_name = "doubler";
    spec.args = {KernelArgValue::PartitionedBuffer(buffer, 4),
                 KernelArgValue::Scalar<std::int32_t>(kN)};
    spec.global[0] = kN;
    return spec;
  }

  // Verifies every element equals the doubled input — what a single-node
  // run produces, bit for bit.
  void ExpectDoubled() {
    std::vector<std::int32_t> got(kN);
    ASSERT_TRUE(cluster->runtime()
                    .ReadBuffer(buffer, 0, got.data(), kN * 4)
                    .ok());
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(got[i], 2 * (i + 1)) << "element " << i;
    }
  }

  // Elements that differ from the freshly written input (i + 1).
  std::size_t CountModified() {
    std::vector<std::int32_t> got(kN);
    EXPECT_TRUE(cluster->runtime()
                    .ReadBuffer(buffer, 0, got.data(), kN * 4)
                    .ok());
    std::size_t modified = 0;
    for (int i = 0; i < kN; ++i) modified += got[i] != i + 1;
    return modified;
  }
};

TEST(ElasticLaunchTest, ChunkedLaunchMatchesSingleNodeResult) {
  Fixture f = Fixture::Make();
  auto result = f.cluster->runtime().LaunchElastic(f.Spec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 3 shards x kDefaultChunksPerShard chunks each (modulo rounding).
  EXPECT_GE(result->chunks_total, 3u);
  EXPECT_GT(result->makespan_seconds, 0.0);
  EXPECT_EQ(result->dead_nodes.size(), 0u);
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, ExplicitChunkRowsRespected) {
  Fixture f = Fixture::Make();
  ClusterRuntime::ElasticOptions options;
  options.chunk_rows = kN / 16;
  auto result = f.cluster->runtime().LaunchElastic(f.Spec(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Chunks are cut per shard, so remainders add at most one chunk each.
  EXPECT_GE(result->chunks_total, 16u);
  EXPECT_LE(result->chunks_total, 16u + 3u);
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, StealingRescuesStraggler) {
  // Node 0's real silicon is 5x slower than the host's static model
  // believes, so the plan overloads it. With stealing the fast peers take
  // its tail; the makespan must beat the no-steal run decisively.
  const std::vector<double> kStraggler = {0.2, 1.0, 1.0};
  double makespan_steal = 0.0;
  std::uint64_t stolen = 0;
  {
    Fixture f = Fixture::Make(kStraggler);
    auto result = f.cluster->runtime().LaunchElastic(f.Spec());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    makespan_steal = result->makespan_seconds;
    stolen = result->chunks_stolen;
    f.ExpectDoubled();
    // The stolen-chunk count surfaces in the runtime-wide stats.
    EXPECT_EQ(f.cluster->runtime().transfer_stats().stolen_chunks, stolen);
  }
  double makespan_static = 0.0;
  {
    Fixture f = Fixture::Make(kStraggler);
    ClusterRuntime::ElasticOptions options;
    options.stealing = false;
    auto result = f.cluster->runtime().LaunchElastic(f.Spec(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    makespan_static = result->makespan_seconds;
    EXPECT_EQ(result->chunks_stolen, 0u);
    f.ExpectDoubled();
  }
  EXPECT_GT(stolen, 0u);
  EXPECT_LT(makespan_steal, makespan_static * 0.75)
      << "steal=" << makespan_steal << " static=" << makespan_static;
}

TEST(ElasticLaunchTest, ScriptedKillCompletesBitIdentical) {
  Fixture f = Fixture::Make();
  elastic::FaultInjector faults;
  faults.ScriptKill(/*node=*/1, /*after_chunks=*/2);
  ClusterRuntime::ElasticOptions options;
  options.chunk_rows = kN / 16;  // ~16 chunks: the kill lands mid-launch.
  options.fault_injector = &faults;
  auto result = f.cluster->runtime().LaunchElastic(f.Spec(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->dead_nodes.size(), 1u);
  EXPECT_EQ(result->dead_nodes[0], 1u);
  EXPECT_FALSE(f.cluster->runtime().NodeAlive(1));
  // Node 1's finished chunks were in-place writes whose only fresh copy
  // died with it: they re-ran from the host shadow's pre-image. Exactly
  // once each — a double re-run would quadruple instead of double.
  EXPECT_GE(result->chunks_reexecuted, 1u);
  f.ExpectDoubled();
  // Re-executions shipped their input rows again; the stats say so.
  EXPECT_GT(f.cluster->runtime().transfer_stats().reexec_bytes, 0u);
}

TEST(ElasticLaunchTest, KillBeforeFirstChunkRecovers) {
  Fixture f = Fixture::Make();
  elastic::FaultInjector faults;
  faults.ScriptKill(/*node=*/2, /*after_chunks=*/0);
  ClusterRuntime::ElasticOptions options;
  options.fault_injector = &faults;
  auto result = f.cluster->runtime().LaunchElastic(f.Spec(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->dead_nodes.size(), 1u);
  // Nothing completed there, so nothing re-executes — its chunks simply
  // run elsewhere for the first time.
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, DeadNodeExcludedFromLaterLaunches) {
  Fixture f = Fixture::Make();
  elastic::FaultInjector faults;
  faults.ScriptKill(1, 0);
  ClusterRuntime::ElasticOptions options;
  options.fault_injector = &faults;
  ASSERT_TRUE(f.cluster->runtime().LaunchElastic(f.Spec(), options).ok());

  // A second elastic launch (no injector) plans around the dead node.
  auto again = f.cluster->runtime().LaunchElastic(f.Spec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->dead_nodes.empty());
  // A user-directed launch onto the corpse is refused by the policy.
  ASSERT_TRUE(f.cluster->runtime().SetScheduler("user").ok());
  ClusterRuntime::LaunchSpec directed = f.Spec();
  directed.preferred_node = 1;
  auto refused = f.cluster->runtime().LaunchKernel(directed);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kNodeUnreachable);
  // Probing it fails; the others still answer.
  EXPECT_FALSE(f.cluster->runtime().ProbeNode(1).ok());
  EXPECT_TRUE(f.cluster->runtime().ProbeNode(0).ok());
}

TEST(ElasticLaunchTest, HeartbeatSweepRunsCleanly) {
  Fixture f = Fixture::Make();
  ClusterRuntime::ElasticOptions options;
  options.heartbeat = true;
  options.heartbeat_interval = std::chrono::milliseconds(0);  // Every loop.
  auto result = f.cluster->runtime().LaunchElastic(f.Spec(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->dead_nodes.empty());
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, NonSplittableKernelRejected) {
  Fixture f = Fixture::Make();
  ClusterRuntime::LaunchSpec spec = f.Spec();
  // Whole-buffer (replicated) written arg pins the launch to one node.
  spec.args[0] = KernelArgValue::Buffer(f.buffer);
  auto result = f.cluster->runtime().LaunchElastic(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidOperation);
}

TEST(ElasticLaunchTest, WindowPastBufferEndRejectedBeforeAnyChunkRuns) {
  Fixture f = Fixture::Make();
  ClusterRuntime::LaunchSpec spec = f.Spec();
  spec.global_offset[0] = kN / 2;  // [kN/2, 3kN/2) overruns the buffer.
  auto result = f.cluster->runtime().LaunchElastic(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidValue);
  EXPECT_EQ(f.CountModified(), 0u);
}

// LaunchKernel and LaunchElastic validate through one prepare step, so a
// malformed spec fails with the same code on both.
TEST(ElasticLaunchTest, MalformedSpecsFailAlikeOnBothPaths) {
  Fixture f = Fixture::Make();
  struct Case {
    const char* name;
    void (*mutate)(ClusterRuntime::LaunchSpec&);
    ErrorCode code;
  };
  const Case cases[] = {
      {"no such program",
       [](ClusterRuntime::LaunchSpec& s) { s.program += 100; },
       ErrorCode::kInvalidProgram},
      {"no such kernel",
       [](ClusterRuntime::LaunchSpec& s) { s.kernel_name = "tripler"; },
       ErrorCode::kInvalidKernelName},
      {"wrong arity",
       [](ClusterRuntime::LaunchSpec& s) { s.args.pop_back(); },
       ErrorCode::kInvalidKernelArgs},
      {"no such buffer",
       [](ClusterRuntime::LaunchSpec& s) { s.args[0].buffer += 100; },
       ErrorCode::kInvalidMemObject},
      {"zero partition stride",
       [](ClusterRuntime::LaunchSpec& s) { s.args[0].partition_stride = 0; },
       ErrorCode::kInvalidValue},
      {"window past buffer end",
       [](ClusterRuntime::LaunchSpec& s) { s.global_offset[0] = 1; },
       ErrorCode::kInvalidValue},
  };
  for (const Case& c : cases) {
    ClusterRuntime::LaunchSpec spec = f.Spec();
    c.mutate(spec);
    auto kernel = f.cluster->runtime().LaunchKernel(spec);
    auto elastic = f.cluster->runtime().LaunchElastic(spec);
    ASSERT_FALSE(kernel.ok()) << c.name;
    ASSERT_FALSE(elastic.ok()) << c.name;
    EXPECT_EQ(kernel.status().code(), c.code) << c.name;
    EXPECT_EQ(elastic.status().code(), c.code) << c.name;
  }
  EXPECT_EQ(f.CountModified(), 0u);  // Every case failed before running.
}

}  // namespace
}  // namespace haocl::host
