// Allocation budget of the bulk copy path.
//
// A buffer relayed host -> node 0 -> node 1 -> host over TCP loopback
// daemons (with their peer mesh), plus a migrate push node 1 -> node 0,
// should cost each hop one fresh buffer, on the receiving side of the
// socket. Every fresh multi-MiB buffer is a fresh mapping whose page
// faults dominate a bulk hop, so this test counts them: the executable
// replaces the global operator new and counts allocations of 1 MiB or more
// while each step of a steady-state round runs.
//
// Budget per 4 MiB hop, and who owns each allocation. Every sender writes
// the bytes to the socket from where they live (the host shadow, a node
// replica) as the frame's tail, so each remaining buffer is a receive
// buffer:
//   h2d: node 0's reader receives the payload in place and the consuming
//        decode keeps that storage for the write (1).
//   p2p: node 0 sends its reply out of the replica; node 1's reader
//        receives it in place and the reply is moved to the store (1).
//   d2h: node 1 sends its reply out of the replica; the host's reader
//        receives it in place and copies it into the shadow (1).
//   push (a migrate back to node 0): node 1 reads the range off its
//        replica under the session lock, then sends it without the lock
//        (1); node 0's reader receives it in place (1).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>

#include "host/cluster_runtime.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"

namespace {

constexpr std::size_t kBigAllocation = 1 << 20;
std::atomic<std::uint64_t> big_allocations{0};

void* Allocate(std::size_t size) noexcept {
  if (size >= kBigAllocation) {
    big_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateOrThrow(std::size_t size) {
  if (void* p = Allocate(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every unaligned form of the global operators, so each allocation made
// here is released by the matching free().
void* operator new(std::size_t size) { return AllocateOrThrow(size); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace haocl::host {
namespace {

constexpr char kAdd1Source[] = R"(
__kernel void add1(__global int* d) {
  int i = get_global_id(0);
  d[i] = d[i] + 1;
})";

constexpr std::uint64_t kBytes = 4 << 20;
constexpr int kMeasuredRounds = 3;

template <typename Step>
std::uint64_t CountBigAllocations(Step&& step) {
  const std::uint64_t before = big_allocations.load();
  step();
  return big_allocations.load() - before;
}

TEST(CopyBudgetTest, RelayHopsStayWithinTheirAllocationBudget) {
  std::vector<std::unique_ptr<nmp::NodeServer>> servers;
  std::vector<std::unique_ptr<net::TcpListener>> listeners;
  ClusterConfig config;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "gpu" + std::to_string(i);
    auto server = nmp::NodeServer::Create(name, NodeType::kGpu);
    ASSERT_TRUE(server.ok());
    nmp::NodeServer* raw = server->get();
    servers.push_back(*std::move(server));
    listeners.push_back(std::make_unique<net::TcpListener>(0));
    ASSERT_TRUE(listeners.back()
                    ->Start([raw](net::ConnectionPtr c) {
                      raw->Serve(std::move(c));
                    })
                    .ok());
    config.AddNode(
        {name, NodeType::kGpu, "127.0.0.1", listeners.back()->port()});
  }
  for (std::size_t i = 0; i < servers.size(); ++i) {
    ASSERT_TRUE(nmp::ConnectPeersFromConfig(*servers[i], i, config).ok());
  }
  std::vector<net::ConnectionPtr> connections;
  for (const NodeEntry& node : config.nodes()) {
    auto connection = net::TcpConnect(node.address, node.port);
    ASSERT_TRUE(connection.ok());
    connections.push_back(*std::move(connection));
  }
  auto runtime = ClusterRuntime::Connect(std::move(connections), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  ClusterRuntime& rt = **runtime;
  auto program = rt.BuildProgram(kAdd1Source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto buffer = rt.CreateBuffer(kBytes);
  ASSERT_TRUE(buffer.ok());

  auto launch_on = [&](int node) {
    ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "add1";
    spec.args = {KernelArgValue::Buffer(*buffer)};
    spec.global[0] = 1;
    spec.preferred_node = node;
    auto result = rt.LaunchKernel(spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  };
  std::vector<std::uint32_t> pattern(kBytes / 4);
  std::vector<std::uint32_t> out(kBytes / 4);
  std::mt19937 rng(7);
  // Round 0 warms up: node allocations, lazy compile, first-use buffers.
  for (int round = 0; round <= kMeasuredRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (auto& word : pattern) word = rng() >> 2;
    ASSERT_TRUE(rt.WriteBuffer(*buffer, 0, pattern.data(), kBytes).ok());
    const std::uint64_t h2d = CountBigAllocations([&] { launch_on(0); });
    const std::uint64_t p2p = CountBigAllocations([&] { launch_on(1); });
    // Node 1 holds the only fresh copy, so the migrate pushes it to node 0.
    const std::uint64_t push = CountBigAllocations([&] {
      auto migrate = rt.SubmitMigrate(*buffer, {}, /*target_node=*/0);
      ASSERT_TRUE(migrate.ok()) << migrate.status().ToString();
      EXPECT_TRUE(rt.Wait(*migrate).ok());
      EXPECT_TRUE(rt.ReleaseCommand(*migrate).ok());
    });
    const std::uint64_t d2h = CountBigAllocations([&] {
      EXPECT_TRUE(rt.ReadBuffer(*buffer, 0, out.data(), kBytes).ok());
    });
    EXPECT_EQ(out[0], pattern[0] + 2);
    EXPECT_EQ(std::memcmp(out.data() + 1, pattern.data() + 1, kBytes - 4), 0);
    if (round == 0) continue;
    EXPECT_LE(h2d, 1u);
    EXPECT_LE(p2p, 1u);
    EXPECT_LE(push, 2u);
    EXPECT_LE(d2h, 1u);
    std::printf(
        "round %d: >=1 MiB allocations h2d %llu, p2p %llu, push %llu, "
        "d2h %llu\n",
        round, static_cast<unsigned long long>(h2d),
        static_cast<unsigned long long>(p2p),
        static_cast<unsigned long long>(push),
        static_cast<unsigned long long>(d2h));
  }
  // Every byte moved node to node (a pull and a push per round), none
  // relayed through the host.
  EXPECT_EQ(rt.transfer_stats().p2p_transfers, 2u * (kMeasuredRounds + 1));
  EXPECT_EQ(rt.transfer_stats().relay_bytes, 0u);

  rt.Disconnect();
  for (auto& server : servers) server->Shutdown();
  for (auto& listener : listeners) listener->Stop();
}

}  // namespace
}  // namespace haocl::host
