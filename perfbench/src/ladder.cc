// The layer ladder: the same small operations issued at each module's
// public entry point from outside, each call wrapped in a span. A layer's
// self time is the difference of medians between adjacent rungs:
//   api.self     = api.launch - host.launch
//   host.self    = host.launch - nmp.launch_rpc
//   nmp.self     = nmp.launch_rpc - net.rpc_heartbeat - broker.slot
//                  - runtime.session_launch
//   runtime.self = runtime.session_launch - driver.add1
// All rungs run against the workload's daemons, on a runtime session of
// their own.
#include <cstdio>
#include <cstring>
#include <random>

#include "bench.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "oclc/program.h"
#include "runtime/device_session.h"
#include "sched/scheduler.h"

namespace perfbench {
namespace {

using haocl::ErrorCode;
using haocl::Expected;
using haocl::Status;
using haocl::host::ClusterRuntime;
using haocl::host::KernelArgValue;
using haocl::net::Message;
using haocl::net::MsgType;

// Session ids the ladder uses on daemon 0 beside the runtime's own.
constexpr std::uint64_t kLadderSession = 2;
constexpr std::uint64_t kRawSession = 0x5eed;
constexpr std::uint64_t kBrokerSession = 0x5eee;

class Ladder {
 public:
  Ladder(Daemons& daemons, const Sizes& sizes, std::uint64_t seed,
         Tracer& tracer, Report& report, OpCount& ops)
      : daemons_(daemons),
        sizes_(sizes),
        seed_(seed),
        tracer_(tracer),
        report_(report),
        ops_(ops),
        reps_(sizes.tiny ? 20 : 1000),
        bulk_reps_(sizes.tiny ? 3 : 15),
        phase_seconds_(sizes.tiny ? 0.2 : 1.0),
        bulk_(sizes.relay_bytes, 0) {
    std::mt19937_64 rng(seed);
    for (auto& byte : bulk_) byte = static_cast<std::uint8_t>(rng());
  }

  void Run() {
    haocl::host::RuntimeOptions options;
    options.scheduler = "user";
    options.session_id = kLadderSession;
    options.tenant_name = "perfbench-ladder";
    auto runtime = daemons_.Connect(options);
    if (!runtime.ok()) {
      Fail("ladder connect", runtime.status());
      return;
    }
    runtime_ = runtime->get();
    WorkloadRungs("small_launch", "user");
    HostRungs();
    SchedRungs();
    NetAndNodeRungs();
    BrokerRung();
    SessionRungs();
    CompileAndDriverRungs();
    WorkloadRungs("buffer_relay", "user");
    WorkloadRungs("matmul_vm", "hetero_split");
    (*runtime)->Disconnect();
    runtime_ = nullptr;

    auto self = [&](const char* name, double value) {
      report_.Add(name, value, "us", 0);
    };
    self("api.self_us", Median("api.launch_us") - Median("host.launch_us"));
    self("host.self_us", Median("host.launch_us") - Median("nmp.launch_rpc_us"));
    self("nmp.self_us", Median("nmp.launch_rpc_us") -
                            Median("net.rpc_heartbeat_us") -
                            Median("broker.slot_us") -
                            Median("runtime.session_launch_us"));
    self("runtime.self_us",
         Median("runtime.session_launch_us") - Median("driver.add1_us"));
  }

 private:
  double Median(const char* name) const { return report_.Value(name); }

  void Fail(const std::string& what, const Status& status) {
    ++ops_.attempted;
    ++ops_.failed;
    std::fprintf(stderr, "ladder %s: %s\n", what.c_str(),
                 status.ToString().c_str());
  }

  struct NoPrep {
    void operator()() const {}
  };

  // Times `reps` calls of `fn` after a few untimed warm-up calls, one span
  // per call; `prep` runs untimed before every call. Returns per-call
  // microseconds.
  template <typename Fn, typename Prep = NoPrep>
  Samples Time(const char* span, int reps, Fn&& fn, Prep prep = {}) {
    Samples us;
    const int warmup = std::max(1, reps / 20);
    for (int i = 0; i < warmup + reps; ++i) {
      prep();
      tracer_.BeginOp();
      const auto t0 = Clock::now();
      Status status = Status::Ok();
      {
        Tracer::Scope scope(&tracer_, span);
        status = fn();
      }
      const double elapsed = SecondsSince(t0) * 1e6;
      if (status.ok()) {
        ++ops_.attempted;
      } else {
        Fail(span, status);
      }
      if (i >= warmup) us.Add(elapsed);
    }
    return us;
  }

  void AddUs(const char* name, const Samples& us) {
    report_.Add(name, us.Median(), "us", us.size());
  }
  void AddMs(const char* name, const Samples& us) {
    report_.Add(name, us.Median() / 1e3, "ms", us.size());
  }
  void AddGbps(const char* name, std::uint64_t bytes, const Samples& us) {
    report_.Add(name, static_cast<double>(bytes) / (us.Median() * 1e3), "GB/s",
                us.size());
  }

  // Runs a workload briefly on the ladder's runtime: its per-step samples
  // are the api rung (small_launch), the four relay steps (buffer_relay)
  // and the 2-shard LaunchKernel (matmul_vm).
  void WorkloadRungs(const std::string& name, const char* policy) {
    if (Status s = runtime_->SetScheduler(policy); !s.ok()) {
      Fail(name, s);
      return;
    }
    auto workload = MakeWorkload(name, sizes_, seed_);
    if (Status s = workload->Setup(*runtime_); !s.ok()) {
      Fail(name + " set-up", s);
      workload->Teardown();
      return;
    }
    const haocl::host::TransferStats before = runtime_->transfer_stats();
    const Measured m = workload->Measure(phase_seconds_, tracer_, ops_);
    const haocl::host::TransferStats after = runtime_->transfer_stats();
    workload->Teardown();
    if (name == "small_launch") {
      AddUs("api.launch_us", m.op_us);
      AddUs("api.enqueue_us", m.step_us[0]);
    } else if (name == "buffer_relay") {
      const char* steps[] = {"host.write_ms", "host.h2d_ms", "host.p2p_ms",
                             "host.d2h_ms"};
      for (int k = 0; k < 4; ++k) AddMs(steps[k], m.step_us[k]);
      const double rounds = static_cast<double>(m.ops);
      auto per_round = [&](const char* metric, std::uint64_t a,
                           std::uint64_t b) {
        report_.Add(metric, static_cast<double>(b - a) / rounds, "count",
                    m.ops);
      };
      per_round("host.host_bytes_out_per_round", before.host_bytes_out,
                after.host_bytes_out);
      per_round("host.host_bytes_in_per_round", before.host_bytes_in,
                after.host_bytes_in);
      per_round("host.p2p_bytes_per_round", before.p2p_bytes,
                after.p2p_bytes);
      // With the peer mesh up no byte may be relayed through the host.
      const std::uint64_t relayed = after.relay_bytes - before.relay_bytes;
      report_.Note("host.relay_bytes_per_round " +
                   std::to_string(static_cast<double>(relayed) / rounds) +
                   " (must be 0 with the peer mesh)");
      if (relayed != 0) {
        Fail("buffer_relay", Status(ErrorCode::kInternal,
                                    "bytes relayed through the host"));
      }
    } else {
      AddMs("host.matmul_launch_ms", m.step_us[1]);
    }
  }

  // ClusterRuntime's own surface: SubmitLaunch then Wait, and a marker
  // that completes without any RPC.
  void HostRungs() {
    auto program = runtime_->BuildProgram(kAdd1Source);
    auto buffer = runtime_->CreateBuffer(sizes_.launch_items * 4);
    if (!program.ok() || !buffer.ok()) {
      Fail("host rungs", program.ok() ? buffer.status() : program.status());
      return;
    }
    std::vector<std::uint32_t> counters(sizes_.launch_items, 0);
    (void)runtime_->WriteBuffer(*buffer, 0, counters.data(),
                                counters.size() * 4);
    ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "add1";
    spec.args = {KernelArgValue::Buffer(*buffer)};
    spec.global[0] = sizes_.launch_items;
    spec.preferred_node = 0;

    Samples submit, wait;
    std::uint64_t launches = 0;
    const std::uint64_t bytes_before = runtime_->TotalBytesSent();
    Samples launch = Time("host.launch", reps_, [&]() -> Status {
      const auto t0 = Clock::now();
      Expected<haocl::host::CommandHandle> handle = [&] {
        Tracer::Scope scope(&tracer_, "host.submit");
        return runtime_->SubmitLaunch(spec);
      }();
      if (!handle.ok()) return handle.status();
      const auto t1 = Clock::now();
      Status status = Status::Ok();
      {
        Tracer::Scope scope(&tracer_, "host.wait");
        status = runtime_->Wait(*handle);
      }
      submit.Add(std::chrono::duration<double>(t1 - t0).count() * 1e6);
      wait.Add(SecondsSince(t1) * 1e6);
      (void)runtime_->ReleaseCommand(*handle);
      if (status.ok()) ++launches;
      return status;
    });
    const std::uint64_t bytes_after = runtime_->TotalBytesSent();
    AddUs("host.launch_us", launch);
    AddUs("host.submit_us", submit);
    AddUs("host.wait_us", wait);
    report_.Add("host.wire_bytes_per_launch",
                static_cast<double>(bytes_after - bytes_before) /
                    static_cast<double>(std::max<std::uint64_t>(launches, 1)),
                "count", launches);

    Status read = runtime_->ReadBuffer(*buffer, 0, counters.data(),
                                       counters.size() * 4);
    for (std::uint32_t v : counters) {
      if (!read.ok() || v != launches) {
        Fail("host.launch", Status(ErrorCode::kInternal,
                                   "counter differs from launches issued"));
        break;
      }
    }

    AddUs("host.graph_marker_us", Time("host.graph_marker", reps_, [&] {
            auto marker = runtime_->SubmitMarker();
            if (!marker.ok()) return marker.status();
            HAOCL_RETURN_IF_ERROR(runtime_->CompleteMarker(*marker));
            Status status = runtime_->Wait(*marker);
            (void)runtime_->ReleaseCommand(*marker);
            return status;
          }));
    (void)runtime_->ReleaseBuffer(*buffer);
    (void)runtime_->ReleaseProgram(*program);
  }

  // The placement policy each workload uses, on the live cluster view.
  void SchedRungs() {
    auto view = runtime_->QueryClusterView();
    if (!view.ok()) {
      Fail("sched", view.status());
      return;
    }
    haocl::sched::TaskInfo small;
    small.kernel_name = "add1";
    small.cost.flops = static_cast<double>(sizes_.launch_items);
    small.cost.bytes = static_cast<double>(sizes_.launch_items) * 8;
    small.cost.work_items = sizes_.launch_items;
    small.input_bytes = small.output_bytes = sizes_.launch_items * 4;
    small.preferred_node = 0;
    small.dim0_extent = sizes_.launch_items;
    small.replicated_bytes = sizes_.launch_items * 4;

    const double n = sizes_.matmul_n;
    haocl::sched::TaskInfo matmul;
    matmul.kernel_name = "matmul_partition";
    matmul.cost.flops = 2.0 * n * n * n;
    matmul.cost.bytes = 4.0 * matmul.cost.flops;
    matmul.cost.work_items = static_cast<std::uint64_t>(n * n);
    matmul.input_bytes = static_cast<std::uint64_t>(2 * n * n * 4);
    matmul.output_bytes = static_cast<std::uint64_t>(n * n * 4);
    matmul.dim0_extent = static_cast<std::uint64_t>(n);
    matmul.splittable = true;
    matmul.replicated_bytes = static_cast<std::uint64_t>(n * n * 4);
    matmul.bytes_per_index = static_cast<std::uint64_t>(2 * n * 4);

    struct Case {
      const char* metric;
      const char* policy;
      const haocl::sched::TaskInfo* task;
    };
    for (const Case& c : {Case{"sched.plan_us", "user", &small},
                          Case{"sched.plan_split_us", "hetero_split", &matmul}}) {
      auto policy = haocl::sched::MakePolicyByName(c.policy);
      if (!policy.ok()) {
        Fail(c.metric, policy.status());
        continue;
      }
      std::size_t shards = 0;
      AddUs(c.metric, Time("sched.plan", reps_, [&]() -> Status {
              auto plan = (*policy)->PlanLaunch(*c.task, *view);
              if (!plan.ok()) return plan.status();
              shards = plan->shards.size();
              return Status::Ok();
            }));
      if (c.task == &matmul) split_shards_ = shards;
      if (shards == 0) {
        Fail(c.metric, Status(ErrorCode::kInternal, "empty plan"));
      }
    }
  }

  static Status ReplyStatus(const Expected<Message>& reply) {
    if (!reply.ok()) return reply.status();
    if (reply->type == MsgType::kStatusReply) {
      auto decoded = haocl::net::StatusReply::Decode(reply->payload);
      if (!decoded.ok()) return decoded.status();
      if (decoded->status_code != 0) {
        return Status(static_cast<ErrorCode>(decoded->status_code),
                      decoded->message);
      }
    }
    return Status::Ok();
  }

  haocl::net::LaunchKernelRequest Add1Request() const {
    haocl::net::LaunchKernelRequest request;
    request.program_id = 1;
    request.kernel_name = "add1";
    haocl::net::WireKernelArg arg;
    arg.kind = haocl::net::WireKernelArg::Kind::kBuffer;
    arg.buffer_id = 1;
    arg.written_begin = 0;
    arg.written_end = sizes_.launch_items * 4;
    request.args = {arg};
    request.global[0] = sizes_.launch_items;
    return request;
  }

  // Bare RPC on a connection of the ladder's own to daemon 0: heartbeats
  // (answered on the receive path), kQueryLoad (through the per-connection
  // worker), then a raw session the ladder builds itself.
  void NetAndNodeRungs() {
    auto connection = haocl::net::TcpConnect("127.0.0.1", daemons_.port(0));
    if (!connection.ok()) {
      Fail("rpc connect", connection.status());
      return;
    }
    haocl::net::RpcClient rpc(*std::move(connection));
    AddUs("net.rpc_heartbeat_us", Time("net.rpc_heartbeat", reps_, [&] {
            return ReplyStatus(rpc.Call(MsgType::kHeartbeat, kRawSession, {}));
          }));
    constexpr int kInFlight = 32;
    Samples pipelined = Time("net.rpc_pipelined", reps_ / 10, [&] {
      std::vector<haocl::net::RpcClient::ReplyFuture> futures;
      for (int i = 0; i < kInFlight; ++i) {
        futures.push_back(rpc.CallAsync(MsgType::kHeartbeat, kRawSession, {}));
      }
      Status status = Status::Ok();
      for (auto& future : futures) {
        Status s = ReplyStatus(future->Wait());
        if (status.ok()) status = s;
      }
      return status;
    });
    report_.Add("net.rpc_pipelined_us", pipelined.Median() / kInFlight, "us",
                pipelined.size());

    haocl::net::WriteBufferRequest write;
    write.buffer_id = 2;
    write.data = bulk_;
    std::vector<std::uint8_t> encoded;
    AddGbps("net.encode_16m_gbps", bulk_.size(),
            Time("net.encode", bulk_reps_, [&] {
              encoded = write.Encode();
              return Status::Ok();
            }));
    AddGbps("net.decode_16m_gbps", bulk_.size(),
            Time("net.decode", bulk_reps_, [&] {
              auto decoded = haocl::net::WriteBufferRequest::Decode(encoded);
              return decoded.ok() ? Status::Ok() : decoded.status();
            }));

    AddUs("nmp.query_load_us", Time("nmp.query_load", reps_, [&] {
            auto reply = rpc.Call(MsgType::kQueryLoad, kRawSession, {});
            return reply.ok() ? Status::Ok() : reply.status();
          }));

    // Raw session: program 1 = add1, buffer 1 = counters, buffer 2 = bulk.
    haocl::net::BuildProgramRequest build{1, kAdd1Source};
    Status ready = ReplyStatus(
        rpc.Call(MsgType::kBuildProgram, kRawSession, build.Encode()));
    for (auto [id, size] : {std::pair<std::uint64_t, std::uint64_t>{
                                1, sizes_.launch_items * 4},
                            {2, bulk_.size()}}) {
      haocl::net::CreateBufferRequest create{id, size};
      if (ready.ok()) {
        ready = ReplyStatus(
            rpc.Call(MsgType::kCreateBuffer, kRawSession, create.Encode()));
      }
    }
    haocl::net::WriteBufferRequest zero;
    zero.buffer_id = 1;
    zero.data.assign(sizes_.launch_items * 4, 0);
    if (ready.ok()) {
      ready = ReplyStatus(
          rpc.Call(MsgType::kWriteBuffer, kRawSession, zero.Encode()));
    }
    if (!ready.ok()) {
      Fail("raw session", ready);
      return;
    }
    const std::vector<std::uint8_t> launch_payload = Add1Request().Encode();
    std::uint64_t launches = 0;
    AddUs("nmp.launch_rpc_us", Time("nmp.launch_rpc", reps_, [&]() -> Status {
            auto reply =
                rpc.Call(MsgType::kLaunchKernel, kRawSession, launch_payload);
            if (!reply.ok()) return reply.status();
            auto decoded = haocl::net::LaunchKernelReply::Decode(reply->payload);
            if (!decoded.ok()) return decoded.status();
            if (decoded->status_code != 0) {
              return Status(static_cast<ErrorCode>(decoded->status_code),
                            decoded->error_message);
            }
            ++launches;
            return Status::Ok();
          }));
    haocl::net::ReadBufferRequest read{1, 0, sizes_.launch_items * 4};
    auto counters = rpc.Call(MsgType::kReadBuffer, kRawSession, read.Encode());
    bool counted = counters.ok() && counters->type == MsgType::kReadReply &&
                   counters->payload.size() == sizes_.launch_items * 4;
    for (std::uint64_t i = 0; counted && i < sizes_.launch_items; ++i) {
      std::uint32_t v = 0;
      std::memcpy(&v, counters->payload.data() + i * 4, 4);
      counted = v == launches;
    }
    if (!counted) {
      Fail("nmp.launch_rpc", Status(ErrorCode::kInternal,
                                    "raw counters differ from launches"));
    }

    std::vector<std::uint8_t> payload;
    AddMs("nmp.write_rpc_16m_ms", Time("nmp.write_rpc", bulk_reps_, [&] {
            // The copy the call consumes is made outside the span.
            return ReplyStatus(rpc.Call(MsgType::kWriteBuffer, kRawSession,
                                        std::move(payload)));
          }, [&] { payload = encoded; }));
    (void)rpc.Call(MsgType::kCloseSession, kRawSession, {});
    rpc.Close();
  }

  // The broker gate daemon 0's NodeServer calls around every launch,
  // uncontended, on a tenant of the ladder's own.
  void BrokerRung() {
    haocl::broker::NodeBroker& broker = daemons_.server(0).broker();
    broker.RegisterTenant(kBrokerSession, {});
    AddUs("broker.slot_us", Time("broker.slot", reps_, [&]() -> Status {
            auto grant = broker.AcquireLaunchSlot(kBrokerSession, 1e-6);
            if (!grant.ok()) return grant.status();
            broker.CompleteLaunch(kBrokerSession, *grant, true, 1e-6,
                                  "perfbench_probe", 1.0);
            return Status::Ok();
          }));
    broker.UnregisterTenant(kBrokerSession);
  }

  // runtime::DeviceSession in-process, over a GPU driver of its own.
  void SessionRungs() {
    auto driver = haocl::driver::MakeGpuDriver();
    haocl::runtime::DeviceSession session(driver.get());
    Status ready = session.CreateBuffer(1, sizes_.launch_items * 4);
    if (ready.ok()) ready = session.CreateBuffer(2, bulk_.size());
    const auto built = session.BuildProgram(1, kAdd1Source);
    if (ready.ok() && built.status_code != 0) {
      ready = Status(ErrorCode::kBuildProgramFailure, built.build_log);
    }
    if (!ready.ok()) {
      Fail("session", ready);
      return;
    }
    const haocl::net::LaunchKernelRequest request = Add1Request();
    AddUs("runtime.session_launch_us",
          Time("runtime.session_launch", reps_, [&]() -> Status {
            const auto reply = session.LaunchKernel(request);
            if (reply.status_code != 0) {
              return Status(static_cast<ErrorCode>(reply.status_code),
                            reply.error_message);
            }
            return Status::Ok();
          }));
    AddMs("runtime.session_write_16m_ms",
          Time("runtime.session_write", bulk_reps_,
               [&] { return session.WriteBuffer(2, 0, bulk_); }));
    bool same = true;
    AddMs("runtime.session_read_16m_ms",
          Time("runtime.session_read", bulk_reps_, [&]() -> Status {
            auto data = session.ReadBuffer(2, 0, bulk_.size());
            if (!data.ok()) return data.status();
            same = same && *data == bulk_;
            return Status::Ok();
          }));
    if (!same) {
      Fail("runtime.session_read", Status(ErrorCode::kInternal,
                                          "read-back differs from write"));
    }
  }

  // The compiler, and the driver with no session around it: the 256-item
  // kernel and one hetero_split shard of the matmul.
  void CompileAndDriverRungs() {
    const std::string matmul_source = MatmulSource();
    AddMs("oclc.compile_ms", Time("oclc.compile", reps_ / 20, [&]() -> Status {
            auto matmul = haocl::oclc::Compile(matmul_source);
            if (!matmul.ok()) return matmul.status();
            auto add1 = haocl::oclc::Compile(kAdd1Source);
            return add1.ok() ? Status::Ok() : add1.status();
          }));

    auto driver = haocl::driver::MakeGpuDriver();
    std::string log;
    auto add1 = driver->Build(kAdd1Source, &log);
    auto matmul = driver->Build(matmul_source, &log);
    if (!add1.ok() || !matmul.ok()) {
      Fail("driver build", add1.ok() ? matmul.status() : add1.status());
      return;
    }
    std::vector<std::uint32_t> counters(sizes_.launch_items, 0);
    haocl::oclc::NDRange range;
    range.global[0] = sizes_.launch_items;
    const std::vector<haocl::oclc::ArgBinding> args = {
        haocl::oclc::ArgBinding::Buffer(counters.data(), counters.size() * 4)};
    haocl::driver::LaunchProfile profile;
    AddUs("driver.add1_us", Time("driver.add1", reps_, [&] {
            return driver->Launch(**add1, "add1", args, range, &profile);
          }));

    // One shard of the 2-way split, as the runtime would hand it to a node.
    const MatmulInputs in = MakeMatmulInputs(sizes_.matmul_n, seed_);
    const std::uint64_t rows =
        static_cast<std::uint64_t>(in.n) / std::max<std::size_t>(split_shards_, 1);
    std::vector<float> c(in.c_ref.size(), 0.0f);
    haocl::driver::LaunchProfile shard;
    AddMs("driver.matmul_shard_ms",
          Time("driver.matmul_shard", std::max(3, reps_ / 200), [&] {
            return RunMatmulShard(*driver, **matmul, in, c, 0, rows, &shard);
          }));
    if (std::memcmp(c.data(), in.c_ref.data(), rows * in.n * 4) != 0) {
      Fail("driver.matmul_shard",
           Status(ErrorCode::kInternal, "shard differs from the reference"));
    }
    auto count = [&](const char* name, double value) {
      report_.Add(name, value, "count", 1);
    };
    count("vm.instructions", static_cast<double>(shard.vm_instructions));
    count("vm.batch_steps", static_cast<double>(shard.vm_batch_steps));
    count("vm.fused_steps", static_cast<double>(shard.vm_fused_steps));
    count("vm.simd_steps", static_cast<double>(shard.vm_simd_steps));
    count("vm.threads_used", static_cast<double>(shard.vm_threads_used));
    report_.Note("vm.masked_steps " + std::to_string(shard.vm_masked_steps) +
                 ", vm.bailouts " + std::to_string(shard.vm_bailouts) +
                 ", driver.used_native " +
                 std::to_string(shard.used_native_binary ? 1 : 0) +
                 " (shard of " + std::to_string(rows) + " rows)");
    if (shard.used_native_binary || shard.vm_instructions == 0) {
      Fail("driver.matmul_shard",
           Status(ErrorCode::kInternal, "the shard did not run on the VM"));
    }
  }

  Daemons& daemons_;
  const Sizes& sizes_;
  std::uint64_t seed_;
  Tracer& tracer_;
  Report& report_;
  OpCount& ops_;
  const int reps_;
  const int bulk_reps_;
  const double phase_seconds_;
  std::vector<std::uint8_t> bulk_;
  ClusterRuntime* runtime_ = nullptr;
  std::size_t split_shards_ = 2;
};

}  // namespace

void RunLadder(Daemons& daemons, const Sizes& sizes, std::uint64_t seed,
               Tracer& tracer, Report& report, OpCount& ops) {
  Ladder(daemons, sizes, seed, tracer, report, ops).Run();
}

}  // namespace perfbench
