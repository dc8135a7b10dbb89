// The three closed-loop workloads. Each keeps one client thread; every
// operation's output is checked, and a check that fails counts the
// operations it covers as failed.
#include <cstring>
#include <random>

#include "api/hao_cl.h"
#include "api/runtime_binding.h"
#include "bench.h"

namespace perfbench {

using haocl::ErrorCode;
using haocl::Expected;
using haocl::Status;
using haocl::host::ClusterRuntime;
using haocl::host::KernelArgValue;

MatmulInputs MakeMatmulInputs(int n, std::uint64_t seed) {
  MatmulInputs in;
  in.n = n;
  const auto count = static_cast<std::size_t>(n) * n;
  in.a.resize(count);
  in.b.resize(count);
  in.c_ref.resize(count);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (float& v : in.a) v = dist(rng);
  for (float& v : in.b) v = dist(rng);
  for (int row = 0; row < n; ++row) {
    for (int col = 0; col < n; ++col) {
      float acc = 0.0f;
      for (int k = 0; k < n; ++k) {
        acc += in.a[static_cast<std::size_t>(row) * n + k] *
               in.b[static_cast<std::size_t>(k) * n + col];
      }
      in.c_ref[static_cast<std::size_t>(row) * n + col] = acc;
    }
  }
  return in;
}

Status RunMatmulShard(haocl::driver::DeviceDriver& driver,
                      const haocl::oclc::Module& module,
                      const MatmulInputs& in, std::vector<float>& c,
                      std::uint64_t row_begin, std::uint64_t rows,
                      haocl::driver::LaunchProfile* profile) {
  using haocl::oclc::ArgBinding;
  const std::uint64_t bytes = static_cast<std::uint64_t>(in.n) * in.n * 4;
  // The VM takes writable bindings; a and b are only read.
  std::vector<ArgBinding> args = {
      ArgBinding::Buffer(const_cast<float*>(in.a.data()), bytes),
      ArgBinding::Buffer(const_cast<float*>(in.b.data()), bytes),
      ArgBinding::Buffer(c.data(), bytes), ArgBinding::Int(in.n),
      ArgBinding::Int(in.n)};
  haocl::oclc::NDRange range;
  range.work_dim = 2;
  range.global[0] = rows;
  range.global[1] = static_cast<std::uint64_t>(in.n);
  range.offset[0] = row_begin;
  return driver.Launch(module, "matmul_partition", args, range, profile);
}

namespace {

Status ClStatus(cl_int code, const char* what) {
  if (code == CL_SUCCESS) return Status::Ok();
  return Status(ErrorCode::kInternal,
                std::string(what) + " returned " + std::to_string(code));
}

#define PB_CL(expr) HAOCL_RETURN_IF_ERROR(ClStatus((expr), #expr))

// ------------------------------------------------------------ small_launch
//
// Blocking phase: clEnqueueNDRangeKernel + clFinish of a 256-item
// d[i] = d[i] + 1 on the queue of the device that maps to node 0.
// Pipelined phase: `depth` non-blocking launches on each of two queues
// (nodes 0 and 1, each with its own buffer), then clFinish on both. The
// phases alternate in short blocks so both see the same drift of the box.
class SmallLaunch final : public Workload {
 public:
  SmallLaunch(const Sizes& sizes, std::uint64_t seed)
      : items_(sizes.launch_items), depth_(sizes.pipeline_depth) {
    std::mt19937_64 rng(seed);
    for (auto& init : init_) {
      init.resize(items_);
      for (auto& v : init) v = static_cast<std::uint32_t>(rng() % (1u << 20));
    }
  }
  ~SmallLaunch() override { Teardown(); }

  [[nodiscard]] const char* policy() const override { return "user"; }

  Status Setup(ClusterRuntime& runtime) override {
    haocl::api::BindRuntime(&runtime);
    cl_platform_id platform = nullptr;
    PB_CL(clGetPlatformIDs(1, &platform, nullptr));
    // Device 0 is the virtual cluster device; device 1 + i maps to node i.
    cl_device_id devices[3] = {};
    cl_uint count = 0;
    PB_CL(clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL, 3, devices, &count));
    if (count < 3) {
      return Status(ErrorCode::kInternal, "expected 3 devices");
    }
    cl_int err = CL_SUCCESS;
    context_ = clCreateContext(nullptr, count, devices, nullptr, nullptr, &err);
    PB_CL(err);
    for (int q = 0; q < 2; ++q) {
      queue_[q] = clCreateCommandQueue(context_, devices[1 + q], 0, &err);
      PB_CL(err);
      mem_[q] = clCreateBuffer(context_, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                               items_ * 4, init_[q].data(), &err);
      PB_CL(err);
    }
    const char* source = kAdd1Source;
    program_ = clCreateProgramWithSource(context_, 1, &source, nullptr, &err);
    PB_CL(err);
    PB_CL(clBuildProgram(program_, 0, nullptr, nullptr, nullptr, nullptr));
    for (int q = 0; q < 2; ++q) {
      kernel_[q] = clCreateKernel(program_, "add1", &err);
      PB_CL(err);
      PB_CL(clSetKernelArg(kernel_[q], 0, sizeof(cl_mem), &mem_[q]));
    }
    PB_CL(Launch(0));
    PB_CL(clFinish(queue_[0]));
    launched_[0] = 1;
    launched_[1] = 0;
    return Status::Ok();
  }

  Measured Measure(double seconds, Tracer& tracer, OpCount& ops) override {
    constexpr int kBlockingPerCycle = 256;
    constexpr int kRoundsPerCycle = 8;
    Measured m;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds) {
      for (int i = 0; i < kBlockingPerCycle; ++i) {
        tracer.BeginOp();
        Tracer::Scope op(&tracer, "small_launch.blocking");
        const auto t0 = Clock::now();
        cl_int err = CL_SUCCESS;
        {
          Tracer::Scope span(&tracer, "api.enqueue");
          err = Launch(0);
        }
        m.step_us[0].Add(SecondsSince(t0) * 1e6);
        if (err == CL_SUCCESS) {
          Tracer::Scope span(&tracer, "api.finish");
          err = clFinish(queue_[0]);
        }
        m.op_us.Add(SecondsSince(t0) * 1e6);
        Count(0, err, ops);
      }
      for (int r = 0; r < kRoundsPerCycle; ++r) {
        tracer.BeginOp();
        Tracer::Scope op(&tracer, "small_launch.pipelined");
        const auto t0 = Clock::now();
        for (int i = 0; i < depth_; ++i) {
          for (int q = 0; q < 2; ++q) Count(q, Launch(q), ops);
        }
        for (cl_command_queue queue : queue_) {
          if (clFinish(queue) != CL_SUCCESS) ++ops.failed;
        }
        m.rate.Add(2.0 * depth_ / SecondsSince(t0));
      }
      Verify(ops);
    }
    m.elapsed_s = SecondsSince(start);
    m.ops = m.op_us.size() + m.rate.size() * 2 * depth_;
    return m;
  }

  void AddNamedMetrics(const Measured& m, Report& report) override {
    report.Note("small_launch: " + std::to_string(items_) +
                "-item add1 per launch; pipelined rounds of " +
                std::to_string(depth_) + " launches on each of 2 queues");
    report.Add("launch_p50_us", m.op_us.Median(), "us", m.op_us.size());
    report.Add("launch_p99_us", m.op_us.Quantile(0.99), "us", m.op_us.size());
    report.Add("pipelined_launches_per_s", m.rate.Median(), "1/s",
               m.rate.size());
  }

  void Teardown() override {
    for (cl_kernel& kernel : kernel_) {
      if (kernel != nullptr) clReleaseKernel(kernel);
      kernel = nullptr;
    }
    if (program_ != nullptr) clReleaseProgram(program_);
    program_ = nullptr;
    for (int q = 0; q < 2; ++q) {
      if (mem_[q] != nullptr) clReleaseMemObject(mem_[q]);
      if (queue_[q] != nullptr) clReleaseCommandQueue(queue_[q]);
      mem_[q] = nullptr;
      queue_[q] = nullptr;
    }
    if (context_ != nullptr) {
      clReleaseContext(context_);
      haocl::api::UnbindRuntime();
    }
    context_ = nullptr;
  }

 private:
  cl_int Launch(int q) {
    const size_t global = items_;
    return clEnqueueNDRangeKernel(queue_[q], kernel_[q], 1, nullptr, &global,
                                  nullptr, 0, nullptr, nullptr);
  }

  void Count(int q, cl_int err, OpCount& ops) {
    ++ops.attempted;
    ++unchecked_;
    if (err == CL_SUCCESS) {
      ++launched_[q];
    } else {
      ++ops.failed;
    }
  }

  // Reads both counters back: each element must equal its seed value plus
  // the number of launches issued on that buffer.
  void Verify(OpCount& ops) {
    bool ok = true;
    for (int q = 0; q < 2; ++q) {
      std::vector<std::uint32_t> out(items_);
      ok &= clEnqueueReadBuffer(queue_[q], mem_[q], CL_TRUE, 0, items_ * 4,
                                out.data(), 0, nullptr, nullptr) == CL_SUCCESS;
      if (corrupt_next_ && q == 0) {
        reinterpret_cast<std::uint8_t*>(out.data())[items_ * 2] ^= 0x10;
        corrupt_next_ = false;
      }
      const auto added = static_cast<std::uint32_t>(launched_[q]);
      for (std::uint64_t i = 0; i < items_; ++i) {
        if (out[i] != init_[q][i] + added) {
          ok = false;
          init_[q][i] = out[i] - added;  // Judge later blocks on their own.
        }
      }
    }
    if (!ok) ops.failed += unchecked_;
    unchecked_ = 0;
  }

  std::uint64_t items_;
  int depth_;
  std::vector<std::uint32_t> init_[2];
  cl_context context_ = nullptr;
  cl_command_queue queue_[2] = {};
  cl_mem mem_[2] = {};
  cl_program program_ = nullptr;
  cl_kernel kernel_[2] = {};
  std::uint64_t launched_[2] = {0, 0};
  std::uint64_t unchecked_ = 0;
};

// --------------------------------------------------------------- matmul_vm
//
// The paper's MatrixMul kernel through ClusterRuntime, split into two
// shards by hetero_split. One operation: write A and B, launch, read C.
// Native kernels are never registered in this process, so the VM runs it.
class MatmulVm final : public Workload {
 public:
  MatmulVm(const Sizes& sizes, std::uint64_t seed)
      : in_(MakeMatmulInputs(sizes.matmul_n, seed)), c_(in_.c_ref.size()) {}
  ~MatmulVm() override { Teardown(); }

  [[nodiscard]] const char* policy() const override { return "hetero_split"; }

  // The VM guard: one shard driven straight through a GPU driver must run
  // on the VM (no native binary) and retire instructions.
  Status Guard(Report& report) override {
    auto driver = haocl::driver::MakeGpuDriver();
    std::string log;
    auto module = driver->Build(MatmulSource(), &log);
    if (!module.ok()) return module.status();
    haocl::driver::LaunchProfile profile;
    const std::uint64_t rows = static_cast<std::uint64_t>(in_.n) / 2;
    std::vector<float> c(in_.c_ref.size(), 0.0f);
    const auto start = Clock::now();
    HAOCL_RETURN_IF_ERROR(
        RunMatmulShard(*driver, **module, in_, c, 0, rows, &profile));
    report.Note("vm_guard used_native=" +
                std::to_string(profile.used_native_binary ? 1 : 0) +
                " vm_instructions=" + std::to_string(profile.vm_instructions) +
                " shard_ms=" + std::to_string(SecondsSince(start) * 1e3));
    if (profile.used_native_binary || profile.vm_instructions == 0) {
      return Status(ErrorCode::kInternal,
                    "matmul_vm guard: the shard did not run on the VM");
    }
    if (std::memcmp(c.data(), in_.c_ref.data(), rows * in_.n * 4) != 0) {
      return Status(ErrorCode::kInternal, "matmul_vm guard: shard mismatch");
    }
    return Status::Ok();
  }

  Status Setup(ClusterRuntime& runtime) override {
    runtime_ = &runtime;
    auto program = runtime.BuildProgram(MatmulSource());
    if (!program.ok()) return program.status();
    program_ = *program;
    for (haocl::host::BufferId* id : {&a_, &b_, &c_id_}) {
      auto buffer = runtime.CreateBuffer(Bytes());
      if (!buffer.ok()) return buffer.status();
      *id = *buffer;
    }
    Tracer off(false);
    return Solve(off, nullptr);
  }

  Measured Measure(double seconds, Tracer& tracer, OpCount& ops) override {
    Measured m;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds) {
      tracer.BeginOp();
      Tracer::Scope op(&tracer, "matmul_vm.solve");
      const auto t0 = Clock::now();
      const Status status = Solve(tracer, &m);
      m.op_us.Add(SecondsSince(t0) * 1e6);
      ++ops.attempted;
      if (!status.ok()) {
        ++ops.failed;
        std::fprintf(stderr, "matmul_vm: %s\n", status.ToString().c_str());
      }
    }
    m.elapsed_s = SecondsSince(start);
    m.ops = m.op_us.size();
    return m;
  }

  void AddNamedMetrics(const Measured& m, Report& report) override {
    const double n = in_.n;
    report.Note("matmul_vm: n=" + std::to_string(in_.n) +
                " float, 2 shards (hetero_split), local size left to the "
                "runtime");
    report.Add("matmul_gflops", 2.0 * n * n * n / (m.op_us.Median() * 1e3),
               "GFLOP/s", m.op_us.size());
    report.Add("matmul_write_ms", m.step_us[0].Median() / 1e3, "ms",
               m.step_us[0].size());
    report.Add("matmul_launch_ms", m.step_us[1].Median() / 1e3, "ms",
               m.step_us[1].size());
    report.Add("matmul_read_ms", m.step_us[2].Median() / 1e3, "ms",
               m.step_us[2].size());
  }

  void Teardown() override {
    if (runtime_ == nullptr) return;
    for (haocl::host::BufferId id : {a_, b_, c_id_}) {
      (void)runtime_->ReleaseBuffer(id);
    }
    (void)runtime_->ReleaseProgram(program_);
    runtime_ = nullptr;
  }

 private:
  [[nodiscard]] std::uint64_t Bytes() const {
    return static_cast<std::uint64_t>(in_.n) * in_.n * 4;
  }

  Status Solve(Tracer& tracer, Measured* m) {
    auto t0 = Clock::now();
    auto step = [&](int k) {
      if (m != nullptr) m->step_us[k].Add(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
    };
    {
      Tracer::Scope span(&tracer, "host.write");
      HAOCL_RETURN_IF_ERROR(runtime_->WriteBuffer(a_, 0, in_.a.data(), Bytes()));
      HAOCL_RETURN_IF_ERROR(runtime_->WriteBuffer(b_, 0, in_.b.data(), Bytes()));
    }
    step(0);
    ClusterRuntime::LaunchSpec spec;
    spec.program = program_;
    spec.kernel_name = "matmul_partition";
    const std::uint64_t row_bytes = static_cast<std::uint64_t>(in_.n) * 4;
    spec.args = {KernelArgValue::PartitionedBuffer(a_, row_bytes),
                 KernelArgValue::Buffer(b_),
                 KernelArgValue::PartitionedBuffer(c_id_, row_bytes),
                 KernelArgValue::Scalar<std::int32_t>(in_.n),
                 KernelArgValue::Scalar<std::int32_t>(in_.n)};
    spec.work_dim = 2;
    spec.global[0] = static_cast<std::uint64_t>(in_.n);
    spec.global[1] = static_cast<std::uint64_t>(in_.n);
    Expected<haocl::host::LaunchResult> result = [&] {
      Tracer::Scope span(&tracer, "host.launch");
      return runtime_->LaunchKernel(spec);
    }();
    if (!result.ok()) return result.status();
    step(1);
    {
      Tracer::Scope span(&tracer, "host.read");
      HAOCL_RETURN_IF_ERROR(runtime_->ReadBuffer(c_id_, 0, c_.data(), Bytes()));
    }
    step(2);
    if (result->shard_count != 2) {
      return Status(ErrorCode::kInternal,
                    "expected 2 shards, got " +
                        std::to_string(result->shard_count));
    }
    if (corrupt_next_) {
      reinterpret_cast<std::uint8_t*>(c_.data())[Bytes() / 2] ^= 0x01;
      corrupt_next_ = false;
    }
    if (std::memcmp(c_.data(), in_.c_ref.data(), Bytes()) != 0) {
      return Status(ErrorCode::kInternal, "C differs from the host reference");
    }
    return Status::Ok();
  }

  MatmulInputs in_;
  std::vector<float> c_;
  ClusterRuntime* runtime_ = nullptr;
  haocl::host::ProgramId program_ = 0;
  haocl::host::BufferId a_ = 0, b_ = 0, c_id_ = 0;
};

// ------------------------------------------------------------ buffer_relay
//
// One buffer moves host -> node 0 -> node 1 -> host per round: a host
// WriteBuffer of a seeded pattern, a 1-item d[0] = d[0] + 1 launch on node
// 0 (the replicated write leaves node 0 as sole owner), the same launch on
// node 1 (a kPullSlice from node 0), then ReadBuffer (a gather from node 1).
class BufferRelay final : public Workload {
 public:
  BufferRelay(const Sizes& sizes, std::uint64_t seed)
      : bytes_(sizes.relay_bytes),
        pattern_(bytes_ / 4),
        out_(bytes_ / 4, 0),
        seed_(seed) {
    std::mt19937_64 rng(seed);
    for (auto& word : pattern_) word = static_cast<std::uint32_t>(rng());
    pattern_[0] %= 1u << 30;
  }
  ~BufferRelay() override { Teardown(); }

  [[nodiscard]] const char* policy() const override { return "user"; }

  Status Setup(ClusterRuntime& runtime) override {
    runtime_ = &runtime;
    auto program = runtime.BuildProgram(kAdd1Source);
    if (!program.ok()) return program.status();
    program_ = *program;
    auto buffer = runtime.CreateBuffer(bytes_);
    if (!buffer.ok()) return buffer.status();
    buffer_ = *buffer;
    Tracer off(false);
    return Round(off, nullptr);
  }

  Measured Measure(double seconds, Tracer& tracer, OpCount& ops) override {
    Measured m;
    const auto start = Clock::now();
    while (SecondsSince(start) < seconds) {
      tracer.BeginOp();
      Tracer::Scope op(&tracer, "buffer_relay.round");
      const auto t0 = Clock::now();
      const Status status = Round(tracer, &m);
      m.op_us.Add(SecondsSince(t0) * 1e6);
      ++ops.attempted;
      if (!status.ok()) {
        ++ops.failed;
        std::fprintf(stderr, "buffer_relay: %s\n", status.ToString().c_str());
      }
    }
    m.elapsed_s = SecondsSince(start);
    m.ops = m.op_us.size();
    return m;
  }

  void AddNamedMetrics(const Measured& m, Report& report) override {
    report.Note("buffer_relay: " + std::to_string(bytes_ >> 10) +
                " KiB buffer, 3 hops per round (host->node0, node0->node1, "
                "node1->host)");
    report.Add("relay_gbps", 3.0 * bytes_ / (m.op_us.Median() * 1e3), "GB/s",
               m.op_us.size());
    report.Add("relay_round_p90_ms", m.op_us.Quantile(0.90) / 1e3, "ms",
               m.op_us.size());
    const char* steps[] = {"relay_write_ms", "relay_h2d_ms", "relay_p2p_ms",
                           "relay_d2h_ms"};
    for (int k = 0; k < 4; ++k) {
      report.Add(steps[k], m.step_us[k].Median() / 1e3, "ms",
                 m.step_us[k].size());
    }
  }

  void Teardown() override {
    if (runtime_ == nullptr) return;
    (void)runtime_->ReleaseBuffer(buffer_);
    (void)runtime_->ReleaseProgram(program_);
    runtime_ = nullptr;
  }

 private:
  // A fresh stamp in every 4 KiB page, so a stale copy anywhere fails the
  // comparison.
  void Stamp() {
    ++round_;
    for (std::size_t word = 1; word < pattern_.size(); word += 1024) {
      pattern_[word] = static_cast<std::uint32_t>(
          (seed_ * 0x9E3779B97F4A7C15ull) ^ (round_ << 20) ^ word);
    }
  }

  Status Launch(int node) {
    ClusterRuntime::LaunchSpec spec;
    spec.program = program_;
    spec.kernel_name = "add1";
    spec.args = {KernelArgValue::Buffer(buffer_)};
    spec.global[0] = 1;
    spec.preferred_node = node;
    auto result = runtime_->LaunchKernel(spec);
    return result.ok() ? Status::Ok() : result.status();
  }

  Status Round(Tracer& tracer, Measured* m) {
    Stamp();
    auto t0 = Clock::now();
    auto step = [&](int k) {
      if (m != nullptr) m->step_us[k].Add(SecondsSince(t0) * 1e6);
      t0 = Clock::now();
    };
    {
      Tracer::Scope span(&tracer, "host.write");
      HAOCL_RETURN_IF_ERROR(
          runtime_->WriteBuffer(buffer_, 0, pattern_.data(), bytes_));
    }
    step(0);
    {
      Tracer::Scope span(&tracer, "host.h2d");
      HAOCL_RETURN_IF_ERROR(Launch(0));
    }
    step(1);
    {
      Tracer::Scope span(&tracer, "host.p2p");
      HAOCL_RETURN_IF_ERROR(Launch(1));
    }
    step(2);
    {
      Tracer::Scope span(&tracer, "host.d2h");
      HAOCL_RETURN_IF_ERROR(
          runtime_->ReadBuffer(buffer_, 0, out_.data(), bytes_));
    }
    step(3);
    if (corrupt_next_) {
      reinterpret_cast<std::uint8_t*>(out_.data())[bytes_ / 2] ^= 0x01;
      corrupt_next_ = false;
    }
    if (out_[0] != pattern_[0] + 2 ||
        std::memcmp(out_.data() + 1, pattern_.data() + 1, bytes_ - 4) != 0) {
      return Status(ErrorCode::kInternal,
                    "read-back differs from the written pattern");
    }
    return Status::Ok();
  }

  std::uint64_t bytes_;
  std::vector<std::uint32_t> pattern_;
  std::vector<std::uint32_t> out_;
  std::uint64_t seed_;
  std::uint64_t round_ = 0;
  ClusterRuntime* runtime_ = nullptr;
  haocl::host::ProgramId program_ = 0;
  haocl::host::BufferId buffer_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Sizes& sizes,
                                       std::uint64_t seed) {
  if (name == "small_launch") return std::make_unique<SmallLaunch>(sizes, seed);
  if (name == "matmul_vm") return std::make_unique<MatmulVm>(sizes, seed);
  if (name == "buffer_relay") return std::make_unique<BufferRelay>(sizes, seed);
  return nullptr;
}

}  // namespace perfbench
