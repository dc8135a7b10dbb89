// Shared pieces of the HaoCL benchmark: sample statistics, the span
// recorder, the metric report, and the two-daemon TCP loopback cluster the
// workloads and the layer ladder run against.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "driver/device_driver.h"
#include "host/cluster_runtime.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Sizes of one run. Tiny() shrinks every input (and the ladder's
// repetitions) for the self-check.
struct Sizes {
  std::uint64_t launch_items = 256;        // small_launch NDRange.
  int pipeline_depth = 16;                 // Launches per queue per round.
  int matmul_n = 512;                      // matmul_vm matrix order.
  std::uint64_t relay_bytes = 16ull << 20;  // buffer_relay buffer.
  bool tiny = false;
  static Sizes Tiny() {
    Sizes sizes;
    sizes.tiny = true;
    sizes.launch_items = 64;
    sizes.pipeline_depth = 4;
    sizes.matmul_n = 32;
    sizes.relay_bytes = 64ull << 10;
    return sizes;
  }
};

// OpenCL C sources the benchmark compiles. The matmul source is the
// paper workload's, taken unmodified from workloads::MakeMatrixMul().
extern const char kAdd1Source[];  // __kernel void add1(__global int* d)
std::string MatmulSource();

// One timing series.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  // Linear interpolation between closest ranks, q in [0, 1].
  [[nodiscard]] double Quantile(double q) const;
  [[nodiscard]] double Median() const { return Quantile(0.5); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

 private:
  std::vector<double> values_;
};

// In-memory span recorder. Spans are stamped with steady_clock and carry
// their parent span and the id of the operation they belong to; they are
// written out as Chrome trace-event JSON when the run ends. A disabled
// tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Starts a new operation: later top-level spans share its id.
  void BeginOp() { ++op_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
    std::size_t saved_parent_ = 0;
  };

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t parent;  // 1-based index into spans_; 0 = root.
    std::uint64_t op;
  };
  bool enabled_;
  std::uint64_t op_ = 0;
  std::size_t current_ = 0;  // 1-based index of the open span.
  std::vector<Span> spans_;
};

// Metrics in print order. Every metric is printed as
//   metric <name> <value> <unit> n=<samples>
// and selected ones go into the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void Note(const std::string& text);  // "note ..." line, not a metric.
  [[nodiscard]] double Value(const std::string& name) const;
  // {"name": {"value": v, "unit": u}, ...} over `names`, in that order.
  [[nodiscard]] std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// Two GPU-type NodeServer daemons on TCP loopback ports inside this
// process, each with a TCP peer link to the other (the mesh
// nmp::ConnectPeersFromConfig dials).
class Daemons {
 public:
  static haocl::Expected<std::unique_ptr<Daemons>> Start(std::size_t count);
  ~Daemons();
  Daemons(const Daemons&) = delete;
  Daemons& operator=(const Daemons&) = delete;

  // A runtime on fresh TCP connections to every daemon, in node order.
  haocl::Expected<std::unique_ptr<haocl::host::ClusterRuntime>> Connect(
      haocl::host::RuntimeOptions options) const;
  [[nodiscard]] haocl::nmp::NodeServer& server(std::size_t i) {
    return *servers_[i];
  }
  [[nodiscard]] std::uint16_t port(std::size_t i) const {
    return config_.nodes()[i].port;
  }

 private:
  Daemons() = default;
  haocl::ClusterConfig config_;
  std::vector<std::unique_ptr<haocl::nmp::NodeServer>> servers_;
  std::vector<std::unique_ptr<haocl::net::TcpListener>> listeners_;
};

// In-run baselines: 64 B echo over a bare TCP connection pair and a
// 16 MiB memcpy into a reused, pre-faulted buffer.
struct Calibration {
  double tcp_rtt_us = 0.0;
  double memcpy_gbps = 0.0;
};
haocl::Expected<Calibration> Calibrate();

double PeakRssMib();

// Tallies operations for the final JSON line.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Seeded matmul inputs plus the host reference, which accumulates in the
// kernel's k-order with plain float adds so C must match bit for bit.
struct MatmulInputs {
  int n = 0;
  std::vector<float> a, b, c_ref;
};
MatmulInputs MakeMatmulInputs(int n, std::uint64_t seed);

// One shard of the matmul launch driven straight through a device driver
// (no host, no wire): rows [row_begin, row_begin + rows) of C.
haocl::Status RunMatmulShard(haocl::driver::DeviceDriver& driver,
                             const haocl::oclc::Module& module,
                             const MatmulInputs& in, std::vector<float>& c,
                             std::uint64_t row_begin, std::uint64_t rows,
                             haocl::driver::LaunchProfile* profile);

// What one closed-loop measurement collected.
struct Measured {
  Samples op_us;       // Blocking launch / solve / relay round.
  Samples rate;        // small_launch: pipelined launches/s per round.
  Samples step_us[4];  // Per-step times (workload-defined).
  double elapsed_s = 0.0;
  std::uint64_t ops = 0;

  void Append(const Measured& other) {
    op_us.Append(other.op_us);
    rate.Append(other.rate);
    for (int k = 0; k < 4; ++k) step_us[k].Append(other.step_us[k]);
    elapsed_s += other.elapsed_s;
    ops += other.ops;
  }
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  // Implementations own handles on the runtime and release them in
  // Teardown().
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  // Scheduling policy the workload's runtime is connected with.
  [[nodiscard]] virtual const char* policy() const = 0;
  // Checks made once per run, outside set-up time (the VM guard).
  virtual haocl::Status Guard(Report& report) {
    (void)report;
    return haocl::Status::Ok();
  }
  // Set-up on a freshly connected runtime: build the program, create the
  // buffers and complete the first operation.
  virtual haocl::Status Setup(haocl::host::ClusterRuntime& runtime) = 0;
  // Closed loop with one client until `seconds` have passed. Every
  // operation is verified; failures count in `ops`.
  virtual Measured Measure(double seconds, Tracer& tracer, OpCount& ops) = 0;
  // Workload-named end-to-end metrics from a measurement.
  virtual void AddNamedMetrics(const Measured& m, Report& report) = 0;
  // Releases everything Setup created on the runtime.
  virtual void Teardown() = 0;
  // Plants one corrupted output byte before the next verification.
  void PlantCorruption() { corrupt_next_ = true; }

 protected:
  bool corrupt_next_ = false;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Sizes& sizes, std::uint64_t seed);

// Runs every ladder rung against `daemons` and adds its metrics (and the
// derived *.self_us values) to `report`.
void RunLadder(Daemons& daemons, const Sizes& sizes, std::uint64_t seed,
               Tracer& tracer, Report& report, OpCount& ops);

}  // namespace perfbench
