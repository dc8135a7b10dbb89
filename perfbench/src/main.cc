// HaoCL benchmark driver.
//
//   haocl_perfbench --workload <small_launch|matmul_vm|buffer_relay>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--tiny] [--plant-corruption] [--trace-out <path>]
//
// Starts two GPU-type NodeServer daemons on TCP loopback inside this
// process (with a TCP peer link between them), connects a ClusterRuntime
// and runs one closed-loop workload from one client thread.
//
// --trace 0 measures the end-to-end metrics: set-up (repeated, median),
// then `seconds` of operations with tracing off.
// --trace 1 runs the workload for a quarter of `seconds` untraced and a
// quarter traced (the gap is the tracing overhead), then climbs the layer
// ladder.
//
// Every output is checked. The last stdout line is one JSON object with
// "correct", "attempted", "failed" and "metrics"; the exit code is 0 only
// when every operation succeeded and verified.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// The metric sets of the final JSON line (BENCHMARK.json lists the same).
const std::vector<std::string> kEndToEnd = {
    "setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mib"};
const std::vector<std::string> kPerLayer = {
    "calib.tcp_rtt_us",        "calib.memcpy_gbps",
    "trace.overhead_pct",      "api.launch_us",
    "api.enqueue_us",          "api.self_us",
    "host.launch_us",          "host.submit_us",
    "host.wait_us",            "host.self_us",
    "host.graph_marker_us",    "host.wire_bytes_per_launch",
    "host.write_ms",           "host.h2d_ms",
    "host.p2p_ms",             "host.d2h_ms",
    "host.host_bytes_out_per_round", "host.host_bytes_in_per_round",
    "host.p2p_bytes_per_round", "host.matmul_launch_ms",
    "sched.plan_us",           "sched.plan_split_us",
    "net.rpc_heartbeat_us",    "net.rpc_pipelined_us",
    "net.encode_16m_gbps",     "net.decode_16m_gbps",
    "nmp.query_load_us",       "nmp.launch_rpc_us",
    "nmp.self_us",             "nmp.write_rpc_16m_ms",
    "broker.slot_us",          "runtime.session_launch_us",
    "runtime.self_us",         "runtime.session_write_16m_ms",
    "runtime.session_read_16m_ms", "oclc.compile_ms",
    "driver.add1_us",          "driver.matmul_shard_ms",
    "vm.instructions",         "vm.batch_steps",
    "vm.fused_steps",          "vm.simd_steps",
    "vm.threads_used"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool plant_corruption = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--plant-corruption") {
      args.plant_corruption = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(v);
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

// The workload's cluster: daemons plus the runtime connected to them.
struct Cluster {
  std::unique_ptr<Daemons> daemons;
  std::unique_ptr<haocl::host::ClusterRuntime> runtime;

  void Close(Workload& workload) {
    workload.Teardown();
    if (runtime != nullptr) runtime->Disconnect();
    runtime.reset();
  }
};

// Starts the daemons, connects, and runs the workload's set-up; returns
// the wall time of all of it.
haocl::Expected<double> SetUp(Workload& workload, Cluster& cluster) {
  const auto start = Clock::now();
  auto daemons = Daemons::Start(2);
  if (!daemons.ok()) return daemons.status();
  cluster.daemons = *std::move(daemons);
  haocl::host::RuntimeOptions options;
  options.scheduler = workload.policy();
  options.tenant_name = "perfbench";
  auto runtime = cluster.daemons->Connect(options);
  if (!runtime.ok()) return runtime.status();
  cluster.runtime = *std::move(runtime);
  HAOCL_RETURN_IF_ERROR(workload.Setup(*cluster.runtime));
  return SecondsSince(start);
}

// The generic metrics every workload reports. The p90 is printed but is
// not a JSON metric: on a shared 4-vCPU machine its run-to-run spread is
// wider than any bound a regression gate could use.
void AddOpMetrics(const Args& args, const Measured& m, Report& report) {
  const bool launch = args.workload == "small_launch";
  report.Note(std::string("op = ") +
              (launch                           ? "one blocking launch"
               : args.workload == "matmul_vm" ? "one solve"
                                                : "one relay round") +
              "; " + std::to_string(m.op_us.size() / 10) +
              " samples lie beyond op_p90_ms");
  report.Add("op_p50_ms", m.op_us.Median() / 1e3, "ms", m.op_us.size());
  report.Add("op_p90_ms", m.op_us.Quantile(0.90) / 1e3, "ms",
             m.op_us.size());
  if (launch) {
    report.Add("ops_per_s", m.rate.Median(), "1/s", m.rate.size());
  } else {
    report.Add("ops_per_s", static_cast<double>(m.ops) / m.elapsed_s, "1/s",
               m.ops);
  }
}

int Run(const Args& args) {
  const Sizes sizes = args.tiny ? Sizes::Tiny() : Sizes();
  auto workload = MakeWorkload(args.workload, sizes, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  OpCount ops;
  std::printf("workload %s seed %llu seconds %g trace %d%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace, args.tiny ? " tiny" : "");
  std::printf("sizes launch_items=%llu matmul_n=%d relay_bytes=%llu; "
              "client threads=1, daemons=2 (gpu, TCP loopback)\n",
              static_cast<unsigned long long>(sizes.launch_items),
              sizes.matmul_n,
              static_cast<unsigned long long>(sizes.relay_bytes));

  bool correct = true;
  if (haocl::Status guard = workload->Guard(report); !guard.ok()) {
    std::fprintf(stderr, "%s\n", guard.ToString().c_str());
    correct = false;
  }

  // Set-up runs on fresh daemons every time and its median is reported.
  // The untraced run measures on `clusters` daemon sets in turn, pooling
  // the samples: where the kernel happens to place one set of daemon
  // threads moves the launch latency by tens of percent, and several sets
  // keep that luck from deciding a run. Before each set, set-up alone is
  // repeated (at least 3 times and for a quarter second, at most 25), so
  // the set-up samples are spread over the whole run and one burst of
  // load on the shared machine cannot decide their median.
  const bool untraced_run = args.trace == 0;
  const bool repeat_setups = untraced_run && !args.tiny;
  const int clusters = repeat_setups ? 4 : 1;
  Samples setup_s;
  Measured m;
  Tracer untraced(false);
  Cluster cluster;
  auto set_up = [&]() -> bool {
    cluster.Close(*workload);
    cluster.daemons.reset();
    auto seconds = SetUp(*workload, cluster);
    if (!seconds.ok()) {
      std::fprintf(stderr, "set-up: %s\n", seconds.status().ToString().c_str());
      cluster.Close(*workload);
      return false;
    }
    setup_s.Add(*seconds);
    return true;
  };
  std::string cluster_p50s;
  for (int c = 0; c < clusters; ++c) {
    const auto start = Clock::now();
    for (int n = 0; repeat_setups && (n < 3 || (SecondsSince(start) < 0.25 &&
                                                n < 25));
         ++n) {
      if (!set_up()) return 1;
    }
    if (!set_up()) return 1;
    if (args.plant_corruption) workload->PlantCorruption();
    if (untraced_run) {
      const Measured part =
          workload->Measure(args.seconds / clusters, untraced, ops);
      cluster_p50s += " " + std::to_string(part.op_us.Median() / 1e3);
      m.Append(part);
    }
  }

  Tracer tracer(args.trace == 1);
  if (args.trace == 0) {
    cluster.Close(*workload);
    report.Add("setup_s", setup_s.Median(), "s", setup_s.size());
    report.Note("op p50 per daemon set (ms):" + cluster_p50s);
    AddOpMetrics(args, m, report);
    workload->AddNamedMetrics(m, report);
  } else {
    const Measured plain = workload->Measure(args.seconds / 4, untraced, ops);
    const Measured traced = workload->Measure(args.seconds / 4, tracer, ops);
    cluster.Close(*workload);
    const double overhead =
        (traced.op_us.Median() / plain.op_us.Median() - 1.0) * 100.0;
    report.Note("tracing overhead on " + args.workload + ": op p50 " +
                std::to_string(plain.op_us.Median()) + " us untraced vs " +
                std::to_string(traced.op_us.Median()) + " us traced");
    report.Add("trace.overhead_pct", overhead, "%", traced.op_us.size());
    RunLadder(*cluster.daemons, sizes, args.seed, tracer, report, ops);
  }
  cluster.daemons.reset();

  report.Add("error_frac",
             ops.attempted == 0 ? 1.0
                                : static_cast<double>(ops.failed) /
                                      static_cast<double>(ops.attempted),
             "ratio", ops.attempted);
  // Read before the calibration, whose 32 MiB of memcpy buffers would
  // otherwise set the peak of the small workloads.
  const double peak_rss_mib = PeakRssMib();
  auto calibration = Calibrate();
  if (!calibration.ok()) {
    std::fprintf(stderr, "calibration: %s\n",
                 calibration.status().ToString().c_str());
    return 1;
  }
  report.Add("calib.tcp_rtt_us", calibration->tcp_rtt_us, "us", 400);
  report.Add("calib.memcpy_gbps", calibration->memcpy_gbps, "GB/s", 15);
  report.Add("peak_rss_mib", peak_rss_mib, "MiB", 1);
  if (tracer.enabled() && !args.trace_out.empty()) {
    if (tracer.WriteChromeJson(args.trace_out)) {
      report.Note("wrote " + std::to_string(tracer.span_count()) +
                  " spans to " + args.trace_out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  ops.failed = std::min(ops.failed, ops.attempted);
  correct = correct && ops.failed == 0 && ops.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(ops.attempted),
      static_cast<unsigned long long>(ops.failed),
      report.Json(args.trace == 0 ? kEndToEnd : kPerLayer).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--plant-corruption] "
                 "[--trace-out <path>]\n",
                 argv[0]);
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  // glibc adapts its mmap threshold to the sizes freed so far, so whether a
  // multi-MiB transfer buffer is a fresh, page-faulting mapping or recycled
  // heap memory depends on the process's allocation history: with the
  // adaptive threshold a 16 MiB relay round varies between ~85 and ~165 ms
  // from one process to the next. Pinning the threshold at glibc's initial
  // value (128 KiB) makes every large buffer a fresh mapping in every run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  return perfbench::Run(args);
}
