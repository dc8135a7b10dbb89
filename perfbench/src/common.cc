#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "bench.h"
#include "workloads/workload.h"

namespace perfbench {

using haocl::ErrorCode;
using haocl::Expected;
using haocl::Status;

const char kAdd1Source[] = R"(
__kernel void add1(__global int* d) {
  int i = get_global_id(0);
  d[i] = d[i] + 1;
}
)";

std::string MatmulSource() {
  return haocl::workloads::MakeMatrixMul()->kernel_source();
}

// ------------------------------------------------------------------ Samples

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - std::floor(rank));
}

// ------------------------------------------------------------------- Tracer

namespace {
std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  saved_parent_ = tracer_->current_;
  tracer_->spans_.push_back({name, NowNs(), 0, saved_parent_, tracer_->op_});
  index_ = tracer_->spans_.size();
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_ - 1].end_ns = NowNs();
  tracer_->current_ = saved_parent_;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%zu,\"op\":%llu}}",
                 i == 0 ? "" : ",", s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i + 1, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

// ------------------------------------------------------------------- Report

void Report::Add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit});
  std::printf("metric %-34s %14.6f %-8s n=%zu\n", name.c_str(), value,
              unit.c_str(), samples);
}

void Report::Note(const std::string& text) {
  std::printf("note %s\n", text.c_str());
}

double Report::Value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::string json = "{";
  for (const std::string& name : names) {
    for (const Metric& m : metrics_) {
      if (m.name != name) continue;
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", m.value);
      if (json.size() > 1) json += ", ";
      json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
              m.unit + "\"}";
      break;
    }
  }
  return json + "}";
}

// ------------------------------------------------------------------ Daemons

Expected<std::unique_ptr<Daemons>> Daemons::Start(std::size_t count) {
  std::unique_ptr<Daemons> daemons(new Daemons());
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = "gpu" + std::to_string(i);
    auto server = haocl::nmp::NodeServer::Create(name, haocl::NodeType::kGpu);
    if (!server.ok()) return server.status();
    haocl::nmp::NodeServer* raw = server->get();
    daemons->servers_.push_back(*std::move(server));
    auto listener = std::make_unique<haocl::net::TcpListener>(0);
    Status started = listener->Start([raw](haocl::net::ConnectionPtr c) {
      raw->Serve(std::move(c));
    });
    if (!started.ok()) return started;
    daemons->config_.AddNode(
        {name, haocl::NodeType::kGpu, "127.0.0.1", listener->port()});
    daemons->listeners_.push_back(std::move(listener));
  }
  for (std::size_t i = 0; i < count; ++i) {
    Status linked = haocl::nmp::ConnectPeersFromConfig(*daemons->servers_[i],
                                                       i, daemons->config_);
    if (!linked.ok()) return linked;
  }
  return daemons;
}

Daemons::~Daemons() {
  for (auto& server : servers_) server->Shutdown();
  for (auto& listener : listeners_) listener->Stop();
}

Expected<std::unique_ptr<haocl::host::ClusterRuntime>> Daemons::Connect(
    haocl::host::RuntimeOptions options) const {
  std::vector<haocl::net::ConnectionPtr> connections;
  for (const haocl::NodeEntry& node : config_.nodes()) {
    auto connection = haocl::net::TcpConnect(node.address, node.port);
    if (!connection.ok()) return connection.status();
    connections.push_back(*std::move(connection));
  }
  return haocl::host::ClusterRuntime::Connect(std::move(connections),
                                              std::move(options));
}

// -------------------------------------------------------------- Calibration

namespace {

Expected<double> TcpEchoRttUs() {
  using haocl::net::ConnectionPtr;
  using haocl::net::Message;
  // Declared before the listener so accepted connections outlive its
  // accept thread.
  std::mutex accepted_mutex;
  std::vector<ConnectionPtr> accepted;
  haocl::net::TcpListener listener(0);
  Status started = listener.Start([&](ConnectionPtr connection) {
    haocl::net::Connection* raw = connection.get();
    raw->Start([raw](Message message) { (void)raw->Send(message); });
    std::lock_guard<std::mutex> lock(accepted_mutex);
    accepted.push_back(std::move(connection));
  });
  if (!started.ok()) return started;

  std::mutex mutex;
  std::condition_variable arrived;
  std::uint64_t received = 0;
  auto client = haocl::net::TcpConnect("127.0.0.1", listener.port());
  if (!client.ok()) return client.status();
  (*client)->Start([&](Message) {
    std::lock_guard<std::mutex> lock(mutex);
    ++received;
    arrived.notify_one();
  });
  Message ping;
  ping.type = haocl::net::MsgType::kHeartbeat;
  ping.payload.assign(64 - Message::kHeaderSize, 0x5a);
  constexpr int kWarmup = 50;
  constexpr int kRounds = 400;
  Samples rtt;
  Status status = Status::Ok();
  for (int i = 0; i < kWarmup + kRounds && status.ok(); ++i) {
    const auto start = Clock::now();
    ping.seq = static_cast<std::uint64_t>(i + 1);
    status = (*client)->Send(ping);
    std::unique_lock<std::mutex> lock(mutex);
    if (status.ok() &&
        !arrived.wait_for(lock, std::chrono::seconds(5), [&] {
          return received == static_cast<std::uint64_t>(i + 1);
        })) {
      status = Status(ErrorCode::kNodeUnreachable, "echo timed out");
    }
    if (i >= kWarmup) rtt.Add(SecondsSince(start) * 1e6);
  }
  (*client)->Close();
  listener.Stop();
  std::lock_guard<std::mutex> lock(accepted_mutex);
  for (auto& connection : accepted) connection->Close();
  if (!status.ok()) return status;
  return rtt.Median();
}

double MemcpyGbps() {
  constexpr std::size_t kBytes = 16ull << 20;
  std::vector<std::uint8_t> src(kBytes, 0x3c);
  std::vector<std::uint8_t> dst(kBytes, 0);  // Pre-faulted, reused.
  Samples gbps;
  for (int i = 0; i < 16; ++i) {
    const auto start = Clock::now();
    std::memcpy(dst.data(), src.data(), kBytes);
    asm volatile("" : : "r"(dst.data()) : "memory");
    const double seconds = SecondsSince(start);
    if (i > 0) gbps.Add(static_cast<double>(kBytes) / seconds / 1e9);
  }
  return gbps.Median();
}

}  // namespace

Expected<Calibration> Calibrate() {
  Calibration calibration;
  auto rtt = TcpEchoRttUs();
  if (!rtt.ok()) return rtt.status();
  calibration.tcp_rtt_us = *rtt;
  calibration.memcpy_gbps = MemcpyGbps();
  return calibration;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
