// DeviceSession: the node-local execution engine, driven without any
// networking (the NMP wraps exactly this surface).
#include "runtime/device_session.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "driver/icd.h"

namespace haocl::runtime {
namespace {

class DeviceSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto driver = driver::IcdRegistry::Instance().Create(NodeType::kGpu);
    ASSERT_TRUE(driver.ok());
    driver_ = *std::move(driver);
    session_ = std::make_unique<DeviceSession>(driver_.get());
  }

  std::unique_ptr<driver::DeviceDriver> driver_;
  std::unique_ptr<DeviceSession> session_;
};

TEST_F(DeviceSessionTest, BufferLifecycle) {
  ASSERT_TRUE(session_->CreateBuffer(1, 64).ok());
  EXPECT_EQ(session_->buffer_count(), 1u);

  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(session_->WriteBuffer(1, 0, data).ok());
  auto read = session_->ReadBuffer(1, 0, 64);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);

  // Partial read/write with offsets.
  ASSERT_TRUE(session_->WriteBuffer(1, 60, {9, 9, 9, 9}).ok());
  auto tail = session_->ReadBuffer(1, 60, 4);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, (std::vector<std::uint8_t>{9, 9, 9, 9}));

  ASSERT_TRUE(session_->ReleaseBuffer(1).ok());
  EXPECT_EQ(session_->buffer_count(), 0u);
  EXPECT_FALSE(session_->ReleaseBuffer(1).ok());
}

TEST_F(DeviceSessionTest, BufferErrors) {
  EXPECT_EQ(session_->CreateBuffer(1, 0).code(),
            ErrorCode::kInvalidBufferSize);
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());
  EXPECT_FALSE(session_->CreateBuffer(1, 16).ok());  // Duplicate id.
  EXPECT_EQ(session_->WriteBuffer(2, 0, {1}).code(),
            ErrorCode::kInvalidMemObject);
  EXPECT_EQ(session_->WriteBuffer(1, 15, {1, 2}).code(),
            ErrorCode::kInvalidValue);  // Past the end.
  EXPECT_FALSE(session_->ReadBuffer(1, 8, 9).ok());
}

TEST_F(DeviceSessionTest, CopyBuffer) {
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());
  ASSERT_TRUE(session_->CreateBuffer(2, 16).ok());
  ASSERT_TRUE(session_->WriteBuffer(1, 0, {1, 2, 3, 4}).ok());
  net::CopyBufferRequest copy;
  copy.src_buffer_id = 1;
  copy.dst_buffer_id = 2;
  copy.src_offset = 0;
  copy.dst_offset = 8;
  copy.size = 4;
  ASSERT_TRUE(session_->CopyBuffer(copy).ok());
  auto read = session_->ReadBuffer(2, 8, 4);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<std::uint8_t>{1, 2, 3, 4}));

  copy.size = 100;
  EXPECT_FALSE(session_->CopyBuffer(copy).ok());
}

// The visitor sees the replica's own bytes, under the session lock; a bad
// range or buffer never reaches it, and its status is the call's.
TEST_F(DeviceSessionTest, VisitBufferLendsTheReplicaInPlace) {
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());
  ASSERT_TRUE(session_->WriteBuffer(1, 4, {1, 2, 3, 4}).ok());
  const std::uint8_t* first = nullptr;
  std::vector<std::uint8_t> seen;
  ASSERT_TRUE(session_
                  ->VisitBuffer(1, 4, 4,
                                [&](std::span<const std::uint8_t> bytes) {
                                  first = bytes.data();
                                  seen.assign(bytes.begin(), bytes.end());
                                  return Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  // The same bytes again: the span points into the replica, not a copy.
  ASSERT_TRUE(session_
                  ->VisitBuffer(1, 0, 16,
                                [&](std::span<const std::uint8_t> bytes) {
                                  EXPECT_EQ(bytes.data() + 4, first);
                                  return Status::Ok();
                                })
                  .ok());

  int visits = 0;
  auto count = [&visits](std::span<const std::uint8_t>) {
    ++visits;
    return Status::Ok();
  };
  constexpr std::uint64_t kWrap = ~std::uint64_t{0} - 7;
  EXPECT_EQ(session_->VisitBuffer(2, 0, 4, count).code(),
            ErrorCode::kInvalidMemObject);
  EXPECT_EQ(session_->VisitBuffer(1, 8, 9, count).code(),
            ErrorCode::kInvalidValue);
  EXPECT_EQ(session_->VisitBuffer(1, kWrap, 16, count).code(),
            ErrorCode::kInvalidValue);
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(session_
                ->VisitBuffer(1, 0, 4,
                              [](std::span<const std::uint8_t>) {
                                return Status(ErrorCode::kNetworkError,
                                              "send failed");
                              })
                .code(),
            ErrorCode::kNetworkError);
}

// offset + size wraps for these offsets: a sum-based bounds check passes
// them and touches the bytes just before the allocation.
TEST_F(DeviceSessionTest, WrappingRangesRejected) {
  constexpr std::uint64_t kWrap = ~std::uint64_t{0} - 7;  // 2^64 - 8.
  ASSERT_TRUE(session_->CreateBuffer(1, 1024).ok());
  ASSERT_TRUE(session_->CreateBuffer(2, 1024).ok());
  EXPECT_EQ(session_->ReadBuffer(1, kWrap, 16).code(),
            ErrorCode::kInvalidValue);
  EXPECT_EQ(session_->WriteBuffer(1, kWrap, std::vector<std::uint8_t>(16))
                .code(),
            ErrorCode::kInvalidValue);

  net::CopyBufferRequest copy{1, 2, 0, 0, 16};
  copy.src_offset = kWrap;
  EXPECT_EQ(session_->CopyBuffer(copy).code(), ErrorCode::kInvalidValue);
  copy.src_offset = 0;
  copy.dst_offset = kWrap;
  EXPECT_EQ(session_->CopyBuffer(copy).code(), ErrorCode::kInvalidValue);

  net::MemoryNoticeRequest notice{1, true, {{kWrap, 16}}};
  EXPECT_EQ(session_->MemoryNotice(notice).code(), ErrorCode::kInvalidValue);

  int fetches = 0;
  auto fetch = [&fetches](std::uint32_t, std::uint64_t, std::uint64_t,
                          std::uint64_t size)
      -> Expected<std::vector<std::uint8_t>> {
    ++fetches;
    return std::vector<std::uint8_t>(size);
  };
  net::PullSliceRequest pull{1, kWrap, 16, 0};
  EXPECT_EQ(session_->PullSlice(pull, fetch).code(), ErrorCode::kInvalidValue);
  EXPECT_EQ(fetches, 0);
  EXPECT_EQ(session_->resident_bytes(), 0u);
}

TEST_F(DeviceSessionTest, PullSliceStoresPeerBytes) {
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());
  net::PullSliceRequest pull;
  pull.buffer_id = 1;
  pull.offset = 4;
  pull.size = 4;
  pull.source_node = 2;
  int fetches = 0;
  auto fetch = [&fetches](std::uint32_t peer, std::uint64_t buffer,
                          std::uint64_t offset, std::uint64_t size)
      -> Expected<std::vector<std::uint8_t>> {
    ++fetches;
    EXPECT_EQ(peer, 2u);
    EXPECT_EQ(buffer, 1u);
    EXPECT_EQ(offset, 4u);
    EXPECT_EQ(size, 4u);
    return std::vector<std::uint8_t>{9, 8, 7, 6};
  };
  ASSERT_TRUE(session_->PullSlice(pull, fetch).ok());
  EXPECT_EQ(fetches, 1);
  auto read = session_->ReadBuffer(1, 4, 4);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, (std::vector<std::uint8_t>{9, 8, 7, 6}));

  // Out-of-range and missing-buffer pulls fail BEFORE fetching from the
  // peer; fetch failures and short slices propagate.
  pull.offset = 14;
  EXPECT_EQ(session_->PullSlice(pull, fetch).code(),
            ErrorCode::kInvalidValue);
  pull.buffer_id = 99;
  pull.offset = 0;
  EXPECT_EQ(session_->PullSlice(pull, fetch).code(),
            ErrorCode::kInvalidMemObject);
  EXPECT_EQ(fetches, 1);
  pull.buffer_id = 1;
  auto unreachable = [](std::uint32_t, std::uint64_t, std::uint64_t,
                        std::uint64_t) -> Expected<std::vector<std::uint8_t>> {
    return Status(ErrorCode::kPeerUnreachable, "no link");
  };
  EXPECT_EQ(session_->PullSlice(pull, unreachable).code(),
            ErrorCode::kPeerUnreachable);
  auto truncated = [](std::uint32_t, std::uint64_t, std::uint64_t,
                      std::uint64_t) -> Expected<std::vector<std::uint8_t>> {
    return std::vector<std::uint8_t>{1};
  };
  EXPECT_EQ(session_->PullSlice(pull, truncated).code(),
            ErrorCode::kProtocolError);
}

TEST_F(DeviceSessionTest, PushSliceSendsLocalBytes) {
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());
  ASSERT_TRUE(session_->WriteBuffer(1, 8, {5, 6, 7, 8}).ok());
  net::PushSliceRequest push;
  push.buffer_id = 1;
  push.offset = 8;
  push.size = 4;
  push.target_node = 1;
  std::vector<std::uint8_t> stored;
  auto store = [&stored](std::uint32_t peer, std::uint64_t buffer,
                         std::uint64_t offset,
                         std::vector<std::uint8_t> data) {
    EXPECT_EQ(peer, 1u);
    EXPECT_EQ(buffer, 1u);
    EXPECT_EQ(offset, 8u);
    stored = std::move(data);
    return Status::Ok();
  };
  ASSERT_TRUE(session_->PushSlice(push, store).ok());
  EXPECT_EQ(stored, (std::vector<std::uint8_t>{5, 6, 7, 8}));

  push.buffer_id = 99;
  EXPECT_EQ(session_->PushSlice(push, store).code(),
            ErrorCode::kInvalidMemObject);
  push.buffer_id = 1;
  push.offset = 14;
  EXPECT_FALSE(session_->PushSlice(push, store).ok());
  auto rejecting = [](std::uint32_t, std::uint64_t, std::uint64_t,
                      std::vector<std::uint8_t>) {
    return Status(ErrorCode::kPeerUnreachable, "no link");
  };
  push.offset = 0;
  EXPECT_EQ(session_->PushSlice(push, rejecting).code(),
            ErrorCode::kPeerUnreachable);
}

TEST_F(DeviceSessionTest, BuildAndLaunch) {
  auto build = session_->BuildProgram(5, R"(
    __kernel void doubler(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = data[i] * 2;
    })");
  ASSERT_EQ(build.status_code, 0) << build.build_log;
  ASSERT_EQ(build.kernel_names, std::vector<std::string>{"doubler"});

  const int n = 100;
  ASSERT_TRUE(session_->CreateBuffer(1, n * 4).ok());
  std::vector<std::uint8_t> bytes(n * 4);
  std::vector<std::int32_t> values(n);
  for (int i = 0; i < n; ++i) values[i] = i;
  std::memcpy(bytes.data(), values.data(), bytes.size());
  ASSERT_TRUE(session_->WriteBuffer(1, 0, bytes).ok());

  net::LaunchKernelRequest launch;
  launch.program_id = 5;
  launch.kernel_name = "doubler";
  net::WireKernelArg buffer_arg;
  buffer_arg.kind = net::WireKernelArg::Kind::kBuffer;
  buffer_arg.buffer_id = 1;
  net::WireKernelArg scalar_arg;
  scalar_arg.kind = net::WireKernelArg::Kind::kScalar;
  scalar_arg.scalar_bytes.resize(4);
  std::memcpy(scalar_arg.scalar_bytes.data(), &n, 4);
  launch.args = {buffer_arg, scalar_arg};
  launch.work_dim = 1;
  launch.global[0] = 128;

  auto reply = session_->LaunchKernel(launch);
  ASSERT_EQ(reply.status_code, 0) << reply.error_message;
  EXPECT_GT(reply.modeled_seconds, 0.0);
  EXPECT_GT(reply.modeled_joules, 0.0);

  auto read = session_->ReadBuffer(1, 0, n * 4);
  ASSERT_TRUE(read.ok());
  std::memcpy(values.data(), read->data(), read->size());
  for (int i = 0; i < n; ++i) ASSERT_EQ(values[i], 2 * i);

  EXPECT_EQ(session_->Load().kernels_executed, 1u);
}

TEST_F(DeviceSessionTest, BuildFailureCarriesLog) {
  auto build = session_->BuildProgram(1, "__kernel void broken( {");
  EXPECT_NE(build.status_code, 0);
  EXPECT_FALSE(build.build_log.empty());
  EXPECT_EQ(session_->program_count(), 0u);
}

TEST_F(DeviceSessionTest, LaunchErrors) {
  auto build = session_->BuildProgram(1, R"(
    __kernel void k(__global int* data, int n) { data[0] = n; })");
  ASSERT_EQ(build.status_code, 0);

  net::LaunchKernelRequest launch;
  launch.program_id = 99;  // No such program.
  launch.kernel_name = "k";
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidProgram));

  launch.program_id = 1;
  launch.kernel_name = "missing";
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidKernelName));

  launch.kernel_name = "k";
  launch.args = {};  // Wrong arity.
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidKernelArgs));

  // Dangling buffer id.
  net::WireKernelArg buffer_arg;
  buffer_arg.kind = net::WireKernelArg::Kind::kBuffer;
  buffer_arg.buffer_id = 42;
  net::WireKernelArg scalar_arg;
  scalar_arg.kind = net::WireKernelArg::Kind::kScalar;
  scalar_arg.scalar_bytes.resize(4);
  launch.args = {buffer_arg, scalar_arg};
  launch.global[0] = 1;
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidMemObject));

  // Wrong scalar width.
  ASSERT_TRUE(session_->CreateBuffer(42, 16).ok());
  scalar_arg.scalar_bytes.resize(2);
  launch.args = {buffer_arg, scalar_arg};
  EXPECT_EQ(session_->LaunchKernel(launch).status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidArgSize));
}

TEST_F(DeviceSessionTest, ScalarSignExtension) {
  auto build = session_->BuildProgram(1, R"(
    __kernel void store(__global long* out, int v, char c) {
      out[0] = v;
      out[1] = c;
    })");
  ASSERT_EQ(build.status_code, 0) << build.build_log;
  ASSERT_TRUE(session_->CreateBuffer(1, 16).ok());

  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "store";
  net::WireKernelArg buffer_arg;
  buffer_arg.kind = net::WireKernelArg::Kind::kBuffer;
  buffer_arg.buffer_id = 1;
  net::WireKernelArg int_arg;
  int_arg.kind = net::WireKernelArg::Kind::kScalar;
  const std::int32_t v = -123456;
  int_arg.scalar_bytes.resize(4);
  std::memcpy(int_arg.scalar_bytes.data(), &v, 4);
  net::WireKernelArg char_arg;
  char_arg.kind = net::WireKernelArg::Kind::kScalar;
  const std::int8_t c = -7;
  char_arg.scalar_bytes.resize(1);
  std::memcpy(char_arg.scalar_bytes.data(), &c, 1);
  launch.args = {buffer_arg, int_arg, char_arg};
  launch.global[0] = 1;

  auto reply = session_->LaunchKernel(launch);
  ASSERT_EQ(reply.status_code, 0) << reply.error_message;
  auto read = session_->ReadBuffer(1, 0, 16);
  ASSERT_TRUE(read.ok());
  std::int64_t out[2];
  std::memcpy(out, read->data(), 16);
  EXPECT_EQ(out[0], -123456);
  EXPECT_EQ(out[1], -7);
}

TEST(DeviceSessionMemoryTest, PoolTracksResidencyAndEnforcesCapacity) {
  // A 1 KiB device: writes materialize regions, the ledger charges them,
  // and a write that would not fit fails as the device OOM it models.
  sim::DeviceSpec spec = sim::TeslaP4();
  spec.mem_capacity_bytes = 1024;
  auto driver = driver::MakeSimulatedDriver(spec);
  DeviceSession session(driver.get());
  ASSERT_TRUE(session.CreateBuffer(1, 4096).ok());  // Address space only.
  EXPECT_EQ(session.resident_bytes(), 0u);
  std::vector<std::uint8_t> chunk(512, 0xAB);
  ASSERT_TRUE(session.WriteBuffer(1, 0, chunk).ok());
  EXPECT_EQ(session.resident_bytes(), 512u);
  // Rewriting the same region charges nothing new.
  ASSERT_TRUE(session.WriteBuffer(1, 0, chunk).ok());
  EXPECT_EQ(session.resident_bytes(), 512u);
  ASSERT_TRUE(session.WriteBuffer(1, 512, chunk).ok());
  EXPECT_EQ(session.resident_bytes(), 1024u);
  // One more byte range would exceed the device.
  EXPECT_EQ(session.WriteBuffer(1, 1024, chunk).code(),
            ErrorCode::kMemObjectAllocationFailure);
  EXPECT_EQ(session.resident_bytes(), 1024u);
  EXPECT_EQ(session.Load().bytes_resident, 1024u);
  EXPECT_EQ(session.Load().mem_capacity_bytes, 1024u);

  // A host eviction notice releases the accounted bytes; a reservation
  // notice charges them back (discard migrations).
  net::MemoryNoticeRequest evict;
  evict.buffer_id = 1;
  evict.reserve = false;
  evict.regions = {{0, 512}};
  ASSERT_TRUE(session.MemoryNotice(evict).ok());
  EXPECT_EQ(session.resident_bytes(), 512u);
  net::MemoryNoticeRequest reserve;
  reserve.buffer_id = 1;
  reserve.reserve = true;
  reserve.regions = {{0, 256}};
  ASSERT_TRUE(session.MemoryNotice(reserve).ok());
  EXPECT_EQ(session.resident_bytes(), 768u);
  // Releasing the buffer frees its whole ledger.
  ASSERT_TRUE(session.ReleaseBuffer(1).ok());
  EXPECT_EQ(session.resident_bytes(), 0u);
}

TEST(DeviceSessionMemoryTest, KernelWritesChargeTheLedger) {
  sim::DeviceSpec spec = sim::TeslaP4();
  spec.mem_capacity_bytes = 1024;
  auto driver = driver::MakeSimulatedDriver(spec);
  DeviceSession session(driver.get());
  auto build = session.BuildProgram(1, R"(
    __kernel void fill(__global int* o) { o[get_global_id(0)] = 7; })");
  ASSERT_EQ(build.status_code, 0) << build.build_log;
  ASSERT_TRUE(session.CreateBuffer(1, 512).ok());
  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "fill";
  net::WireKernelArg arg;
  arg.kind = net::WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  arg.written_begin = 0;
  arg.written_end = 512;
  launch.args = {arg};
  launch.global[0] = 128;
  auto reply = session.LaunchKernel(launch);
  ASSERT_EQ(reply.status_code, 0) << reply.error_message;
  EXPECT_EQ(session.resident_bytes(), 512u);
  // A written range past the buffer end is rejected before execution.
  ASSERT_TRUE(session.CreateBuffer(2, 64).ok());
  arg.buffer_id = 2;
  arg.written_end = 128;
  launch.args = {arg};
  auto bad = session.LaunchKernel(launch);
  EXPECT_EQ(bad.status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidValue));
}

TEST(FpgaSessionTest, RequiresPrebuiltBitstream) {
  auto driver = driver::IcdRegistry::Instance().Create(NodeType::kFpga);
  ASSERT_TRUE(driver.ok());
  DeviceSession session(driver->get());
  auto build = session.BuildProgram(1, R"(
    __kernel void unknown_kernel(__global int* o) { o[0] = 1; })");
  ASSERT_EQ(build.status_code, 0);
  ASSERT_TRUE(session.CreateBuffer(1, 4).ok());
  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "unknown_kernel";
  net::WireKernelArg arg;
  arg.kind = net::WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  launch.args = {arg};
  launch.global[0] = 1;
  auto reply = session.LaunchKernel(launch);
  EXPECT_EQ(reply.status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidProgramExecutable));
  EXPECT_NE(reply.error_message.find("bitstream"), std::string::npos);
}

}  // namespace
}  // namespace haocl::runtime
