// One fully populated instance of every host <-> node message, with the
// bytes it encodes to. The hex is the wire format's reference: it was
// recorded from the per-message codecs that the field lists replaced, so
// any change to a field list that changes the bytes on the wire shows up
// here. The codec golden test and the decoder fuzzer both start from it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "net/protocol.h"

namespace haocl::net::golden {

template <typename T>
struct Sample {
  const char* name;
  T value;
  std::string_view hex;
};

inline std::string ToHex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xF];
  }
  return hex;
}

inline std::vector<std::uint8_t> FromHex(std::string_view hex) {
  auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 |
                                              nibble(hex[i + 1])));
  }
  return bytes;
}

inline LaunchKernelRequest UnhintedLaunch() {
  LaunchKernelRequest m;
  m.program_id = 3;
  m.kernel_name = "matmul_partition";
  WireKernelArg buffer;
  buffer.kind = WireKernelArg::Kind::kBuffer;
  buffer.buffer_id = 17;
  buffer.written_begin = 128;
  buffer.written_end = 640;
  WireKernelArg scalar;
  scalar.kind = WireKernelArg::Kind::kScalar;
  scalar.scalar_bytes = {0x2a, 0, 0, 0};
  WireKernelArg local;
  local.kind = WireKernelArg::Kind::kLocalSize;
  local.local_size = 1024;
  m.args = {buffer, scalar, local};
  m.work_dim = 2;
  m.global[0] = 256;
  m.global[1] = 128;
  m.local[0] = 16;
  m.local[1] = 8;
  m.global_offset[0] = 512;
  m.global_offset[1] = 64;
  m.local_specified = true;
  m.elastic_launch_id = 21;
  m.elastic_chunk_id = 4;
  return m;
}

inline LaunchKernelRequest HintedLaunch() {
  LaunchKernelRequest m = UnhintedLaunch();
  m.has_cost_hint = true;
  m.hint_flops = 2.5e9;
  m.hint_bytes = 1e6;
  m.hint_work_items = 256;
  m.hint_irregular = true;
  return m;
}

// Every message type once, LaunchKernelRequest twice (with and without
// its optional cost hint).
inline auto Samples() {
  WireKernelRate rate{"add1", 1.5e-9, 12};
  WireKernelRate rate2{"matmul", 3.25e-10, 4};
  BrokerTenantEntry tenant{7, "alice", 2.0, 1 << 20, 4096, 0.25, 1.5, 9, 1,
                           8};
  BrokerTenantEntry tenant2{8, "bob", 1.0, 0, 128, 0.0, 0.75, 3, 0, 3};
  return std::make_tuple(
      Sample<HelloRequest>{"HelloRequest", {"host-A", 3},
          "06000000686f73742d4103000000"},
      Sample<HelloReply>{"HelloReply",
                         {"gpu3", NodeType::kFpga, "Tesla P4", 5500.0, 192.0,
                          8ull << 30, 32, 2},
          "040000006770753302080000005465736c6120503400000000007cb540000000"
          "000000684000000000020000002000000002000000"},
      Sample<CreateBufferRequest>{"CreateBufferRequest", {11, 4096},
          "0b000000000000000010000000000000"},
      Sample<WriteBufferRequest>{
          "WriteBufferRequest", {11, 128, {9, 8, 7, 0, 255}},
          "0b000000000000008000000000000000050000000000000009080700ff"},
      Sample<ReadBufferRequest>{"ReadBufferRequest", {11, 64, 256},
          "0b0000000000000040000000000000000001000000000000"},
      Sample<ReleaseBufferRequest>{"ReleaseBufferRequest", {12},
          "0c00000000000000"},
      Sample<CopyBufferRequest>{"CopyBufferRequest", {1, 2, 10, 20, 30},
          "010000000000000002000000000000000a000000000000001400000000000000"
          "1e00000000000000"},
      Sample<PullSliceRequest>{"PullSliceRequest", {5, 1024, 2048, 3},
          "05000000000000000004000000000000000800000000000003000000"},
      Sample<PushSliceRequest>{"PushSliceRequest", {6, 4096, 512, 1},
          "06000000000000000010000000000000000200000000000001000000"},
      Sample<MemoryNoticeRequest>{
          "MemoryNoticeRequest", {9, true, {{0, 4096}, {8192, 1024}}},
          "0900000000000000010200000000000000000000000010000000000000002000"
          "00000000000004000000000000"},
      Sample<BuildProgramRequest>{
          "BuildProgramRequest",
          {4, "__kernel void k(__global int* d) { d[0] = 1; }"},
          "04000000000000002e0000005f5f6b65726e656c20766f6964206b285f5f676c"
          "6f62616c20696e742a206429207b20645b305d203d20313b207d"},
      Sample<BuildProgramReply>{
          "BuildProgramReply", {-11, "warning: unused", {"k", "add1"}},
          "f5ffffff0f0000007761726e696e673a20756e7573656402000000010000006b"
          "0400000061646431"},
      Sample<ReleaseProgramRequest>{"ReleaseProgramRequest", {4},
          "0400000000000000"},
      Sample<LaunchKernelRequest>{"LaunchKernelRequest (no hint)",
                                  UnhintedLaunch(),
          "0300000000000000100000006d61746d756c5f706172746974696f6e03000000"
          "0011000000000000008000000000000000800200000000000001040000000000"
          "00002a0000000200040000000000000200000000010000000000008000000000"
          "0000000100000000000000100000000000000008000000000000000100000000"
          "0000000002000000000000400000000000000000000000000000000100150000"
          "00000000000400000000000000"},
      Sample<LaunchKernelRequest>{"LaunchKernelRequest (hint)",
                                  HintedLaunch(),
          "0300000000000000100000006d61746d756c5f706172746974696f6e03000000"
          "0011000000000000008000000000000000800200000000000001040000000000"
          "00002a0000000200040000000000000200000000010000000000008000000000"
          "0000000100000000000000100000000000000008000000000000000100000000"
          "0000000002000000000000400000000000000000000000000000000101000000"
          "205fa0e2410000000080842e4100010000000000000115000000000000000400"
          "000000000000"},
      Sample<LaunchKernelReply>{
          "LaunchKernelReply",
          {-5, "out of resources", 0.125, 3.5, 1000000, 4096, 0.75, 2.5},
          "fbffffff100000006f7574206f66207265736f7572636573000000000000c03f"
          "0000000000000c4040420f00000000000010000000000000000000000000e83f"
          "0000000000000440"},
      Sample<RevokeChunkRequest>{"RevokeChunkRequest", {21, {4, 5, 9}},
          "1500000000000000030000000400000000000000050000000000000009000000"
          "00000000"},
      Sample<LoadReply>{"LoadReply",
                        {3, 2, 8192, 4096, 65536, 1.25, 17, 12288, 0.5, 0.25,
                         3.0, {rate, rate2}},
          "0300000002000000000000000020000000000000001000000000000000000100"
          "00000000000000000000f43f1100000000000000003000000000000000000000"
          "0000e03f000000000000d03f0000000000000840020000000400000061646431"
          "df413adc11c5193e0c00000000000000060000006d61746d756c284affe07555"
          "f63d0400000000000000"},
      Sample<ConfigureSessionRequest>{
          "ConfigureSessionRequest", {"alice", 2.0, 1 << 20},
          "05000000616c69636500000000000000400000100000000000"},
      Sample<BrokerStatsReply>{"BrokerStatsReply",
                               {1 << 30, 4224, 0.25, 3.0, 2.0,
                                {tenant, tenant2}, {rate, rate2}},
          "00000040000000008010000000000000000000000000d03f0000000000000840"
          "000000000000004002000000070000000000000005000000616c696365000000"
          "000000004000001000000000000010000000000000000000000000d03f000000"
          "000000f83f090000000000000001000000000000000800000000000000080000"
          "000000000003000000626f62000000000000f03f000000000000000080000000"
          "000000000000000000000000000000000000e83f030000000000000000000000"
          "000000000300000000000000020000000400000061646431df413adc11c5193e"
          "0c00000000000000060000006d61746d756c284affe07555f63d040000000000"
          "0000"},
      Sample<StatusReply>{"StatusReply", {-38, "no buffer 9"},
          "daffffff0b0000006e6f206275666665722039"});
}

}  // namespace haocl::net::golden
