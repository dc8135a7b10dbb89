#include "common/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace haocl {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  WireWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteI64(-1234567890123ll);
  w.WriteF64(3.14159);
  w.WriteBool(true);
  w.WriteBool(false);

  WireReader r(w.bytes());
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0xBEEF);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*r.ReadI32(), -42);
  EXPECT_EQ(*r.ReadI64(), -1234567890123ll);
  EXPECT_DOUBLE_EQ(*r.ReadF64(), 3.14159);
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_FALSE(*r.ReadBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, StringAndBytesRoundTrip) {
  WireWriter w;
  w.WriteString("clEnqueueNDRangeKernel");
  w.WriteString("");
  std::vector<std::uint8_t> blob = {1, 2, 3, 0, 255};
  w.WriteByteVector(blob);

  WireReader r(w.bytes());
  EXPECT_EQ(*r.ReadString(), "clEnqueueNDRangeKernel");
  EXPECT_EQ(*r.ReadString(), "");
  EXPECT_TRUE(std::ranges::equal(*r.ReadByteSpan(), blob));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, TruncatedFixedFails) {
  WireWriter w;
  w.WriteU16(7);
  WireReader r(w.bytes());
  auto v = r.ReadU32();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), ErrorCode::kProtocolError);
}

TEST(WireTest, TruncatedStringFails) {
  WireWriter w;
  w.WriteU32(100);  // Claims 100 bytes, supplies none.
  WireReader r(w.bytes());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(WireTest, TruncatedByteVectorFails) {
  WireWriter w;
  w.WriteU64(1ULL << 40);  // Absurd length.
  WireReader r(w.bytes());
  EXPECT_FALSE(r.ReadByteSpan().ok());
}

// A length near 2^64 once wrapped the read position past the bounds check
// and handed std::vector a reversed range (std::length_error).
TEST(WireTest, WrappingByteVectorLengthFails) {
  WireWriter w;
  w.WriteU64(0);
  w.WriteU64(~std::uint64_t{0} - 15);  // pos + len wraps to 0.
  for (int i = 0; i < 32; ++i) w.WriteU8(0);
  WireReader r(w.bytes());
  ASSERT_TRUE(r.ReadU64().ok());
  auto bytes = r.ReadByteSpan();
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.code(), ErrorCode::kProtocolError);
}

TEST(WireTest, EmptyReaderAtEnd) {
  WireReader r(nullptr, 0);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.ReadU8().ok());
}

// Property: randomized mixed-field messages survive a round trip. This is
// the invariant the whole RPC protocol rests on.
TEST(WireTest, RandomizedRoundTripProperty) {
  std::mt19937_64 rng(12345);
  for (int iter = 0; iter < 200; ++iter) {
    WireWriter w;
    std::vector<int> kinds;
    std::vector<std::uint64_t> ints;
    std::vector<std::string> strings;
    std::vector<std::vector<std::uint8_t>> blobs;
    const int fields = 1 + static_cast<int>(rng() % 20);
    for (int i = 0; i < fields; ++i) {
      switch (rng() % 3) {
        case 0: {
          std::uint64_t v = rng();
          w.WriteU64(v);
          ints.push_back(v);
          kinds.push_back(0);
          break;
        }
        case 1: {
          std::string s(rng() % 64, 'a' + static_cast<char>(rng() % 26));
          w.WriteString(s);
          strings.push_back(s);
          kinds.push_back(1);
          break;
        }
        default: {
          std::vector<std::uint8_t> blob(rng() % 256);
          for (auto& b : blob) b = static_cast<std::uint8_t>(rng());
          w.WriteByteVector(blob);
          blobs.push_back(blob);
          kinds.push_back(2);
          break;
        }
      }
    }
    WireReader r(w.bytes());
    std::size_t ii = 0;
    std::size_t si = 0;
    std::size_t bi = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        ASSERT_EQ(*r.ReadU64(), ints[ii++]);
      } else if (kind == 1) {
        ASSERT_EQ(*r.ReadString(), strings[si++]);
      } else {
        ASSERT_TRUE(std::ranges::equal(*r.ReadByteSpan(), blobs[bi++]));
      }
    }
    ASSERT_TRUE(r.AtEnd());
  }
}

}  // namespace
}  // namespace haocl
