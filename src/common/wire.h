// Wire-format serialization for the communication backbone.
//
// Everything that crosses a node boundary (API-call message packages, data
// packages, responses) is encoded with these primitives: little-endian fixed
// width integers and length-prefixed byte strings. The format is deliberately
// simple so both the real TCP transport and the simulated transport share
// one codec, and so a truncated or corrupted frame is detected instead of
// read out of bounds.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace haocl {

// Overflow-safe range check shared by the API shim and the host runtime:
// true when [offset, offset + size) does not fit in [0, total). Written
// without computing offset + size, which could wrap.
[[nodiscard]] constexpr bool RangeExceeds(std::uint64_t offset,
                                          std::uint64_t size,
                                          std::uint64_t total) {
  return offset > total || size > total - offset;
}

// Append-only encoder.
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  template <typename T>
  void WriteFixed(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
  }

  void WriteU8(std::uint8_t v) { WriteFixed(v); }
  void WriteU16(std::uint16_t v) { WriteFixed(v); }
  void WriteU32(std::uint32_t v) { WriteFixed(v); }
  void WriteU64(std::uint64_t v) { WriteFixed(v); }
  void WriteI32(std::int32_t v) { WriteFixed(v); }
  void WriteI64(std::int64_t v) { WriteFixed(v); }
  void WriteF64(double v) { WriteFixed(v); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteString(std::string_view s) {
    WriteU32(static_cast<std::uint32_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  void WriteBytes(const void* data, std::size_t size) {
    WriteU64(size);
    const auto* p = static_cast<const unsigned char*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  void WriteByteVector(const std::vector<std::uint8_t>& v) {
    WriteBytes(v.data(), v.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const& {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> Take() && { return std::move(bytes_); }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked decoder over a borrowed byte span.
class WireReader {
 public:
  WireReader(const void* data, std::size_t size)
      : data_(static_cast<const std::uint8_t*>(data)), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  template <typename T>
  Expected<T> ReadFixed() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) return Truncated("fixed");
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  Expected<std::uint8_t> ReadU8() { return ReadFixed<std::uint8_t>(); }
  Expected<std::uint16_t> ReadU16() { return ReadFixed<std::uint16_t>(); }
  Expected<std::uint32_t> ReadU32() { return ReadFixed<std::uint32_t>(); }
  Expected<std::uint64_t> ReadU64() { return ReadFixed<std::uint64_t>(); }
  Expected<std::int32_t> ReadI32() { return ReadFixed<std::int32_t>(); }
  Expected<std::int64_t> ReadI64() { return ReadFixed<std::int64_t>(); }
  Expected<double> ReadF64() { return ReadFixed<double>(); }
  Expected<bool> ReadBool() {
    auto v = ReadU8();
    if (!v.ok()) return v.status();
    return *v != 0;
  }

  Expected<std::string> ReadString() {
    auto len = ReadU32();
    if (!len.ok()) return len.status();
    if (*len > remaining()) return Truncated("string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), *len);
    pos_ += *len;
    return s;
  }

  // A u64-length-prefixed byte string, as a view into the input (valid as
  // long as the input is).
  Expected<std::span<const std::uint8_t>> ReadByteSpan() {
    auto len = ReadU64();
    if (!len.ok()) return len.status();
    // Compared against what is left, never as pos_ + len: a hostile u64
    // length would wrap that sum.
    if (*len > remaining()) return Truncated("bytes");
    std::span<const std::uint8_t> bytes(data_ + pos_, *len);
    pos_ += *len;
    return bytes;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == size_; }

 private:
  static Status Truncated(const char* what) {
    return Status(ErrorCode::kProtocolError,
                  std::string("truncated wire data reading ") + what);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace haocl
