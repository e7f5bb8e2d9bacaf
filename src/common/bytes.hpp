// Byte buffers and a small binary codec.
//
// Used for encoded frames and for sizing messages on the simulated
// network. The codec is little-endian, length-prefixed, and is
// deliberately simple — it only needs to round-trip our own types.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace vp {

using Bytes = std::vector<uint8_t>;

/// Append-only binary writer.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF64(double v);
  /// Length-prefixed (u32) string.
  void WriteString(std::string_view s);
  /// Length-prefixed (u32) blob.
  void WriteBytes(std::span<const uint8_t> data);

  size_t size() const { return buf_.size(); }
  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Sequential binary reader with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  Result<std::string> ReadString();
  Result<Bytes> ReadBytes();
  /// ReadBytes without the copy: a view into the reader's data.
  Result<std::span<const uint8_t>> ReadBytesView();

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Need(size_t n) const { return pos_ + n <= data_.size(); }
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Hex dump of up to `max_bytes` (diagnostics).
std::string HexDump(std::span<const uint8_t> data, size_t max_bytes = 32);

/// FNV-1a hash — used for content checksums in tests.
uint64_t Fnv1a(std::span<const uint8_t> data);

}  // namespace vp
