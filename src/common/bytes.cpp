#include "common/bytes.hpp"

#include <cstdio>

namespace vp {

void ByteWriter::WriteU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::WriteF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::WriteBytes(std::span<const uint8_t> data) {
  WriteU32(static_cast<uint32_t>(data.size()));
  buf_.insert(buf_.end(), data.begin(), data.end());
}

Result<uint8_t> ByteReader::ReadU8() {
  if (!Need(1)) return ParseError("ReadU8 past end");
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  if (!Need(2)) return ParseError("ReadU16 past end");
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  if (!Need(4)) return ParseError("ReadU32 past end");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (!Need(8)) return ParseError("ReadU64 past end");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  auto v = ReadU64();
  if (!v.ok()) return v.error();
  return static_cast<int64_t>(*v);
}

Result<double> ByteReader::ReadF64() {
  auto bits = ReadU64();
  if (!bits.ok()) return bits.error();
  double v = 0.0;
  std::memcpy(&v, &*bits, sizeof(v));
  return v;
}

Result<std::string> ByteReader::ReadString() {
  auto len = ReadU32();
  if (!len.ok()) return len.error();
  if (!Need(*len)) return ParseError("ReadString past end");
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), *len);
  pos_ += *len;
  return s;
}

Result<Bytes> ByteReader::ReadBytes() {
  auto view = ReadBytesView();
  if (!view.ok()) return view.error();
  return Bytes(view->begin(), view->end());
}

Result<std::span<const uint8_t>> ByteReader::ReadBytesView() {
  auto len = ReadU32();
  if (!len.ok()) return len.error();
  if (!Need(*len)) return ParseError("ReadBytes past end");
  const std::span<const uint8_t> view = data_.subspan(pos_, *len);
  pos_ += *len;
  return view;
}

std::string HexDump(std::span<const uint8_t> data, size_t max_bytes) {
  std::string out;
  const size_t n = data.size() < max_bytes ? data.size() : max_bytes;
  char tmp[4];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(tmp, sizeof(tmp), "%02x", data[i]);
    out += tmp;
    if (i + 1 < n) out += ' ';
  }
  if (data.size() > max_bytes) out += " …";
  return out;
}

uint64_t Fnv1a(std::span<const uint8_t> data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace vp
