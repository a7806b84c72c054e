#include "chain/bytes.h"

#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace tradefl::chain {
namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

std::uint8_t hex_nibble(char c) {
  if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<std::uint8_t>(c - 'A' + 10);
  throw std::invalid_argument("from_hex: invalid hex digit");
}
}  // namespace

std::string to_hex(const Bytes& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out += kHexDigits[b >> 4];
    out += kHexDigits[b & 0xF];
  }
  return out;
}

Bytes from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hex_nibble(hex[i]) << 4) | hex_nibble(hex[i + 1])));
  }
  return out;
}

void ByteWriter::put_u8(std::uint8_t value) { buffer_.push_back(value); }

void ByteWriter::put_u32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void ByteWriter::put_u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
}

void ByteWriter::put_i64(std::int64_t value) { put_u64(static_cast<std::uint64_t>(value)); }

void ByteWriter::put_bytes(const Bytes& value) {
  put_bytes(value.data(), value.size());
}

void ByteWriter::put_bytes(const std::uint8_t* value, std::size_t size) {
  // The length prefix is u32; a silent narrowing here would make the payload
  // undecodable (and forge a wrong length for whatever follows).
  TFL_CHECK(size <= std::numeric_limits<std::uint32_t>::max(),
            "blob of ", size, " bytes exceeds u32 length prefix");
  put_u32(static_cast<std::uint32_t>(size));
  buffer_.insert(buffer_.end(), value, value + size);
}

void ByteWriter::put_string(const std::string& value) {
  TFL_CHECK(value.size() <= std::numeric_limits<std::uint32_t>::max(),
            "string of ", value.size(), " bytes exceeds u32 length prefix");
  put_u32(static_cast<std::uint32_t>(value.size()));
  buffer_.insert(buffer_.end(), value.begin(), value.end());
}

void ByteReader::require(std::size_t count) const {
  if (count > remaining()) throw std::out_of_range("ByteReader: truncated payload");
}

void ByteReader::fail(const std::string& message) {
  throw std::invalid_argument("ByteReader: " + message);
}

std::uint8_t ByteReader::get_u8() {
  require(1);
  return data_[offset_++];
}

std::uint32_t ByteReader::get_u32() {
  require(4);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= static_cast<std::uint32_t>(data_[offset_++]) << (8 * i);
  return value;
}

std::uint64_t ByteReader::get_u64() {
  require(8);
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= static_cast<std::uint64_t>(data_[offset_++]) << (8 * i);
  return value;
}

std::int64_t ByteReader::get_i64() { return static_cast<std::int64_t>(get_u64()); }

std::pair<const std::uint8_t*, std::size_t> ByteReader::take_blob() {
  const std::uint32_t size = get_u32();
  require(size);
  const std::uint8_t* start = data_.data() + offset_;
  offset_ += size;
  return {start, size};
}

Bytes ByteReader::get_bytes() {
  const auto [start, size] = take_blob();
  return Bytes(start, start + size);
}

std::string ByteReader::get_string() {
  const auto [start, size] = take_blob();
  return std::string(reinterpret_cast<const char*>(start), size);
}

}  // namespace tradefl::chain
