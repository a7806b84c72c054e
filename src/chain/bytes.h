// Byte-buffer helpers shared by the chain substrate: hex encoding and the
// chain archive, the little-endian serializer behind transaction/block
// hashing, the WAL, the ledger and contract state, and ABI payloads.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.h"

namespace tradefl::chain {

using Bytes = std::vector<std::uint8_t>;

std::string to_hex(const Bytes& bytes);
Bytes from_hex(const std::string& hex);  // throws std::invalid_argument on bad input

/// The chain archive's writer (see common/snapshot.h for the fields()
/// convention): fixed-width little-endian integers, u32 length prefixes for
/// blobs and strings, u64 container counts. The put_* primitives stay public
/// for the ABI's tag-dispatched value codec.
class ByteWriter : public ArchiveWriter<ByteWriter> {
 public:
  void put_u8(std::uint8_t value);
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_i64(std::int64_t value);
  void put_bytes(const Bytes& value);      // length-prefixed
  void put_bytes(const std::uint8_t* value, std::size_t size);  // same framing
  void put_string(const std::string& value);  // length-prefixed

  /// Pre-sizes the buffer for a known payload (hot hashing paths).
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  [[nodiscard]] const Bytes& data() const { return buffer_; }
  /// Moves the finished buffer out (no copy); the writer is left empty.
  [[nodiscard]] Bytes release() { return std::move(buffer_); }

 private:
  friend class ArchiveWriter<ByteWriter>;
  void put_blob(const std::uint8_t* value, std::size_t size) { put_bytes(value, size); }

  Bytes buffer_;
};

/// Mirror image of ByteWriter; throws std::out_of_range when reading past
/// the end and std::invalid_argument on a malformed field (an oversized
/// count, a bool or enum out of range, a fixed-size field of the wrong
/// length).
class ByteReader : public ArchiveReader<ByteReader> {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  Bytes get_bytes();
  std::string get_string();

  [[nodiscard]] std::size_t remaining() const { return data_.size() - offset_; }
  [[nodiscard]] bool exhausted() const { return offset_ == data_.size(); }

 private:
  friend class ArchiveReader<ByteReader>;
  [[nodiscard]] std::pair<const std::uint8_t*, std::size_t> take_blob();
  [[noreturn]] static void fail(const std::string& message);
  void require(std::size_t count) const;

  const Bytes& data_;
  std::size_t offset_ = 0;
};

}  // namespace tradefl::chain
