// Crash-consistent, versioned binary snapshots, and the byte archives every
// persisted type is encoded through. Every long-running pipeline (FedAvg/
// FedAsync training, CGBD solves, trading sessions, the chain WAL) persists
// its state through this layer instead of rolling its own ofstream format —
// tfl-lint enforces that.
//
// One field list per type. A persisted type T declares, next to T,
//
//   template <class Ar> void fields(Ar& ar, T& v) { ar(v.a, v.b, v.c); }
//
// and both directions visit it: `writer(value)` appends the fields in order,
// `reader(value)` reads them back in the same order, so the two halves of a
// codec cannot drift. The archives dispatch on the field's type:
//   * bool: one byte 0/1 (the reader rejects anything else);
//   * signed integers: i64 (the reader range-checks the narrowing);
//   * unsigned integers: their own width (u8 / u32 / u64);
//   * float / double: the IEEE-754 bit pattern (f32 / f64), NaNs included;
//   * std::string and std::vector<std::uint8_t>: a length-prefixed blob,
//     copied in bulk;
//   * std::vector, std::set, std::map: a u64 count, then the elements;
//   * std::optional: a bool, then the value when present;
//   * std::pair and std::array: the members in order, no count;
//   * any other class: its fields(), found by argument-dependent lookup.
// Enums must be wrapped: as_enum<Repr>(e, max) stores e as Repr and rejects a
// value above `max` on read. fixed_bytes(array) stores a byte array as a
// length-prefixed blob whose read-back length must match exactly. coded(v,
// encode, decode) stores a value kept in a hand-written codec (the chain
// ABI's tagged value lists) as the blob encode(v) returns.
//
// Every count is checked against the bytes left before anything is reserved
// (each element takes at least one byte), so a hostile count fails with the
// archive's error instead of allocating.
//
// Two archives share that dispatch and differ only in their framing:
//   * SnapshotWriter / SnapshotReader (here): u64 length prefixes; errors
//     throw SnapshotError. The payload of every snapshot file and checkpoint.
//   * chain::ByteWriter / ByteReader (chain/bytes.h): u32 length prefixes
//     for blobs and strings, u64 counts; the transaction/block hash bytes,
//     the WAL block records, the ledger and contract state.
//
// Snapshot file layout (all integers little-endian):
//
//   [u32 magic "TFLS"] [u32 schema version] [u64 kind length][kind bytes]
//   [u64 payload length][payload bytes] [u32 CRC32 over everything before it]
//
// Durability contract:
//   * write_snapshot_file writes to `<path>.tmp` and renames into place, so a
//     crash mid-write leaves either the old snapshot or the new one — never a
//     torn file.
//   * read_snapshot_file is strict: wrong magic, kind mismatch, a version
//     outside what the reader supports, truncation, or a CRC mismatch each
//     yield a typed Error (codes snapshot.magic / snapshot.kind /
//     snapshot.version / snapshot.truncated / snapshot.crc) and never partial
//     state.
//
// Layering: this lives in common/ and therefore emits no metrics itself;
// write_snapshot_file returns the byte count so call sites in fl/, chain/,
// and tradefl/ can feed the snapshot.{writes,bytes,resumes} counters.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"

namespace tradefl {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `size` bytes. `seed` lets
/// callers chain partial computations; pass the previous return value.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t seed = 0);
[[nodiscard]] std::uint32_t crc32(const std::vector<std::uint8_t>& data);

/// Thrown by SnapshotReader on overrun / malformed payloads; decode_snapshot
/// converts it into a typed Error so pipeline code never sees the exception.
class SnapshotError : public std::exception {
 public:
  explicit SnapshotError(std::string message) : message_(std::move(message)) {}
  [[nodiscard]] const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string message_;
};

// ----- field wrappers (see the header comment) -----

template <class Repr, class E>
struct EnumField {
  E& value;
  E max;
};

/// An enum stored as the unsigned `Repr`; reading a value above `max` fails.
template <class Repr, class E>
[[nodiscard]] EnumField<Repr, E> as_enum(E& value, E max) {
  static_assert(std::is_enum_v<E> && std::is_unsigned_v<Repr>);
  return {value, max};
}

template <std::size_t N>
struct FixedBytes {
  std::array<std::uint8_t, N>& bytes;
};

/// A byte array stored as a length-prefixed blob of exactly N bytes.
template <std::size_t N>
[[nodiscard]] FixedBytes<N> fixed_bytes(std::array<std::uint8_t, N>& bytes) {
  return {bytes};
}

template <class T>
struct Coded {
  T& value;
  std::vector<std::uint8_t> (*encode)(const T&);
  T (*decode)(const std::vector<std::uint8_t>&);
};

/// A value kept in a hand-written codec, stored as the blob encode(value).
template <class T>
[[nodiscard]] Coded<T> coded(T& value, std::vector<std::uint8_t> (*encode)(const T&),
                             T (*decode)(const std::vector<std::uint8_t>&)) {
  return {value, encode, decode};
}

// ----- the shared archive dispatch -----

/// Appends fields through Derived's primitives: put_u8 / put_u32 / put_u64
/// (little-endian) and put_blob (a length-prefixed byte run).
template <class Derived>
class ArchiveWriter {
 public:
  template <class... T>
  void operator()(const T&... values) {
    (write(values), ...);
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  template <class T>
  void write(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      self().put_u8(value ? 1 : 0);
    } else if constexpr (std::is_same_v<T, float>) {
      self().put_u32(std::bit_cast<std::uint32_t>(value));
    } else if constexpr (std::is_same_v<T, double>) {
      self().put_u64(std::bit_cast<std::uint64_t>(value));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      self().put_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      self().put_u8(value);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
      self().put_u32(value);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      self().put_u64(value);
    } else {
      static_assert(std::is_class_v<T>, "wrap enums in as_enum(); no other scalar encodes");
      // The one const_cast: fields() serves both directions, and a writer
      // only reads through it.
      fields(self(), const_cast<T&>(value));
    }
  }
  void write(const std::string& value) {
    self().put_blob(reinterpret_cast<const std::uint8_t*>(value.data()), value.size());
  }
  void write(const std::vector<std::uint8_t>& value) {
    self().put_blob(value.data(), value.size());
  }
  template <class T>
  void write(const std::vector<T>& values) {
    write_range(values);
  }
  template <class T>
  void write(const std::set<T>& values) {
    write_range(values);
  }
  template <class K, class V>
  void write(const std::map<K, V>& values) {
    write_range(values);
  }
  template <class T>
  void write(const std::optional<T>& value) {
    write(value.has_value());
    if (value.has_value()) write(*value);
  }
  template <class A, class B>
  void write(const std::pair<A, B>& value) {
    write(value.first);
    write(value.second);
  }
  template <class T, std::size_t N>
  void write(const std::array<T, N>& values) {
    for (const T& value : values) write(value);
  }
  template <class Repr, class E>
  void write(const EnumField<Repr, E>& field) {
    write(static_cast<Repr>(field.value));
  }
  template <std::size_t N>
  void write(const FixedBytes<N>& field) {
    self().put_blob(field.bytes.data(), N);
  }
  template <class T>
  void write(const Coded<T>& field) {
    write(field.encode(field.value));
  }

  template <class Range>
  void write_range(const Range& values) {
    self().put_u64(values.size());
    for (const auto& value : values) write(value);
  }
};

/// Strict mirror of ArchiveWriter through Derived's primitives: get_u8 /
/// get_u32 / get_u64, take_blob (a length-prefixed run, returned as a
/// pointer into the payload plus its size), remaining(), and fail(), which
/// throws the archive's error.
template <class Derived>
class ArchiveReader {
 public:
  /// Forwarding references so wrapper temporaries (as_enum, fixed_bytes,
  /// coded) bind; a const target does not compile.
  template <class... T>
  void operator()(T&&... values) {
    (read(values), ...);
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  template <class T>
  void read(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      const std::uint8_t raw = self().get_u8();
      if (raw > 1) self().fail("bool field holds " + std::to_string(raw));
      value = raw == 1;
    } else if constexpr (std::is_same_v<T, float>) {
      value = std::bit_cast<float>(self().get_u32());
    } else if constexpr (std::is_same_v<T, double>) {
      value = std::bit_cast<double>(self().get_u64());
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      const auto raw = static_cast<std::int64_t>(self().get_u64());
      if (!std::in_range<T>(raw)) {
        self().fail("integer field holds out-of-range " + std::to_string(raw));
      }
      value = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      value = self().get_u8();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
      value = self().get_u32();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      value = self().get_u64();
    } else {
      static_assert(std::is_class_v<T>, "wrap enums in as_enum(); no other scalar decodes");
      fields(self(), value);
    }
  }
  void read(std::string& value) {
    const auto [data, size] = self().take_blob();
    value.assign(reinterpret_cast<const char*>(data), size);
  }
  void read(std::vector<std::uint8_t>& value) {
    const auto [data, size] = self().take_blob();
    value.assign(data, data + size);
  }
  template <class T>
  void read(std::vector<T>& values) {
    const std::size_t count = take_count();
    values.clear();
    values.reserve(count);
    for (std::size_t i = 0; i < count; ++i) read(values.emplace_back());
  }
  template <class T>
  void read(std::set<T>& values) {
    const std::size_t count = take_count();
    values.clear();
    for (std::size_t i = 0; i < count; ++i) {
      T value{};
      read(value);
      values.insert(std::move(value));
    }
  }
  template <class K, class V>
  void read(std::map<K, V>& values) {
    const std::size_t count = take_count();
    values.clear();
    for (std::size_t i = 0; i < count; ++i) {
      K key{};
      V value{};
      read(key);
      read(value);
      values.insert_or_assign(std::move(key), std::move(value));
    }
  }
  template <class T>
  void read(std::optional<T>& value) {
    bool present = false;
    read(present);
    if (present) {
      read(value.emplace());
    } else {
      value.reset();
    }
  }
  template <class A, class B>
  void read(std::pair<A, B>& value) {
    read(value.first);
    read(value.second);
  }
  template <class T, std::size_t N>
  void read(std::array<T, N>& values) {
    for (T& value : values) read(value);
  }
  template <class Repr, class E>
  void read(EnumField<Repr, E>& field) {
    Repr raw = 0;
    read(raw);
    if (raw > static_cast<Repr>(field.max)) {
      self().fail("enum field holds out-of-range " + std::to_string(raw));
    }
    field.value = static_cast<E>(raw);
  }
  template <std::size_t N>
  void read(FixedBytes<N>& field) {
    const auto [data, size] = self().take_blob();
    if (size != N) {
      self().fail("fixed field of " + std::to_string(N) + " bytes holds " + std::to_string(size));
    }
    std::copy(data, data + N, field.bytes.begin());
  }
  template <class T>
  void read(Coded<T>& field) {
    std::vector<std::uint8_t> blob;
    read(blob);
    field.value = field.decode(blob);
  }

  std::size_t take_count() {
    const std::uint64_t count = self().get_u64();
    if (count > self().remaining()) {
      self().fail("count " + std::to_string(count) + " exceeds the " +
                  std::to_string(self().remaining()) + " bytes left");
    }
    return static_cast<std::size_t>(count);
  }
};

/// The snapshot archive's writer (u64 length prefixes). payload() hands the
/// bytes to write_snapshot_file.
class SnapshotWriter : public ArchiveWriter<SnapshotWriter> {
 public:
  [[nodiscard]] const std::vector<std::uint8_t>& payload() const { return buffer_; }

 private:
  friend class ArchiveWriter<SnapshotWriter>;

  void put_u8(std::uint8_t value) { buffer_.push_back(value); }
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_blob(const std::uint8_t* data, std::size_t size);

  std::vector<std::uint8_t> buffer_;
};

/// The snapshot archive's reader. Every overrun or oversized length prefix
/// throws SnapshotError immediately — a corrupt payload can never yield a
/// partially-plausible value.
class SnapshotReader : public ArchiveReader<SnapshotReader> {
 public:
  explicit SnapshotReader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}
  SnapshotReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - offset_; }

  /// Decoders call this last: trailing bytes mean the payload and the decoder
  /// disagree about the schema, which is corruption, not slack.
  void require_exhausted() const;

 private:
  friend class ArchiveReader<SnapshotReader>;

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::pair<const std::uint8_t*, std::size_t> take_blob();
  [[noreturn]] static void fail(const std::string& message);
  void require(std::size_t bytes) const;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t offset_ = 0;
};

/// Atomically persists `payload` under the snapshot framing. Returns the
/// total file size in bytes on success (callers feed snapshot.bytes).
Result<std::size_t> write_snapshot_file(const std::string& path, const std::string& kind,
                                        std::uint32_t version, const SnapshotWriter& payload);

/// Reads and fully validates a snapshot, returning the payload bytes.
/// `kind` must match what was written; `max_version` is the newest schema the
/// caller understands (older versions are the caller's job to migrate) and
/// `min_version` the oldest it accepts at all.
Result<std::vector<std::uint8_t>> read_snapshot_file(const std::string& path,
                                                     const std::string& kind,
                                                     std::uint32_t max_version,
                                                     std::uint32_t min_version = 0);

/// True when a regular file exists at `path` (resume=1 with no snapshot yet
/// is a cold start, not an error).
[[nodiscard]] bool snapshot_exists(const std::string& path);

/// Runs `decode(reader)` over a validated payload, converting any
/// SnapshotError into Error{"snapshot.decode", ...} so callers stay in
/// Result-land.
template <typename T, typename Decode>
Result<T> decode_snapshot(const std::vector<std::uint8_t>& payload, Decode&& decode) {
  SnapshotReader reader(payload);
  try {
    T value = decode(reader);
    reader.require_exhausted();
    return value;
  } catch (const SnapshotError& error) {
    return Error{"snapshot.decode", error.what()};
  }
}

}  // namespace tradefl
